"""Input loading: GeoJSON roads/buildings/boundary and the validation CSV.

Geometries arrive in lon/lat degrees (RFC 7946) and leave in projected
meters. Malformed features are skipped with a warning on stderr instead of
failing the run; callers that care about conservation pass a LoadStats to
collect total/loaded/skipped counts for the run summary.

What loading holds is set by the data: a GeoJSON file is decoded from
fixed-size blocks of bytes and its features one at a time, and buildings
go straight into a columnar BuildingTable, with no record per building.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import re
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

from .buildings import BuildingTable
from .errors import DataError, Log
from .geometry import (
    ZERO_AREA_EPS_M2,
    Polygon,
    box_near_rings,
    close_flat,
    flat_bounds,
    point_in_rings,
    polygon_area,
    rings_centroid,
)
from .grid import CellId
from .levels import DeprivationLevel, Surface, normalize_surface
from .projection import project_lonlat

log = Log(__name__)

# Road classes a motorized vehicle can use; 'unknown' is kept because many
# motorable ways carry no class in the source data.
MOTORABLE_CLASSES = frozenset(
    {
        "living_street",
        "motorway",
        "primary",
        "residential",
        "secondary",
        "service",
        "tertiary",
        "trunk",
        "unclassified",
        "unknown",
    }
)

ROAD_CLIP_MARGIN_M = 500.0


class RoadSegment(NamedTuple):
    road_id: int
    # flat (x0, y0, x1, y1, ...): at least two vertices, none repeating the one before
    geometry: tuple[float, ...]
    road_class: str
    surface: Surface = Surface.UNKNOWN


class LoadStats:
    """Per-file conservation counters: total == loaded + skipped."""

    __slots__ = ("total", "loaded", "skipped", "records", "rejected_lines")

    def __init__(self) -> None:
        self.total = self.loaded = self.skipped = self.records = 0
        self.rejected_lines: list[int] = []

    def as_dict(self) -> dict:
        out = {
            "total": self.total,
            "loaded": self.loaded,
            "skipped": self.skipped,
            "records": self.records,
        }
        if self.rejected_lines:
            out["rejected_lines"] = list(self.rejected_lines)
        return out


_DECODER = json.JSONDecoder()
_skip_ws = json.decoder.WHITESPACE.match
# Bytes read from a GeoJSON file at a time. A read is at least as large as
# the text held unconsumed, so the reads double while one value spans them.
_BLOCK_BYTES = 1 << 16
# How far past a decoded value's end, or a decoding error, more text could
# change the outcome: the longest literal (-Infinity) and escape
# (\uXXXX\uXXXX) are shorter, and so is a number's cut-off suffix.
_LOOKAHEAD = 16


class _BlockText:
    """The UTF-8 text of a GeoJSON file, decoded from blocks of _BLOCK_BYTES.

    text holds what is read and not yet dropped, and pos is the next
    character to read in it. Reading more drops text[:pos] first, and
    counts the characters and lines it drops, so that where() gives a
    position from the start of the file, as in a walk of the whole text.
    Newlines are translated as in a file opened in text mode.
    """

    __slots__ = (
        "_file", "_path", "_decoder", "_bytes", "_chars", "_lines", "_line_start",
        "text", "pos", "eof", "bom",
    )

    def __init__(self, f: BinaryIO, path: Path | str):
        self._file = f
        self._path = path
        self._decoder = io.IncrementalNewlineDecoder(
            codecs.getincrementaldecoder("utf-8")(), translate=True
        )
        self._bytes = 0  # bytes read
        self._chars = 0  # characters dropped
        self._lines = 0  # newlines dropped
        self._line_start = 0  # file position of the first character after the last dropped newline
        self.text = ""
        self.pos = 0
        self.eof = False
        self.more()
        self.bom = self.text.startswith("\ufeff")

    def more(self) -> None:
        """Drop text[:pos], then read at least one more character unless
        the file ends: a block, or more if as much is held unconsumed."""
        text = self.text
        pos = self.pos
        self._lines += text.count("\n", 0, pos)
        nl = text.rfind("\n", 0, pos)
        if nl >= 0:
            self._line_start = self._chars + nl + 1
        self._chars += pos
        size = max(_BLOCK_BYTES, len(text) - pos)
        chunk = ""
        while not chunk and not self.eof:
            held = len(self._decoder.getstate()[0])  # bytes of a cut-off sequence
            try:
                data = self._file.read(size)
                self.eof = not data
                chunk = self._decoder.decode(data, final=self.eof)
            except UnicodeDecodeError as exc:
                self.eof = True  # nothing after the first bad byte is read
                start = self._bytes - held + exc.start
                raise DataError(f"cannot read GeoJSON {self._path}: {_decode_error(exc, start)}") from exc
            except OSError as exc:
                self.eof = True
                raise DataError(f"cannot read GeoJSON {self._path}: {exc}") from exc
            self._bytes += len(data)
        self.text = text[pos:] + chunk
        self.pos = 0

    def drain(self) -> None:
        """Decode the rest of the file, keeping none of it: a byte that is
        not UTF-8 anywhere in it raises its DataError, as the whole-text
        read did before any other error."""
        while not self.eof:
            self.pos = len(self.text)
            self.more()

    def next_char(self) -> str:
        """The next character after whitespace, with pos at it; '' at the end."""
        text = self.text
        pos = _skip_ws(text, self.pos).end()
        while pos == len(text) and not self.eof:
            self.pos = pos
            self.more()
            text = self.text
            pos = _skip_ws(text, 0).end()
        self.pos = pos
        return text[pos : pos + 1]

    def value(self, decode: Callable[[str, int], tuple] = _DECODER.raw_decode) -> object:
        """decode(text, pos)'s value, by default the JSON value at pos, with
        pos moved past it; decoded again with more text while text's end
        may have cut the value short."""
        while True:
            text = self.text
            try:
                value, end = decode(text, self.pos)
            except json.JSONDecodeError as exc:
                cut = exc.msg.startswith("Unterminated string") or exc.pos > len(text) - _LOOKAHEAD
                if self.eof or not cut:
                    raise
            except ValueError:  # an integer too long to convert: its length may change
                if self.eof:
                    raise
            else:
                if end <= len(text) - _LOOKAHEAD or self.eof:
                    self.pos = end
                    return value
            self.more()

    def key(self) -> str:
        """The string whose opening quote is at pos."""
        return self.value(lambda text, pos: json.decoder.scanstring(text, pos + 1))

    def error(self, msg: str) -> json.JSONDecodeError:
        return json.JSONDecodeError(msg, self.text, self.pos)

    def where(self, exc: ValueError) -> str:
        """exc's message, with a JSONDecodeError's position counted from
        the start of the file as json.JSONDecodeError counts it."""
        if not isinstance(exc, json.JSONDecodeError):
            return str(exc)
        pos = exc.pos
        nl = self.text.rfind("\n", 0, pos)
        line_start = self._line_start if nl < 0 else self._chars + nl + 1
        line = self._lines + self.text.count("\n", 0, pos) + 1
        char = self._chars + pos
        return f"{exc.msg}: line {line} column {char - line_start + 1} (char {char})"


def _decode_error(exc: UnicodeDecodeError, start: int) -> str:
    """str(exc) for the bad bytes at start, counted from the start of the file."""
    if exc.end - exc.start == 1:
        return (
            f"'{exc.encoding}' codec can't decode byte 0x{exc.object[exc.start]:02x} "
            f"in position {start}: {exc.reason}"
        )
    end = start + exc.end - exc.start - 1
    return f"'{exc.encoding}' codec can't decode bytes in position {start}-{end}: {exc.reason}"


def _json_items(src: _BlockText, close: str) -> Iterator[str]:
    """Walk the JSON array or object opened at src.pos as json.decoder does:
    yield each item's first character, with pos at it for the caller to
    consume the item, raise json's message on a bad separator, and end past
    close. A ',' is always followed by an item: a trailing comma fails there."""
    src.pos += 1
    first = src.next_char()
    if first != close:
        while True:
            yield first
            sep = src.next_char()
            if sep == close:
                break
            if sep != ",":
                raise src.error("Expecting ',' delimiter")
            src.pos += 1
            first = src.next_char()
    src.pos += 1


def _read_geojson_features(path: Path | str) -> Iterator[object]:
    """The features of a GeoJSON document, each yielded once it is decoded.

    The file is decoded from blocks of _BLOCK_BYTES, and a FeatureCollection's
    features one at a time, so neither its text nor the parsed document
    ever sits in memory whole; a bare Feature or geometry document yields
    itself as one feature. The whole document is checked: bad UTF-8, bad
    JSON, text after the top-level value (RFC 8259), a duplicate 'features'
    key, a 'features' that is not a list and a 'features' member outside a
    FeatureCollection (RFC 7946 section 7.1) raise DataError, with the
    message a walk of the whole text gives. The type is known only at the
    end, as writers that sort keys put 'features' first, so the last two
    wait for it. _json_items walks the object and 'features'.
    """
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read GeoJSON {path}: {exc}") from exc
    with f:
        src = _BlockText(f, path)
        members: dict = {}
        try:
            if src.next_char() != "{":
                # not an object: the error json.loads gives (BOM, bad JSON,
                # other value)
                if src.bom:
                    raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", src.text, 0)
                src.value()
                if src.next_char():
                    raise src.error("Extra data")
                raise DataError(f"{path}: GeoJSON top level is not an object")
            # the member walk of json.decoder.JSONObject, with the messages it raises
            for first in _json_items(src, "}"):
                if first != '"':
                    raise src.error("Expecting property name enclosed in double quotes")
                key = src.key()
                if src.next_char() != ":":
                    raise src.error("Expecting ':' delimiter")
                src.pos += 1
                start = src.next_char()
                if key == "features" and key in members:
                    # the first one's features may already be yielded
                    raise DataError(f"{path}: duplicate 'features' member")
                if key == "features" and start == "[":
                    members[key] = []  # streamed, not kept
                    for _ in _json_items(src, "]"):
                        yield src.value()
                else:
                    members[key] = src.value()
            if src.next_char():
                raise src.error("Extra data")
        except ValueError as exc:  # json.JSONDecodeError
            msg = src.where(exc)
            src.drain()
            raise DataError(f"cannot read GeoJSON {path}: {msg}") from exc
        except RecursionError as exc:  # arrays or objects nested too deeply to decode
            src.drain()
            raise DataError(f"cannot read GeoJSON {path}: JSON nested too deeply") from exc
        except DataError:
            src.drain()
            raise
    gtype = members.get("type")
    if gtype == "FeatureCollection":
        if not isinstance(members.get("features"), list):
            raise DataError(f"{path}: FeatureCollection 'features' is not a list")
    elif "features" in members:
        raise DataError(f"{path}: 'features' member outside a FeatureCollection")
    elif gtype == "Feature":
        yield members
    elif "type" in members and "coordinates" in members:  # bare geometry object
        yield {"type": "Feature", "geometry": members, "properties": {}}
    else:
        raise DataError(f"{path}: not a GeoJSON FeatureCollection, Feature, or geometry")


def _feature_parts(feature: object) -> tuple[dict, dict]:
    """(geometry, properties) of a feature, each {} when absent.

    Raises ValueError when the feature or either member is not an object.
    """
    if not isinstance(feature, dict):
        raise ValueError("feature is not an object")
    geom = feature.get("geometry") or {}
    props = feature.get("properties") or {}
    if not isinstance(geom, dict) or not isinstance(props, dict):
        raise ValueError("feature geometry or properties is not an object")
    return geom, props


_NUMBER_TYPES = (int, float)


def _lonlat(pos: Sequence[float]) -> tuple[float, float]:
    """lon, lat of a position: its first two members, each an int or float.

    A bool, a string or any other type raises ValueError, and a position
    with fewer than two members raises IndexError. Members after the second
    (altitude) are ignored.
    """
    lon = pos[0]
    lat = pos[1]
    if type(lon) not in _NUMBER_TYPES or type(lat) not in _NUMBER_TYPES:
        raise ValueError(f"position coordinates must be numbers, got {pos!r}")
    return lon, lat


def _project_positions(coords: Sequence[Sequence[float]]) -> list[float]:
    """Flat projected coordinates (x0, y0, x1, y1, ...) of positions, each
    checked as _lonlat checks it."""
    flat: list[float] = []
    for pos in coords:
        # _lonlat, inline: this runs once per input vertex
        lon = pos[0]
        lat = pos[1]
        if type(lon) not in _NUMBER_TYPES or type(lat) not in _NUMBER_TYPES:
            raise ValueError(f"position coordinates must be numbers, got {pos!r}")
        flat += project_lonlat(lon, lat)
    return flat


def _project_line(coords: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """Flat projected coordinates of a line's positions, each vertex that
    repeats the one before dropped."""
    flat = _project_positions(coords)
    line = flat[:2]
    for k in range(2, len(flat), 2):
        if flat[k] != line[-2] or flat[k + 1] != line[-1]:
            line += flat[k : k + 2]
    if len(line) < 4:
        raise ValueError("polyline needs at least two distinct consecutive vertices")
    return tuple(line)


def _project_rings(rings: Sequence[Sequence[Sequence[float]]]) -> list[list[float]]:
    """The flat projected rings (x0, y0, x1, y1, ...) of a GeoJSON polygon's
    coordinates, exterior first. A last position equal to the first is
    checked, not projected: it reuses the first vertex. Once all are
    projected, each is closed and checked as Polygon closes it."""
    if not rings:
        raise ValueError("polygon without rings")
    flats = []
    for coords in rings:
        flat = _project_positions(coords[:-1])
        last = coords[-1]
        if flat and last == coords[0]:
            _lonlat(last)
            flat += flat[:2]
        else:
            flat += project_lonlat(*_lonlat(last))
        flats.append(flat)
    for flat in flats:
        close_flat(flat)
    return flats


def load_roads(
    path: Path | str,
    class_property: str = "class",
    surface_property: str = "surface",
    stats: LoadStats | None = None,
) -> list[RoadSegment]:
    """Load road polylines from GeoJSON, splitting MultiLineStrings.

    Each LineString part becomes one RoadSegment with a fresh sequential id.
    The class attribute defaults to "unknown" when missing; the surface
    attribute is folded onto {paved, unpaved, unknown} via the alias table.
    """
    stats = stats if stats is not None else LoadStats()
    roads: list[RoadSegment] = []
    for n, feature in enumerate(_read_geojson_features(path)):
        stats.total += 1
        try:
            geom, props = _feature_parts(feature)
            raw_class = props.get(class_property)
            road_class = str(raw_class).strip().lower() if raw_class not in (None, "") else "unknown"
            surface = normalize_surface(props.get(surface_property))
            gtype = geom.get("type")
            if gtype == "LineString":
                parts = [geom["coordinates"]]
            elif gtype == "MultiLineString":
                parts = list(geom["coordinates"])
            else:
                raise ValueError(f"unsupported geometry type {gtype!r}")
            lines = [_project_line(part) for part in parts]
        except (ValueError, TypeError, KeyError, IndexError, OverflowError) as exc:
            stats.skipped += 1
            log.warning("skipping road feature %d in %s: %s", n, path, exc)
            continue
        for line in lines:
            roads.append(RoadSegment(len(roads), line, road_class, surface))
        stats.loaded += 1
    stats.records = len(roads)
    log.info(
        "roads %s: %d features (%d loaded, %d skipped) -> %d segments",
        path, stats.total, stats.loaded, stats.skipped, len(roads),
    )
    return roads


def filter_motorable(roads: Iterable[RoadSegment]) -> list[RoadSegment]:
    """Keep only road classes accessible to motorized vehicles."""
    return [r for r in roads if r.road_class in MOTORABLE_CLASSES]


# a WKT token: a parenthesis, a comma, or one of a position's numbers
_WKT_TOKEN = re.compile(r"[(),]|[^\s(),]+")


def parse_wkt_polygons(text: str) -> list[list[list[list[float]]]]:
    """Parse WKT POLYGON/MULTIPOLYGON into GeoJSON-style coordinate arrays.

    The parenthesised, comma-separated lists must nest as the type says (a
    POLYGON's rings of positions, a MULTIPOLYGON's polygons of rings), with
    nothing after them. A position's numbers after the first two (Z, M) are
    ignored. Anything else raises ValueError.
    """
    text = text.strip()
    upper = text.upper()
    if not upper.startswith(("MULTIPOLYGON", "POLYGON")):
        raise ValueError(f"unsupported WKT geometry: {text[:30]!r}")
    start = text.find("(")
    if start < 0 or text.count("(", start) != text.count(")", start):
        raise ValueError(f"unbalanced parentheses in WKT geometry: {text[:30]!r}")
    tokens = _WKT_TOKEN.findall(text, start)
    malformed = f"malformed WKT geometry: {text[:30]!r}"
    k = 0  # the next token; inside a list, as the parentheses balance, a ')' is left

    def coords(depth: int) -> list:
        # the coordinates at tokens[k], nested depth lists deep (0: a position)
        nonlocal k
        if depth == 0:
            first = k
            while tokens[k] not in "(),":
                k += 1
            if k - first < 2:
                raise ValueError(f"WKT position needs two numbers, got {' '.join(tokens[first:k])!r}")
            return [float(tokens[first]), float(tokens[first + 1])]
        items = []
        while tokens[k] == ("," if items else "("):
            k += 1
            items.append(coords(depth - 1))
        if not items or tokens[k] != ")":
            raise ValueError(malformed)
        k += 1
        return items

    multi = upper.startswith("M")
    polygons = coords(3 if multi else 2)
    if k != len(tokens):
        raise ValueError(malformed)
    return polygons if multi else [polygons]


def _geojson_polygons(geom: dict) -> list:
    """The coordinates of each polygon of a GeoJSON Polygon or MultiPolygon."""
    gtype = geom.get("type")
    if gtype == "Polygon":
        return [geom["coordinates"]]
    if gtype == "MultiPolygon":
        # one building per part: the metric operates on individual structures
        return geom["coordinates"]
    raise ValueError(f"unsupported geometry type {gtype!r}")


def _building_parts(polygons: list) -> list[tuple[list[list[float]], float, float]]:
    """(rings, centroid x, centroid y) of each polygon's footprint."""
    parts = []
    for coords in polygons:
        flats = _project_rings(coords)
        x, y = rings_centroid(flats)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite centroid ({x!r}, {y!r})")
        parts.append((flats, x, y))
    return parts


def load_buildings(
    path: Path | str,
    min_confidence: float | None = None,
    stats: LoadStats | None = None,
) -> BuildingTable:
    """Load building footprints from GeoJSON or CSV-with-WKT into a table.

    MultiPolygons split into one building per part, with ids 0, 1, ... in
    input order. When min_confidence is set, features carrying a lower
    confidence are dropped; features without a confidence value are always
    kept. A confidence that is a bool, NaN or infinite makes the feature
    malformed, so it is skipped, as is a footprint whose centroid is not
    finite.
    """
    stats = stats if stats is not None else LoadStats()
    from_csv = str(path).lower().endswith(".csv")
    features = _read_building_csv_rows(path) if from_csv else _read_geojson_features(path)
    buildings = BuildingTable()
    for n, feature in enumerate(features):
        stats.total += 1
        try:
            geom, props = feature if from_csv else _feature_parts(feature)
            raw_conf = props.get("confidence")
            confidence = None
            if raw_conf not in (None, ""):
                confidence = float(raw_conf)
                if isinstance(raw_conf, bool) or not math.isfinite(confidence):
                    raise ValueError(f"confidence must be a finite number, got {raw_conf!r}")
            if confidence is not None and min_confidence is not None and confidence < min_confidence:
                stats.loaded += 1  # valid feature, filtered by choice
                continue
            parts = _building_parts(parse_wkt_polygons(geom) if from_csv else _geojson_polygons(geom))
        except (ValueError, TypeError, KeyError, IndexError, OverflowError) as exc:
            stats.skipped += 1
            log.warning("skipping building feature %d in %s: %s", n, path, exc)
            continue
        for rings, x, y in parts:
            buildings.append(len(buildings.ids), rings, x, y)
        stats.loaded += 1
    stats.records = len(buildings)
    log.info(
        "buildings %s: %d features (%d loaded, %d skipped) -> %d buildings",
        path, stats.total, stats.loaded, stats.skipped, len(buildings),
    )
    return buildings


# A footprint's WKT is one CSV field, as long as the footprint needs: the csv
# module's default limit (131,072 characters) would refuse one GeoJSON loads.
_CSV_FIELD_LIMIT = 2**31 - 1  # a C long on every platform


def _read_building_csv_rows(path: Path | str) -> Iterator[tuple[str, dict]]:
    """(WKT text, properties) of each CSV row, the properties holding only
    its confidence; load_buildings parses the WKT of the rows it keeps.
    A UTF-8 byte order mark (spreadsheet exports) is skipped. The csv
    module's field size limit is _CSV_FIELD_LIMIT until the rows are read."""
    limit = csv.field_size_limit(_CSV_FIELD_LIMIT)
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.DictReader(f)
            columns: dict[str, str] = {}  # folded name: the first column with that name
            for name in reader.fieldnames or []:
                columns.setdefault(name.strip().lower(), name)
            geom_col = columns.get("geometry") or columns.get("wkt")
            if geom_col is None:
                raise DataError(f"{path}: no 'geometry' or 'wkt' column")
            conf_col = columns.get("confidence")
            for row in reader:
                confidence = row.get(conf_col) if conf_col else None
                yield row.get(geom_col) or "", {"confidence": confidence}
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read buildings CSV {path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a NUL byte, before Python 3.11
        raise DataError(f"cannot read buildings CSV {path}: line {reader.line_num}: {exc}") from exc
    finally:
        csv.field_size_limit(limit)


def load_boundary(path: Path | str) -> Polygon:
    """Load the analysis boundary polygon: the first Polygon feature, or
    MultiPolygon of one part."""
    features = _read_geojson_features(path)
    parts = 0  # of the first MultiPolygon with several, named if no polygon is found
    try:
        for feature in features:
            try:
                try:
                    polygons = _geojson_polygons(_feature_parts(feature)[0])
                except ValueError:  # not an object, or neither a Polygon nor a MultiPolygon
                    continue
                if len(polygons) != 1:  # a MultiPolygon of several parts, or of none
                    parts = parts or len(polygons)
                    continue
                rings = _project_rings(polygons[0])
                poly = Polygon(rings[0], rings[1:])
            except (ValueError, TypeError, KeyError, IndexError, OverflowError) as exc:
                raise DataError(f"{path}: malformed boundary polygon: {exc}") from exc
            if polygon_area(poly) < ZERO_AREA_EPS_M2:
                raise DataError(f"{path}: boundary polygon has no area")
            return poly
        if parts:
            raise DataError(f"{path}: boundary MultiPolygon has {parts} parts; one polygon is required")
        raise DataError(f"{path}: no Polygon feature found for the boundary")
    finally:
        # The rest of the document is read either way: text after the first
        # polygon that is not valid GeoJSON raises its DataError instead.
        for _ in features:
            pass


def clip_to_boundary(
    buildings: BuildingTable,
    roads: Iterable[RoadSegment],
    boundary: Polygon,
) -> tuple[BuildingTable, list[RoadSegment]]:
    """Clip inputs to the boundary.

    Buildings are kept iff their centroid falls inside the boundary polygon;
    the table is compacted in place and returned. Roads are kept while their
    bounding box lies within ROAD_CLIP_MARGIN_M of the boundary's area
    (box_near_rings), so segments just outside still serve nearest-road
    queries at the edge.
    """
    rings = boundary.rings
    buildings.compact([point_in_rings(x, y, rings) for x, y in zip(buildings.xs, buildings.ys)])
    kept_roads = [r for r in roads if box_near_rings(flat_bounds(r.geometry), rings, ROAD_CLIP_MARGIN_M)]
    return buildings, kept_roads


_VALIDATION_COLUMNS = ("cell_i", "cell_j", "validator_id", "level")


def load_validations(
    path: Path | str, stats: LoadStats | None = None
) -> dict[CellId, list[DeprivationLevel]]:
    """Load community validation votes from CSV: each validated cell's
    votes, in cell order.

    Level strings are case-folded onto the closed vocabulary; rows with an
    unknown level, an unparseable cell index or a blank or missing
    validator id are rejected, and their line numbers reported. Duplicate
    (cell, validator) rows keep the last occurrence: one person, one vote.
    A cell's votes come in the order each validator first voted on it.
    stats.records counts the votes kept. A UTF-8 byte order mark
    (spreadsheet exports) is skipped.
    """
    stats = stats if stats is not None else LoadStats()
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.DictReader(f)
            missing = [c for c in _VALIDATION_COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise DataError(f"{path}: missing validation columns: {', '.join(missing)}")
            by_vote: dict[tuple[CellId, str], DeprivationLevel] = {}
            for row in reader:
                stats.total += 1
                try:
                    cell = CellId(int(row["cell_i"]), int(row["cell_j"]))
                    level = DeprivationLevel.from_label(row["level"])
                    validator = (row["validator_id"] or "").strip()
                    if not validator:
                        raise ValueError("blank validator id")
                except (ValueError, TypeError):
                    stats.skipped += 1
                    stats.rejected_lines.append(reader.line_num)
                    continue
                by_vote[(cell, validator)] = level
                stats.loaded += 1
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read validations CSV {path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DataError(f"cannot read validations CSV {path}: line {reader.line_num}: {exc}") from exc
    if stats.rejected_lines:
        log.error(
            "%s: rejected %d validation rows (lines %s)",
            path,
            len(stats.rejected_lines),
            ", ".join(str(n) for n in stats.rejected_lines),
        )
    stats.records = len(by_vote)
    votes: dict[CellId, list[DeprivationLevel]] = {}
    for (cell, _), level in by_vote.items():
        votes.setdefault(cell, []).append(level)
    return {cell: votes[cell] for cell in sorted(votes)}
