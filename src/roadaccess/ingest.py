"""Input loading: GeoJSON roads/buildings/boundary and the validation CSV.

Geometries arrive in lon/lat degrees (RFC 7946) and leave in projected
meters. Malformed features are skipped with a logged warning instead of
failing the run; callers that care about conservation pass a LoadStats to
collect total/loaded/skipped counts for the run summary.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DataError
from .geometry import (
    PlanePoint,
    Polygon,
    Polyline,
    point_in_rings,
    polygon_area,
    polygon_centroid,
    rect_polygon_distance,
)
from .grid import CellId
from .levels import DeprivationLevel, Surface, normalize_surface
from .projection import project_lonlat

log = logging.getLogger(__name__)

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
    geometry: Polyline
    road_class: str
    surface: Surface = Surface.UNKNOWN


class Building(NamedTuple):
    building_id: int
    footprint: Polygon
    centroid: PlanePoint
    confidence: float | None = None

    @classmethod
    def from_footprint(
        cls, building_id: int, footprint: Polygon, confidence: float | None = None
    ) -> "Building":
        return cls(building_id, footprint, polygon_centroid(footprint), confidence)


class ValidationRecord(NamedTuple):
    cell: CellId
    validator_id: str
    level: DeprivationLevel


class LoadStats:
    """Per-file conservation counters: total == loaded + skipped."""

    __slots__ = ("total", "loaded", "skipped", "records", "rejected_lines")

    def __init__(
        self,
        total: int = 0,
        loaded: int = 0,
        skipped: int = 0,
        records: int = 0,
        rejected_lines: list[int] | None = None,
    ):
        self.total = total
        self.loaded = loaded
        self.skipped = skipped
        self.records = records
        self.rejected_lines: list[int] = [] if rejected_lines is None else rejected_lines

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


def _read_geojson_features(path: Path | str) -> Iterator[object]:
    """The features of a GeoJSON document, each yielded once it is decoded.

    A FeatureCollection's features are decoded one at a time from the
    file's text, so the parsed document never sits in memory whole; a bare
    Feature or geometry document yields itself as one feature. The whole
    text is checked: bad JSON, text after the top-level value (RFC 8259),
    a duplicate 'features' key, a 'features' that is not a list and a
    'features' member outside a FeatureCollection (RFC 7946 section 7.1)
    raise DataError. The type is known only at the end, as writers that
    sort keys put 'features' first, so the last two wait for it.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8
        raise DataError(f"cannot read GeoJSON {path}: {exc}") from exc
    pos = _skip_ws(text, 0).end()
    if text[pos : pos + 1] != "{":
        # not an object: json.loads says why (BOM, bad JSON, other value)
        try:
            json.loads(text)
        except ValueError as exc:
            raise DataError(f"cannot read GeoJSON {path}: {exc}") from exc
        raise DataError(f"{path}: GeoJSON top level is not an object")
    members: dict = {}
    try:
        # the object walk of json.decoder.JSONObject, with the messages it raises
        pos = _skip_ws(text, pos + 1).end()
        if text[pos : pos + 1] == "}":
            pos += 1
        else:
            while True:
                if text[pos : pos + 1] != '"':
                    raise json.JSONDecodeError(
                        "Expecting property name enclosed in double quotes", text, pos
                    )
                key, pos = json.decoder.scanstring(text, pos + 1)
                pos = _skip_ws(text, pos).end()
                if text[pos : pos + 1] != ":":
                    raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
                pos = _skip_ws(text, pos + 1).end()
                if key == "features" and key in members:
                    # the first one's features may already be yielded
                    raise DataError(f"{path}: duplicate 'features' member")
                if key == "features" and text[pos : pos + 1] == "[":
                    members[key] = []  # streamed below, not kept
                    pos = _skip_ws(text, pos + 1).end()
                    if text[pos : pos + 1] == "]":
                        pos += 1
                    else:
                        while True:
                            feature, pos = _DECODER.raw_decode(text, pos)
                            yield feature
                            pos = _skip_ws(text, pos).end()
                            sep = text[pos : pos + 1]
                            if sep == "]":
                                pos += 1
                                break
                            if sep != ",":
                                raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
                            pos = _skip_ws(text, pos + 1).end()
                else:
                    members[key], pos = _DECODER.raw_decode(text, pos)
                pos = _skip_ws(text, pos).end()
                sep = text[pos : pos + 1]
                if sep == "}":
                    pos += 1
                    break
                if sep != ",":
                    raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
                pos = _skip_ws(text, pos + 1).end()
        pos = _skip_ws(text, pos).end()
        if pos != len(text):
            raise json.JSONDecodeError("Extra data", text, pos)
    except ValueError as exc:  # json.JSONDecodeError
        raise DataError(f"cannot read GeoJSON {path}: {exc}") from exc
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


def _project_line(coords: Sequence[Sequence[float]]) -> Polyline:
    it = iter(_project_positions(coords))
    return Polyline(map(PlanePoint, it, it))


def _project_ring(coords: Sequence[Sequence[float]]) -> list[float]:
    """Flat projected coordinates (x0, y0, x1, y1, ...) of a ring's positions."""
    flat = _project_positions(coords[:-1])
    last = coords[-1]
    if flat and last == coords[0]:
        # the closing position repeats the first: reuse its coordinates
        _lonlat(last)
        flat += flat[:2]
    else:
        flat += project_lonlat(*_lonlat(last))
    return flat


def _polygon_from_rings(rings: Sequence[Sequence[Sequence[float]]]) -> Polygon:
    if not rings:
        raise ValueError("polygon without rings")
    return Polygon(_project_ring(rings[0]), [_project_ring(r) for r in rings[1:]])


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


def _split_wkt_groups(body: str) -> list[str]:
    """Split 'a,b),(c,d' style WKT bodies at top-level commas."""
    groups: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            groups.append(body[start:i])
            start = i + 1
    groups.append(body[start:])
    return groups


def _parse_wkt_ring(text: str) -> list[list[float]]:
    ring = []
    for pair in text.strip().strip("()").split(","):
        xy = pair.split()
        ring.append([float(xy[0]), float(xy[1])])
    return ring


def parse_wkt_polygons(text: str) -> list[list[list[list[float]]]]:
    """Parse WKT POLYGON/MULTIPOLYGON into GeoJSON-style coordinate arrays."""
    text = text.strip()
    upper = text.upper()
    if upper.startswith("MULTIPOLYGON"):
        body = text[text.index("(") + 1 : text.rindex(")")]
        polygons = []
        for poly in _split_wkt_groups(body):
            poly = poly.strip()[1:-1]  # drop the polygon's own parentheses
            polygons.append([_parse_wkt_ring(ring) for ring in _split_wkt_groups(poly)])
        return polygons
    if upper.startswith("POLYGON"):
        body = text[text.index("(") + 1 : text.rindex(")")]
        return [[_parse_wkt_ring(ring) for ring in _split_wkt_groups(body)]]
    raise ValueError(f"unsupported WKT geometry: {text[:30]!r}")


def _building_polygons(geom: dict) -> list[Polygon]:
    gtype = geom.get("type")
    if gtype == "Polygon":
        return [_polygon_from_rings(geom["coordinates"])]
    if gtype == "MultiPolygon":
        # one building per part: the metric operates on individual structures
        return [_polygon_from_rings(rings) for rings in geom["coordinates"]]
    raise ValueError(f"unsupported geometry type {gtype!r}")


def load_buildings(
    path: Path | str,
    min_confidence: float | None = None,
    stats: LoadStats | None = None,
) -> list[Building]:
    """Load building footprints from GeoJSON or CSV-with-WKT.

    MultiPolygons split into one Building per part. When min_confidence is
    set, features carrying a lower confidence are dropped; features without
    a confidence value are always kept. A confidence that is a bool, NaN or
    infinite makes the feature malformed, so it is skipped.
    """
    stats = stats if stats is not None else LoadStats()
    if str(path).lower().endswith(".csv"):
        features = _read_building_csv_features(path)
    else:
        features = _read_geojson_features(path)
    buildings: list[Building] = []
    for n, feature in enumerate(features):
        stats.total += 1
        try:
            geom, props = _feature_parts(feature)
            raw_conf = props.get("confidence")
            confidence = None
            if raw_conf not in (None, ""):
                confidence = float(raw_conf)
                if isinstance(raw_conf, bool) or not math.isfinite(confidence):
                    raise ValueError(f"confidence must be a finite number, got {raw_conf!r}")
            if confidence is not None and min_confidence is not None and confidence < min_confidence:
                stats.loaded += 1  # valid feature, filtered by choice
                continue
            polygons = _building_polygons(geom)
        except (ValueError, TypeError, KeyError, IndexError, OverflowError) as exc:
            stats.skipped += 1
            log.warning("skipping building feature %d in %s: %s", n, path, exc)
            continue
        for poly in polygons:
            buildings.append(Building.from_footprint(len(buildings), poly, confidence))
        stats.loaded += 1
    stats.records = len(buildings)
    log.info(
        "buildings %s: %d features (%d loaded, %d skipped) -> %d buildings",
        path, stats.total, stats.loaded, stats.skipped, len(buildings),
    )
    return buildings


def _read_building_csv_features(path: Path | str) -> Iterator[dict]:
    """One GeoJSON-style feature per CSV row, carrying only its confidence."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            fieldnames = [fn.strip().lower() for fn in reader.fieldnames or []]
            geom_col = None
            for candidate in ("geometry", "wkt"):
                if candidate in fieldnames:
                    geom_col = (reader.fieldnames or [])[fieldnames.index(candidate)]
                    break
            if geom_col is None:
                raise DataError(f"{path}: no 'geometry' or 'wkt' column")
            conf_col = None
            if "confidence" in fieldnames:
                conf_col = (reader.fieldnames or [])[fieldnames.index("confidence")]
            for row in reader:
                wkt = row.get(geom_col) or ""
                feature: dict = {
                    "type": "Feature",
                    "properties": {"confidence": row.get(conf_col) if conf_col else None},
                }
                try:
                    polys = parse_wkt_polygons(wkt)
                    if len(polys) == 1:
                        feature["geometry"] = {"type": "Polygon", "coordinates": polys[0]}
                    else:
                        feature["geometry"] = {"type": "MultiPolygon", "coordinates": polys}
                except ValueError:
                    feature["geometry"] = {"type": "Invalid"}
                yield feature
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read buildings CSV {path}: {exc}") from exc


def load_boundary(path: Path | str) -> Polygon:
    """Load the analysis boundary polygon (single Polygon feature)."""
    features = _read_geojson_features(path)
    try:
        for feature in features:
            try:
                geom, _ = _feature_parts(feature)
            except ValueError:
                continue
            gtype = geom.get("type")
            try:
                if gtype == "Polygon":
                    poly = _polygon_from_rings(geom["coordinates"])
                elif gtype == "MultiPolygon" and len(geom["coordinates"]) == 1:
                    poly = _polygon_from_rings(geom["coordinates"][0])
                else:
                    continue
            except (ValueError, TypeError, KeyError, IndexError, OverflowError) as exc:
                raise DataError(f"{path}: malformed boundary polygon: {exc}") from exc
            if polygon_area(poly) < 1e-9:
                raise DataError(f"{path}: boundary polygon has no area")
            return poly
        raise DataError(f"{path}: no Polygon feature found for the boundary")
    finally:
        # The rest of the document is read either way: text after the first
        # polygon that is not valid GeoJSON raises its DataError instead.
        for _ in features:
            pass


def clip_to_boundary(
    buildings: Iterable[Building],
    roads: Iterable[RoadSegment],
    boundary: Polygon,
    road_margin_m: float = ROAD_CLIP_MARGIN_M,
) -> tuple[list[Building], list[RoadSegment]]:
    """Clip inputs to the boundary.

    Buildings are kept iff their centroid falls inside the boundary polygon.
    Roads are kept while within road_margin_m of the boundary, so segments
    just outside still serve nearest-road queries at the edge.
    """
    rings = boundary.rings
    kept_buildings = [b for b in buildings if point_in_rings(b.centroid.x, b.centroid.y, rings)]
    kept_roads = [
        r
        for r in roads
        if rect_polygon_distance(r.geometry.bounds(), boundary) <= road_margin_m
    ]
    return kept_buildings, kept_roads


_VALIDATION_COLUMNS = ("cell_i", "cell_j", "validator_id", "level")


def load_validations(
    path: Path | str, stats: LoadStats | None = None
) -> list[ValidationRecord]:
    """Load community validation votes from CSV.

    Level strings are case-folded onto the closed vocabulary; rows with an
    unknown level, an unparseable cell index or a blank or missing
    validator id are rejected, and their line numbers reported. Duplicate
    (cell, validator) rows keep the last occurrence: one person, one vote.
    """
    stats = stats if stats is not None else LoadStats()
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            missing = [c for c in _VALIDATION_COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise DataError(f"{path}: missing validation columns: {', '.join(missing)}")
            by_vote: dict[tuple[CellId, str], ValidationRecord] = {}
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
                by_vote[(cell, validator)] = ValidationRecord(cell, validator, level)
                stats.loaded += 1
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read validations CSV {path}: {exc}") from exc
    if stats.rejected_lines:
        log.error(
            "%s: rejected %d validation rows (lines %s)",
            path,
            len(stats.rejected_lines),
            ", ".join(str(n) for n in stats.rejected_lines),
        )
    records = list(by_vote.values())
    stats.records = len(records)
    return records
