"""Serialization of pipeline products: cell layers, reports, manifests.

All writers are deterministic for identical inputs (sorted keys, fixed
newlines, repr-based float formatting), which is what makes byte-identical
re-runs possible. Each writes to a temporary name and then renames it over
the target, so a failed write never leaves a partial file under that name.
The manifest's SHA-256 digests come from CPython's own implementation,
not from hashlib, whose OpenSSL would be the largest thing a run maps.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .classify import ClassifiedCell
from .errors import ConfigurationError, DataError
from .evaluate import TernaryPoint
from .grid import CellAggregate, CellId
from .levels import DeprivationLevel, Surface
from .metrics import BuildingMetrics, ConnectorLine
from .projection import clamp_to_bounds, inverse_lonlat

_CELL_FIELDS = [
    "i",
    "j",
    "level",
    "building_count",
    "mean_obstruction",
    "modal_surface",
    "empty",
]


def _cell_ring(cell: CellId, cell_size: float) -> list[str]:
    """lon, lat of the cell's four corners, as JSON numbers.

    A corner beyond the projection's edge (past the antimeridian or a pole)
    is moved onto the edge first: that part of the cell is not on Earth.
    """
    x0 = cell.i * cell_size
    y0 = cell.j * cell_size
    x1 = x0 + cell_size
    y1 = y0 + cell_size
    ring: list[str] = []
    for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
        ring += map(_json_value, inverse_lonlat(*clamp_to_bounds(x, y)))
    return ring


_INF = float("inf")


def _json_value(v: object) -> str:
    """A scalar as json.dump writes it by default: float and int repr,
    NaN and +-Infinity, true, false, null, ASCII-escaped strings."""
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == _INF:
            return "Infinity"
        if v == -_INF:
            return "-Infinity"
        return float.__repr__(v)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"not a JSON scalar: {v!r}")


def _feature_template(geometry_type: str, n_positions: int, properties: Sequence[str]) -> str:
    """A %-template of one feature as json.dump(indent=2, sort_keys=True)
    writes it inside a FeatureCollection's list.

    Its %s slots take JSON values: the lon and lat of each position in
    turn, then the properties in sorted order.
    """
    slot = "\0"
    positions = [[slot, slot]] * n_positions
    feature = {
        "type": "Feature",
        "geometry": {
            "type": geometry_type,
            "coordinates": [positions] if geometry_type == "Polygon" else positions,
        },
        "properties": dict.fromkeys(properties, slot),
    }
    text = json.dumps(feature, indent=2, sort_keys=True).replace("%", "%%")
    return text.replace("\n", "\n    ").replace(json.dumps(slot), "%s")


_CELL_FEATURE = _feature_template("Polygon", 5, _CELL_FIELDS)
_CONNECTOR_FEATURE = _feature_template(
    "LineString",
    2,
    ("building_id", "nearest_surface", "obstruction_count", "road_distance", "road_id"),
)


@contextmanager
def _replacing(path: Path | str, newline: str | None = None) -> Iterator[TextIO]:
    """A text file written under a temporary name next to path.

    It replaces path only once the block completes, so an error part-way
    leaves the previous file, or none, and never a truncated one.
    A file the output directory cannot take (the target a directory, no
    permission, a full disk) is a ConfigurationError naming the path.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _replacing(path, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def write_json(path: Path | str, doc: object) -> None:
    with _replacing(path) as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_feature_collection(path: Path | str, features: Iterable[str]) -> None:
    """A FeatureCollection of feature texts, written one at a time, with
    the bytes write_json gives the same document."""
    with _replacing(path) as f:
        f.write('{\n  "features": [')
        sep = "\n    "
        for text in features:
            f.write(sep)
            f.write(text)
            sep = ",\n    "
        f.write("]" if sep == "\n    " else "\n  ]")
        f.write(',\n  "type": "FeatureCollection"\n}\n')


def write_cells_geojson(
    path: Path | str, cells: Sequence[ClassifiedCell], cell_size: float
) -> None:
    def features() -> Iterator[str]:
        for c in cells:
            ring = _cell_ring(c.cell, cell_size)
            yield _CELL_FEATURE % (
                *ring,
                *ring[:2],  # the closing position
                _json_value(c.building_count),
                _json_value(c.empty),
                _json_value(c.cell.i),
                _json_value(c.cell.j),
                _json_value(c.level.label),
                _json_value(c.mean_obstruction),
                _json_value(c.modal_surface.value if c.modal_surface else None),
            )

    _write_feature_collection(path, features())


def write_cells_csv(path: Path | str, cells: Sequence[ClassifiedCell]) -> None:
    rows = (
        [
            c.cell.i,
            c.cell.j,
            c.level.label,
            c.building_count,
            "" if c.mean_obstruction is None else repr(c.mean_obstruction),
            c.modal_surface.value if c.modal_surface else "",
            "true" if c.empty else "false",
        ]
        for c in cells
    )
    _write_csv(path, _CELL_FIELDS, rows)


def read_cells_csv(path: Path | str) -> list[ClassifiedCell]:
    """Read a cell CSV back into ClassifiedCell records (evaluation input).
    A cell listed twice is a DataError: scoring would keep only one of its
    levels."""
    cells: list[ClassifiedCell] = []
    seen: set[CellId] = set()
    try:
        with open(path, newline="", encoding="utf-8-sig") as f:
            reader = csv.DictReader(f)
            missing = [c for c in _CELL_FIELDS if c not in (reader.fieldnames or [])]
            if missing:
                raise DataError(f"{path}: missing cell columns: {', '.join(missing)}")
            for row in reader:
                cell = CellId(int(row["i"]), int(row["j"]))
                if cell in seen:
                    raise DataError(f"{path}: line {reader.line_num}: cell ({cell.i}, {cell.j}) is listed twice")
                seen.add(cell)
                mean = row["mean_obstruction"]
                modal = row["modal_surface"]
                cells.append(
                    ClassifiedCell(
                        cell=cell,
                        level=DeprivationLevel.from_label(row["level"]),
                        building_count=int(row["building_count"]),
                        mean_obstruction=None if mean == "" else float(mean),
                        modal_surface=None if modal == "" else Surface(modal),
                    )
                )
    except OSError as exc:
        raise DataError(f"cannot read cells CSV {path}: {exc}") from exc
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DataError(f"malformed cells CSV {path}: line {reader.line_num}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:  # TypeError: a short row's None
        raise DataError(f"malformed cells CSV {path}: {exc}") from exc
    return cells


def write_aggregates_csv(
    path: Path | str, aggregates: Mapping[CellId, CellAggregate]
) -> None:
    """Intermediate per-cell aggregates, before classification, one row
    per cell in the mapping's order: grid.aggregate gives cell order."""
    rows = (
        [
            cell.i,
            cell.j,
            agg.building_count,
            "" if agg.mean_obstruction is None else repr(agg.mean_obstruction),
            agg.modal_surface.value if agg.modal_surface else "",
        ]
        for cell, agg in aggregates.items()
    )
    _write_csv(path, ["i", "j", "building_count", "mean_obstruction", "modal_surface"], rows)


def write_building_metrics_csv(path: Path | str, metrics: Iterable[Sequence]) -> None:
    """building_metrics.csv, one line per metric in the order given.

    Each metric starts (building_id, obstruction_count, nearest_surface,
    road_distance, road_id), as a BuildingMetrics and the CLI's rows do.
    """
    header = ["building_id", "obstruction_count", "nearest_surface", "road_distance", "road_id"]
    _write_csv(path, header, ([m[0], m[1], m[2].value, repr(m[3]), m[4]] for m in metrics))


def _end_lonlat(x: float, y: float) -> tuple[float, float]:
    """lon, lat of a connector end.

    A point projected from lon +-180 within about 10 m of a pole can invert
    just past lon 180, as asin and cos lose precision there; only such a
    point is moved onto the projection's edge, so every other end keeps
    inverse_lonlat's bytes.
    """
    try:
        return inverse_lonlat(x, y)
    except ValueError:
        return inverse_lonlat(*clamp_to_bounds(x, y))


def write_connector_rows(path: Path | str, rows: Iterable[Sequence]) -> None:
    """connectors.geojson, one LineString feature per row in the order given.

    Each row is (building_id, obstruction_count, nearest_surface,
    road_distance, road_id, x, y, road_x, road_y): a building's metrics,
    then its connector's two ends, from the centroid (x, y) to the nearest
    road at (road_x, road_y).
    """

    def features() -> Iterator[str]:
        for bid, count, surface, distance, road_id, x, y, road_x, road_y in rows:
            yield _CONNECTOR_FEATURE % (
                *map(_json_value, _end_lonlat(x, y)),
                *map(_json_value, _end_lonlat(road_x, road_y)),
                _json_value(bid),
                _json_value(surface.value),
                _json_value(count),
                _json_value(distance),
                _json_value(road_id),
            )

    _write_feature_collection(path, features())


def write_connectors_geojson(
    path: Path | str,
    connectors: Iterable[ConnectorLine],
    metrics_by_id: Mapping[int, BuildingMetrics],
) -> None:
    """write_connector_rows for connector records, each with the metrics of
    its building. Kept only for perfbench/traced.py and the tests, until
    ROADMAP item 2."""

    def rows() -> Iterator[tuple]:
        for c in connectors:
            m = metrics_by_id[c.building_id]
            yield (
                c.building_id, m.obstruction_count, m.nearest_surface, c.road_distance, c.road_id,
                *c.start, *c.end,
            )

    write_connector_rows(path, rows())


def write_ternary_csv(path: Path | str, points: Iterable[TernaryPoint]) -> None:
    rows = (
        [t.cell.i, t.cell.j, repr(t.p_low), repr(t.p_medium), repr(t.p_high), t.n_votes]
        for t in points
    )
    _write_csv(path, ["i", "j", "p_low", "p_medium", "p_high", "n_votes"], rows)


def _sha256():
    """A new SHA-256 hash object, from CPython's own implementation."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            # a build without them: hashlib maps OpenSSL, 3-4 MB of resident memory
            from hashlib import sha256
    return sha256()


def file_sha256(path: Path | str) -> str:
    digest = _sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()
