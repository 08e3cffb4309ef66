"""Serialization of pipeline products: cell layers, reports, manifests.

All writers are deterministic for identical inputs (sorted keys, fixed
newlines, repr-based float formatting), which is what makes byte-identical
re-runs possible. Each writes to a temporary name and then renames it over
the target, so a failed write never leaves a partial file under that name.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .classify import ClassifiedCell
from .errors import DataError
from .evaluate import TernaryPoint
from .geometry import PlanePoint
from .grid import CellAggregate, CellId
from .levels import DeprivationLevel, Surface
from .metrics import BuildingMetrics, ConnectorLine
from .projection import project_inverse

_CELL_FIELDS = [
    "i",
    "j",
    "level",
    "building_count",
    "mean_obstruction",
    "modal_surface",
    "empty",
]


def _lonlat(x: float, y: float) -> list[float]:
    g = project_inverse(PlanePoint(x, y))
    return [g.lon, g.lat]


def _cell_ring(cell: CellId, cell_size: float) -> list[list[float]]:
    x0 = cell.i * cell_size
    y0 = cell.j * cell_size
    x1 = x0 + cell_size
    y1 = y0 + cell_size
    return [_lonlat(x0, y0), _lonlat(x1, y0), _lonlat(x1, y1), _lonlat(x0, y1), _lonlat(x0, y0)]


@contextmanager
def _replacing(path: Path | str, newline: str | None = None) -> Iterator[TextIO]:
    """A text file written under a temporary name next to path.

    It replaces path only once the block completes, so an error part-way
    leaves the previous file, or none, and never a truncated one.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: Path | str, doc: object) -> None:
    with _replacing(path) as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def write_cells_geojson(
    path: Path | str, cells: Sequence[ClassifiedCell], cell_size: float
) -> None:
    features = [
        {
            "type": "Feature",
            "geometry": {
                "type": "Polygon",
                "coordinates": [_cell_ring(c.cell, cell_size)],
            },
            "properties": {
                "i": c.cell.i,
                "j": c.cell.j,
                "level": c.level.label,
                "building_count": c.building_count,
                "mean_obstruction": c.mean_obstruction,
                "modal_surface": c.modal_surface.value if c.modal_surface else None,
                "empty": c.empty,
            },
        }
        for c in cells
    ]
    write_json(path, {"type": "FeatureCollection", "features": features})


def write_cells_csv(path: Path | str, cells: Sequence[ClassifiedCell]) -> None:
    with _replacing(path, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(_CELL_FIELDS)
        for c in cells:
            writer.writerow(
                [
                    c.cell.i,
                    c.cell.j,
                    c.level.label,
                    c.building_count,
                    "" if c.mean_obstruction is None else repr(c.mean_obstruction),
                    c.modal_surface.value if c.modal_surface else "",
                    "true" if c.empty else "false",
                ]
            )


def read_cells_csv(path: Path | str) -> list[ClassifiedCell]:
    """Read a cell CSV back into ClassifiedCell records (evaluation input)."""
    cells: list[ClassifiedCell] = []
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            missing = [c for c in _CELL_FIELDS if c not in (reader.fieldnames or [])]
            if missing:
                raise DataError(f"{path}: missing cell columns: {', '.join(missing)}")
            for row in reader:
                mean = row["mean_obstruction"]
                modal = row["modal_surface"]
                cells.append(
                    ClassifiedCell(
                        cell=CellId(int(row["i"]), int(row["j"])),
                        level=DeprivationLevel.from_label(row["level"]),
                        building_count=int(row["building_count"]),
                        mean_obstruction=None if mean == "" else float(mean),
                        modal_surface=None if modal == "" else Surface(modal),
                    )
                )
    except OSError as exc:
        raise DataError(f"cannot read cells CSV {path}: {exc}") from exc
    except (ValueError, KeyError) as exc:
        raise DataError(f"malformed cells CSV {path}: {exc}") from exc
    return cells


def write_aggregates_csv(
    path: Path | str, aggregates: Mapping[CellId, CellAggregate]
) -> None:
    """Intermediate per-cell aggregates, before classification."""
    with _replacing(path, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["i", "j", "building_count", "mean_obstruction", "modal_surface"])
        for cell in sorted(aggregates):
            agg = aggregates[cell]
            writer.writerow(
                [
                    cell.i,
                    cell.j,
                    agg.building_count,
                    "" if agg.mean_obstruction is None else repr(agg.mean_obstruction),
                    agg.modal_surface.value if agg.modal_surface else "",
                ]
            )


def write_building_metrics_csv(
    path: Path | str, metrics: Sequence[BuildingMetrics]
) -> None:
    with _replacing(path, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(
            ["building_id", "obstruction_count", "nearest_surface", "road_distance", "road_id"]
        )
        for m in metrics:
            writer.writerow(
                [
                    m.building_id,
                    m.obstruction_count,
                    m.nearest_surface.value,
                    repr(m.road_distance),
                    m.road_id,
                ]
            )


def write_connectors_geojson(
    path: Path | str,
    connectors: Sequence[ConnectorLine],
    metrics_by_id: Mapping[int, BuildingMetrics],
) -> None:
    features = []
    for c in connectors:
        m = metrics_by_id[c.building_id]
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [
                        _lonlat(c.start.x, c.start.y),
                        _lonlat(c.end.x, c.end.y),
                    ],
                },
                "properties": {
                    "building_id": c.building_id,
                    "obstruction_count": m.obstruction_count,
                    "nearest_surface": m.nearest_surface.value,
                    "road_distance": c.road_distance,
                    "road_id": c.road_id,
                },
            }
        )
    write_json(path, {"type": "FeatureCollection", "features": features})


def write_ternary_csv(path: Path | str, points: Iterable[TernaryPoint]) -> None:
    with _replacing(path, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["i", "j", "p_low", "p_medium", "p_high", "n_votes"])
        for t in points:
            writer.writerow(
                [t.cell.i, t.cell.j, repr(t.p_low), repr(t.p_medium), repr(t.p_high), t.n_votes]
            )


def file_sha256(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()
