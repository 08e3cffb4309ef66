"""Building-level accessibility: connectors and obstruction counts.

For every building, a straight connector runs from its centroid to the
nearest point on the nearest motorable road. The accessibility value is the
number of distinct other buildings whose footprint touches that connector;
the nearest road also contributes its surface type. The metric is
deliberately distance-agnostic: only intersection topology matters.
"""

from __future__ import annotations

import os
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .geometry import PlanePoint, Segment
from .ingest import Building, RoadSegment
from .levels import Surface
from .spatial_index import PolygonIndex, SegmentIndex


class ConnectorLine(NamedTuple):
    building_id: int
    start: PlanePoint
    end: PlanePoint
    road_id: int
    road_distance: float


class BuildingMetrics(NamedTuple):
    building_id: int
    obstruction_count: int
    nearest_surface: Surface
    road_distance: float
    road_id: int
    road_point: PlanePoint  # the connector's end on the nearest road


def build_connector(building: Building, road_index: SegmentIndex) -> ConnectorLine:
    """Connector from the building centroid to its nearest motorable road."""
    road_id, point, distance = road_index.nearest(building.centroid)
    return ConnectorLine(building.building_id, building.centroid, point, road_id, distance)


def count_obstructions(
    building_id: int, start: PlanePoint, end: PlanePoint, building_index: PolygonIndex
) -> int:
    """Distinct other buildings whose footprint touches the closed connector
    from start to end; none for a zero-length connector."""
    if start == end:
        return 0
    return building_index.count_obstructions(Segment(start, end), building_id)


def _metric_row(
    building: Building, road_index: SegmentIndex, building_index: PolygonIndex
) -> tuple[int, int, int, float, float, float]:
    """(building_id, obstruction_count, road_id, road_distance, x, y) of the
    building, where (x, y) is the connector's end on the nearest road."""
    # build_connector's query, without the ConnectorLine
    start = building.centroid
    road_id, end, distance = road_index.nearest(start)
    return (
        building.building_id,
        count_obstructions(building.building_id, start, end, building_index),
        road_id,
        distance,
        end.x,
        end.y,
    )


# Worker-process state, installed once per worker by the pool initializer.
_WORKER_STATE: tuple | None = None


def _init_worker(buildings, road_index, building_index):
    global _WORKER_STATE
    _WORKER_STATE = (buildings, road_index, building_index)


def _rows_for_slice(bounds: tuple[int, int]) -> list[tuple]:
    # plain tuples: they pickle back to the parent far smaller and faster
    # than BuildingMetrics
    assert _WORKER_STATE is not None
    buildings, road_index, building_index = _WORKER_STATE
    lo, hi = bounds
    return [_metric_row(b, road_index, building_index) for b in buildings[lo:hi]]


def compute_all(
    buildings: Sequence[Building],
    road_index: SegmentIndex,
    building_index: PolygonIndex,
    roads: Iterable[RoadSegment],
    workers: int | None = None,
) -> list[BuildingMetrics]:
    """One BuildingMetrics per building, ordered by building_id.

    The per-building computation is pure against read-only indexes, so the
    result is identical for any worker count or input order. The pool gets
    at most one process per CPU: it starts all of them at once.
    """
    if not buildings:
        return []
    workers = min(workers or 1, os.cpu_count() or 1)
    if workers <= 1 or len(buildings) < 2 * workers:
        rows = [_metric_row(b, road_index, building_index) for b in buildings]
    else:
        # imported here so that a serial run never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, (len(buildings) + workers * 4 - 1) // (workers * 4))
        slices = [
            (lo, min(lo + chunk, len(buildings)))
            for lo in range(0, len(buildings), chunk)
        ]
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(list(buildings), road_index, building_index),
        ) as pool:
            rows = [row for part in pool.map(_rows_for_slice, slices) for row in part]
    rows.sort(key=itemgetter(0))
    # each row in place: the rows and the metrics are never all held at once
    surface = {r.road_id: r.surface for r in roads}
    for k, (bid, count, road_id, distance, x, y) in enumerate(rows):
        rows[k] = BuildingMetrics(bid, count, surface[road_id], distance, road_id, PlanePoint(x, y))
    return rows


def connectors_for(
    buildings: Sequence[Building], road_index: SegmentIndex
) -> list[ConnectorLine]:
    """Connectors for all buildings, ordered by building_id.

    The CLI takes connectors from compute_all's metrics instead; only
    perfbench/traced.py still calls this.
    """
    return sorted(
        (build_connector(b, road_index) for b in buildings),
        key=lambda c: c.building_id,
    )
