"""Building-level accessibility: connectors and obstruction counts.

For every building, a straight connector runs from its centroid to the
nearest point on the nearest motorable road. The accessibility value is the
number of distinct other buildings whose footprint touches that connector;
the nearest road also contributes its surface type. The metric is
deliberately distance-agnostic: only intersection topology matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .geometry import PlanePoint, Polygon, Segment, segment_intersects_polygon
from .ingest import Building, RoadSegment
from .levels import Surface
from .spatial_index import PolygonIndex, SegmentIndex


@dataclass(frozen=True)
class ConnectorLine:
    building_id: int
    start: PlanePoint
    end: PlanePoint
    road_id: int
    road_distance: float


@dataclass(frozen=True)
class BuildingMetrics:
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
    connector: ConnectorLine,
    building_index: PolygonIndex,
    footprints: Mapping[int, Polygon],
) -> int:
    """Distinct other buildings whose footprint touches the closed connector."""
    if connector.start == connector.end:
        return 0
    seg = Segment(connector.start, connector.end)
    count = 0
    for building_id in building_index.candidates_for_segment(seg):
        if building_id == connector.building_id:
            continue
        if segment_intersects_polygon(seg, footprints[building_id]):
            count += 1
    return count


def _metrics_for_building(
    building: Building,
    road_index: SegmentIndex,
    building_index: PolygonIndex,
    footprints: Mapping[int, Polygon],
    roads_by_id: Mapping[int, RoadSegment],
) -> BuildingMetrics:
    connector = build_connector(building, road_index)
    return BuildingMetrics(
        building_id=building.building_id,
        obstruction_count=count_obstructions(connector, building_index, footprints),
        nearest_surface=roads_by_id[connector.road_id].surface,
        road_distance=connector.road_distance,
        road_id=connector.road_id,
        road_point=connector.end,
    )


# Worker-process state, installed once per worker by the pool initializer.
_WORKER_STATE: tuple | None = None


def _init_worker(buildings, road_index, building_index, footprints, roads_by_id):
    global _WORKER_STATE
    _WORKER_STATE = (buildings, road_index, building_index, footprints, roads_by_id)


def _metrics_for_slice(bounds: tuple[int, int]) -> list[BuildingMetrics]:
    assert _WORKER_STATE is not None
    buildings, road_index, building_index, footprints, roads_by_id = _WORKER_STATE
    lo, hi = bounds
    return [
        _metrics_for_building(b, road_index, building_index, footprints, roads_by_id)
        for b in buildings[lo:hi]
    ]


def compute_all(
    buildings: Sequence[Building],
    road_index: SegmentIndex,
    building_index: PolygonIndex,
    roads: Iterable[RoadSegment],
    workers: int | None = None,
) -> list[BuildingMetrics]:
    """One BuildingMetrics per building, ordered by building_id.

    The per-building computation is pure against read-only indexes, so the
    result is identical for any worker count or input order.
    """
    if not buildings:
        return []
    footprints = {b.building_id: b.footprint for b in buildings}
    roads_by_id = {r.road_id: r for r in roads}
    if workers is None or workers <= 1 or len(buildings) < 2 * workers:
        results = [
            _metrics_for_building(b, road_index, building_index, footprints, roads_by_id)
            for b in buildings
        ]
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
            initargs=(list(buildings), road_index, building_index, footprints, roads_by_id),
        ) as pool:
            results = [m for part in pool.map(_metrics_for_slice, slices) for m in part]
    results.sort(key=lambda m: m.building_id)
    return results


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
