import math
import random

import pytest

from roadaccess.errors import ConfigurationError
from roadaccess.geometry import PlanePoint, Polygon, Polyline, nearest_point_on_segment
from roadaccess.ingest import Building, RoadSegment
from roadaccess.levels import Surface
from roadaccess.metrics import build_connector, compute_all, count_obstructions
from roadaccess.spatial_index import PolygonIndex, SegmentIndex

from _scenes import brute_metrics, random_scene, road_segments


def plane_square(building_id, cx, cy, half=5.0):
    ring = [
        PlanePoint(cx - half, cy - half),
        PlanePoint(cx + half, cy - half),
        PlanePoint(cx + half, cy + half),
        PlanePoint(cx - half, cy + half),
    ]
    return Building.from_footprint(building_id, Polygon(ring))


def horizontal_road(road_id, y, x0=-1000.0, x1=1000.0, surface=Surface.PAVED):
    return RoadSegment(
        road_id, Polyline([PlanePoint(x0, y), PlanePoint(x1, y)]), "residential", surface
    )


def test_connector_perpendicular_drop():
    b = plane_square(0, 0, 50)
    idx = SegmentIndex([horizontal_road(0, 0)])
    c = build_connector(b, idx)
    assert c.start == PlanePoint(0, 50)
    assert c.end == PlanePoint(0, 0)
    assert c.road_distance == 50.0
    assert c.road_id == 0


def test_connector_zero_length_when_centroid_on_road():
    b = plane_square(0, 0, 0)  # centroid (0, 0) lies on the road
    idx = SegmentIndex([horizontal_road(0, 0)])
    c = build_connector(b, idx)
    assert c.start == c.end
    assert c.road_distance == 0.0
    # zero-length connectors count no obstructions, even overlapping ones
    blocker = plane_square(1, 0, 0)
    pidx = PolygonIndex([b, blocker])
    footprints = {x.building_id: x.footprint for x in (b, blocker)}
    assert count_obstructions(c, pidx, footprints) == 0


def test_connector_tie_prefers_lower_road_id():
    b = plane_square(0, 0, 0, half=1.0)
    idx = SegmentIndex([horizontal_road(0, 10), horizontal_road(1, -10)])
    assert build_connector(b, idx).road_id == 0


def test_count_obstructions_single_blocker():
    road = horizontal_road(0, 0)
    source = plane_square(0, 0, 50)
    blocker = plane_square(1, 0, 25)  # square [-5,5]x[20,30]
    bystander = plane_square(2, 40, 25)
    buildings = [source, blocker, bystander]
    idx = SegmentIndex([road])
    pidx = PolygonIndex(buildings)
    footprints = {b.building_id: b.footprint for b in buildings}
    c = build_connector(source, idx)
    assert count_obstructions(c, pidx, footprints) == 1


def test_count_obstructions_counts_distinct_buildings_once():
    # U-shaped footprint crossed twice by the connector still counts once
    road = horizontal_road(0, 0)
    source = plane_square(0, 0, 60)
    u_shape = Polygon(
        [
            PlanePoint(-10, 20),
            PlanePoint(10, 20),
            PlanePoint(10, 40),
            PlanePoint(6, 40),
            PlanePoint(6, 24),
            PlanePoint(-6, 24),
            PlanePoint(-6, 40),
            PlanePoint(-10, 40),
        ]
    )
    blocker = Building.from_footprint(1, u_shape)
    buildings = [source, blocker]
    c = build_connector(source, SegmentIndex([road]))
    pidx = PolygonIndex(buildings)
    footprints = {b.building_id: b.footprint for b in buildings}
    assert count_obstructions(c, pidx, footprints) == 1


def test_overlapping_footprints_still_count():
    # digitization noise: a neighbor overlapping the source still obstructs
    road = horizontal_road(0, 0)
    source = plane_square(0, 0, 50, half=6.0)
    overlapper = plane_square(1, 0, 42, half=6.0)  # overlaps source, crosses connector
    buildings = [source, overlapper]
    c = build_connector(source, SegmentIndex([road]))
    pidx = PolygonIndex(buildings)
    footprints = {b.building_id: b.footprint for b in buildings}
    assert count_obstructions(c, pidx, footprints) == 1


def test_connector_end_lies_on_road_geometry():
    rng = random.Random(61)
    buildings, roads = random_scene(rng, 40, 10)
    road_index = SegmentIndex(roads)
    by_id = {r.road_id: r for r in roads}
    for b in buildings:
        c = build_connector(b, road_index)
        gap = min(
            nearest_point_on_segment(c.end, seg)[1]
            for seg in road_segments(by_id[c.road_id])
        )
        assert gap < 1e-6
        assert c.road_distance == math.hypot(
            c.start.x - c.end.x, c.start.y - c.end.y
        )


def test_surface_comes_from_closest_road():
    b = plane_square(0, 0, 50)
    roads = [
        horizontal_road(0, 0, surface=Surface.UNPAVED),
        horizontal_road(1, 200, surface=Surface.PAVED),
    ]
    (m,) = run_pipeline([b], roads)
    assert m.road_id == 0
    assert m.nearest_surface is Surface.UNPAVED


def formal_scene():
    """Detached frontage houses along one street: all counts must be 0."""
    roads = [horizontal_road(0, 0)]
    buildings = [plane_square(i, i * 30.0, 25.0) for i in range(8)]
    return buildings, roads


def informal_scene():
    """Rows of contiguous structures behind a frontage row on one road."""
    roads = [horizontal_road(0, 0)]
    buildings = []
    for row in range(4):
        for col in range(6):
            buildings.append(
                plane_square(len(buildings), col * 10.0, 15.0 + row * 12.0)
            )
    return buildings, roads


def run_pipeline(buildings, roads, workers=None):
    return compute_all(
        buildings, SegmentIndex(roads), PolygonIndex(buildings), roads, workers=workers
    )


def test_formal_scene_all_unobstructed():
    buildings, roads = formal_scene()
    metrics = run_pipeline(buildings, roads)
    assert all(m.obstruction_count == 0 for m in metrics)


def test_informal_scene_interior_rows_obstructed():
    buildings, roads = informal_scene()
    metrics = run_pipeline(buildings, roads)
    by_id = {m.building_id: m for m in metrics}
    for b in buildings:
        row = round((b.centroid.y - 15.0) / 12.0)
        assert by_id[b.building_id].obstruction_count == row
    # frontage unobstructed, interior rows blocked
    assert by_id[0].obstruction_count == 0
    assert by_id[len(buildings) - 1].obstruction_count == 3


def test_compute_all_empty_buildings():
    _, roads = formal_scene()
    assert run_pipeline([], roads) == []


def test_compute_all_requires_roads():
    with pytest.raises(ConfigurationError):
        SegmentIndex([])


def test_compute_all_matches_brute_force_on_random_scenes():
    rng = random.Random(55)
    for _ in range(5):
        buildings, roads = random_scene(rng, rng.randint(60, 140), rng.randint(5, 25))
        metrics = run_pipeline(buildings, roads)
        oracle = brute_metrics(buildings, roads)
        assert len(metrics) == len(buildings)
        for m in metrics:
            count, road_id, point, dist = oracle[m.building_id]
            assert m.obstruction_count == count
            assert m.road_id == road_id
            assert m.road_distance == dist


def test_order_permutation_invariance():
    rng = random.Random(56)
    buildings, roads = random_scene(rng, 80, 10)
    base = run_pipeline(buildings, roads)
    shuffled = list(buildings)
    rng.shuffle(shuffled)
    assert run_pipeline(shuffled, roads) == base


def test_translation_invariance_of_counts():
    rng = random.Random(57)
    buildings, roads = random_scene(rng, 60, 8)
    base = {m.building_id: m.obstruction_count for m in run_pipeline(buildings, roads)}

    dx, dy = 1234.5, -987.25

    def shift_point(p):
        return PlanePoint(p.x + dx, p.y + dy)

    moved_buildings = [
        Building.from_footprint(
            b.building_id, Polygon([shift_point(p) for p in b.footprint.exterior[:-1]])
        )
        for b in buildings
    ]
    moved_roads = [
        RoadSegment(
            r.road_id,
            Polyline([shift_point(p) for p in r.geometry.vertices]),
            r.road_class,
            r.surface,
        )
        for r in roads
    ]
    moved = {
        m.building_id: m.obstruction_count
        for m in run_pipeline(moved_buildings, moved_roads)
    }
    assert moved == base


def test_uniform_scaling_invariance_of_counts():
    # distance-agnostic: scaling the scene preserves intersection topology
    rng = random.Random(58)
    buildings, roads = random_scene(rng, 60, 8)
    base = {m.building_id: m.obstruction_count for m in run_pipeline(buildings, roads)}

    k = 3.7

    def scale_point(p):
        return PlanePoint(p.x * k, p.y * k)

    scaled_buildings = [
        Building.from_footprint(
            b.building_id, Polygon([scale_point(p) for p in b.footprint.exterior[:-1]])
        )
        for b in buildings
    ]
    scaled_roads = [
        RoadSegment(
            r.road_id,
            Polyline([scale_point(p) for p in r.geometry.vertices]),
            r.road_class,
            r.surface,
        )
        for r in roads
    ]
    scaled = {
        m.building_id: m.obstruction_count
        for m in run_pipeline(scaled_buildings, scaled_roads)
    }
    assert scaled == base


def test_building_outside_connector_bounds_changes_nothing():
    rng = random.Random(59)
    buildings, roads = random_scene(rng, 50, 6)
    metrics = run_pipeline(buildings, roads)
    road_index = SegmentIndex(roads)
    connectors = [build_connector(b, road_index) for b in buildings]
    max_x = max(max(c.start.x, c.end.x) for c in connectors)
    max_y = max(max(c.start.y, c.end.y) for c in connectors)
    far = plane_square(len(buildings), max_x + 500.0, max_y + 500.0)
    extended = run_pipeline(buildings + [far], roads)
    assert [m for m in extended if m.building_id != far.building_id] == metrics


def test_parallel_workers_match_serial():
    rng = random.Random(60)
    buildings, roads = random_scene(rng, 90, 12)
    assert run_pipeline(buildings, roads, workers=2) == run_pipeline(buildings, roads)
