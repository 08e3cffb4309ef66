import random

import pytest

from roadaccess.errors import ConfigurationError
from roadaccess.geometry import (
    PlanePoint,
    Polygon,
    Polyline,
    Segment,
    nearest_point_on_segment,
    segment_intersects_polygon,
)
from roadaccess.ingest import Building, RoadSegment
from roadaccess.spatial_index import PolygonIndex, SegmentIndex

from _scenes import brute_nearest, random_roads, random_scene


def road(road_id, *xy, cls="residential"):
    return RoadSegment(road_id, Polyline([PlanePoint(x, y) for x, y in xy]), cls)


def test_empty_road_set_is_a_configuration_error():
    with pytest.raises(ConfigurationError):
        SegmentIndex([])


def test_three_vertex_road_yields_two_entries():
    idx = SegmentIndex([road(0, (0, 0), (10, 0), (10, 10))])
    assert len(idx) == 2


def test_every_segment_retrievable_by_its_own_bbox():
    rng = random.Random(3)
    roads = random_roads(rng, 10_000)
    idx = SegmentIndex(roads)
    assert len(idx) == 10_000
    for r in roads:
        for seg in r.geometry.segments():
            # a point on the segment: its own bbox is at distance 0, so a
            # segment lost from the tree would leave a farther road as nearest
            mid = PlanePoint((seg.a.x + seg.b.x) / 2, (seg.a.y + seg.b.y) / 2)
            road_id, _, dist = idx.nearest(mid)
            assert road_id == r.road_id
            assert dist <= nearest_point_on_segment(mid, seg)[1]


def test_duplicate_geometry_distinct_ids_both_present():
    r0 = road(0, (0, 0), (10, 0))
    r1 = road(1, (0, 0), (10, 0))
    # neither input order may drop a duplicate: the tie goes to road 0 both times
    for roads in ([r0, r1], [r1, r0]):
        idx = SegmentIndex(roads)
        assert len(idx) == 2
        assert idx.nearest(PlanePoint(5, 3)) == (0, PlanePoint(5, 0), 3.0)


def test_nearest_perpendicular_foot():
    idx = SegmentIndex([road(0, (-10, 0), (10, 0))])
    road_id, point, dist = idx.nearest(PlanePoint(0, 5))
    assert road_id == 0
    assert point == PlanePoint(0, 0)
    assert dist == 5.0


def test_nearest_tie_breaks_to_lowest_road_id():
    roads = [road(0, (-10, 1), (10, 1)), road(1, (-10, -1), (10, -1))]
    idx = SegmentIndex(roads)
    road_id, _, dist = idx.nearest(PlanePoint(0, 0))
    assert dist == 1.0
    assert road_id == 0
    # order of the input list does not change the winner
    idx2 = SegmentIndex(list(reversed(roads)))
    assert idx2.nearest(PlanePoint(0, 0))[0] == 0


def test_nearest_matches_brute_force_exactly():
    rng = random.Random(17)
    roads = random_roads(rng, 1_000)
    idx = SegmentIndex(roads)
    for _ in range(1_000):
        p = PlanePoint(rng.uniform(-500, 2500), rng.uniform(-500, 2500))
        got = idx.nearest(p)
        want = brute_nearest(roads, p)
        assert got[0] == want[0]
        assert got[1] == want[1]
        assert got[2] == want[2]  # exact equality, same arithmetic


def test_nearest_is_not_radius_limited():
    # a lone far-away road must still be found
    idx = SegmentIndex([road(0, (100_000, 100_000), (100_001, 100_000))])
    road_id, _, dist = idx.nearest(PlanePoint(0, 0))
    assert road_id == 0
    assert dist > 100_000


def square_building(building_id, x0, y0, size=10.0):
    ring = [
        PlanePoint(x0, y0),
        PlanePoint(x0 + size, y0),
        PlanePoint(x0 + size, y0 + size),
        PlanePoint(x0, y0 + size),
    ]
    return Building.from_footprint(building_id, Polygon(ring))


def test_candidates_far_from_boxes_is_empty():
    idx = PolygonIndex([square_building(0, 0, 0)])
    assert idx.candidates_for_segment(Segment(PlanePoint(100, 100), PlanePoint(200, 200))) == set()


def test_candidates_through_one_box():
    idx = PolygonIndex([square_building(0, 0, 0), square_building(1, 50, 50)])
    got = idx.candidates_for_segment(Segment(PlanePoint(-5, 5), PlanePoint(15, 5)))
    assert 0 in got and 1 not in got


def test_candidates_never_miss_a_true_intersector():
    rng = random.Random(31)
    for _ in range(500):
        buildings, _ = random_scene(rng, rng.randint(5, 40), 1, span=300.0)
        idx = PolygonIndex(buildings)
        seg = Segment(
            PlanePoint(rng.uniform(-50, 350), rng.uniform(-50, 350)),
            PlanePoint(rng.uniform(-50, 350), rng.uniform(-50, 350)),
        )
        truth = {
            b.building_id
            for b in buildings
            if segment_intersects_polygon(seg, b.footprint)
        }
        assert truth <= idx.candidates_for_segment(seg)


def test_empty_polygon_index_queries_fine():
    idx = PolygonIndex([])
    assert len(idx) == 0
    assert idx.candidates_for_segment(Segment(PlanePoint(0, 0), PlanePoint(1, 1))) == set()


def test_deterministic_build_given_same_input_order():
    rng = random.Random(77)
    roads = random_roads(rng, 300)
    idx1 = SegmentIndex(roads)
    idx2 = SegmentIndex(roads)
    probe_rng = random.Random(78)
    for _ in range(200):
        p = PlanePoint(probe_rng.uniform(0, 2000), probe_rng.uniform(0, 2000))
        assert idx1.nearest(p) == idx2.nearest(p)


def test_nearest_tie_within_road_takes_lowest_segment_id():
    # p is equidistant from both segments of an L-shaped road
    idx = SegmentIndex([road(0, (0, 0), (1, 0), (1, 1))])
    assert idx.nearest(PlanePoint(0.5, 0.5)) == (0, PlanePoint(0.5, 0.0), 0.5)
