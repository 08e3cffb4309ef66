import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from _scenes import (
    brute_nearest,
    random_roads,
    random_scene,
    reference_segment_intersects_polygon,
    road_segments,
)


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
        for seg in road_segments(r):
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


def _assert_nearest_is_brute(roads, points):
    idx = SegmentIndex(roads)
    for p in points:
        assert idx.nearest(p) == brute_nearest(roads, p), p


def test_nearest_zero_length_segments_match_brute_force():
    # endpoints 1e-170 m apart: the squared length underflows to 0.0, which
    # takes the zero-length branch although the polyline keeps both vertices
    tiny = 1e-170
    roads = [
        road(0, (0, 0), (tiny, 0)),
        road(1, (0, tiny), (tiny, tiny), (3, 4)),
        road(2, (-tiny, 0), (0, -tiny)),
        road(3, (5, 5), (6, 5)),
    ]
    rng = random.Random(5)
    points = [PlanePoint(0, 0), PlanePoint(tiny / 2, 0), PlanePoint(3, 4), PlanePoint(-1, -1)]
    points += [PlanePoint(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(500)]
    _assert_nearest_is_brute(roads, points)


def test_nearest_exact_ties_across_and_within_roads_match_brute_force():
    # a lattice of roads 2 m apart, one road per line and a vertex every
    # metre (440 segments, several tree levels), with shuffled ids, plus
    # square loops whose four sides tie at their centres; queries on the
    # half-integer lattice are equidistant from two to four segments
    rng = random.Random(12)
    specs = [[(x, y) for y in range(21)] for x in range(0, 21, 2)]
    specs += [[(x, y) for x in range(21)] for y in range(0, 21, 2)]
    specs += [[(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1), (x, y)] for x, y in ((22, 22), (23, 23), (22, 24))]
    for _ in range(3):
        ids = list(range(len(specs)))
        rng.shuffle(ids)
        roads = [road(i, *spec) for i, spec in zip(ids, specs)]
        rng.shuffle(roads)
        points = [PlanePoint(rng.randint(-2, 52) / 2, rng.randint(-2, 52) / 2) for _ in range(300)]
        _assert_nearest_is_brute(roads, points)
    idx = SegmentIndex([road(0, (0, 0), (2, 0), (2, 2), (0, 2), (0, 0))])
    assert idx.nearest(PlanePoint(1, 1)) == (0, PlanePoint(1, 0), 1.0)


def test_nearest_far_outside_the_road_extent_matches_brute_force():
    rng = random.Random(31)
    roads = random_roads(rng, 200)
    points = []
    for scale in (1e4, 1e6, 1e7):
        points += [PlanePoint(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(200)]
        points += [PlanePoint(scale, 1000), PlanePoint(-scale, 1000), PlanePoint(1000, scale), PlanePoint(1000, -scale)]
    _assert_nearest_is_brute(roads, points)


def _touching(buildings, seg):
    return {
        b.building_id
        for b in buildings
        if reference_segment_intersects_polygon(seg, b.footprint)
    }


def _seg(x0, y0, x1, y1):
    return Segment(PlanePoint(x0, y0), PlanePoint(x1, y1))


def test_grid_box_edges_and_connectors_on_bucket_lines():
    # a checkerboard of 10 m squares from the origin: the median span is 10 m,
    # so buckets are 20 m and every other box edge lies on a bucket line
    corners = [(x, y) for x in range(0, 80, 10) for y in range(0, 80, 10) if (x + y) % 20 == 0]
    buildings = [square_building(i, x, y) for i, (x, y) in enumerate(corners)]
    idx = PolygonIndex(buildings)
    assert idx._side == 20.0 and idx._origin == (0.0, 0.0)
    segs = []
    for k in range(-10, 91, 5):
        segs.append(_seg(-10, k, 90, k))  # horizontal, along bucket and box lines
        segs.append(_seg(k, 90, k, -10))  # vertical
        segs.append(_seg(k, -10, k, -10))  # zero length
    for c in range(0, 81, 20):
        segs.append(_seg(0, c, c, 0))  # through bucket corners
        segs.append(_seg(c, 0, 80, 80 - c))
        segs.append(_seg(c - 20, -20, c + 100, 100))
    rng = random.Random(5)
    for _ in range(1_000):
        segs.append(_seg(*(rng.randrange(-20, 101, 5) for _ in range(4))))
    hits = 0
    for seg in segs:
        truth = _touching(buildings, seg)
        assert truth <= idx.candidates_for_segment(seg), seg
        hits += len(truth)
    assert hits > len(segs)


def test_grid_axis_parallel_connectors_in_random_scenes():
    rng = random.Random(41)
    for _ in range(100):
        buildings, _ = random_scene(rng, 30, 1, span=200.0)
        idx = PolygonIndex(buildings)
        for _ in range(10):
            x, y, t = (rng.uniform(-20, 220) for _ in range(3))
            for seg in (_seg(x, y, x, t), _seg(x, y, t, y)):
                assert _touching(buildings, seg) <= idx.candidates_for_segment(seg)


def test_grid_far_road_end_is_clamped_not_missed():
    rng = random.Random(43)
    buildings, _ = random_scene(rng, 200, 1, span=300.0)
    idx = PolygonIndex(buildings)
    for b in buildings[:40]:
        c = b.centroid
        for end in (
            PlanePoint(c.x + 1e6, c.y),
            PlanePoint(c.x, c.y - 1e6),
            PlanePoint(c.x - 1e6, c.y - 1e6),
            PlanePoint(c.x + 1e6, c.y + 3e5),
        ):
            seg = Segment(c, end)
            got = idx.candidates_for_segment(seg)
            assert b.building_id in got
            assert _touching(buildings, seg) <= got
    # a segment wholly outside the occupied extent visits nothing
    assert idx.candidates_for_segment(_seg(1e6, 1e6, 1e6 + 5, 2e6)) == set()


def _zero_span_building(building_id, x, y):
    p = PlanePoint(x, y)
    return Building.from_footprint(building_id, Polygon([p, p, p, p]))


def test_grid_identical_and_zero_span_footprints():
    same = [square_building(i, 5, 5) for i in range(6)]
    idx = PolygonIndex(same)
    assert idx.candidates_for_segment(_seg(0, 0, 20, 20)) == set(range(6))
    assert idx.candidates_for_segment(_seg(15, 0, 15, 20)) == set(range(6))  # along the right edge
    assert idx.candidates_for_segment(_seg(16, 0, 16, 20)) == set()

    points = [(0, 0), (3, 0), (3, 4), (7.5, 2), (7.5, 2), (-2, 9)]
    dots = [_zero_span_building(i, x, y) for i, (x, y) in enumerate(points)]
    idx = PolygonIndex(dots)
    assert len(idx) == len(points)
    for seg, want in (
        (_seg(0, 0, 3, 4), {0, 2}),
        (_seg(-1, 0, 10, 0), {0, 1}),
        (_seg(7.5, -5, 7.5, 5), {3, 4}),
        (_seg(3, 4, 3, 4), {2}),
        (_seg(-2, 9, 3, 0), {1, 5}),
    ):
        assert _touching(dots, seg) == want
        assert want <= idx.candidates_for_segment(seg)

    lone = PolygonIndex([_zero_span_building(0, 1e6, -1e6)])
    assert lone.candidates_for_segment(_seg(0, 0, 2e6, -2e6)) == {0}
    assert lone.candidates_for_segment(_seg(0, 0, 2e6, -2e6 + 1)) == set()


_COORD = st.integers(-16, 16).map(lambda k: k / 2)


def _lattice_footprint(kind, x, y, w, h, extra):
    if kind == "rect":  # w == 0 or h == 0 gives zero-area and zero-span boxes
        ring = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    else:
        ring = [(x, y)] + extra
    try:
        return Polygon([PlanePoint(px, py) for px, py in ring])
    except ValueError:
        return None


_FOOTPRINT = st.builds(
    _lattice_footprint,
    st.sampled_from(("rect", "ring")),
    _COORD,
    _COORD,
    st.integers(0, 8).map(lambda k: k / 2),
    st.integers(0, 8).map(lambda k: k / 2),
    st.lists(st.tuples(_COORD, _COORD), min_size=2, max_size=4),
)
_END = st.one_of(_COORD, _COORD, st.sampled_from((-1e6, 1e6)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    footprints=st.lists(_FOOTPRINT, min_size=1, max_size=25),
    ends=st.lists(st.tuples(_COORD, _COORD, _END, _END), min_size=1, max_size=8),
)
def test_grid_candidates_contain_every_true_intersector(footprints, ends):
    buildings = [
        Building.from_footprint(i, poly) for i, poly in enumerate(footprints) if poly is not None
    ]
    idx = PolygonIndex(buildings)
    for x0, y0, x1, y1 in ends:
        seg = _seg(x0, y0, x1, y1)
        assert _touching(buildings, seg) <= idx.candidates_for_segment(seg)
