import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadaccess.errors import ConfigurationError
from roadaccess.geometry import (
    PlanePoint,
    Segment,
    segment_intersects_polygon,
)
from roadaccess.ingest import RoadSegment, load_buildings, load_roads
from roadaccess.spatial_index import _NODE_CAPACITY, PolygonIndex, SegmentIndex

from _scenes import (
    brute_nearest,
    brute_obstructions,
    building_table,
    flat_line,
    make_building,
    nearest_point_on_segment,
    polygon,
    random_roads,
    random_scene,
    reference_segment_intersects_polygon,
    road_segments,
)


def road(road_id, *xy, cls="residential"):
    return RoadSegment(road_id, flat_line(xy), cls)


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


@pytest.mark.parametrize("n_segments", [1, 16, 17, 256, 10_000])
def test_packed_tree_is_balanced_and_tight_and_holds_each_segment_once(n_segments):
    # a box wider than its items only slows the search, so no answer shows it
    idx = SegmentIndex(random_roads(random.Random(n_segments), n_segments))
    segment_ids = []
    leaf_depths = set()
    stack = [(idx._root, 0)]
    while stack:
        (x0, y0, x1, y1, items, leaf), depth = stack.pop()
        assert 1 <= len(items) <= _NODE_CAPACITY
        assert all(len(it) == (13 if leaf else 6) for it in items)
        assert (x0, y0, x1, y1) == (
            min(it[0] for it in items),
            min(it[1] for it in items),
            max(it[2] for it in items),
            max(it[3] for it in items),
        )
        if leaf:
            leaf_depths.add(depth)
            segment_ids.extend(record[12] for record in items)
        else:
            stack.extend((child, depth + 1) for child in items)
    assert sorted(segment_ids) == list(range(n_segments))
    assert len(leaf_depths) == 1


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
    return make_building(building_id, polygon(ring))


def test_candidates_far_from_boxes_is_empty():
    idx = PolygonIndex(building_table([square_building(0, 0, 0)]))
    assert idx.candidates_for_segment(Segment(PlanePoint(100, 100), PlanePoint(200, 200))) == set()


def test_candidates_through_one_box():
    idx = PolygonIndex(building_table([square_building(0, 0, 0), square_building(1, 50, 50)]))
    got = idx.candidates_for_segment(Segment(PlanePoint(-5, 5), PlanePoint(15, 5)))
    assert 0 in got and 1 not in got


def test_candidates_never_miss_a_true_intersector():
    rng = random.Random(31)
    for _ in range(500):
        buildings, _ = random_scene(rng, rng.randint(5, 40), 1, span=300.0)
        idx = PolygonIndex(building_table(buildings))
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
    idx = PolygonIndex(building_table([]))
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
    idx = PolygonIndex(building_table(buildings))
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
        idx = PolygonIndex(building_table(buildings))
        for _ in range(10):
            x, y, t = (rng.uniform(-20, 220) for _ in range(3))
            for seg in (_seg(x, y, x, t), _seg(x, y, t, y)):
                assert _touching(buildings, seg) <= idx.candidates_for_segment(seg)


def test_grid_far_road_end_is_clamped_not_missed():
    rng = random.Random(43)
    buildings, _ = random_scene(rng, 200, 1, span=300.0)
    idx = PolygonIndex(building_table(buildings))
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
    return make_building(building_id, polygon([p, p, p, p]))


def test_grid_identical_and_zero_span_footprints():
    same = [square_building(i, 5, 5) for i in range(6)]
    idx = PolygonIndex(building_table(same))
    assert idx.candidates_for_segment(_seg(0, 0, 20, 20)) == set(range(6))
    assert idx.candidates_for_segment(_seg(15, 0, 15, 20)) == set(range(6))  # along the right edge
    assert idx.candidates_for_segment(_seg(16, 0, 16, 20)) == set()

    points = [(0, 0), (3, 0), (3, 4), (7.5, 2), (7.5, 2), (-2, 9)]
    dots = [_zero_span_building(i, x, y) for i, (x, y) in enumerate(points)]
    idx = PolygonIndex(building_table(dots))
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

    lone = PolygonIndex(building_table([_zero_span_building(0, 1e6, -1e6)]))
    assert lone.candidates_for_segment(_seg(0, 0, 2e6, -2e6)) == {0}
    assert lone.candidates_for_segment(_seg(0, 0, 2e6, -2e6 + 1)) == set()


def test_sparse_extent_gets_larger_buckets():
    # two clusters 200 km apart: 20 m buckets would number 10**8
    buildings = [square_building(i, 10.0 * i, 0.0) for i in range(3)]
    buildings += [square_building(3 + i, 2e5 + 10.0 * i, 2e5) for i in range(3)]
    idx = PolygonIndex(building_table(buildings))
    assert idx._cols * idx._rows <= 4 * len(buildings) and idx._side > 20.0
    for seg in (_seg(5, 5, 2e5 + 5, 2e5 + 5), _seg(-1, 3, 35, 3), _seg(2e5 + 3, 2e5 - 1, 2e5 + 3, 2e5 + 11)):
        assert _touching(buildings, seg) <= idx.candidates_for_segment(seg)
        assert idx.count_obstructions_xy(*seg.a, *seg.b, -1) == len(_touching(buildings, seg))


_COORD = st.integers(-16, 16).map(lambda k: k / 2)


def _lattice_footprint(kind, x, y, w, h, extra):
    if kind == "rect":  # w == 0 or h == 0 gives zero-area and zero-span boxes
        ring = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    else:
        ring = [(x, y)] + extra
    try:
        return polygon(ring)
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
        make_building(i, poly) for i, poly in enumerate(footprints) if poly is not None
    ]
    idx = PolygonIndex(building_table(buildings))
    for x0, y0, x1, y1 in ends:
        seg = _seg(x0, y0, x1, y1)
        assert _touching(buildings, seg) <= idx.candidates_for_segment(seg)


def _lonlat_feature(gtype, coordinates):
    return {"type": "Feature", "geometry": {"type": gtype, "coordinates": coordinates}, "properties": {}}


def _lonlat_rect(x, y, w, h):
    return [[x, y], [x + w, y], [x + w, y + h], [x, y + h], [x, y]]


def _holes_and_parts_scene(tmp_path, rng, lon0, lat0, n):
    """Loaded buildings and roads of a lon/lat scene about 450 m across:
    rectangles, courtyard blocks (a hole each, holding a hut and a lane) and
    MultiPolygon rows of two or three touching parts (a building each), on
    random residential roads."""
    d = 1e-5  # about 1.1 m
    features = []
    lanes = []
    for _ in range(n):
        x = lon0 + rng.uniform(0.0, 4e-3)
        y = lat0 + rng.uniform(0.0, 4e-3)
        w = rng.uniform(4, 25) * d
        h = rng.uniform(4, 25) * d
        kind = rng.randrange(3)
        if kind == 0:
            features.append(_lonlat_feature("Polygon", [_lonlat_rect(x, y, w, h)]))
        elif kind == 1:
            hole = _lonlat_rect(x + w / 4, y + h / 4, w / 2, h / 2)
            features.append(_lonlat_feature("Polygon", [_lonlat_rect(x, y, w, h), hole[::-1]]))
            # a hut and a lane inside the courtyard: its connector crosses no ring
            features.append(_lonlat_feature("Polygon", [_lonlat_rect(x + w * 0.4, y + h * 0.3, w / 8, h / 8)]))
            lanes.append([[x + w * 0.3, y + h * 0.6], [x + w * 0.7, y + h * 0.6]])
        else:
            parts = [[_lonlat_rect(x + k * w, y, w, h)] for k in range(rng.randint(2, 3))]
            features.append(_lonlat_feature("MultiPolygon", parts))
    for _ in range(8):
        lanes.append([[lon0 + rng.uniform(0.0, 4e-3), lat0 + rng.uniform(0.0, 4e-3)] for _ in range(2)])
    roads = []
    for line in lanes:
        feature = _lonlat_feature("LineString", line)
        feature["properties"]["class"] = "residential"
        roads.append(feature)
    paths = []
    for name, feats in (("b", features), ("r", roads)):
        path = tmp_path / f"{name}-{lon0}.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": feats}))
        paths.append(path)
    return load_buildings(paths[0]), load_roads(paths[1])


def test_public_candidate_test_pair_equals_fused_count_and_oracle(tmp_path):
    rng = random.Random(808)
    scenes = [random_scene(rng, rng.randint(60, 140), rng.randint(5, 25)) for _ in range(3)]
    # Nairobi, and near 170 E on the equator, where eastings reach 1.7e7 m
    for lon0, lat0 in ((36.8, -1.28), (169.9, 0.0)):
        scenes.append(_holes_and_parts_scene(tmp_path, rng, lon0, lat0, 200))
    assert scenes[-1][0][0].centroid.x > 1.69e7
    assert any(len(b.footprint) > 1 for b in scenes[-1][0])
    pairs = 0
    for buildings, roads in scenes:
        road_index = SegmentIndex(roads)
        table = building_table(buildings)
        idx = PolygonIndex(table)
        by_id = {b.building_id: b for b in buildings}
        for b in buildings:
            _, end, _ = road_index.nearest(b.centroid)
            if end == b.centroid:
                continue
            seg = Segment(b.centroid, end)
            public = sum(
                1
                for other in idx.candidates_for_segment(seg) - {b.building_id}
                if segment_intersects_polygon(seg, by_id[other].footprint)
            )
            assert public == idx.count_obstructions_xy(*seg.a, *seg.b, table.position(b.building_id))
            assert public == brute_obstructions(buildings, b, end)
            pairs += public
    assert pairs > 500


def test_values_and_a_built_index_survive_pickle():
    rng = random.Random(9)
    buildings, _ = random_scene(rng, 60, 1, span=300.0)
    table = building_table(buildings)
    idx = PolygonIndex(table)
    p = PlanePoint(1.5, -2.25)
    seg = Segment(p, PlanePoint(250.0, 275.0))
    assert not hasattr(p, "__dict__") and not hasattr(seg, "__dict__")
    assert pickle.loads(pickle.dumps(p)) == p
    assert pickle.loads(pickle.dumps(seg)) == seg
    assert pickle.loads(pickle.dumps(buildings)) == buildings
    copy = pickle.loads(pickle.dumps(idx))
    for b in buildings:
        probe = Segment(b.centroid, seg.b)
        assert copy.candidates_for_segment(probe) == idx.candidates_for_segment(probe)
        row = table.position(b.building_id)
        assert copy.count_obstructions_xy(*probe.a, *probe.b, row) == idx.count_obstructions_xy(
            *probe.a, *probe.b, row
        )
