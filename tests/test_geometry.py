import math
import pickle
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadaccess.geometry import (
    PlanePoint,
    Segment,
    box_near_rings,
    flat_bounds,
    flat_column,
    point_in_rings,
    rings_area,
    rings_centroid,
    segment_hits_span,
    segment_intersects_polygon,
)

from _scenes import (
    Rings,
    _reference_rect_polygon_distance,
    _segments_intersect,
    nearest_point_on_segment,
    polygon,
    reference_segment_intersects_polygon,
    ring_points,
)


def test_plane_point_pickles_as_itself():
    p = PlanePoint(1.5, -2.25)
    assert pickle.loads(pickle.dumps(p)) == p
    assert type(pickle.loads(pickle.dumps(p))) is PlanePoint


def square(x0, y0, x1, y1):
    return polygon(
        [PlanePoint(x0, y0), PlanePoint(x1, y0), PlanePoint(x1, y1), PlanePoint(x0, y1)]
    )


def test_polygon_enforces_ring_closure():
    ring = [PlanePoint(0, 0), PlanePoint(1, 0), PlanePoint(0, 1)]
    poly = polygon(ring)
    assert poly[0][:2] == poly[0][-2:]
    assert len(poly[0]) == 8
    with pytest.raises(ValueError):
        polygon([PlanePoint(0, 0), PlanePoint(1, 0)])


def centroid_of(poly):
    return PlanePoint(*rings_centroid(poly))


def test_unit_square_centroid():
    assert centroid_of(square(0, 0, 1, 1)) == PlanePoint(0.5, 0.5)


def test_l_shape_centroid():
    poly = polygon(
        [
            PlanePoint(0, 0),
            PlanePoint(2, 0),
            PlanePoint(2, 1),
            PlanePoint(1, 1),
            PlanePoint(1, 2),
            PlanePoint(0, 2),
        ]
    )
    c = centroid_of(poly)
    assert c.x == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert c.y == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_degenerate_polygon_falls_back_to_vertex_mean():
    # collinear ring has zero area
    poly = polygon([PlanePoint(0, 0), PlanePoint(1, 1), PlanePoint(2, 2)])
    assert centroid_of(poly) == PlanePoint(1.0, 1.0)


def test_centroid_with_hole():
    poly = polygon(
        [PlanePoint(0, 0), PlanePoint(4, 0), PlanePoint(4, 4), PlanePoint(0, 4)],
        holes=[[PlanePoint(2, 2), PlanePoint(3, 2), PlanePoint(3, 3), PlanePoint(2, 3)]],
    )
    # (16*(2,2) - 1*(2.5,2.5)) / 15
    c = centroid_of(poly)
    assert c.x == pytest.approx(29.5 / 15.0, abs=1e-12)
    assert c.y == pytest.approx(29.5 / 15.0, abs=1e-12)
    assert rings_area(poly) == pytest.approx(15.0)


def test_centroid_of_convex_polygon_lies_inside():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(3, 9)
        angles = sorted(rng.uniform(0, math.tau) for _ in range(n))
        if min(b - a for a, b in zip(angles, angles[1:])) < 1e-3:
            continue  # nearly repeated vertex, skip degenerate draw
        r = rng.uniform(5.0, 50.0)
        sx, sy = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        cx, cy = rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)
        ring = [
            PlanePoint(cx + sx * r * math.cos(t), cy + sy * r * math.sin(t))
            for t in angles
        ]
        poly = polygon(ring)
        c = centroid_of(poly)
        assert point_in_rings(c.x, c.y, poly)


def test_nearest_point_on_segment_examples():
    s = Segment(PlanePoint(-1, 0), PlanePoint(1, 0))
    q, d = nearest_point_on_segment(PlanePoint(0, 1), s)
    assert q == PlanePoint(0, 0) and d == 1.0
    q, d = nearest_point_on_segment(PlanePoint(5, 1), s)
    assert q == PlanePoint(1, 0)
    assert d == pytest.approx(math.sqrt(17), abs=1e-12)
    q, d = nearest_point_on_segment(PlanePoint(0.25, 0), s)
    assert q == PlanePoint(0.25, 0) and d == 0.0


def test_nearest_point_on_degenerate_segment():
    s = Segment(PlanePoint(2, 2), PlanePoint(2, 2))
    q, d = nearest_point_on_segment(PlanePoint(2, 5), s)
    assert q == PlanePoint(2, 2) and d == 3.0


def test_segments_intersect_touching_counts():
    # the edge (0, 0)-(2, 0) as a flat ring traced there and back: it bounds
    # no area, so segment_hits_span reduces to the closed-segment test
    edge = (0.0, 0.0, 2.0, 0.0, 0.0, 0.0)

    def hits(ax, ay, bx, by):
        return segment_hits_span(ax, ay, bx, by, edge, (0, len(edge)), 0, 1)

    assert hits(1, 0, 1, 1)  # T-touch
    assert hits(2, 0, 3, 5)  # endpoint
    assert hits(1, 0, 3, 0)  # collinear overlap
    assert not hits(0, 1, 2, 1)
    assert not hits(3, 0, 4, 0)


def test_segment_intersects_polygon_examples():
    box = square(0, 0, 2, 2)
    assert segment_intersects_polygon(
        Segment(PlanePoint(-1, 1), PlanePoint(3, 1)), box
    )
    assert not segment_intersects_polygon(
        Segment(PlanePoint(5, 5), PlanePoint(9, 9)), box
    )
    # both endpoints strictly inside: no edge crossing, endpoint rule applies
    assert segment_intersects_polygon(
        Segment(PlanePoint(0.5, 0.5), PlanePoint(1.5, 1.5)), box
    )
    # boundary touching counts
    assert segment_intersects_polygon(
        Segment(PlanePoint(-1, 0), PlanePoint(0, 0)), box
    )
    assert segment_intersects_polygon(
        Segment(PlanePoint(2, 2), PlanePoint(3, 3)), box
    )


def test_segment_in_hole_does_not_intersect():
    poly = polygon(
        [PlanePoint(0, 0), PlanePoint(10, 0), PlanePoint(10, 10), PlanePoint(0, 10)],
        holes=[[PlanePoint(3, 3), PlanePoint(7, 3), PlanePoint(7, 7), PlanePoint(3, 7)]],
    )
    assert not segment_intersects_polygon(
        Segment(PlanePoint(4, 5), PlanePoint(6, 5)), poly
    )
    # crossing out of the hole touches the hole ring
    assert segment_intersects_polygon(
        Segment(PlanePoint(4, 5), PlanePoint(9, 5)), poly
    )


def _sampled_intersects(seg: Segment, poly: Rings, n: int = 10_000) -> bool:
    """Dense-sampling oracle: point-in-polygon over n points along seg."""
    ts = np.linspace(0.0, 1.0, n)
    xs = seg.a.x + ts * (seg.b.x - seg.a.x)
    ys = seg.a.y + ts * (seg.b.y - seg.a.y)
    inside = np.zeros(n, dtype=bool)
    for ring in map(ring_points, poly):
        crossings = np.zeros(n, dtype=np.int64)
        for k in range(len(ring) - 1):
            a, b = ring[k], ring[k + 1]
            straddles = (a.y > ys) != (b.y > ys)
            with np.errstate(divide="ignore", invalid="ignore"):
                xcross = a.x + (ys - a.y) * (b.x - a.x) / (b.y - a.y)
            crossings += straddles & (xs < xcross)
        inside ^= (crossings % 2).astype(bool)
    return bool(inside.any())


def _clearance(seg: Segment, poly: Rings) -> float:
    """Distance from the segment to the polygon's rings (0 when they touch)."""
    best = math.inf
    for ring in map(ring_points, poly):
        for a, b in zip(ring, ring[1:]):
            if _segments_intersect(seg.a, seg.b, a, b):
                return 0.0
            edge = Segment(a, b)
            for p, s in ((a, seg), (b, seg), (seg.a, edge), (seg.b, edge)):
                best = min(best, nearest_point_on_segment(p, s)[1])
    return best


def test_segment_polygon_predicate_agrees_with_sampling_oracle():
    rng = random.Random(2024)
    disagreements = 0
    for _ in range(500):
        cx, cy = rng.uniform(0, 100), rng.uniform(0, 100)
        w, h = rng.uniform(1, 30), rng.uniform(1, 30)
        poly = square(cx, cy, cx + w, cy + h)
        seg = Segment(
            PlanePoint(rng.uniform(-20, 140), rng.uniform(-20, 140)),
            PlanePoint(rng.uniform(-20, 140), rng.uniform(-20, 140)),
        )
        predicted = segment_intersects_polygon(seg, poly)
        sampled = _sampled_intersects(seg, poly)
        if predicted != sampled:
            disagreements += 1
            if predicted and not sampled:
                # sampling may miss a sliver crossing: clearance must be ~0
                assert _clearance(seg, poly) < 1e-9
            else:
                pytest.fail("sampling found interior point but predicate said no")
    # transversal scenes should almost never disagree
    assert disagreements <= 5


def _lattice_point(rng: random.Random, step: float) -> PlanePoint:
    return PlanePoint(rng.randint(-1, 9) * step, rng.randint(-1, 9) * step)


def _lattice_rect(step: float, x0: int, y0: int, x1: int, y1: int) -> list[PlanePoint]:
    return [PlanePoint(x * step, y * step) for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]


def _lattice_polygon(rng: random.Random, step: float) -> Rings:
    """A rectangle (a third with a hole, inside or touching its edge) or a
    3-6 vertex lattice ring, which may be concave, self-crossing or have
    collinear and repeated vertices."""
    if rng.random() < 0.5:
        x0, x1 = sorted(rng.sample(range(0, 9), 2))
        y0, y1 = sorted(rng.sample(range(0, 9), 2))
        holes = []
        if rng.random() < 1 / 3 and x1 - x0 >= 2 and y1 - y0 >= 2:
            hx0 = rng.randint(x0, x1 - 1)
            hy0 = rng.randint(y0, y1 - 1)
            hx1 = rng.randint(hx0 + 1, x1)
            hy1 = rng.randint(hy0 + 1, y1)
            holes.append(_lattice_rect(step, hx0, hy0, hx1, hy1))
        return polygon(_lattice_rect(step, x0, y0, x1, y1), holes)
    while True:
        try:
            return polygon([_lattice_point(rng, step) for _ in range(rng.randint(3, 6))])
        except ValueError:  # fewer than three distinct vertices after closing
            continue


def _lattice_segment(rng: random.Random, step: float, poly: Rings) -> Segment:
    """A random, zero-length, vertex-anchored or edge-collinear segment."""
    kind = rng.randrange(4)
    ring = ring_points(rng.choice(poly))
    if kind == 0:
        return Segment(_lattice_point(rng, step), _lattice_point(rng, step))
    if kind == 1:  # zero length, on a vertex or anywhere
        p = rng.choice(ring) if rng.random() < 0.5 else _lattice_point(rng, step)
        return Segment(p, p)
    if kind == 2:  # one end on a vertex
        return Segment(rng.choice(ring), _lattice_point(rng, step))
    # along the line of an edge: shared edges, overlaps, segments inside an
    # edge, end touches
    i = rng.randrange(len(ring) - 1)
    a, b = ring[i], ring[i + 1]
    t, u = (rng.choice((-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)) for _ in range(2))
    return Segment(
        PlanePoint(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)),
        PlanePoint(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y)),
    )


def test_segment_polygon_predicate_matches_reference_on_lattices():
    rng = random.Random(7)
    cases = hits = 0
    for _ in range(2_000):
        step = rng.choice((1.0, 0.5))
        poly = _lattice_polygon(rng, step)
        for _ in range(12):
            seg = _lattice_segment(rng, step, poly)
            want = reference_segment_intersects_polygon(seg, poly)
            assert segment_intersects_polygon(seg, poly) == want, (seg, poly)
            cases += 1
            hits += want
    assert cases >= 20_000
    assert 0.2 * cases < hits < 0.8 * cases


def test_rect_polygon_distance():
    poly = rings = square(0, 0, 1000, 1000)
    nextafter = math.nextafter
    assert box_near_rings((100, 100, 200, 200), rings, 0.0)  # inside
    assert box_near_rings((900, 900, 1100, 1100), rings, 0.0)  # overlap
    # 300 m and 600 m away, each true from its exact distance up
    assert box_near_rings((1300, 0, 1400, 100), rings, 300.0)
    assert not box_near_rings((1300, 0, 1400, 100), rings, nextafter(300.0, 0.0))
    assert box_near_rings((1600, 0, 1700, 100), rings, 600.0)
    assert not box_near_rings((1600, 0, 1700, 100), rings, 500.0)
    # 500 m from a box corner to a ring vertex, and the box one ulp farther out
    assert box_near_rings((1300, 1400, 1400, 1500), rings, 500.0)
    assert not box_near_rings((nextafter(1300.0, math.inf), 1400, 1400, 1500), rings, 500.0)
    # rect containing the whole polygon
    assert box_near_rings((-10, -10, 1010, 1010), rings, 0.0)
    # a box inside a hole is measured to the hole's ring
    holed = (rings[0], square(300, 300, 700, 700)[0])
    assert not box_near_rings((450, 450, 550, 550), holed, nextafter(150.0, 0.0))
    assert box_near_rings((450, 450, 550, 550), holed, 150.0)
    assert box_near_rings((450, 450, 550, 550), holed[:1], 0.0)

    # margin-0 boxes against the top edge (0, 0)-(2, 0) of a square: a
    # T-touch, an end touch, collinear overlaps and a zero-width box crossing
    # the square with both ends 1 m outside count; 1 m apart does not
    below = square(0, -2, 2, 0)
    for box in ((1, 0, 1, 1), (2, 0, 3, 5), (1, 0, 3, 0), (0.5, 0, 1.5, 0), (1, -3, 1, 1)):
        assert box_near_rings(box, below, 0.0), box
    for box in ((0, 1, 2, 1), (3, 0, 4, 0)):
        assert not box_near_rings(box, below, 0.0), box
        assert box_near_rings(box, below, 1.0), box

    # the reference measures the same distances
    assert _reference_rect_polygon_distance((1300, 0, 1400, 100), poly) == 300.0
    assert _reference_rect_polygon_distance((450, 450, 550, 550), holed) == 150.0
    assert _reference_rect_polygon_distance((1, -3, 1, 1), below) == 0.0


def _star_polygon(rng: random.Random, n: int, holed: bool) -> Rings:
    """A star of n vertices around the origin or at a city's projected
    coordinates, 1.5-6 km out, optionally with a 3-12 vertex hole of radius
    300-500 m at its center."""
    cx, cy = rng.choice(((0.0, 0.0), (3_550_000.5, -160_000.25)))
    r_in = rng.uniform(1_500.0, 3_000.0)
    r_out = r_in * rng.uniform(1.0, 2.0)
    exterior = []
    for k in range(n):
        a = math.tau * (k + rng.uniform(-0.3, 0.3)) / n
        r = r_out if k % 2 else r_in
        exterior.append(PlanePoint(cx + r * math.cos(a), cy + r * math.sin(a)))
    holes = []
    if holed:
        hr = rng.uniform(300.0, 500.0)
        hn = rng.randint(3, 12)
        angles = [math.tau * k / hn for k in range(hn)]
        holes.append([PlanePoint(cx + hr * math.cos(a), cy + hr * math.sin(a)) for a in angles])
    return polygon(exterior, holes)


def _star_boxes(rng: random.Random, poly: Rings):
    """Boxes anywhere near the star, zero-width or zero-height ones among
    them, boxes in and around the hole, boxes with a corner on a vertex,
    and boxes 500 m to the right of the rightmost vertex and one ulp either
    side of that."""
    x0, y0, x1, y1 = flat_bounds(poly[0])

    def size():
        return rng.choice((0.0, rng.uniform(0.0, 50.0), rng.uniform(0.0, 1_500.0)))

    for _ in range(6):
        bx = rng.uniform(x0 - 1_200.0, x1 + 1_200.0)
        by = rng.uniform(y0 - 1_200.0, y1 + 1_200.0)
        yield (bx, by, bx + size(), by + size())
    if len(poly) > 1:
        hx, hy = rings_centroid(poly[1:2])
        for _ in range(3):
            bx = hx + rng.uniform(-250.0, 250.0)
            by = hy + rng.uniform(-250.0, 250.0)
            w = rng.uniform(0.0, 200.0)
            yield (bx - w, by - w, bx + w, by + rng.choice((0.0, w)))
    ring = poly[0]
    k = rng.randrange(len(ring) // 2 - 1)
    vx, vy = ring[2 * k], ring[2 * k + 1]
    yield (vx, vy, vx + size(), vy + size())
    yield (vx - size(), vy - size(), vx, vy)
    k = max(range(0, len(ring), 2), key=ring.__getitem__)
    vx, vy = ring[k], ring[k + 1]
    left = vx + 500.0
    h = rng.choice((0.0, 10.0, 300.0))
    for x in (math.nextafter(left, -math.inf), left, math.nextafter(left, math.inf)):
        yield (x, vy - h, x + size(), vy + h)


def _lattice_boxes(rng: random.Random, step: float):
    """Boxes with lattice corners, zero-width and zero-height ones among them."""
    for _ in range(4):
        xa, xb = sorted(rng.randint(-6, 14) for _ in range(2))
        ya, yb = sorted(rng.randint(-6, 14) for _ in range(2))
        yield (xa * step, ya * step, xb * step, yb * step)


def test_box_near_rings_matches_the_reference_distance():
    rng = random.Random(12)
    scenes = []
    for _ in range(1_500):
        step = rng.choice((50.0, 100.0, 250.0))
        poly = _lattice_polygon(rng, step)
        scenes.append((poly, list(_lattice_boxes(rng, step))))
    for n in (4, 5, 7, 12, 24, 50, 100, 200):
        for holed in (False, True):
            for _ in range(8):
                poly = _star_polygon(rng, n, holed)
                scenes.append((poly, list(_star_boxes(rng, poly))))
    cases = hits = exact = 0
    for poly, boxes in scenes:
        for box in boxes:
            d = _reference_rect_polygon_distance(box, poly)
            for m in (0.0, 100.0, 500.0):
                got = box_near_rings(box, poly, m)
                assert got == (d <= m), (box, m, d, poly)
                cases += 1
                hits += got
            if 0.0 < d < math.inf:
                # the predicate turns true exactly at the distance
                assert box_near_rings(box, poly, d), (box, d, poly)
                assert not box_near_rings(box, poly, math.nextafter(d, 0.0)), (box, d)
                exact += 1
    assert cases >= 20_000
    assert 0.2 * cases < hits < 0.8 * cases
    assert exact > 3_000


def _ring_by_ring_hits(ax, ay, bx, by, rings):
    """The exact test as it was before footprints moved into one column: a
    zip walk over each ring's own sequence. Kept verbatim as the reference
    for segment_hits_span."""
    sx0, sx1 = (ax, bx) if ax <= bx else (bx, ax)
    sy0, sy1 = (ay, by) if ay <= by else (by, ay)
    dx = bx - ax
    dy = by - ay
    for ring in rings:
        it = iter(ring)
        qx = next(it)
        qy = next(it)
        w = dx * (qy - ay) - dy * (qx - ax)
        o1 = 1 if w > 0.0 else (-1 if w < 0.0 else 0)
        for rx, ry in zip(it, it):
            w = dx * (ry - ay) - dy * (rx - ax)
            o2 = 1 if w > 0.0 else (-1 if w < 0.0 else 0)
            if o2 == 0 and sx0 <= rx <= sx1 and sy0 <= ry <= sy1:
                return True
            ex = rx - qx
            ey = ry - qy
            if o1 != o2:
                w = ex * (ay - qy) - ey * (ax - qx)
                o3 = 1 if w > 0.0 else (-1 if w < 0.0 else 0)
                w = ex * (by - qy) - ey * (bx - qx)
                o4 = 1 if w > 0.0 else (-1 if w < 0.0 else 0)
                if o3 != o4:
                    return True
                if o3 == 0 and (
                    (qx <= ax <= rx or rx <= ax <= qx) and (qy <= ay <= ry or ry <= ay <= qy)
                    or (qx <= bx <= rx or rx <= bx <= qx) and (qy <= by <= ry or ry <= by <= qy)
                ):
                    return True
            else:
                if (qx <= ax <= rx or rx <= ax <= qx) and (qy <= ay <= ry or ry <= ay <= qy):
                    w = ex * (ay - qy) - ey * (ax - qx)
                    if not (w > 0.0 or w < 0.0):
                        return True
                if (qx <= bx <= rx or rx <= bx <= qx) and (qy <= by <= ry or ry <= by <= qy):
                    w = ex * (by - qy) - ey * (bx - qx)
                    if not (w > 0.0 or w < 0.0):
                        return True
            qx = rx
            qy = ry
            o1 = o2
    return point_in_rings(ax, ay, rings) or point_in_rings(bx, by, rings)


_LATTICE = st.integers(-6, 6)
# along an edge's line, before, on and beyond the edge
_ALONG = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0])


def _closed(vertices):
    return tuple(c for v in (*vertices, vertices[0]) for c in v)


def _rect(x0, y0, x1, y1):
    return _closed([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


_RING = st.lists(st.tuples(_LATTICE, _LATTICE), min_size=3, max_size=6).map(
    lambda vs: _closed([(float(x), float(y)) for x, y in vs])
)


@st.composite
def _rings_and_segment(draw):
    kind = draw(st.sampled_from(["random", "vertex", "collinear", "hole"]))
    if kind == "hole":
        x0 = float(draw(_LATTICE))
        y0 = float(draw(_LATTICE))
        rings = [_rect(x0, y0, x0 + 8, y0 + 8), _rect(x0 + 2, y0 + 2, x0 + 6, y0 + 6)]
        # within the hole's closed box, so on its ring as well as inside it
        inside = st.integers(4, 12).map(lambda k: k / 2)
        segment = (x0 + draw(inside), y0 + draw(inside), x0 + draw(inside), y0 + draw(inside))
        return kind, rings, segment
    rings = draw(st.lists(_RING, min_size=1, max_size=3))
    ring = draw(st.sampled_from(rings))
    k = 2 * draw(st.integers(0, len(ring) // 2 - 2))
    px, py, qx, qy = ring[k : k + 4]
    half = _LATTICE.map(lambda v: v / 2)
    if kind == "random":
        segment = (draw(half), draw(half), draw(half), draw(half))
    elif kind == "vertex":
        segment = (px, py, draw(half), draw(half))
    else:
        ta = draw(_ALONG)
        tb = draw(_ALONG)
        segment = (px + ta * (qx - px), py + ta * (qy - py), px + tb * (qx - px), py + tb * (qy - py))
    if draw(st.booleans()):
        segment = segment[2:] + segment[:2]
    return kind, rings, segment


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(case=_rings_and_segment(), before=st.lists(_RING, max_size=2), after=st.lists(_RING, max_size=2))
def test_span_edge_test_equals_the_ring_by_ring_test(case, before, after):
    _, rings, segment = case
    expected = _ring_by_ring_hits(*segment, rings)
    # as the building table holds it: one column, other footprints around it
    column = [*before, *rings, *after]
    coords = array("d", [c for ring in column for c in ring])
    ends = array("q", [0])
    for ring in column:
        ends.append(ends[-1] + len(ring))
    first = len(before)
    assert segment_hits_span(*segment, coords, ends, first, first + len(rings)) == expected
    # as the boundary and segment_intersects_polygon hand it over
    assert segment_hits_span(*segment, *flat_column(rings), 0, len(rings)) == expected
