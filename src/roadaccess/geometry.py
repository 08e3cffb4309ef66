"""Planar geometry primitives shared by the accessibility pipeline.

All coordinates are projected meters. Types are immutable and every
operation is a pure function, so values can be shared freely across
threads or forked worker processes. Points and segments are NamedTuples:
they compare and hash as tuples of their fields.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

# (min_x, min_y, max_x, max_y) axis-aligned bounding box
Bounds = tuple[float, float, float, float]

ZERO_AREA_EPS_M2 = 1e-9


class _PlanePoint(NamedTuple):
    x: float
    y: float


class PlanePoint(_PlanePoint):
    """A point in projected (easting, northing) meters."""

    __slots__ = ()

    # Unpickling calls __new__ too, so a worker process checks what it gets.
    def __new__(cls, x: float, y: float) -> "PlanePoint":
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite plane coordinates ({x!r}, {y!r})")
        return tuple.__new__(cls, (x, y))


class Segment(NamedTuple):
    """Closed straight segment between two points; zero length is allowed."""

    a: PlanePoint
    b: PlanePoint


class Polyline:
    """Open chain of vertices; consecutive duplicates are dropped on construction."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[PlanePoint]):
        pts: list[PlanePoint] = []
        for v in vertices:
            if not pts or v != pts[-1]:
                pts.append(v)
        if len(pts) < 2:
            raise ValueError("polyline needs at least two distinct consecutive vertices")
        self.vertices: tuple[PlanePoint, ...] = tuple(pts)

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polyline) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def bounds(self) -> Bounds:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))


# A flat ring is one tuple of coordinates, (x0, y0, x1, y1, ..., x0, y0): its
# vertices in order, closed by repeating the first.
FlatRing = tuple[float, ...]


def _close_ring(ring: Sequence[PlanePoint] | Sequence[float]) -> FlatRing:
    """The flat closed ring of a sequence of PlanePoints or of flat coordinates."""
    flat = tuple(ring)
    if flat and isinstance(flat[0], PlanePoint):
        flat = tuple([c for p in flat for c in (p.x, p.y)])
    if len(flat) < 6:
        raise ValueError("ring needs at least three vertices")
    if flat[0] != flat[-2] or flat[1] != flat[-1]:
        flat += flat[:2]
    if len(flat) < 8:
        raise ValueError("closed ring needs at least three distinct vertices")
    return flat


def close_rings(
    exterior: Sequence[PlanePoint] | Sequence[float],
    holes: Iterable[Sequence[PlanePoint] | Sequence[float]] = (),
) -> tuple[FlatRing, ...]:
    """The flat closed rings of a polygon, exterior first, as Polygon keeps them."""
    return (_close_ring(exterior), *map(_close_ring, holes))


class Polygon:
    """Polygon as a closed exterior ring plus optional hole rings.

    Rings are given as PlanePoints or as flat coordinates and stored flat,
    exterior first, in `rings`. Ring closure (first vertex == last vertex)
    is enforced on construction; no further validity repair is attempted.
    """

    __slots__ = ("rings",)

    def __init__(
        self,
        exterior: Sequence[PlanePoint] | Sequence[float],
        holes: Iterable[Sequence[PlanePoint] | Sequence[float]] = (),
    ):
        self.rings: tuple[FlatRing, ...] = close_rings(exterior, holes)

    @property
    def exterior(self) -> FlatRing:
        return self.rings[0]

    @property
    def holes(self) -> tuple[FlatRing, ...]:
        return self.rings[1:]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polygon) and self.rings == other.rings

    def __hash__(self) -> int:
        return hash(self.rings)

    def bounds(self) -> Bounds:
        ext = self.rings[0]
        xs = ext[0::2]
        ys = ext[1::2]
        return (min(xs), min(ys), max(xs), max(ys))


# ---------------------------------------------------------------------------
# predicates


def orientation(a: PlanePoint, b: PlanePoint, c: PlanePoint) -> int:
    """Sign of the cross product (b-a) x (c-a): 1 ccw, -1 cw, 0 collinear."""
    v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


def _within_span(p: PlanePoint, a: PlanePoint, b: PlanePoint) -> bool:
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def segments_intersect(
    p1: PlanePoint, p2: PlanePoint, q1: PlanePoint, q2: PlanePoint
) -> bool:
    """Closed-segment intersection; endpoint and collinear touching count."""
    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _within_span(q1, p1, p2):
        return True
    if o2 == 0 and _within_span(q2, p1, p2):
        return True
    if o3 == 0 and _within_span(p1, q1, q2):
        return True
    if o4 == 0 and _within_span(p2, q1, q2):
        return True
    return False


def point_in_rings(x: float, y: float, rings: Iterable[FlatRing]) -> bool:
    """Even-odd ray-crossing test of (x, y) against closed flat rings.

    Over a polygon's rings this is point-in-polygon: the exterior and the
    holes flip the same parity.
    """
    inside = False
    for ring in rings:
        it = iter(ring)
        ax = next(it)
        ay = next(it)
        for bx, by in zip(it, it):
            if (ay > y) != (by > y):
                xcross = ax + (y - ay) * (bx - ax) / (by - ay)
                if x < xcross:
                    inside = not inside
            ax = bx
            ay = by
    return inside


def segment_intersects_polygon(s: Segment, poly: Polygon) -> bool:
    """True iff the closed segment shares at least one point with the polygon.

    Boundary contact counts as intersection: an edge of any ring touching or
    crossing the segment, or either endpoint inside the area. Disjoint
    boxes are rejected here; segment_hits_rings does the rest.
    """
    ax = s.a.x
    ay = s.a.y
    bx = s.b.x
    by = s.b.y
    sx0, sx1 = (ax, bx) if ax <= bx else (bx, ax)
    sy0, sy1 = (ay, by) if ay <= by else (by, ay)
    x0, y0, x1, y1 = poly.bounds()
    if sx0 > x1 or x0 > sx1 or sy0 > y1 or y0 > sy1:
        return False
    return segment_hits_rings(ax, ay, bx, by, poly.rings)


def segment_hits_rings(
    ax: float, ay: float, bx: float, by: float, rings: Sequence[FlatRing]
) -> bool:
    """True iff the closed segment (ax, ay)-(bx, by) shares a point with the
    area the flat rings bound (exterior first, even-odd).

    Callers reject footprints whose box misses the segment's box first.
    Per ring edge this is segments_intersect, with the same arithmetic, but
    each vertex's side of the segment's line is computed once for both
    edges that meet there, and the edge's own orientations of the segment
    endpoints only where they can decide the result.
    """
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
            # a ring vertex on the segment (the ring is closed, so checking
            # each edge's end vertex covers its start vertex too)
            if o2 == 0 and sx0 <= rx <= sx1 and sy0 <= ry <= sy1:
                return True
            ex = rx - qx
            ey = ry - qy
            if o1 != o2:
                # a proper crossing needs the segment endpoints on opposite sides
                w = ex * (ay - qy) - ey * (ax - qx)
                o3 = 1 if w > 0.0 else (-1 if w < 0.0 else 0)
                w = ex * (by - qy) - ey * (bx - qx)
                o4 = 1 if w > 0.0 else (-1 if w < 0.0 else 0)
                if o3 != o4:
                    return True
                # o3 == o4 here: both segment endpoints are on the edge's line
                if o3 == 0 and (
                    (qx <= ax <= rx or rx <= ax <= qx) and (qy <= ay <= ry or ry <= ay <= qy)
                    or (qx <= bx <= rx or rx <= bx <= qx) and (qy <= by <= ry or ry <= by <= qy)
                ):
                    return True
            else:
                # no proper crossing; a segment endpoint may still lie on the
                # edge (orientation 0: neither > 0 nor < 0, as in orientation)
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


# ---------------------------------------------------------------------------
# measures


def _ring_area_centroid(ring: FlatRing) -> tuple[float, float, float]:
    """Signed area and centroid of a closed flat ring (local-origin shoelace)."""
    it = iter(ring)
    x0 = next(it)
    y0 = next(it)
    a2 = 0.0  # twice the signed area
    cx = 0.0
    cy = 0.0
    px = x0 - x0
    py = y0 - y0
    for x, y in zip(it, it):
        qx = x - x0
        qy = y - y0
        w = px * qy - qx * py
        a2 += w
        cx += (px + qx) * w
        cy += (py + qy) * w
        px = qx
        py = qy
    if a2 == 0.0:
        return 0.0, 0.0, 0.0
    return a2 / 2.0, x0 + cx / (3.0 * a2), y0 + cy / (3.0 * a2)


def polygon_area(poly: Polygon) -> float:
    """Unsigned area of exterior minus holes."""
    area = abs(_ring_area_centroid(poly.exterior)[0])
    for hole in poly.holes:
        area -= abs(_ring_area_centroid(hole)[0])
    return area


def polygon_centroid(poly: Polygon) -> PlanePoint:
    """Area-weighted centroid of exterior minus holes; see rings_centroid."""
    return PlanePoint(*rings_centroid(poly.rings))


def rings_centroid(rings: Sequence[FlatRing]) -> tuple[float, float]:
    """x, y of the area-weighted centroid of a polygon's flat rings,
    exterior first, minus the holes.

    Falls back to the arithmetic mean of the exterior vertices when the net
    area is below 1e-9 m^2 (degenerate footprints).
    """
    area_ext, cx_ext, cy_ext = _ring_area_centroid(rings[0])
    net = abs(area_ext)
    wx = abs(area_ext) * cx_ext
    wy = abs(area_ext) * cy_ext
    for hole in rings[1:]:
        area_h, cx_h, cy_h = _ring_area_centroid(hole)
        net -= abs(area_h)
        wx -= abs(area_h) * cx_h
        wy -= abs(area_h) * cy_h
    if abs(net) < ZERO_AREA_EPS_M2:
        ext = rings[0]
        xs = ext[0:-2:2]  # the closing vertex would double-count
        ys = ext[1:-2:2]
        return sum(xs) / len(xs), sum(ys) / len(ys)
    return wx / net, wy / net


def nearest_point_on_segment(p: PlanePoint, s: Segment) -> tuple[PlanePoint, float]:
    """Orthogonal projection of p clamped to the segment, with its distance."""
    ax = s.a.x
    ay = s.a.y
    dx = s.b.x - ax
    dy = s.b.y - ay
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        q = s.a
    else:
        t = ((p.x - ax) * dx + (p.y - ay) * dy) / d2
        if t <= 0.0:
            q = s.a
        elif t >= 1.0:
            q = s.b
        else:
            q = PlanePoint(ax + t * dx, ay + t * dy)
    return q, math.hypot(p.x - q.x, p.y - q.y)


def segment_distance(s1: Segment, s2: Segment) -> float:
    """Minimum distance between two closed segments (0 when they touch)."""
    if segments_intersect(s1.a, s1.b, s2.a, s2.b):
        return 0.0
    return min(
        nearest_point_on_segment(s2.a, s1)[1],
        nearest_point_on_segment(s2.b, s1)[1],
        nearest_point_on_segment(s1.a, s2)[1],
        nearest_point_on_segment(s1.b, s2)[1],
    )


def _rect_edges(b: Bounds) -> list[Segment]:
    p00 = PlanePoint(b[0], b[1])
    p10 = PlanePoint(b[2], b[1])
    p11 = PlanePoint(b[2], b[3])
    p01 = PlanePoint(b[0], b[3])
    return [Segment(p00, p10), Segment(p10, p11), Segment(p11, p01), Segment(p01, p00)]


def rect_polygon_distance(b: Bounds, poly: Polygon) -> float:
    """Minimum distance between an axis-aligned rect and a polygon.

    Zero when the rect touches or overlaps the polygon area (rects fully
    inside count as distance zero; rects inside a hole do not).
    """
    rings = poly.rings
    corners = ((b[0], b[1]), (b[2], b[1]), (b[2], b[3]), (b[0], b[3]))
    if any(point_in_rings(x, y, rings) for x, y in corners):
        return 0.0
    ext = poly.exterior
    if any(b[0] <= x <= b[2] and b[1] <= y <= b[3] for x, y in zip(ext[0::2], ext[1::2])):
        return 0.0
    edges = _rect_edges(b)
    best = math.inf
    for ring in rings:
        points = [PlanePoint(x, y) for x, y in zip(ring[0::2], ring[1::2])]
        for i in range(len(points) - 1):
            ring_seg = Segment(points[i], points[i + 1])
            for edge in edges:
                d = segment_distance(ring_seg, edge)
                if d == 0.0:
                    return 0.0
                if d < best:
                    best = d
    return best
