"""Planar geometry primitives shared by the accessibility pipeline.

All coordinates are projected meters. Types are immutable and every
operation is a pure function, so values can be shared freely across
threads or forked worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

# (min_x, min_y, max_x, max_y) axis-aligned bounding box
Bounds = tuple[float, float, float, float]

ZERO_AREA_EPS_M2 = 1e-9


@dataclass(frozen=True)
class PlanePoint:
    """A point in projected (easting, northing) meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite plane coordinates ({self.x!r}, {self.y!r})")


@dataclass(frozen=True)
class Segment:
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
        return bounds_of_points(self.vertices)


def _close_ring(ring: Sequence[PlanePoint]) -> tuple[PlanePoint, ...]:
    pts = tuple(ring)
    if len(pts) < 3:
        raise ValueError("ring needs at least three vertices")
    if pts[0] != pts[-1]:
        pts = pts + (pts[0],)
    if len(pts) < 4:
        raise ValueError("closed ring needs at least three distinct vertices")
    return pts


class Polygon:
    """Polygon as a closed exterior ring plus optional hole rings.

    Ring closure (first vertex == last vertex) is enforced on construction;
    no further validity repair is attempted.
    """

    __slots__ = ("exterior", "holes")

    def __init__(
        self,
        exterior: Sequence[PlanePoint],
        holes: Iterable[Sequence[PlanePoint]] = (),
    ):
        self.exterior: tuple[PlanePoint, ...] = _close_ring(exterior)
        self.holes: tuple[tuple[PlanePoint, ...], ...] = tuple(
            _close_ring(h) for h in holes
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polygon)
            and self.exterior == other.exterior
            and self.holes == other.holes
        )

    def __hash__(self) -> int:
        return hash((self.exterior, self.holes))

    def rings(self) -> Iterator[tuple[PlanePoint, ...]]:
        yield self.exterior
        yield from self.holes

    def bounds(self) -> Bounds:
        return bounds_of_points(self.exterior)


# ---------------------------------------------------------------------------
# bounding boxes


def bounds_of_points(points: Sequence[PlanePoint]) -> Bounds:
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return (min(xs), min(ys), max(xs), max(ys))


def point_in_bounds(p: PlanePoint, b: Bounds) -> bool:
    return b[0] <= p.x <= b[2] and b[1] <= p.y <= b[3]


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


def point_in_ring(p: PlanePoint, ring: Sequence[PlanePoint]) -> bool:
    """Even-odd ray-crossing test against one closed ring."""
    inside = False
    for i in range(len(ring) - 1):
        a = ring[i]
        b = ring[i + 1]
        if (a.y > p.y) != (b.y > p.y):
            xcross = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if p.x < xcross:
                inside = not inside
    return inside


def point_in_polygon(p: PlanePoint, poly: Polygon) -> bool:
    """Even-odd point-in-polygon over the exterior and all holes."""
    inside = point_in_ring(p, poly.exterior)
    for hole in poly.holes:
        if point_in_ring(p, hole):
            inside = not inside
    return inside


def segment_intersects_polygon(s: Segment, poly: Polygon) -> bool:
    """True iff the closed segment shares at least one point with the polygon.

    Boundary contact counts as intersection: an edge of any ring touching or
    crossing the segment, or either endpoint inside the area. Per ring edge
    this is segments_intersect, with the same arithmetic, but each vertex's
    side of the segment's line is computed once for both edges that meet
    there, and the edge's own orientations of the segment endpoints only
    where they can decide the result.
    """
    ax = s.a.x
    ay = s.a.y
    bx = s.b.x
    by = s.b.y
    sx0, sx1 = (ax, bx) if ax <= bx else (bx, ax)
    sy0, sy1 = (ay, by) if ay <= by else (by, ay)
    ext = poly.exterior
    x0 = x1 = ext[0].x
    y0 = y1 = ext[0].y
    for v in ext:
        if v.x < x0:
            x0 = v.x
        elif v.x > x1:
            x1 = v.x
        if v.y < y0:
            y0 = v.y
        elif v.y > y1:
            y1 = v.y
    if sx0 > x1 or x0 > sx1 or sy0 > y1 or y0 > sy1:
        return False
    dx = bx - ax
    dy = by - ay
    for ring in poly.rings():
        q = ring[0]
        qx = q.x
        qy = q.y
        w = dx * (qy - ay) - dy * (qx - ax)
        o1 = 1 if w > 0.0 else (-1 if w < 0.0 else 0)
        for i in range(1, len(ring)):
            r = ring[i]
            rx = r.x
            ry = r.y
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
                    _within_edge(ax, ay, qx, qy, rx, ry) or _within_edge(bx, by, qx, qy, rx, ry)
                ):
                    return True
            else:
                # no proper crossing; a segment endpoint may still lie on the
                # edge (orientation 0: neither > 0 nor < 0, as in orientation)
                if _within_edge(ax, ay, qx, qy, rx, ry):
                    w = ex * (ay - qy) - ey * (ax - qx)
                    if not (w > 0.0 or w < 0.0):
                        return True
                if _within_edge(bx, by, qx, qy, rx, ry):
                    w = ex * (by - qy) - ey * (bx - qx)
                    if not (w > 0.0 or w < 0.0):
                        return True
            qx = rx
            qy = ry
            o1 = o2
    return point_in_polygon(s.a, poly) or point_in_polygon(s.b, poly)


def _within_edge(px: float, py: float, qx: float, qy: float, rx: float, ry: float) -> bool:
    return (qx <= px <= rx or rx <= px <= qx) and (qy <= py <= ry or ry <= py <= qy)


# ---------------------------------------------------------------------------
# measures


def _ring_area_centroid(ring: Sequence[PlanePoint]) -> tuple[float, float, float]:
    """Signed area and centroid of a closed ring (local-origin shoelace)."""
    x0 = ring[0].x
    y0 = ring[0].y
    a2 = 0.0  # twice the signed area
    cx = 0.0
    cy = 0.0
    for i in range(len(ring) - 1):
        px = ring[i].x - x0
        py = ring[i].y - y0
        qx = ring[i + 1].x - x0
        qy = ring[i + 1].y - y0
        w = px * qy - qx * py
        a2 += w
        cx += (px + qx) * w
        cy += (py + qy) * w
    if a2 == 0.0:
        return 0.0, 0.0, 0.0
    return a2 / 2.0, x0 + cx / (3.0 * a2), y0 + cy / (3.0 * a2)


def ring_area(ring: Sequence[PlanePoint]) -> float:
    """Signed shoelace area of a closed ring."""
    return _ring_area_centroid(ring)[0]


def polygon_area(poly: Polygon) -> float:
    """Unsigned area of exterior minus holes."""
    area = abs(ring_area(poly.exterior))
    for hole in poly.holes:
        area -= abs(ring_area(hole))
    return area


def polygon_centroid(poly: Polygon) -> PlanePoint:
    """Area-weighted centroid of exterior minus holes.

    Falls back to the arithmetic mean of the exterior vertices when the net
    area is below 1e-9 m^2 (degenerate footprints).
    """
    area_ext, cx_ext, cy_ext = _ring_area_centroid(poly.exterior)
    net = abs(area_ext)
    wx = abs(area_ext) * cx_ext
    wy = abs(area_ext) * cy_ext
    for hole in poly.holes:
        area_h, cx_h, cy_h = _ring_area_centroid(hole)
        net -= abs(area_h)
        wx -= abs(area_h) * cx_h
        wy -= abs(area_h) * cy_h
    if abs(net) < ZERO_AREA_EPS_M2:
        pts = poly.exterior[:-1]  # closing vertex would double-count
        return PlanePoint(
            sum(p.x for p in pts) / len(pts), sum(p.y for p in pts) / len(pts)
        )
    return PlanePoint(wx / net, wy / net)


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
    corners = [
        PlanePoint(b[0], b[1]),
        PlanePoint(b[2], b[1]),
        PlanePoint(b[2], b[3]),
        PlanePoint(b[0], b[3]),
    ]
    if any(point_in_polygon(c, poly) for c in corners):
        return 0.0
    if any(point_in_bounds(v, b) for v in poly.exterior):
        return 0.0
    edges = _rect_edges(b)
    best = math.inf
    for ring in poly.rings():
        for i in range(len(ring) - 1):
            ring_seg = Segment(ring[i], ring[i + 1])
            for edge in edges:
                d = segment_distance(ring_seg, edge)
                if d == 0.0:
                    return 0.0
                if d < best:
                    best = d
    return best
