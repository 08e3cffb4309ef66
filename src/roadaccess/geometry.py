"""Planar geometry primitives shared by the accessibility pipeline.

All coordinates are projected meters. Types are immutable and every
operation is a pure function, so values can be shared freely across
threads or forked worker processes. Points and segments are NamedTuples:
they compare and hash as tuples of their fields.

The brute-force oracles in tests/_scenes.py (obstructions, nearest road,
road clip) are written apart from this module and call none of its
predicates, so an agreement between the two is not a shared mistake.
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

    # Unpickling calls __new__ too, so an unpickled point is checked as well.
    def __new__(cls, x: float, y: float) -> "PlanePoint":
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite plane coordinates ({x!r}, {y!r})")
        return tuple.__new__(cls, (x, y))


class Segment(NamedTuple):
    """Closed straight segment between two points; zero length is allowed."""

    a: PlanePoint
    b: PlanePoint


# A flat ring is a sequence of coordinates, (x0, y0, x1, y1, ..., x0, y0): its
# vertices in order, closed by repeating the first. Any float sequence will
# do, as the predicates and measures only iterate, index or slice it. The
# building table keeps every footprint ring back to back in one array('d'),
# 8 bytes a coordinate and no float object each (see flat_column); Polygon
# records, road lines and the boundary keep tuples, which hash.
FlatRing = Sequence[float]


def close_flat(flat: list[float] | tuple[float, ...]) -> list[float] | tuple[float, ...]:
    """flat closed by repeating its first vertex where the last differs; a
    list is closed in place. Fewer than three distinct vertices raise."""
    if len(flat) < 6:
        raise ValueError("ring needs at least three vertices")
    if flat[0] != flat[-2] or flat[1] != flat[-1]:
        flat += flat[:2]
    if len(flat) < 8:
        raise ValueError("closed ring needs at least three distinct vertices")
    return flat


def _close_ring(ring: Sequence[PlanePoint] | Sequence[float]) -> tuple[float, ...]:
    """The flat closed ring tuple of a sequence of PlanePoints or of flat coordinates."""
    flat = tuple(ring)
    if flat and isinstance(flat[0], PlanePoint):
        flat = tuple([c for p in flat for c in (p.x, p.y)])
    return close_flat(flat)


class Polygon:
    """Polygon as a closed exterior ring plus optional hole rings.

    Rings are given as PlanePoints or as flat coordinates and stored as flat
    tuples, exterior first, in `rings`. Ring closure (first vertex == last
    vertex) is enforced on construction; no further validity repair is
    attempted.
    """

    __slots__ = ("rings",)

    def __init__(
        self,
        exterior: Sequence[PlanePoint] | Sequence[float],
        holes: Iterable[Sequence[PlanePoint] | Sequence[float]] = (),
    ):
        self.rings: tuple[tuple[float, ...], ...] = (_close_ring(exterior), *map(_close_ring, holes))

    @property
    def exterior(self) -> tuple[float, ...]:
        return self.rings[0]

    @property
    def holes(self) -> tuple[tuple[float, ...], ...]:
        return self.rings[1:]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polygon) and self.rings == other.rings

    def __hash__(self) -> int:
        return hash(self.rings)

    def bounds(self) -> Bounds:
        return flat_bounds(self.rings[0])


def flat_bounds(flat: Sequence[float]) -> Bounds:
    """The box of flat coordinates (x0, y0, x1, y1, ...): a ring or a road line."""
    xs = flat[0::2]
    ys = flat[1::2]
    return (min(xs), min(ys), max(xs), max(ys))


# ---------------------------------------------------------------------------
# predicates


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
    crossing the segment, or either endpoint inside the area.
    """
    coords, ends = flat_column(poly.rings)
    return segment_hits_span(s.a.x, s.a.y, s.b.x, s.b.y, coords, ends, 0, len(poly.rings))


def flat_column(rings: Sequence[FlatRing]) -> tuple[FlatRing, Sequence[int]]:
    """(coords, ends): the flat rings back to back in one sequence, and the
    ring ends after a leading 0, so ring r is coords[ends[r]:ends[r + 1]].
    This is the layout segment_hits_span walks; one ring is its own column."""
    if len(rings) == 1:
        return rings[0], (0, len(rings[0]))
    coords: list[float] = []
    ends = [0]
    for ring in rings:
        coords += ring
        ends.append(len(coords))
    return coords, ends


def segment_hits_span(
    ax: float,
    ay: float,
    bx: float,
    by: float,
    coords: FlatRing,
    ends: Sequence[int],
    first: int,
    last: int,
) -> bool:
    """True iff the closed segment (ax, ay)-(bx, by) shares a point with the
    area that rings first to last - 1 of a flat column bound (exterior
    first, even-odd). Ring r is coords[ends[r]:ends[r + 1]], as flat_column
    and the building table lay them out.

    The edges are walked by index within the span, so no ring is copied
    out of the column; only a segment that meets no edge has its endpoints
    tested against slices of the rings (point_in_rings). Per ring edge this
    is the four-sided closed-segment test: the edge and the segment meet iff
    each has its ends on opposite sides of the other's line (the sign of a
    cross product), or an end of one lies on the other (sign zero, within
    its box). Each vertex's side of the segment's line is computed once for
    both edges that meet there, and the sides of the segment endpoints only
    where they can decide the result. The test is symmetric in the edge and
    the segment. Callers may reject footprints whose box misses the
    segment's box first.
    """
    sx0, sx1 = (ax, bx) if ax <= bx else (bx, ax)
    sy0, sy1 = (ay, by) if ay <= by else (by, ay)
    dx = bx - ax
    dy = by - ay
    # ring r runs from the previous ring's end; each end is read once, and
    # the loops count with ints rather than build a range per ring
    end = ends[first]
    r = first
    while r < last:
        i = end
        r += 1
        end = ends[r]
        qx = coords[i]
        qy = coords[i + 1]
        w = dx * (qy - ay) - dy * (qx - ax)
        o1 = 1 if w > 0.0 else (-1 if w < 0.0 else 0)
        i += 2
        while i < end:
            rx = coords[i]
            ry = coords[i + 1]
            i += 2
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
                # edge (sign zero: the cross product neither > 0 nor < 0)
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
    rings = [coords[ends[r] : ends[r + 1]] for r in range(first, last)]
    return point_in_rings(ax, ay, rings) or point_in_rings(bx, by, rings)


def box_near_rings(b: Bounds, rings: Sequence[FlatRing], margin: float) -> bool:
    """True iff the closed box b = (x0, y0, x1, y1) lies within margin >= 0
    of the area the flat rings bound (exterior first, even-odd).

    The distance is zero when the box touches or overlaps the area, a box
    wholly inside included; a box inside a hole is measured to the hole's
    ring. The tests run in this order and the first hit decides: a box
    corner inside the area, an exterior vertex inside the box, a box edge
    touching a ring edge, then a ring edge within margin of a box corner or
    a ring vertex within margin of a box edge.
    """
    x0, y0, x1, y1 = b
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    if any(point_in_rings(x, y, rings) for x, y in corners):
        return True
    ext = rings[0]
    if any(x0 <= x <= x1 and y0 <= y <= y1 for x, y in zip(ext[0::2], ext[1::2])):
        return True
    edges = [(*c, *d) for c, d in zip(corners, corners[1:] + corners[:1])]
    coords, ends = flat_column(rings)
    if any(segment_hits_span(*edge, coords, ends, 0, len(rings)) for edge in edges):
        return True
    for ring in rings:
        vertices = list(zip(ring[0::2], ring[1::2]))
        for (ax, ay), (bx, by) in zip(vertices, vertices[1:]):
            if any(_point_segment_distance(x, y, ax, ay, bx, by) <= margin for x, y in corners):
                return True
            # the ring is closed, so each edge's start covers every vertex
            if any(_point_segment_distance(ax, ay, *edge) <= margin for edge in edges):
                return True
    return False


def _point_segment_distance(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Distance from (px, py) to the closed segment (ax, ay)-(bx, by): the
    orthogonal projection clamped to the segment, then math.hypot."""
    dx = bx - ax
    dy = by - ay
    d2 = dx * dx + dy * dy
    t = 0.0 if d2 == 0.0 else ((px - ax) * dx + (py - ay) * dy) / d2
    if t <= 0.0:
        return math.hypot(px - ax, py - ay)
    if t >= 1.0:
        return math.hypot(px - bx, py - by)
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


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
