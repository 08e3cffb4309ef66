"""Shared randomized-scene builders and brute-force oracles for tests.

The oracles here are deliberately exhaustive scans (O(N*M) nearest road,
O(N^2) obstruction counting) so the indexed pipeline can be checked for
exact agreement. The obstruction oracle uses its own segment-polygon
predicate, written edge by edge, so it does not share code with the
optimized one in roadaccess.geometry.
"""

from __future__ import annotations

import math
import random

from roadaccess.geometry import (
    PlanePoint,
    Polygon,
    Polyline,
    Segment,
    nearest_point_on_segment,
)
from roadaccess.ingest import Building, RoadSegment
from roadaccess.levels import Surface

SURFACE_CHOICES = (Surface.PAVED, Surface.UNPAVED, Surface.UNKNOWN)


def random_building(rng: random.Random, building_id: int, span: float = 2000.0) -> Building:
    """A rotated rectangle footprint somewhere in the scene."""
    cx = rng.uniform(0.0, span)
    cy = rng.uniform(0.0, span)
    hw = rng.uniform(2.0, 12.0)
    hh = rng.uniform(2.0, 12.0)
    angle = rng.uniform(0.0, math.tau)
    cos_a = math.cos(angle)
    sin_a = math.sin(angle)
    ring = []
    for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
        dx = sx * hw
        dy = sy * hh
        ring.append(
            PlanePoint(cx + dx * cos_a - dy * sin_a, cy + dx * sin_a + dy * cos_a)
        )
    return Building.from_footprint(building_id, Polygon(ring))


def random_roads(
    rng: random.Random, n_segments: int, span: float = 2000.0
) -> list[RoadSegment]:
    """Random polylines totalling exactly n_segments constituent segments."""
    roads: list[RoadSegment] = []
    remaining = n_segments
    while remaining > 0:
        n_seg = min(rng.randint(1, 3), remaining)
        x = rng.uniform(0.0, span)
        y = rng.uniform(0.0, span)
        vertices = [PlanePoint(x, y)]
        for _ in range(n_seg):
            x += rng.uniform(-500.0, 500.0)
            y += rng.uniform(-500.0, 500.0)
            vertices.append(PlanePoint(x, y))
        roads.append(
            RoadSegment(
                len(roads), Polyline(vertices), "residential", rng.choice(SURFACE_CHOICES)
            )
        )
        remaining -= n_seg
    return roads


def random_scene(
    rng: random.Random, n_buildings: int, n_segments: int, span: float = 2000.0
) -> tuple[list[Building], list[RoadSegment]]:
    buildings = [random_building(rng, i, span) for i in range(n_buildings)]
    roads = random_roads(rng, n_segments, span)
    return buildings, roads


def _orientation(a: PlanePoint, b: PlanePoint, c: PlanePoint) -> int:
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


def _segments_intersect(p1, p2, q1, q2) -> bool:
    o1 = _orientation(p1, p2, q1)
    o2 = _orientation(p1, p2, q2)
    o3 = _orientation(q1, q2, p1)
    o4 = _orientation(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    return (
        (o1 == 0 and _within_span(q1, p1, p2))
        or (o2 == 0 and _within_span(q2, p1, p2))
        or (o3 == 0 and _within_span(p1, q1, q2))
        or (o4 == 0 and _within_span(p2, q1, q2))
    )


def _inside(p: PlanePoint, poly: Polygon) -> bool:
    """Even-odd ray crossing over every ring."""
    inside = False
    for ring in poly.rings():
        for i in range(len(ring) - 1):
            a = ring[i]
            b = ring[i + 1]
            if (a.y > p.y) != (b.y > p.y):
                if p.x < a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y):
                    inside = not inside
    return inside


def reference_segment_intersects_polygon(s: Segment, poly: Polygon) -> bool:
    """Closed segment touches the polygon: a four-orientation test per ring edge.

    Boundary contact counts, as does either endpoint inside the area.
    """
    xs = [p.x for p in poly.exterior]
    ys = [p.y for p in poly.exterior]
    if (
        max(s.a.x, s.b.x) < min(xs)
        or min(s.a.x, s.b.x) > max(xs)
        or max(s.a.y, s.b.y) < min(ys)
        or min(s.a.y, s.b.y) > max(ys)
    ):
        return False
    for ring in poly.rings():
        for i in range(len(ring) - 1):
            if _segments_intersect(s.a, s.b, ring[i], ring[i + 1]):
                return True
    return _inside(s.a, poly) or _inside(s.b, poly)


def brute_nearest(
    roads: list[RoadSegment], p: PlanePoint
) -> tuple[int, PlanePoint, float]:
    """Exhaustive nearest-road scan with the (distance, road, segment) tie rule."""
    best_key = None
    best_point = None
    seg_id = 0
    for road in roads:
        for seg in road.geometry.segments():
            q, d = nearest_point_on_segment(p, seg)
            key = (d, road.road_id, seg_id)
            if best_key is None or key < best_key:
                best_key, best_point = key, q
            seg_id += 1
    assert best_key is not None
    return best_key[1], best_point, best_key[0]


def brute_obstructions(
    buildings: list[Building], source: Building, end: PlanePoint
) -> int:
    """Exhaustive O(N) obstruction count for one connector."""
    if source.centroid == end:
        return 0
    seg = Segment(source.centroid, end)
    return sum(
        1
        for other in buildings
        if other.building_id != source.building_id
        and reference_segment_intersects_polygon(seg, other.footprint)
    )


def brute_metrics(
    buildings: list[Building], roads: list[RoadSegment]
) -> dict[int, tuple[int, int, PlanePoint, float]]:
    """Per-building (obstruction_count, road_id, nearest_point, distance)."""
    out = {}
    for b in buildings:
        road_id, q, d = brute_nearest(roads, b.centroid)
        count = brute_obstructions(buildings, b, q)
        out[b.building_id] = (count, road_id, q, d)
    return out
