"""Shared randomized-scene builders and brute-force oracles for tests.

The oracles here are deliberately exhaustive scans (O(N*M) nearest road,
O(N^2) obstruction counting) so the indexed pipeline can be checked for
exact agreement. The obstruction oracle uses its own segment-polygon
predicate, written edge by edge, so it does not share code with the
optimized one in roadaccess.geometry. The forward Mollweide projection
has a reference here too: the GeoPoint + Newton-solve path as it was before
roadaccess.projection inlined it, sharing no code with that module.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

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


def write_lonlat_scene(
    directory: Path,
    rng: random.Random,
    n_buildings: int,
    n_roads: int,
    span_deg: float = 0.01,
) -> SimpleNamespace:
    """GeoJSON inputs of a random scene in lon/lat: rotated rectangles, roads.

    The scene sits near (36.8 E, 1.28 S), span_deg wide (0.01 deg is about
    1.1 km); footprints are 4-22 m across and roads have 1-3 straight
    segments in any direction. Returns the three paths as .buildings,
    .roads and .boundary.
    """
    lon0, lat0 = 36.8, -1.28

    def feature(gtype, coordinates, **props):
        return {"type": "Feature", "geometry": {"type": gtype, "coordinates": coordinates}, "properties": props}

    buildings = []
    for _ in range(n_buildings):
        cx = lon0 + rng.uniform(0.0, span_deg)
        cy = lat0 + rng.uniform(0.0, span_deg)
        hw = rng.uniform(2e-5, 1e-4)
        hh = rng.uniform(2e-5, 1e-4)
        angle = rng.uniform(0.0, math.tau)
        c, s = math.cos(angle), math.sin(angle)
        ring = [
            [cx + sx * hw * c - sy * hh * s, cy + sx * hw * s + sy * hh * c]
            for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1))
        ]
        buildings.append(feature("Polygon", [ring + [ring[0]]]))
    roads = []
    for _ in range(n_roads):
        line = [[lon0 + rng.uniform(0.0, span_deg), lat0 + rng.uniform(0.0, span_deg)]]
        for _ in range(rng.randint(1, 3)):
            line.append([line[-1][0] + rng.uniform(-0.003, 0.003), line[-1][1] + rng.uniform(-0.003, 0.003)])
        roads.append(
            feature("LineString", line, **{"class": "residential", "surface": rng.choice(["paved", "unpaved", None])})
        )
    lo_x, lo_y, hi_x, hi_y = lon0 - 1e-3, lat0 - 1e-3, lon0 + span_deg + 1e-3, lat0 + span_deg + 1e-3
    boundary = [feature("Polygon", [[[lo_x, lo_y], [hi_x, lo_y], [hi_x, hi_y], [lo_x, hi_y], [lo_x, lo_y]]])]
    paths = SimpleNamespace()
    for name, features in (("buildings", buildings), ("roads", roads), ("boundary", boundary)):
        path = Path(directory) / f"{name}.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        setattr(paths, name, path)
    return paths


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


def road_segments(road: RoadSegment) -> list[Segment]:
    """The straight segments of a road, in vertex order."""
    vs = road.geometry.vertices
    return [Segment(a, b) for a, b in zip(vs, vs[1:])]


def brute_nearest(
    roads: list[RoadSegment], p: PlanePoint
) -> tuple[int, PlanePoint, float]:
    """Exhaustive nearest-road scan with the (distance, road, segment) tie rule."""
    best_key = None
    best_point = None
    seg_id = 0
    for road in roads:
        for seg in road_segments(road):
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


# ---------------------------------------------------------------------------
# reference forward projection

_REF_RADIUS_M = 6_378_137.0
_REF_SQRT2 = math.sqrt(2.0)
_REF_HALF_PI = math.pi / 2.0
_REF_MAX_NORTHING_M = _REF_SQRT2 * _REF_RADIUS_M
_REF_POLE_EPS_DEG = 1e-9
_REF_X_SCALE = _REF_RADIUS_M * 2.0 * _REF_SQRT2 / math.pi


@dataclass(frozen=True)
class _RefGeoPoint:
    lon: float
    lat: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lon) and math.isfinite(self.lat)):
            raise ValueError(f"non-finite geographic coordinates ({self.lon!r}, {self.lat!r})")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon!r}")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat!r}")


def _ref_theta_bisect(target: float) -> float:
    lo, hi = -_REF_HALF_PI, _REF_HALF_PI
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * mid + math.sin(2.0 * mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    return 0.5 * (lo + hi)


def _ref_theta_for_latitude(lat_deg: float) -> float:
    if abs(lat_deg) >= 90.0 - _REF_POLE_EPS_DEG:
        return math.copysign(_REF_HALF_PI, lat_deg)
    phi = math.radians(lat_deg)
    target = math.pi * math.sin(phi)
    theta = phi
    for _ in range(50):
        denom = 2.0 + 2.0 * math.cos(2.0 * theta)
        if denom <= 1e-14:
            break
        delta = (2.0 * theta + math.sin(2.0 * theta) - target) / denom
        theta -= delta
        if theta > _REF_HALF_PI:
            theta = _REF_HALF_PI
        elif theta < -_REF_HALF_PI:
            theta = -_REF_HALF_PI
        if abs(delta) < 1e-12:
            return theta
    return _ref_theta_bisect(target)


def reference_project_forward(lon: float, lat: float) -> tuple[float, float]:
    """(x, y) in meters; ValueError for a coordinate GeoPoint rejects."""
    p = _RefGeoPoint(lon, lat)
    if abs(p.lat) >= 90.0 - _REF_POLE_EPS_DEG:
        return 0.0, math.copysign(_REF_MAX_NORTHING_M, p.lat)
    theta = _ref_theta_for_latitude(p.lat)
    x = _REF_X_SCALE * math.radians(p.lon) * math.cos(theta)
    y = _REF_MAX_NORTHING_M * math.sin(theta)
    return x, y
