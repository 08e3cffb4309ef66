"""Shared randomized-scene builders and brute-force oracles for tests.

The oracles here are deliberately exhaustive scans (O(N*M) nearest road,
O(N^2) obstruction counting) so the indexed pipeline can be checked for
exact agreement. The obstruction oracle uses its own segment-polygon
predicate, written edge by edge. The nearest-road oracle and the road
clip's rect-polygon distance use nearest_point_on_segment and
_segments_intersect, kept here on PlanePoints. None of them shares code
with the predicates of roadaccess.geometry or roadaccess.spatial_index.
Buildings made here get their centroids from reference_centroid, a copy
of the area-weighted centroid arithmetic kept apart from
roadaccess.geometry.rings_centroid. Tests hand the core a BuildingTable
(building_table); the oracles iterate the records, as a table makes a new
footprint each time a record is read. A polygon, such as a footprint or the
boundary, is a tuple of closed flat rings (x0, y0, ..., x0, y0), exterior
first; tests build one from rings of points with polygon, which flattens
and closes them.
The forward Mollweide projection has a reference here too: the GeoPoint +
Newton-solve path as it was before roadaccess.projection inlined it,
sharing no code with that module.
The cell and connector GeoJSON layers have reference writers: one
json.dump of the whole document, which the streamed writers must match
byte for byte. reference_cells runs the whole pipeline, from the input
files to the rows of cells.csv and aggregates.csv, with plain loops, these
oracles and no index.
"""

from __future__ import annotations

import functools
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from roadaccess.buildings import Building, BuildingTable
from roadaccess.geometry import PlanePoint, Segment, close_flat
from roadaccess.ingest import MOTORABLE_CLASSES, RoadSegment
from roadaccess.levels import Surface, normalize_surface
from roadaccess.projection import clamp_to_bounds, inverse_lonlat, project_lonlat

SURFACE_CHOICES = (Surface.PAVED, Surface.UNPAVED, Surface.UNKNOWN)

# a polygon: closed flat rings, exterior first
Rings = tuple[tuple[float, ...], ...]


def _reference_ring_area_centroid(ring: list[PlanePoint]) -> tuple[float, float, float]:
    """Signed area and centroid of a closed ring, the shoelace taken about
    its first vertex; (0, 0, 0) for a ring without area."""
    o = ring[0]
    a2 = 0.0  # twice the signed area
    cx = 0.0
    cy = 0.0
    for p, q in zip(ring, ring[1:]):
        px = p.x - o.x
        py = p.y - o.y
        qx = q.x - o.x
        qy = q.y - o.y
        w = px * qy - qx * py
        a2 += w
        cx += (px + qx) * w
        cy += (py + qy) * w
    if a2 == 0.0:
        return 0.0, 0.0, 0.0
    return a2 / 2.0, o.x + cx / (3.0 * a2), o.y + cy / (3.0 * a2)


def reference_centroid(poly: Rings) -> PlanePoint:
    """Area-weighted centroid of the exterior minus the holes; the mean of
    the exterior's vertices (the closing one once) below 1e-9 m^2 net area."""
    area, cx, cy = _reference_ring_area_centroid(ring_points(poly[0]))
    net = abs(area)
    wx = abs(area) * cx
    wy = abs(area) * cy
    for hole in poly[1:]:
        area, cx, cy = _reference_ring_area_centroid(ring_points(hole))
        net -= abs(area)
        wx -= abs(area) * cx
        wy -= abs(area) * cy
    if abs(net) < 1e-9:
        vertices = ring_points(poly[0])[:-1]
        return PlanePoint(
            sum(p.x for p in vertices) / len(vertices), sum(p.y for p in vertices) / len(vertices)
        )
    return PlanePoint(wx / net, wy / net)


def make_building(building_id: int, footprint: Rings) -> Building:
    """A building record, its centroid from reference_centroid."""
    return Building(building_id, footprint, reference_centroid(footprint))


def building_table(buildings) -> BuildingTable:
    """The records as a BuildingTable, sorted by building_id, with their
    centroids as given."""
    table = BuildingTable()
    for b in sorted(buildings, key=lambda b: b.building_id):
        table.append(b.building_id, b.footprint, b.centroid.x, b.centroid.y)
    return table


def flat_line(points) -> tuple[float, ...]:
    """A road line (x0, y0, x1, y1, ...) of (x, y) pairs."""
    return tuple(c for p in points for c in p)


def polygon(exterior, holes=()) -> Rings:
    """The polygon of rings given as (x, y) pairs, such as PlanePoints:
    each ring flattened by flat_line and closed by close_flat."""
    return tuple(close_flat(flat_line(ring)) for ring in (exterior, *holes))


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
    return make_building(building_id, polygon(ring))


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
                len(roads), flat_line(vertices), "residential", rng.choice(SURFACE_CHOICES)
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


def ring_points(ring: tuple[float, ...]) -> list[PlanePoint]:
    """The vertices of flat coordinates (x0, y0, x1, y1, ...), a ring or a
    road line, as PlanePoints."""
    return [PlanePoint(ring[i], ring[i + 1]) for i in range(0, len(ring), 2)]


def _inside(p: PlanePoint, poly: Rings) -> bool:
    """Even-odd ray crossing over every ring."""
    inside = False
    for ring in map(ring_points, poly):
        for i in range(len(ring) - 1):
            a = ring[i]
            b = ring[i + 1]
            if (a.y > p.y) != (b.y > p.y):
                if p.x < a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y):
                    inside = not inside
    return inside


def reference_segment_intersects_polygon(s: Segment, poly: Rings) -> bool:
    """Closed segment touches the polygon: a four-orientation test per ring edge.

    Boundary contact counts, as does either endpoint inside the area.
    """
    xs = poly[0][0::2]
    ys = poly[0][1::2]
    if (
        max(s.a.x, s.b.x) < min(xs)
        or min(s.a.x, s.b.x) > max(xs)
        or max(s.a.y, s.b.y) < min(ys)
        or min(s.a.y, s.b.y) > max(ys)
    ):
        return False
    for ring in map(ring_points, poly):
        for i in range(len(ring) - 1):
            if _segments_intersect(s.a, s.b, ring[i], ring[i + 1]):
                return True
    return _inside(s.a, poly) or _inside(s.b, poly)


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


@functools.cache  # brute_nearest scans every road once per query point
def road_segments(road: RoadSegment) -> tuple[Segment, ...]:
    """The straight segments of a road, in vertex order."""
    vs = ring_points(road.geometry)
    return tuple(Segment(a, b) for a, b in zip(vs, vs[1:]))


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
# end-to-end reference: input files to cells.csv and aggregates.csv rows


def reference_polygon(rings) -> Rings:
    """The projected polygon of a GeoJSON polygon's lon/lat rings, each
    ring closed by close_flat."""
    return tuple(close_flat(tuple(c for lon, lat in ring for c in project_lonlat(lon, lat))) for ring in rings)


def _reference_box(points: list[PlanePoint]) -> tuple[float, float, float, float]:
    return (
        min(p.x for p in points),
        min(p.y for p in points),
        max(p.x for p in points),
        max(p.y for p in points),
    )


def _reference_rect_polygon_distance(box, poly: Rings) -> float:
    """Distance from an axis-aligned box to a polygon's area, edge by edge."""
    x0, y0, x1, y1 = box
    corners = [PlanePoint(x0, y0), PlanePoint(x1, y0), PlanePoint(x1, y1), PlanePoint(x0, y1)]
    if any(_inside(c, poly) for c in corners):
        return 0.0
    if any(x0 <= p.x <= x1 and y0 <= p.y <= y1 for p in ring_points(poly[0])):
        return 0.0
    best = math.inf
    for ring in map(ring_points, poly):
        for a, b in zip(ring, ring[1:]):
            for c, d in zip(corners, corners[1:] + corners[:1]):
                if _segments_intersect(a, b, c, d):
                    return 0.0
                for p, s in ((a, Segment(c, d)), (b, Segment(c, d)), (c, Segment(a, b)), (d, Segment(a, b))):
                    best = min(best, nearest_point_on_segment(p, s)[1])
    return best


def _reference_road_vertices(line) -> list[PlanePoint] | None:
    """The projected vertices of a road line's lon/lat positions, each one
    equal to the one before dropped; None when fewer than two remain."""
    vertices: list[PlanePoint] = []
    for lon, lat in line:
        p = PlanePoint(*project_lonlat(lon, lat))
        if not vertices or p != vertices[-1]:
            vertices.append(p)
    return vertices if len(vertices) >= 2 else None


def reference_cells(
    buildings_path, roads_path, boundary_path, cell_size: float = 100.0, threshold: float = 1.0
) -> tuple[list[list[str]], list[list[str]]] | None:
    """The data rows of cells.csv and of aggregates.csv for the inputs, as
    the run writes them, computed from scratch: json.load, a building per
    polygon part, a road per line with repeated vertices dropped (a feature
    with a line of fewer than two vertices is skipped whole), the clip by
    the boundary's area (centroids) and by 500 m (road boxes),
    brute_metrics, a per-cell dict of sums, the empty cells of the
    boundary's box and the level rule. None when no motorable road is left
    in scope, as run then exits 2. No building may carry a confidence:
    there is no confidence filter here."""

    def features(path):
        with open(path, encoding="utf-8") as f:
            return json.load(f)["features"]

    buildings = []
    for feature in features(buildings_path):
        geom = feature["geometry"]
        parts = [geom["coordinates"]] if geom["type"] == "Polygon" else geom["coordinates"]
        for rings in parts:
            buildings.append(make_building(len(buildings), reference_polygon(rings)))
    roads = []
    for feature in features(roads_path):
        geom = feature["geometry"]
        lines = [geom["coordinates"]] if geom["type"] == "LineString" else geom["coordinates"]
        lines = [_reference_road_vertices(line) for line in lines]
        if None in lines:
            continue
        props = feature["properties"]
        surface = normalize_surface(props.get("surface"))
        for vertices in lines:
            roads.append(RoadSegment(len(roads), flat_line(vertices), props["class"], surface))
    boundary = reference_polygon(features(boundary_path)[0]["geometry"]["coordinates"])

    buildings = [b for b in buildings if _inside(b.centroid, boundary)]
    roads = [
        r
        for r in roads
        if r.road_class in MOTORABLE_CLASSES
        and _reference_rect_polygon_distance(_reference_box(ring_points(r.geometry)), boundary) <= 500.0
    ]
    if not roads:
        return None
    surface = {r.road_id: r.surface for r in roads}
    sums = defaultdict(lambda: [0, 0, 0, 0])  # buildings, obstructions, paved, unpaved
    metrics = brute_metrics(buildings, roads)
    for b in buildings:
        count, road_id, _, _ = metrics[b.building_id]
        cell = (math.floor(b.centroid.x / cell_size), math.floor(b.centroid.y / cell_size))
        sums[cell][0] += 1
        sums[cell][1] += count
        sums[cell][2] += surface[road_id] is Surface.PAVED
        sums[cell][3] += surface[road_id] is Surface.UNPAVED

    xs = boundary[0][0::2]
    ys = boundary[0][1::2]
    cells = []
    aggregates = []
    for i in range(math.floor(min(xs) / cell_size), math.floor(max(xs) / cell_size) + 1):
        for j in range(math.floor(min(ys) / cell_size), math.floor(max(ys) / cell_size) + 1):
            if (i, j) in sums:
                n, total, paved, unpaved = sums[i, j]
                mean = total / n
                modal = "paved" if paved > unpaved else "unpaved"
                if mean > threshold:
                    level = "high"
                elif modal == "paved":
                    level = "low"
                else:
                    level = "medium"
                cells.append([str(i), str(j), level, str(n), repr(mean), modal, "false"])
                aggregates.append([str(i), str(j), str(n), repr(mean), modal])
            elif _inside(PlanePoint((i + 0.5) * cell_size, (j + 0.5) * cell_size), boundary):
                cells.append([str(i), str(j), "low", "0", "", "", "true"])
    return cells, aggregates


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
    """(x, y) in meters; ValueError for a coordinate project_lonlat rejects."""
    p = _RefGeoPoint(lon, lat)
    if abs(p.lat) >= 90.0 - _REF_POLE_EPS_DEG:
        return 0.0, math.copysign(_REF_MAX_NORTHING_M, p.lat)
    theta = _ref_theta_for_latitude(p.lat)
    x = _REF_X_SCALE * math.radians(p.lon) * math.cos(theta)
    y = _REF_MAX_NORTHING_M * math.sin(theta)
    return x, y


# ---------------------------------------------------------------------------
# reference inverse projection


def reference_project_inverse(x: float, y: float) -> tuple[float, float]:
    """(lon, lat) in degrees; ValueError for a non-finite plane point or one
    outside the projection bounds."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite plane coordinates ({x!r}, {y!r})")
    s = y / _REF_MAX_NORTHING_M
    if abs(s) > 1.0 + 1e-12:
        raise ValueError(f"northing outside projection bounds: {y!r}")
    s = max(-1.0, min(1.0, s))
    theta = math.asin(s)
    sin_phi = (2.0 * theta + math.sin(2.0 * theta)) / math.pi
    lat = math.degrees(math.asin(max(-1.0, min(1.0, sin_phi))))
    cos_theta = math.cos(theta)
    if cos_theta <= 1e-12:
        if abs(x) > 1.0:
            raise ValueError(f"easting {x!r} outside projection bounds at the pole")
        g = _RefGeoPoint(0.0, lat)
        return g.lon, g.lat
    lon = math.degrees(x / (_REF_X_SCALE * cos_theta))
    if abs(lon) > 180.0 + 1e-9:
        raise ValueError(f"point outside projection bounds: ({x!r}, {y!r})")
    g = _RefGeoPoint(max(-180.0, min(180.0, lon)), lat)
    return g.lon, g.lat


# ---------------------------------------------------------------------------
# reference GeoJSON writers: feature dicts and one json.dump, as
# roadaccess.outputs wrote the cell and connector layers before it streamed
# them feature by feature


def _reference_write_json(path: Path | str, doc: object) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _reference_cell_ring(cell, cell_size: float) -> list[tuple[float, float]]:
    x0 = cell.i * cell_size
    y0 = cell.j * cell_size
    x1 = x0 + cell_size
    y1 = y0 + cell_size
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))
    return [inverse_lonlat(*clamp_to_bounds(x, y)) for x, y in corners]


def reference_write_cells_geojson(path: Path | str, cells, cell_size: float) -> None:
    features = [
        {
            "type": "Feature",
            "geometry": {
                "type": "Polygon",
                "coordinates": [_reference_cell_ring(c.cell, cell_size)],
            },
            "properties": {
                "i": c.cell.i,
                "j": c.cell.j,
                "level": c.level.label,
                "building_count": c.building_count,
                "mean_obstruction": c.mean_obstruction,
                "modal_surface": c.modal_surface.value if c.modal_surface else None,
                "empty": c.empty,
            },
        }
        for c in cells
    ]
    _reference_write_json(path, {"type": "FeatureCollection", "features": features})


def reference_write_connectors_geojson(path: Path | str, connectors, metrics_by_id) -> None:
    features = []
    for c in connectors:
        m = metrics_by_id[c.building_id]
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [
                        inverse_lonlat(c.start.x, c.start.y),
                        inverse_lonlat(c.end.x, c.end.y),
                    ],
                },
                "properties": {
                    "building_id": c.building_id,
                    "obstruction_count": m.obstruction_count,
                    "nearest_surface": m.nearest_surface.value,
                    "road_distance": c.road_distance,
                    "road_id": c.road_id,
                },
            }
        )
    _reference_write_json(path, {"type": "FeatureCollection", "features": features})
