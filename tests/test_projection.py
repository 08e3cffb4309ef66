import math
import random
import struct

import pytest

from roadaccess.geometry import PlanePoint
from roadaccess.projection import (
    MAX_NORTHING_M,
    SPHERE_RADIUS_M,
    GeoPoint,
    clamp_to_bounds,
    inverse_lonlat,
    project_forward,
    project_inverse,
    project_lonlat,
)

from _scenes import reference_project_forward, reference_project_inverse


def test_geopoint_validation():
    # a geographic point is checked where it is projected
    with pytest.raises(ValueError, match=r"^longitude out of range: 181\.0$"):
        project_lonlat(181.0, 0.0)
    with pytest.raises(ValueError, match=r"^latitude out of range: -90\.5$"):
        project_lonlat(0.0, -90.5)
    with pytest.raises(ValueError, match=r"^non-finite geographic coordinates \(nan, 0\.0\)$"):
        project_lonlat(math.nan, 0.0)


def test_origin_maps_to_origin():
    assert project_forward(GeoPoint(0, 0)) == PlanePoint(0.0, 0.0)
    g = project_inverse(PlanePoint(0.0, 0.0))
    assert g.lon == 0.0 and g.lat == 0.0


def test_pole_maps_to_max_northing():
    p = project_forward(GeoPoint(0, 90))
    assert p == PlanePoint(0.0, MAX_NORTHING_M)
    assert MAX_NORTHING_M == pytest.approx(math.sqrt(2) * SPHERE_RADIUS_M, rel=1e-15)
    south = project_forward(GeoPoint(0, -90))
    assert south.y == -MAX_NORTHING_M
    g = project_inverse(PlanePoint(0.0, MAX_NORTHING_M))
    assert g.lat == 90.0


def test_antimeridian_on_equator():
    # theta = 0 there, so the closed form is exact: x = 2*sqrt(2)*R
    p = project_forward(GeoPoint(180, 0))
    assert p.x == pytest.approx(2 * math.sqrt(2) * SPHERE_RADIUS_M, rel=1e-12)
    assert p.y == 0.0
    g = project_inverse(p)
    assert g.lon == pytest.approx(180.0, abs=1e-9)


def test_auxiliary_angle_satisfies_defining_equation():
    rng = random.Random(11)
    for _ in range(500):
        lat = rng.uniform(-89.9, 89.9)
        p = project_forward(GeoPoint(0, lat))
        theta = math.asin(p.y / MAX_NORTHING_M)
        residual = 2 * theta + math.sin(2 * theta) - math.pi * math.sin(math.radians(lat))
        assert abs(residual) < 1e-11


def test_round_trip_geo_to_plane_to_geo():
    rng = random.Random(99)
    worst = 0.0
    for _ in range(10_000):
        lon = rng.uniform(-180.0, 180.0)
        lat = rng.uniform(-90.0, 90.0)
        g = project_inverse(project_forward(GeoPoint(lon, lat)))
        worst = max(worst, abs(g.lon - lon), abs(g.lat - lat))
    assert worst < 1e-9


def test_round_trip_plane_to_geo_to_plane():
    # |lat| <= 89: the last degree before the pole is inherently
    # ill-conditioned in float64 (asin near 1), where meter-level
    # round-trips through degrees cannot hold 1e-6 m.
    rng = random.Random(100)
    for _ in range(2_000):
        start = project_forward(
            GeoPoint(rng.uniform(-179.9, 179.9), rng.uniform(-89.0, 89.0))
        )
        p = project_forward(project_inverse(start))
        assert math.hypot(p.x - start.x, p.y - start.y) < 1e-6


def test_equal_area_property():
    # Oracle: Lambert cylindrical equal-area (x = R*lon_rad, y = R*sin(lat))
    # preserves area exactly, so small quads must agree within 0.5 %.
    def shoelace(points):
        area = 0.0
        for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
            area += x0 * y1 - x1 * y0
        return abs(area) / 2.0

    rng = random.Random(123)
    for _ in range(100):
        lon = rng.uniform(-170.0, 170.0)
        lat = rng.uniform(-80.0, 80.0)
        w = rng.uniform(0.005, 0.05)
        h = rng.uniform(0.005, 0.05)
        corners = [
            (lon, lat),
            (lon + w, lat),
            (lon + w, lat + h),
            (lon, lat + h),
        ]
        projected = [
            (p.x, p.y)
            for p in (project_forward(GeoPoint(lo, la)) for lo, la in corners)
        ]
        lambert = [
            (SPHERE_RADIUS_M * math.radians(lo), SPHERE_RADIUS_M * math.sin(math.radians(la)))
            for lo, la in corners
        ]
        area_m = shoelace(projected)
        area_sphere = shoelace(lambert)
        assert area_m == pytest.approx(area_sphere, rel=0.005)


def test_inverse_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        project_inverse(PlanePoint(0.0, MAX_NORTHING_M * 1.01))
    with pytest.raises(ValueError):
        project_inverse(PlanePoint(2.5 * MAX_NORTHING_M * 2, 0.0))  # lon past 180
    with pytest.raises(ValueError):
        # at the pole row only x ~ 0 is representable
        project_inverse(PlanePoint(1_000.0, MAX_NORTHING_M))


def test_near_pole_latitudes_stay_finite():
    for lat in (89.999, -89.999, 89.999999999, 90.0):
        p = project_forward(GeoPoint(45.0, lat))
        assert abs(p.y) <= MAX_NORTHING_M
        g = project_inverse(p)
        assert abs(g.lat - lat) < 1e-6


def _bits(x):
    return struct.pack("<d", x)


def test_project_lonlat_matches_reference_bit_for_bit():
    rng = random.Random(2024)
    cases = [(rng.uniform(-180.0, 180.0), rng.uniform(-90.0, 90.0)) for _ in range(20_000)]
    # metres apart, as footprint vertices are
    for _ in range(200):
        lon, lat = rng.uniform(-179.0, 179.0), rng.uniform(-85.0, 85.0)
        cases += [(lon + rng.uniform(-1e-4, 1e-4), lat + rng.uniform(-1e-4, 1e-4)) for _ in range(20)]
    # within 1e-9 degrees of the poles, on both sides of the short-cut
    for pole in (90.0, -90.0):
        inward = -math.copysign(1.0, pole)
        for k in range(0, 1101):
            cases.append((rng.uniform(-180.0, 180.0), pole + inward * k * 1e-12))
    cases += [
        (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0),
        (180.0, 0.0), (-180.0, 0.0), (180.0, 90.0), (-180.0, -90.0),
        (0.0, 90.0), (0.0, -90.0), (-0.0, 45.0), (180, 45), (-180, -45), (1, 2),
        (12.5, math.nextafter(90.0 - 1e-9, 0.0)), (12.5, -math.nextafter(90.0 - 1e-9, 0.0)),
    ]
    for lon, lat in cases:
        want = reference_project_forward(lon, lat)
        got = project_lonlat(lon, lat)
        assert tuple(map(_bits, got)) == tuple(map(_bits, want)), (lon, lat)
        via_geopoint = project_forward(GeoPoint(lon, lat))
        assert (_bits(via_geopoint.x), _bits(via_geopoint.y)) == tuple(map(_bits, want))


@pytest.mark.parametrize(
    "lon, lat",
    [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
        (180.0000001, 0.0), (-181, 0.0), (0.0, 90.0000001), (0.0, -91),
        (math.nextafter(180.0, 200.0), 0.0), (0.0, math.nextafter(-90.0, -100.0)),
    ],
)
def test_project_lonlat_rejects_what_geopoint_rejects(lon, lat):
    with pytest.raises(ValueError) as want:
        reference_project_forward(lon, lat)
    with pytest.raises(ValueError) as got:
        project_lonlat(lon, lat)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError) as via_geopoint:
        project_forward(GeoPoint(lon, lat))
    assert str(via_geopoint.value) == str(want.value)


def _inverse_cases():
    """Seeded plane points: in bounds, on the pole rows, at +-180 degrees and
    just past each bound."""
    rng = random.Random(2025)
    x_scale = SPHERE_RADIUS_M * 2.0 * math.sqrt(2.0) / math.pi
    cases = []
    for _ in range(5000):
        y = rng.uniform(-MAX_NORTHING_M, MAX_NORTHING_M)
        half_width = x_scale * math.pi * math.cos(math.asin(y / MAX_NORTHING_M))
        cases.append((rng.uniform(-half_width, half_width), y))
        # +-180 degrees, and a metre or a few ulps past it
        for edge in (half_width, -half_width):
            cases += [(edge, y), (math.nextafter(edge, 0.0), y), (edge * (1 + 1e-10), y)]
    # 100 m cell corners, as the cell layer projects them back
    cases += [(i * 100.0, j * 100.0) for i in range(-50, 50, 7) for j in range(-50, 50, 3)]
    # the pole rows: inside and past the 1e-12 northing tolerance, with
    # eastings on both sides of the 1 m fuzz allowed there
    for pole in (MAX_NORTHING_M, -MAX_NORTHING_M):
        for k in (0, 1, 2, 5, 9, 20):
            y = pole * (1.0 + k * 1e-13)
            cases += [(x, y) for x in (0.0, -0.0, 0.5, -1.0, 1.0000001, -2.0, 1e6)]
        cases += [(0.0, math.nextafter(pole, 0.0)), (3.0, pole * (1.0 - 1e-16))]
    cases += [
        (0.0, 0.0), (-0.0, -0.0), (1e9, 0.0), (0.0, 1e9), (0.0, -1e9),
        (math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0),
    ]
    return cases


def test_inverse_lonlat_matches_reference_bit_for_bit():
    errors = 0
    for x, y in _inverse_cases():
        try:
            want = reference_project_inverse(x, y)
        except ValueError as exc:
            errors += 1
            with pytest.raises(ValueError) as got:
                inverse_lonlat(x, y)
            assert str(got.value) == str(exc), (x, y)
            with pytest.raises(ValueError) as via_planepoint:
                project_inverse(PlanePoint(x, y))
            assert str(via_planepoint.value) == str(exc)
            continue
        got = inverse_lonlat(x, y)
        assert tuple(map(_bits, got)) == tuple(map(_bits, want)), (x, y)
        g = project_inverse(PlanePoint(x, y))
        assert (_bits(g.lon), _bits(g.lat)) == tuple(map(_bits, want))
    assert 100 < errors < len(_inverse_cases()) // 2  # both paths exercised


def test_inverse_lonlat_rejects_non_finite_as_planepoint_does():
    for x, y, want in (
        (math.nan, 0.0, "non-finite plane coordinates (nan, 0.0)"),
        (0.0, math.inf, "non-finite plane coordinates (0.0, inf)"),
        (-math.inf, math.nan, "non-finite plane coordinates (-inf, nan)"),
    ):
        with pytest.raises(ValueError) as got:
            inverse_lonlat(x, y)
        assert str(got.value) == want


def test_clamp_to_bounds_keeps_points_on_earth_and_moves_the_rest_onto_the_edge():
    rng = random.Random(8)
    for _ in range(2000):
        x, y = project_lonlat(rng.uniform(-179.9, 179.9), rng.uniform(-89.9, 89.9))
        assert clamp_to_bounds(x, y) == (x, y)  # well inside: unchanged
        # on the edge, or beyond it by up to 100 km: onto the edge
        lat = rng.choice([rng.uniform(-90.0, 90.0), rng.uniform(89.9, 90.0), rng.uniform(-90.0, -89.9)])
        x, y = project_lonlat(rng.choice([-180.0, 180.0]), lat)
        for d in (0.0, 1.0, 1e3, 1e5):
            px = x + math.copysign(d * rng.random(), x)
            py = y + math.copysign(d * rng.random(), y)
            cx, cy = clamp_to_bounds(px, py)
            assert abs(cx) <= abs(px) and cy == max(-MAX_NORTHING_M, min(MAX_NORTHING_M, py))
            lon, _ = inverse_lonlat(cx, cy)  # no longer out of bounds
            assert abs(lon) == 180.0 or abs(cx) < 1e-6 or abs(lon) > 179.999
    assert inverse_lonlat(*clamp_to_bounds(1e8, 0.0)) == (180.0, 0.0)
    assert inverse_lonlat(*clamp_to_bounds(-5.0, -1e8)) == (0.0, -90.0)
    for x, y in ((math.nan, 1e9), (math.inf, 0.0), (0.0, -math.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            inverse_lonlat(*clamp_to_bounds(x, y))
    # far enough out that u*u + s*s overflows to inf: still onto the edge
    for x, y in ((1e300, 1e300), (-1e300, 1e300), (1e300, -1e300), (-1e300, -1e300)):
        cx, cy = clamp_to_bounds(x, y)
        assert cy == math.copysign(MAX_NORTHING_M, y) and math.copysign(1.0, cx) == math.copysign(1.0, x)
        lon, lat = inverse_lonlat(cx, cy)
        assert lat == math.copysign(90.0, y) and abs(lon) <= 180.0
    for x, y in ((1e300, 0.0), (0.0, -1e300)):
        assert inverse_lonlat(*clamp_to_bounds(x, y)) == ((180.0, 0.0) if x else (0.0, -90.0))
