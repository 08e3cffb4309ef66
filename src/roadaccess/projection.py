"""Spherical Mollweide projection between lon/lat degrees and grid meters.

World Mollweide with sphere radius 6 378 137 m and central meridian 0, so
cell indices line up with the global equal-area 100 m grid products built
on the same projection. Forward solves the auxiliary angle theta from
2*theta + sin(2*theta) = pi*sin(lat) by Newton iteration.
"""

from __future__ import annotations

import math
from math import cos, isfinite, sin
from typing import NamedTuple

from .geometry import PlanePoint

SPHERE_RADIUS_M = 6_378_137.0

_SQRT2 = math.sqrt(2.0)
_HALF_PI = math.pi / 2.0
MAX_NORTHING_M = _SQRT2 * SPHERE_RADIUS_M

_POLE_EPS_DEG = 1e-9
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50
_X_SCALE = SPHERE_RADIUS_M * 2.0 * _SQRT2 / math.pi
_RAD_PER_DEG = math.pi / 180.0
_MAX_EASTING_M = _X_SCALE * math.pi  # the equator's half-width, at lon 180


class GeoPoint(NamedTuple):
    """Geographic coordinates in degrees, lon in [-180, 180], lat in [-90, 90]."""

    lon: float
    lat: float


def _theta_bisect(target: float) -> float:
    # f(theta) = 2*theta + sin(2*theta) - target is monotone on [-pi/2, pi/2]
    lo, hi = -_HALF_PI, _HALF_PI
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * mid + math.sin(2.0 * mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16:
            break
    return 0.5 * (lo + hi)


def project_lonlat(lon: float, lat: float) -> tuple[float, float]:
    """Project geographic degrees onto the equal-area plane: (x, y) meters.

    Raises ValueError for a non-finite coordinate, a longitude outside
    [-180, 180] or a latitude outside [-90, 90].
    """
    if not (isfinite(lon) and isfinite(lat)):
        raise ValueError(f"non-finite geographic coordinates ({lon!r}, {lat!r})")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude out of range: {lon!r}")
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude out of range: {lat!r}")
    # Newton's denominator vanishes at the poles; short-circuit there.
    if abs(lat) >= 90.0 - _POLE_EPS_DEG:
        return 0.0, math.copysign(MAX_NORTHING_M, lat)
    phi = lat * _RAD_PER_DEG  # math.radians(lat), bit for bit
    target = math.pi * sin(phi)
    theta = phi
    for _ in range(_NEWTON_MAX_ITER):
        two_theta = 2.0 * theta
        denom = 2.0 + 2.0 * cos(two_theta)
        if denom <= 1e-14:
            theta = _theta_bisect(target)
            break
        delta = (two_theta + sin(two_theta) - target) / denom
        theta -= delta
        if theta > _HALF_PI:
            theta = _HALF_PI
        elif theta < -_HALF_PI:
            theta = -_HALF_PI
        if abs(delta) < _NEWTON_TOL:
            break
    else:
        # Newton stalls very close to the poles; fall back to bisection.
        theta = _theta_bisect(target)
    return _X_SCALE * (lon * _RAD_PER_DEG) * cos(theta), MAX_NORTHING_M * sin(theta)


def project_forward(p: GeoPoint) -> PlanePoint:
    """Project geographic degrees onto the equal-area plane (meters)."""
    return PlanePoint(*project_lonlat(p.lon, p.lat))


def clamp_to_bounds(x: float, y: float) -> tuple[float, float]:
    """(x, y) moved onto the edge of the projected ellipse when it lies
    beyond it, and unchanged otherwise: the northing is clamped to
    +-MAX_NORTHING_M, then the easting to the half-width at that northing,
    computed as inverse_lonlat computes it, so the result inverts to a lon
    of at most 180. A non-finite coordinate is returned unchanged, for
    inverse_lonlat to reject."""
    if not (isfinite(x) and isfinite(y)):
        return x, y
    s = y / MAX_NORTHING_M
    u = x / _MAX_EASTING_M
    if u * u + s * s <= 1.0 - 1e-9:  # a sum that overflowed to inf lies beyond
        return x, y
    y = max(-MAX_NORTHING_M, min(MAX_NORTHING_M, y))
    half = _MAX_EASTING_M * math.cos(math.asin(y / MAX_NORTHING_M))
    return max(-half, min(half, x)), y


def inverse_lonlat(x: float, y: float) -> tuple[float, float]:
    """(lon, lat) degrees of plane meters; raises ValueError for a
    non-finite coordinate or one outside the bounds."""
    if not (isfinite(x) and isfinite(y)):
        raise ValueError(f"non-finite plane coordinates ({x!r}, {y!r})")
    s = y / MAX_NORTHING_M
    if abs(s) > 1.0 + 1e-12:
        raise ValueError(f"northing outside projection bounds: {y!r}")
    s = max(-1.0, min(1.0, s))
    theta = math.asin(s)
    sin_phi = (2.0 * theta + math.sin(2.0 * theta)) / math.pi
    lat = math.degrees(math.asin(max(-1.0, min(1.0, sin_phi))))
    cos_theta = math.cos(theta)
    if cos_theta <= 1e-12:
        # pole rows collapse to x = 0; tolerate sub-meter numeric fuzz
        if abs(x) > 1.0:
            raise ValueError(f"easting {x!r} outside projection bounds at the pole")
        return 0.0, lat
    lon = math.degrees(x / (_X_SCALE * cos_theta))
    if abs(lon) > 180.0 + 1e-9:
        raise ValueError(f"point outside projection bounds: ({x!r}, {y!r})")
    return max(-180.0, min(180.0, lon)), lat


def project_inverse(p: PlanePoint) -> GeoPoint:
    """Invert the projection; raises ValueError outside the projection bounds."""
    return GeoPoint(*inverse_lonlat(p.x, p.y))
