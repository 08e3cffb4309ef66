"""Spherical Mollweide projection between lon/lat degrees and grid meters.

World Mollweide with sphere radius 6 378 137 m and central meridian 0, so
cell indices line up with the global equal-area 100 m grid products built
on the same projection. Forward solves the auxiliary angle theta from
2*theta + sin(2*theta) = pi*sin(lat) by Newton iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import cos, isfinite, sin

from .geometry import PlanePoint

SPHERE_RADIUS_M = 6_378_137.0

_SQRT2 = math.sqrt(2.0)
_HALF_PI = math.pi / 2.0
MAX_NORTHING_M = _SQRT2 * SPHERE_RADIUS_M
MAX_EASTING_M = 2.0 * _SQRT2 * SPHERE_RADIUS_M

_POLE_EPS_DEG = 1e-9
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50
_X_SCALE = SPHERE_RADIUS_M * 2.0 * _SQRT2 / math.pi
_RAD_PER_DEG = math.pi / 180.0


@dataclass(frozen=True)
class GeoPoint:
    """Geographic coordinates in degrees, lon in [-180, 180], lat in [-90, 90]."""

    lon: float
    lat: float

    def __post_init__(self) -> None:
        _check_lonlat(self.lon, self.lat)


def _check_lonlat(lon: float, lat: float) -> None:
    if not (isfinite(lon) and isfinite(lat)):
        raise ValueError(f"non-finite geographic coordinates ({lon!r}, {lat!r})")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude out of range: {lon!r}")
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude out of range: {lat!r}")


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


def project_lonlat(lon: float, lat: float) -> PlanePoint:
    """Project geographic degrees onto the equal-area plane (meters).

    Raises ValueError, as GeoPoint does, for a non-finite or out-of-range
    coordinate.
    """
    _check_lonlat(lon, lat)
    # Newton's denominator vanishes at the poles; short-circuit there.
    if abs(lat) >= 90.0 - _POLE_EPS_DEG:
        return PlanePoint(0.0, math.copysign(MAX_NORTHING_M, lat))
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
    return PlanePoint(_X_SCALE * (lon * _RAD_PER_DEG) * cos(theta), MAX_NORTHING_M * sin(theta))


def project_forward(p: GeoPoint) -> PlanePoint:
    """Project geographic degrees onto the equal-area plane (meters)."""
    return project_lonlat(p.lon, p.lat)


def project_inverse(p: PlanePoint) -> GeoPoint:
    """Invert the projection; raises ValueError outside the projection bounds."""
    s = p.y / MAX_NORTHING_M
    if abs(s) > 1.0 + 1e-12:
        raise ValueError(f"northing outside projection bounds: {p.y!r}")
    s = max(-1.0, min(1.0, s))
    theta = math.asin(s)
    sin_phi = (2.0 * theta + math.sin(2.0 * theta)) / math.pi
    lat = math.degrees(math.asin(max(-1.0, min(1.0, sin_phi))))
    cos_theta = math.cos(theta)
    if cos_theta <= 1e-12:
        # pole rows collapse to x = 0; tolerate sub-meter numeric fuzz
        if abs(p.x) > 1.0:
            raise ValueError(f"easting {p.x!r} outside projection bounds at the pole")
        return GeoPoint(0.0, lat)
    lon = math.degrees(p.x / (_X_SCALE * cos_theta))
    if abs(lon) > 180.0 + 1e-9:
        raise ValueError(f"point outside projection bounds: ({p.x!r}, {p.y!r})")
    return GeoPoint(max(-180.0, min(180.0, lon)), lat)
