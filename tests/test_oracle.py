"""End-to-end oracle: run's cells.csv and aggregates.csv against
tests/_scenes.reference_cells, on drawn lon/lat scenes with concave and
holed boundaries, holed and MultiPolygon footprints and several cell sizes,
at workers 1 and 2; and on scenes whose one road decides the road clip."""

import csv
import json
import math
import os
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from roadaccess.cli import main
from roadaccess.projection import inverse_lonlat, project_lonlat

from _scenes import reference_cells

SPAN_DEG = 0.004  # about 450 m


def _rect(cx, cy, hw, hh, angle):
    c, s = math.cos(angle), math.sin(angle)
    ring = [[cx + sx * hw * c - sy * hh * s, cy + sx * hw * s + sy * hh * c] for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    return ring + [ring[0]]


def _boundary(kind, rng, lon0, lat0):
    mid_x = lon0 + SPAN_DEG / 2
    mid_y = lat0 + SPAN_DEG / 2
    outer = _rect(mid_x, mid_y, SPAN_DEG / 2, SPAN_DEG / 2, 0.0)
    if kind == "rect":
        return [outer]
    if kind == "holed":
        return [outer, _rect(mid_x, mid_y, SPAN_DEG * rng.uniform(0.05, 0.3), SPAN_DEG * rng.uniform(0.05, 0.3), 0.0)]
    # a star: concave, with up to a few hundred vertices
    spikes = rng.randint(3, 150)
    ring = []
    for k in range(2 * spikes):
        r = SPAN_DEG / 2 if k % 2 == 0 else SPAN_DEG * rng.uniform(0.1, 0.45)
        a = math.pi * k / spikes
        ring.append([mid_x + r * math.cos(a), mid_y + r * math.sin(a)])
    return [ring + [ring[0]]]


def _feature(gtype, coordinates, **props):
    return {"type": "Feature", "geometry": {"type": gtype, "coordinates": coordinates}, "properties": props}


def write_scene(directory, rng, boundary_kind, n_buildings, lon0, lat0):
    buildings = []
    for _ in range(n_buildings):
        cx = lon0 + rng.uniform(0.0, SPAN_DEG)
        cy = lat0 + rng.uniform(0.0, SPAN_DEG)
        hw = rng.uniform(2e-5, 1e-4)
        hh = rng.uniform(2e-5, 1e-4)
        angle = rng.uniform(0.0, math.tau)
        kind = rng.choice(("plain", "holed", "parts"))
        if kind == "plain":
            buildings.append(_feature("Polygon", [_rect(cx, cy, hw, hh, angle)]))
        elif kind == "holed":  # a courtyard block
            hole = _rect(cx, cy, hw * 0.5, hh * 0.5, angle)
            buildings.append(_feature("Polygon", [_rect(cx, cy, hw, hh, angle), hole]))
        else:  # two parts, touching or apart: a building each
            dx = 2 * hw * rng.choice((1.0, 1.5))
            parts = [[_rect(cx, cy, hw, hh, 0.0)], [_rect(cx + dx, cy, hw, hh, 0.0)]]
            buildings.append(_feature("MultiPolygon", parts))
    roads = []
    for _ in range(rng.randint(1, 5)):
        line = [[lon0 + rng.uniform(0.0, SPAN_DEG), lat0 + rng.uniform(0.0, SPAN_DEG)]]
        for _ in range(rng.randint(1, 3)):
            line.append([line[-1][0] + rng.uniform(-0.002, 0.002), line[-1][1] + rng.uniform(-0.002, 0.002)])
        surface = rng.choice(["paved", "unpaved", "gravel", None])
        roads.append(_feature("LineString", line, **{"class": "residential", "surface": surface}))
    boundary = [_feature("Polygon", _boundary(boundary_kind, rng, lon0, lat0))]
    paths = {}
    for name, features in (("buildings", buildings), ("roads", roads), ("boundary", boundary)):
        paths[name] = directory / f"{name}.geojson"
        paths[name].write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return paths


def _rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))[1:]


def assert_run_matches_the_reference(tmp, paths, cell_size, workers=(1, 2)):
    """run's cells.csv and aggregates.csv equal reference_cells' rows, or
    run exits 2 where the reference finds no motorable road in scope."""
    want = reference_cells(paths["buildings"], paths["roads"], paths["boundary"], cell_size=cell_size)
    config = tmp / "config.json"
    doc = {**{k: str(v) for k, v in paths.items()}, "cell_size": cell_size, "output_dir": str(tmp / "out")}
    config.write_text(json.dumps(doc))
    with mock.patch.object(os, "cpu_count", lambda: 2):  # a real fork at workers=2 on any machine
        for n in workers:
            out = tmp / f"w{n}"
            code = main(["run", "--config", str(config), "--workers", str(n), "--out", str(out)])
            if want is None:
                assert code == 2, n
                continue
            assert code == 0, n
            want_cells, want_aggregates = want
            assert _rows(out / "cells.csv") == want_cells, n
            assert _rows(out / "aggregates.csv") == want_aggregates, n


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    boundary_kind=st.sampled_from(("rect", "holed", "star")),
    n_buildings=st.integers(1, 30),
    cell_size=st.sampled_from((50.0, 100.0, 137.5, 250.0)),
    # near the antimeridian too; roads wander at most 0.006 deg off the scene
    lon0=st.sampled_from((36.8, 179.99 - SPAN_DEG, -180.0 + 0.007)),
)
def test_run_matches_the_end_to_end_reference(tmp_path_factory, seed, boundary_kind, n_buildings, cell_size, lon0):
    tmp = tmp_path_factory.mktemp("oracle")
    paths = write_scene(tmp, random.Random(seed), boundary_kind, n_buildings, lon0, -1.28)
    assert_run_matches_the_reference(tmp, paths, cell_size)


# Road-clip scenes are laid out in metres from this origin and written in
# lon/lat; their one road is kept iff its box is within 500 m of the
# boundary's area, so a clip that decides otherwise changes run's exit code.
_ORIGIN = project_lonlat(36.8, -1.28)


def _lonlat(x, y):
    """[lon, lat] of the point (x, y) m from _ORIGIN."""
    return list(inverse_lonlat(_ORIGIN[0] + x, _ORIGIN[1] + y))


def _exact_gap(f, base, v, gap):
    """v moved one float step at a time until f(v) - base == gap exactly, as
    the clip computes it; None when a step jumps over gap."""
    direction = None
    for _ in range(64):
        diff = f(v) - base
        if diff == gap:
            return v
        step = math.inf if diff < gap else -math.inf
        if direction not in (None, step):
            return None
        direction = step
        v = math.nextafter(v, step)
    return None


def _clip_scene(rng, kind):
    """(boundary rings, road line, box for building centres) of a road-clip
    scene, all in lon/lat but the box (m):
    - corner: a road box's lower corners 500 m (exactly, or within 1 m) above
      a horizontal boundary edge, every boundary vertex farther;
    - vertex: a boundary spike's tip 500 m (exactly, or within 1 m) west of a
      road box's west edge, every box corner farther;
    - spike: a road box across a thin boundary spike, more than 500 m from
      the rest of the boundary, each side of the spike;
    - hole: a road box inside a hole wider than 1 km, near its ring, about
      500 m from it or far from it, and more than 500 m from the exterior.
    """
    gap = 500.0 if rng.random() < 0.5 else 500.0 + rng.uniform(-1.0, 1.0)
    size = rng.uniform(300.0, 450.0)
    body = (20.0, 20.0, size - 20.0, size - 20.0)
    if kind == "corner":
        lon_ne, lat_n = _lonlat(size, size)
        lon_nw = _lonlat(0.0, size)[0]
        xr = rng.uniform(0.2, 0.5) * size
        w = rng.uniform(5.0, 0.3 * size)
        h = rng.uniform(5.0, 300.0)
        while True:
            top = project_lonlat(lon_nw, lat_n)[1]
            lon_r, lat_r = inverse_lonlat(_ORIGIN[0] + xr, top + gap)
            if gap == 500.0:
                lat_r = _exact_gap(lambda lat: project_lonlat(lon_r, lat)[1], top, lat_r, gap)
            if lat_r is not None:
                break
            lat_n = math.nextafter(lat_n, math.inf)  # another top edge, a float step north
        ring = [_lonlat(0.0, 0.0), _lonlat(size, 0.0), [lon_ne, lat_n], [lon_nw, lat_n]]
        road = [[lon_r, lat_r], list(inverse_lonlat(_ORIGIN[0] + xr + w, top + gap + h))]
        return [ring + [ring[0]]], road, body
    if kind == "vertex":
        tip = _lonlat(size + rng.uniform(100.0, 400.0), size / 2)
        a = rng.uniform(5.0, 100.0)
        b = rng.uniform(5.0, 100.0)
        w = rng.uniform(1.0, 100.0)
        while True:
            x_tip, y_tip = project_lonlat(*tip)
            lon_r, lat_r = inverse_lonlat(x_tip + gap, y_tip - a)
            if gap == 500.0:
                lon_r = _exact_gap(lambda lon: project_lonlat(lon, lat_r)[0], x_tip, lon_r, gap)
            if lon_r is not None:
                break
            tip[0] = math.nextafter(tip[0], math.inf)
        ring = [_lonlat(0.0, 0.0), _lonlat(size, 0.0), tip, _lonlat(size, size), _lonlat(0.0, size)]
        road = [[lon_r, lat_r], list(inverse_lonlat(x_tip + gap + w, y_tip + b))]
        return [ring + [ring[0]]], road, body
    if kind == "spike":
        h = rng.uniform(2.0, 20.0)
        length = rng.uniform(1100.0, 2000.0)
        w = rng.uniform(0.0, 50.0)
        xr = rng.uniform(size + 520.0, size + length - 520.0 - w)
        mid = size / 2
        ring = [
            _lonlat(0.0, 0.0), _lonlat(size, 0.0), _lonlat(size, mid - h), _lonlat(size + length, mid),
            _lonlat(size, mid + h), _lonlat(size, size), _lonlat(0.0, size),
        ]
        south = mid - rng.uniform(h + 520.0, 900.0)
        north = mid + rng.uniform(h + 520.0, 900.0)
        road = [_lonlat(xr, south), _lonlat(xr + w, north)]
        return [ring + [ring[0]]], road, body
    # hole
    wall = rng.uniform(520.0, 700.0)
    inner = rng.uniform(1200.0, 1600.0)
    side = 2 * wall + inner
    bw = rng.uniform(5.0, 100.0)
    bh = rng.uniform(5.0, 100.0)
    where = rng.choice(("near", "margin", "far"))
    if where == "far":
        x0 = wall + (inner - bw) / 2 + rng.uniform(-20.0, 20.0)
    else:
        x0 = wall + (rng.uniform(1.0, 499.0) if where == "near" else gap)
    y0 = wall + (inner - bh) / 2
    outer = [_lonlat(0.0, 0.0), _lonlat(side, 0.0), _lonlat(side, side), _lonlat(0.0, side)]
    far = side - wall
    hole = [_lonlat(wall, wall), _lonlat(far, wall), _lonlat(far, far), _lonlat(wall, far)]
    road = [_lonlat(x0, y0), _lonlat(x0 + bw, y0 + bh)]
    return [outer + [outer[0]], hole + [hole[0]]], road, (20.0, 20.0, wall - 20.0, side - 20.0)


def write_clip_scene(directory, rng, kind, n_buildings):
    rings, road, (x0, y0, x1, y1) = _clip_scene(rng, kind)
    buildings = []
    for _ in range(n_buildings):
        lon, lat = _lonlat(rng.uniform(x0, x1), rng.uniform(y0, y1))
        hw = rng.uniform(3e-5, 8e-5)
        hh = rng.uniform(3e-5, 8e-5)
        buildings.append(_feature("Polygon", [_rect(lon, lat, hw, hh, rng.uniform(0.0, math.tau))]))
    surface = rng.choice(["paved", "unpaved", None])
    layers = (
        ("buildings", buildings),
        ("roads", [_feature("LineString", road, **{"class": "residential", "surface": surface})]),
        ("boundary", [_feature("Polygon", rings)]),
    )
    paths = {}
    for name, features in layers:
        paths[name] = directory / f"{name}.geojson"
        paths[name].write_text(json.dumps({"type": "FeatureCollection", "features": features}))
    return paths


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("corner", "vertex", "spike", "hole")),
    n_buildings=st.integers(0, 6),
    cell_size=st.sampled_from((100.0, 250.0)),
)
def test_road_clip_matches_the_end_to_end_reference(tmp_path_factory, seed, kind, n_buildings, cell_size):
    # the clip runs before the metric stage forks, so one worker count does
    tmp = tmp_path_factory.mktemp("clip")
    paths = write_clip_scene(tmp, random.Random(seed), kind, n_buildings)
    assert_run_matches_the_reference(tmp, paths, cell_size, workers=(1,))
