"""End-to-end oracle: run's cells.csv and aggregates.csv against
tests/_scenes.reference_cells, on drawn lon/lat scenes with concave and
holed boundaries, holed and MultiPolygon footprints and several cell sizes,
at workers 1 and 2."""

import csv
import json
import math
import os
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from roadaccess.cli import main

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
    want_cells, want_aggregates = reference_cells(
        paths["buildings"], paths["roads"], paths["boundary"], cell_size=cell_size
    )
    config = tmp / "config.json"
    doc = {**{k: str(v) for k, v in paths.items()}, "cell_size": cell_size, "output_dir": str(tmp / "out")}
    config.write_text(json.dumps(doc))
    with mock.patch.object(os, "cpu_count", lambda: 2):  # a real fork at workers=2 on any machine
        for workers in (1, 2):
            out = tmp / f"w{workers}"
            assert main(["run", "--config", str(config), "--workers", str(workers), "--out", str(out)]) == 0
            assert _rows(out / "cells.csv") == want_cells, workers
            assert _rows(out / "aggregates.csv") == want_aggregates, workers
