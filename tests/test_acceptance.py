"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import csv
import functools
import itertools
import json
import math
import os
import random
import time

import pytest

from roadaccess.classify import classify_cell, distribution
from roadaccess.cli import main
from roadaccess.evaluate import accuracy, consensus, f1_per_class
from roadaccess.grid import CellAggregate, CellId
from roadaccess.levels import LEVELS, DeprivationLevel, Surface
from roadaccess.metrics import compute_all
from roadaccess.outputs import read_cells_csv
from roadaccess.projection import (
    MAX_NORTHING_M,
    SPHERE_RADIUS_M,
    GeoPoint,
    project_forward,
    project_inverse,
)
from roadaccess.spatial_index import PolygonIndex, SegmentIndex
from roadaccess.synth import SceneSpec, generate

from _scenes import brute_metrics, building_table, random_scene


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({name}): FAIL")
                raise
            print(f"criterion {num} ({name}): PASS")

        return wrapper

    return decorate


@criterion(1, "oracle equivalence of core metric")
def test_indexed_metrics_match_brute_force_on_50_scenes():
    rng = random.Random(1001)
    sizes = [rng.randint(40, 160) for _ in range(48)] + [400, 500]
    started = time.monotonic()
    for scene_no, n_buildings in enumerate(sizes):
        scene_rng = random.Random(2000 + scene_no)
        buildings, roads = random_scene(
            scene_rng, n_buildings, scene_rng.randint(5, 50)
        )
        table = building_table(buildings)
        metrics = compute_all(table, SegmentIndex(roads), PolygonIndex(table), roads)
        oracle = brute_metrics(buildings, roads)
        assert len(metrics) == len(buildings)
        for m in metrics:
            count, road_id, point, dist = oracle[m.building_id]
            assert m.obstruction_count == count
            assert m.road_id == road_id
            assert m.road_distance == dist  # exact, same arithmetic
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


@criterion(2, "classification truth table")
def test_classification_rule_exhaustive():
    cases = 0
    for count in (0, 5):
        for mean in (0.0, 0.5, 1.0, 1.01, 3.0):
            for surface in (Surface.PAVED, Surface.UNPAVED):
                agg = CellAggregate(CellId(0, 0), count, mean, surface)
                got = classify_cell(agg, threshold=1.0)
                if count == 0:
                    want = DeprivationLevel.LOW  # no buildings -> low
                elif mean > 1.0:  # strictly exceeds the threshold
                    want = DeprivationLevel.HIGH
                elif surface is Surface.PAVED:
                    want = DeprivationLevel.LOW
                else:
                    want = DeprivationLevel.MEDIUM
                assert got is want, (count, mean, surface)
                cases += 1
    assert cases == 20


@criterion(3, "evaluation formulas vs scalar re-implementation")
def test_accuracy_and_f1_match_scalar_oracle():
    rng = random.Random(1003)
    for _ in range(100):
        counts = [[rng.randint(0, 50) for _ in range(3)] for _ in range(3)]
        if sum(map(sum, counts)) == 0:
            counts[rng.randrange(3)][rng.randrange(3)] = 1

        total = 0
        trace = 0
        for r in range(3):
            for c in range(3):
                total += counts[r][c]
                if r == c:
                    trace += counts[r][c]
        assert abs(accuracy(counts) - trace / total) < 1e-12

        got = f1_per_class(counts)
        for k in range(3):
            tp = counts[k][k]
            fn = sum(counts[k][c] for c in range(3) if c != k)
            fp = sum(counts[r][k] for r in range(3) if r != k)
            denom = tp + 0.5 * (fp + fn)
            expected = tp / denom if denom > 0 else 0.0
            assert abs(got[k] - expected) < 1e-12


@criterion(4, "consensus rule over all small vote multisets")
def test_consensus_exhaustive_small_multisets():
    for size in range(1, 7):
        for combo in itertools.combinations_with_replacement(LEVELS, size):
            votes = list(combo)
            got = consensus(votes)
            tallies = {lvl: votes.count(lvl) for lvl in LEVELS}
            top = max(tallies.values())
            winners = [lvl for lvl in LEVELS if tallies[lvl] == top]
            if len(winners) > 1:
                assert got is None  # tied top count -> no consensus
            else:
                assert got is winners[0]
                if size == 1:
                    assert got is votes[0]  # singletons pass by default
                else:
                    assert all(
                        tallies[got] > tallies[lvl] for lvl in LEVELS if lvl is not got
                    )


@criterion(5, "projection fixed points, round trip, equal area")
def test_projection_criteria():
    origin = project_forward(GeoPoint(0, 0))
    assert origin.x == 0.0 and origin.y == 0.0
    pole = project_forward(GeoPoint(0, 90))
    assert pole.x == 0.0
    assert pole.y == MAX_NORTHING_M
    assert pole.y == pytest.approx(math.sqrt(2) * SPHERE_RADIUS_M, rel=1e-15)

    rng = random.Random(1005)
    worst = 0.0
    for _ in range(10_000):
        lon = rng.uniform(-180.0, 180.0)
        lat = rng.uniform(-90.0, 90.0)
        g = project_inverse(project_forward(GeoPoint(lon, lat)))
        worst = max(worst, abs(g.lon - lon), abs(g.lat - lat))
    assert worst < 1e-9

    def shoelace(points):
        area = 0.0
        for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
            area += x0 * y1 - x1 * y0
        return abs(area) / 2.0

    for _ in range(100):
        lon = rng.uniform(-170.0, 170.0)
        lat = rng.uniform(-80.0, 80.0)
        w, h = rng.uniform(0.005, 0.05), rng.uniform(0.005, 0.05)
        corners = [(lon, lat), (lon + w, lat), (lon + w, lat + h), (lon, lat + h)]
        projected = [
            (p.x, p.y) for p in (project_forward(GeoPoint(lo, la)) for lo, la in corners)
        ]
        lambert = [
            (SPHERE_RADIUS_M * math.radians(lo), SPHERE_RADIUS_M * math.sin(math.radians(la)))
            for lo, la in corners
        ]
        assert shoelace(projected) == pytest.approx(shoelace(lambert), rel=0.005)


def _run_archetype(tmp_path, name, seed, layout, mix):
    files = generate(
        SceneSpec(seed=seed, layout=layout, extent=400, road_surface_mix=mix),
        tmp_path / name,
    )
    out_dir = tmp_path / name / "out"
    cfg = tmp_path / name / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "buildings": str(files.buildings),
                "roads": str(files.roads),
                "boundary": str(files.boundary),
                "output_dir": str(out_dir),
            }
        )
    )
    assert main(["run", "--config", str(cfg)]) == 0
    with open(files.expected_levels) as f:
        expected = {(int(r["i"]), int(r["j"])): r["level"] for r in csv.DictReader(f)}
    got = {
        (c.cell.i, c.cell.j): c.level.label for c in read_cells_csv(out_dir / "cells.csv")
    }
    matched = sum(1 for cell, level in expected.items() if got.get(cell) == level)
    return expected, matched


@criterion(6, "archetype end-to-end levels")
def test_archetypes_reproduce_expected_levels(tmp_path):
    # one fixed scene each, so a failure can be re-run
    for name, seed, layout, mix, want_level in (
        ("formal_paved", 3000, "formal_grid", 1.0, "low"),
        ("formal_unpaved", 3001, "formal_grid", 0.0, "medium"),
        ("informal", 3002, "informal_cluster", 0.5, "high"),
    ):
        expected, matched = _run_archetype(tmp_path, name, seed, layout, mix)
        assert len(expected) > 0
        # every cell the generator expects is at the archetype's level
        assert set(expected.values()) == {want_level}, f"{name}: {sorted(set(expected.values()))}"
        assert matched >= 0.95 * len(expected), f"{name}: {matched}/{len(expected)}"


@criterion(7, "determinism and conservation")
def test_determinism_and_conservation(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # three shares, two of them forked, on any machine
    files = generate(
        SceneSpec(seed=4001, layout="mixed", extent=600, road_surface_mix=0.5),
        tmp_path / "scene",
    )

    def run(out_name, workers):
        out_dir = tmp_path / out_name
        cfg = tmp_path / f"{out_name}.json"
        cfg.write_text(
            json.dumps(
                {
                    "buildings": str(files.buildings),
                    "roads": str(files.roads),
                    "boundary": str(files.boundary),
                    "output_dir": str(out_dir),
                    "workers": workers,
                }
            )
        )
        assert main(["run", "--config", str(cfg)]) == 0
        return out_dir

    out1 = run("w1", 1)
    out2 = run("w3", 3)
    for name in ("cells.geojson", "cells.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    cells = read_cells_csv(out1 / "cells.csv")
    dist = distribution(cells, include_empty=True)
    assert sum(dist.counts.values()) == len(cells)
    manifest = json.loads((out1 / "manifest.json").read_text())
    buildings_in_scope = manifest["stage_counts"]["buildings_in_scope"]
    assert sum(c.building_count for c in cells) == buildings_in_scope


@criterion(8, "built-only distribution matches hand tally")
def test_distribution_exclusion_matches_hand_tally(tmp_path):
    files = generate(
        SceneSpec(seed=4002, layout="mixed", extent=600, road_surface_mix=0.7),
        tmp_path / "scene",
    )
    out_dir = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "buildings": str(files.buildings),
                "roads": str(files.roads),
                "boundary": str(files.boundary),
                "output_dir": str(out_dir),
            }
        )
    )
    assert main(["run", "--config", str(cfg)]) == 0
    cells = read_cells_csv(out_dir / "cells.csv")

    hand_counts = {lvl: 0 for lvl in LEVELS}
    hand_total = 0
    for c in cells:
        if c.building_count > 0:
            hand_counts[c.level] += 1
            hand_total += 1
    assert hand_total > 0

    dist = distribution(cells, include_empty=False)
    assert dist.total == hand_total
    for lvl in LEVELS:
        assert dist.counts[lvl] == hand_counts[lvl]
        assert dist.percentages[lvl] == 100.0 * hand_counts[lvl] / hand_total
    assert abs(sum(dist.percentages.values()) - 100.0) < 0.1
