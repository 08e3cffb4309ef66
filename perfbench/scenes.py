"""Seeded benchmark inputs: one scene per (workload, seed), cached on disk.

Three workloads use the program's own generator, `roadaccess.synth`. The
`diagonal_random` scene writer and the validation-vote generator live here
instead, so that a refactor of the test helpers or of the program cannot
silently change benchmark data. Every scene records the SHA-256 of each
input file and the vertex counts read back from the files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench" / "cache"


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    commands: tuple[str, ...]
    layout: str  # a roadaccess.synth layout, or "diagonal_random"
    extent: float = 0.0
    road_surface_mix: float = 1.0


# Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "informal_rows",
            workers=1,
            commands=("run",),
            layout="informal_cluster",
            extent=800.0,
        ),
        Workload(
            "diagonal_random",
            workers=1,
            commands=("run",),
            layout="diagonal_random",
        ),
        Workload(
            "formal_session",
            workers=1,
            commands=("run", "evaluate", "export-connectors"),
            layout="formal_grid",
            extent=1600.0,
            road_surface_mix=0.7,
        ),
        Workload(
            "mixed_w2",
            workers=2,
            commands=("run",),
            layout="mixed",
            extent=1000.0,
        ),
    )
}

# diagonal_random: tests/_scenes.random_scene scaled up, roads on a jittered grid
DIAGONAL_BUILDINGS = 5_000
DIAGONAL_SEGMENTS = 50
DIAGONAL_ROAD_GRID = 5  # 25 polylines of two segments
DIAGONAL_SPAN_M = 2000.0
BOUNDARY_MARGIN_M = 60.0
SURFACES = ("paved", "unpaved", "unknown")

# Spherical world Mollweide, as documented in roadaccess.projection. It is
# re-implemented here so the scene files do not depend on program code.
_SPHERE_RADIUS_M = 6_378_137.0
_MAX_NORTHING_M = math.sqrt(2.0) * _SPHERE_RADIUS_M
_X_SCALE = _SPHERE_RADIUS_M * 2.0 * math.sqrt(2.0) / math.pi


@dataclass(frozen=True)
class Scene:
    workload: str
    seed: int
    dir: Path
    inputs: dict  # input name -> {"path": str, "sha256": str}
    vertices: int  # coordinate positions in the GeoJSON inputs
    buildings: int  # building features, all inside the boundary
    expected_levels: Path | None  # synth ground truth, by construction


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def code_key() -> str:
    """Digest of this file and the program sources: a change regenerates scenes."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted((SRC / "roadaccess").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _lonlat(x: float, y: float) -> list[float]:
    theta = math.asin(y / _MAX_NORTHING_M)
    lat = math.degrees(math.asin((2.0 * theta + math.sin(2.0 * theta)) / math.pi))
    lon = math.degrees(x / (_X_SCALE * math.cos(theta)))
    return [lon, lat]


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def _feature(gtype: str, coordinates: list, properties: dict) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": gtype, "coordinates": coordinates},
        "properties": properties,
    }


def _rotated_rectangle(rng: random.Random, span: float) -> list[list[float]]:
    cx = rng.uniform(0.0, span)
    cy = rng.uniform(0.0, span)
    hw = rng.uniform(2.0, 12.0)
    hh = rng.uniform(2.0, 12.0)
    angle = rng.uniform(0.0, math.tau)
    cos_a = math.cos(angle)
    sin_a = math.sin(angle)
    ring = []
    for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1)):
        dx = sx * hw
        dy = sy * hh
        ring.append(_lonlat(cx + dx * cos_a - dy * sin_a, cy + dx * sin_a + dy * cos_a))
    return ring


def _random_roads(rng: random.Random, span: float) -> list[dict]:
    """Random two-segment polylines, one starting in each cell of a jittered grid.

    tests/_scenes.random_roads starts every polyline anywhere in the span.
    Starting one per grid cell keeps the random diagonal geometry but
    spreads roads over the whole span on every seed. At 20k buildings
    and 100 polylines that cut the seed-to-seed spread of bbox candidates
    from about ±20 % to ±8 %; at the present 25 polylines it is about ±15 %.
    """
    features = []
    cell = span / DIAGONAL_ROAD_GRID
    for gx in range(DIAGONAL_ROAD_GRID):
        for gy in range(DIAGONAL_ROAD_GRID):
            x = (gx + rng.random()) * cell
            y = (gy + rng.random()) * cell
            line = [_lonlat(x, y)]
            for _ in range(DIAGONAL_SEGMENTS // DIAGONAL_ROAD_GRID**2):
                x += rng.uniform(-500.0, 500.0)
                y += rng.uniform(-500.0, 500.0)
                line.append(_lonlat(x, y))
            surface = rng.choice(SURFACES)
            features.append(
                _feature("LineString", line, {"class": "residential", "surface": surface})
            )
    return features


def write_diagonal_scene(seed: int, out: Path) -> None:
    """Rotated-rectangle footprints and random polyline roads, lon/lat GeoJSON."""
    rng = random.Random(seed)
    buildings = [
        _feature("Polygon", [_rotated_rectangle(rng, DIAGONAL_SPAN_M)], {})
        for _ in range(DIAGONAL_BUILDINGS)
    ]
    roads = _random_roads(rng, DIAGONAL_SPAN_M)
    lo = -BOUNDARY_MARGIN_M
    hi = DIAGONAL_SPAN_M + BOUNDARY_MARGIN_M
    ring = [_lonlat(x, y) for x, y in ((lo, lo), (hi, lo), (hi, hi), (lo, hi), (lo, lo))]
    _write_json(out / "buildings.geojson", {"type": "FeatureCollection", "features": buildings})
    _write_json(out / "roads.geojson", {"type": "FeatureCollection", "features": roads})
    _write_json(out / "boundary.geojson", _feature("Polygon", [ring], {}))


LEVELS = ("low", "medium", "high")


def write_votes(seed: int, cells: list[tuple[int, int, str]], out: Path) -> None:
    """Seeded validation votes: about half the given cells get 1-3 votes.

    Each vote names the cell's given level with probability 0.75 and one of
    the two other levels otherwise, so evaluate sees agreement,
    disagreement and no-consensus cells.
    """
    rng = random.Random(f"votes-{seed}")
    validators = [f"v{k:02d}" for k in range(24)]
    with open(out, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["cell_i", "cell_j", "validator_id", "level"])
        for i, j, level in cells:
            if rng.random() < 0.5:
                continue
            for validator in rng.sample(validators, rng.randint(1, 3)):
                vote = level
                if rng.random() >= 0.75:
                    vote = rng.choice([lv for lv in LEVELS if lv != level])
                writer.writerow([i, j, validator, vote])


def _count_positions(coords) -> int:
    if coords and isinstance(coords[0], (int, float)):
        return 1
    return sum(_count_positions(c) for c in coords)


def _geojson_stats(path: Path) -> tuple[int, int]:
    """(features, coordinate positions) of a GeoJSON file."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    features = doc["features"] if doc["type"] == "FeatureCollection" else [doc]
    return len(features), sum(_count_positions(ft["geometry"]["coordinates"]) for ft in features)


def _reference_cells(workload: Workload, seed: int, out: Path) -> list[tuple[int, int, str]]:
    """Cells and levels the votes are drawn from.

    Synth scenes use their constructed levels. The diagonal scene has none,
    so every 100 m cell of its span gets a seeded random level.
    """
    if workload.layout == "diagonal_random":
        rng = random.Random(f"levels-{seed}")
        n = int(DIAGONAL_SPAN_M // 100)
        return [(i, j, rng.choice(LEVELS)) for i in range(n) for j in range(n)]
    with open(out / "expected_levels.csv", newline="", encoding="utf-8") as f:
        return [(int(r["i"]), int(r["j"]), r["level"]) for r in csv.DictReader(f)]


def _generate(workload: Workload, seed: int, out: Path) -> None:
    if workload.layout == "diagonal_random":
        write_diagonal_scene(seed, out)
    else:
        _generate_synth(workload, seed, out)
    write_votes(seed, _reference_cells(workload, seed, out), out / "validations.csv")


def _generate_synth(workload: Workload, seed: int, out: Path) -> None:
    sys.path.insert(0, str(SRC))
    from roadaccess.synth import SceneSpec, generate

    generate(
        SceneSpec(
            seed=seed,
            layout=workload.layout,
            extent=workload.extent,
            road_surface_mix=workload.road_surface_mix,
        ),
        out,
    )


def _describe(workload: Workload, seed: int, out: Path) -> dict:
    files = {
        "buildings": out / "buildings.geojson",
        "roads": out / "roads.geojson",
        "boundary": out / "boundary.geojson",
        "validations": out / "validations.csv",
    }
    vertices = 0
    n_buildings = 0
    for name in ("buildings", "roads", "boundary"):
        n_features, n_positions = _geojson_stats(files[name])
        vertices += n_positions
        if name == "buildings":
            n_buildings = n_features
    expected = out / "expected_levels.csv"
    return {
        "workload": workload.name,
        "seed": seed,
        "inputs": {
            name: {"path": path.name, "sha256": sha256_file(path)}
            for name, path in files.items()
        },
        "vertices": vertices,
        "buildings": n_buildings,
        "expected_levels": expected.name if expected.exists() else None,
    }


def scene(workload_name: str, seed: int) -> Scene:
    """The scene for (workload, seed), generated on first use and cached."""
    workload = WORKLOADS[workload_name]
    final = CACHE / f"{workload_name}-s{seed}-{code_key()}"
    meta_path = final / "scene.json"
    if not meta_path.exists():
        tmp = final.with_name(final.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        _generate(workload, seed, tmp)
        _write_json(tmp / "scene.json", _describe(workload, seed, tmp))
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    with open(meta_path, encoding="utf-8") as f:
        meta = json.load(f)
    inputs = {
        name: {"path": str(final / info["path"]), "sha256": info["sha256"]}
        for name, info in meta["inputs"].items()
    }
    return Scene(
        workload=workload_name,
        seed=seed,
        dir=final,
        inputs=inputs,
        vertices=meta["vertices"],
        buildings=meta["buildings"],
        expected_levels=final / meta["expected_levels"] if meta["expected_levels"] else None,
    )
