"""Deterministic synthetic city scenes with known deprivation outcomes.

Three archetypes: detached houses on a served street grid (formal),
contiguous structure rows reachable only from a single edge road (informal
cluster), and a half/half composition (mixed). Scenes are designed in
projected meters, written out in the same lon/lat GeoJSON and CSV formats
the ingest module consumes, and ship with a CSV of expected cell levels
derived from the construction itself rather than from running the model.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .geometry import PlanePoint
from .grid import CellId, cell_of
from .levels import Surface
from .projection import inverse_lonlat

LAYOUTS = ("formal_grid", "informal_cluster", "mixed")

BUILDING_HALF_M = 5.0  # 10 m square structures
HOUSE_PITCH_M = 20.0  # detached-house spacing in formal blocks
ROW_PITCH_M = 12.0  # structure-row pitch in informal clusters
# 60 m keeps cell centers off the boundary edge, so empty-cell
# enumeration is insensitive to projection round-trip noise
BOUNDARY_MARGIN_M = 60.0
_SKIP_P = 0.05  # informal structures occasionally missing, for texture


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    layout: str
    extent: float = 800.0
    road_surface_mix: float = 1.0  # fraction of roads paved


@dataclass(frozen=True)
class SceneFiles:
    buildings: Path
    roads: Path
    boundary: Path
    expected_levels: Path


@dataclass
class _Scene:
    # squares: (center_x, center_y); per-building surface and obstruction
    # count are known by construction
    squares: list[tuple[float, float]] = field(default_factory=list)
    surfaces: list[Surface] = field(default_factory=list)
    obstructions: list[int] = field(default_factory=list)
    roads: list[tuple[list[tuple[float, float]], Surface]] = field(default_factory=list)

    def add_building(self, cx: float, cy: float, surface: Surface, count: int) -> None:
        self.squares.append((cx, cy))
        self.surfaces.append(surface)
        self.obstructions.append(count)


def _draw_surface(rng: random.Random, mix: float) -> Surface:
    return Surface.PAVED if rng.random() < mix else Surface.UNPAVED


def _formal_region(
    scene: _Scene,
    rng: random.Random,
    mix: float,
    extent: float,
    road_x1: float,
    max_house_x: float,
) -> None:
    """Street grid of horizontal roads every 100 m with detached houses.

    Houses sit 25 m (plus jitter) from their street, with nothing between
    centroid and street, so every obstruction count is 0 by construction.
    """
    n_blocks = int(extent // 100)
    road_surfaces = []
    for k in range(n_blocks + 1):
        s = _draw_surface(rng, mix)
        road_surfaces.append(s)
        scene.roads.append(([(0.0, k * 100.0), (road_x1, k * 100.0)], s))
    n_cols = int((max_house_x - 10.0) // HOUSE_PITCH_M) + 1
    for k in range(n_blocks):
        for i in range(n_cols):
            for off, road_k in ((25.0, k), (75.0, k + 1)):
                cx = 10.0 + i * HOUSE_PITCH_M + rng.uniform(-2.0, 2.0)
                cy = k * 100.0 + off + rng.uniform(-2.0, 2.0)
                scene.add_building(cx, cy, road_surfaces[road_k], 0)


def _informal_cluster_region(
    scene: _Scene, rng: random.Random, mix: float, extent: float
) -> None:
    """Contiguous structure rows served only by one road along y = 0.

    A structure in row r has exactly the placed structures below it in its
    own column between centroid and road, so its count is knowable without
    running the model.
    """
    surface = _draw_surface(rng, mix)
    scene.roads.append(
        ([(-BOUNDARY_MARGIN_M, 0.0), (extent + BOUNDARY_MARGIN_M, 0.0)], surface)
    )
    n_cols = int(extent // 10)
    n_rows = int((extent - 20.0) // ROW_PITCH_M) + 1
    for c in range(n_cols):
        placed_below = 0
        for r in range(n_rows):
            if rng.random() < _SKIP_P:
                continue
            cx = c * 10.0 + 5.0
            cy = 10.0 + r * ROW_PITCH_M + 5.0
            scene.add_building(cx, cy, surface, placed_below)
            placed_below += 1


def _mixed_scene(spec: SceneSpec, rng: random.Random) -> _Scene:
    """Formal west half and a rotated informal cluster east of a divide road."""
    scene = _Scene()
    extent = spec.extent
    divide = extent / 2.0
    _formal_region(
        scene,
        rng,
        spec.road_surface_mix,
        extent,
        road_x1=divide - 20.0,
        max_house_x=divide - 40.0,
    )
    surface = _draw_surface(rng, spec.road_surface_mix)
    scene.roads.append(
        ([(divide, -BOUNDARY_MARGIN_M), (divide, extent + BOUNDARY_MARGIN_M)], surface)
    )
    n_bands = int(extent // 10)
    n_depth = int((divide - 20.0) // ROW_PITCH_M) + 1
    for b in range(n_bands):
        placed_before = 0
        for c in range(n_depth):
            if rng.random() < _SKIP_P:
                continue
            cx = divide + 10.0 + c * ROW_PITCH_M + 5.0
            cy = b * 10.0 + 5.0
            scene.add_building(cx, cy, surface, placed_before)
            placed_before += 1
    return scene


def _build_scene(spec: SceneSpec) -> _Scene:
    rng = random.Random(spec.seed)
    if spec.layout == "formal_grid":
        scene = _Scene()
        _formal_region(
            scene,
            rng,
            spec.road_surface_mix,
            spec.extent,
            road_x1=spec.extent,
            max_house_x=spec.extent - 10.0,
        )
        return scene
    if spec.layout == "informal_cluster":
        scene = _Scene()
        _informal_cluster_region(scene, rng, spec.road_surface_mix, spec.extent)
        behind = sum(1 for n in scene.obstructions if n >= 2)
        assert behind >= 0.6 * len(scene.obstructions)
        return scene
    if spec.layout == "mixed":
        return _mixed_scene(spec, rng)
    raise ValueError(f"unknown layout {spec.layout!r}")


def expected_cell_levels(scene: _Scene) -> dict[CellId, str]:
    """Apply the deprivation rule to the constructed per-building truth."""
    per_cell: dict[CellId, list[int]] = {}
    votes: dict[CellId, dict[Surface, int]] = {}
    for (cx, cy), surface, count in zip(
        scene.squares, scene.surfaces, scene.obstructions
    ):
        cell = cell_of(PlanePoint(cx, cy))
        per_cell.setdefault(cell, []).append(count)
        tally = votes.setdefault(cell, {Surface.PAVED: 0, Surface.UNPAVED: 0})
        if surface in tally:
            tally[surface] += 1
    levels: dict[CellId, str] = {}
    for cell, counts in per_cell.items():
        mean = sum(counts) / len(counts)
        if mean > 1.0:
            levels[cell] = "high"
        elif votes[cell][Surface.PAVED] > votes[cell][Surface.UNPAVED]:
            levels[cell] = "low"
        else:
            levels[cell] = "medium"
    return levels


def _square_ring(cx: float, cy: float) -> list[tuple[float, float]]:
    h = BUILDING_HALF_M
    corners = [
        (cx - h, cy - h),
        (cx + h, cy - h),
        (cx + h, cy + h),
        (cx - h, cy + h),
        (cx - h, cy - h),
    ]
    return [inverse_lonlat(x, y) for x, y in corners]


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def generate(spec: SceneSpec, out_dir: Path | str) -> SceneFiles:
    """Write the scene's GeoJSON/CSV files; same spec, byte-identical output."""
    if spec.layout not in LAYOUTS:
        raise ValueError(f"layout must be one of {LAYOUTS}, got {spec.layout!r}")
    if spec.extent < 400 or spec.extent % 200 != 0:
        raise ValueError("extent must be a multiple of 200 m, at least 400 m")
    if not 0.0 <= spec.road_surface_mix <= 1.0:
        raise ValueError("road_surface_mix must be a fraction in [0, 1]")

    scene = _build_scene(spec)
    rng = random.Random(spec.seed ^ 0x5EED)  # confidence noise, independent stream
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = SceneFiles(
        buildings=out / "buildings.geojson",
        roads=out / "roads.geojson",
        boundary=out / "boundary.geojson",
        expected_levels=out / "expected_levels.csv",
    )

    building_features = [
        {
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [_square_ring(cx, cy)]},
            "properties": {"confidence": round(rng.uniform(0.65, 0.95), 4)},
        }
        for cx, cy in scene.squares
    ]
    _write_json(files.buildings, {"type": "FeatureCollection", "features": building_features})

    road_features = [
        {
            "type": "Feature",
            "geometry": {
                "type": "LineString",
                "coordinates": [inverse_lonlat(x, y) for x, y in coords],
            },
            "properties": {"class": "residential", "surface": surface.value},
        }
        for coords, surface in scene.roads
    ]
    _write_json(files.roads, {"type": "FeatureCollection", "features": road_features})

    m = BOUNDARY_MARGIN_M
    ring = [
        (-m, -m),
        (spec.extent + m, -m),
        (spec.extent + m, spec.extent + m),
        (-m, spec.extent + m),
        (-m, -m),
    ]
    _write_json(
        files.boundary,
        {
            "type": "Feature",
            "geometry": {
                "type": "Polygon",
                "coordinates": [[inverse_lonlat(x, y) for x, y in ring]],
            },
            "properties": {},
        },
    )

    levels = expected_cell_levels(scene)
    with open(files.expected_levels, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["i", "j", "level"])
        for cell in sorted(levels):
            writer.writerow([cell.i, cell.j, levels[cell]])

    return files
