"""The streamed cell and connector layers against the json.dump reference."""

import json
import math
import random
from types import SimpleNamespace

import pytest

from roadaccess import ingest, outputs
from roadaccess.classify import ClassifiedCell, classify_all
from roadaccess.geometry import PlanePoint
from roadaccess.grid import CellId, aggregate, enumerate_empty_cells
from roadaccess.levels import DeprivationLevel, Surface
from roadaccess.metrics import BuildingMetrics, ConnectorLine, compute_all, connectors_for
from roadaccess.spatial_index import PolygonIndex, SegmentIndex
from roadaccess.synth import LAYOUTS, SceneSpec, generate

from _scenes import (
    reference_write_cells_geojson,
    reference_write_connectors_geojson,
    write_lonlat_scene,
)


def assert_layers_match_reference(tmp_path, cells, cell_size, connectors, by_id):
    outputs.write_cells_geojson(tmp_path / "cells.geojson", cells, cell_size)
    reference_write_cells_geojson(tmp_path / "cells.reference", cells, cell_size)
    assert (tmp_path / "cells.geojson").read_bytes() == (tmp_path / "cells.reference").read_bytes()
    outputs.write_connectors_geojson(tmp_path / "connectors.geojson", connectors, by_id)
    reference_write_connectors_geojson(tmp_path / "connectors.reference", connectors, by_id)
    assert (
        (tmp_path / "connectors.geojson").read_bytes()
        == (tmp_path / "connectors.reference").read_bytes()
    )


def pipeline_layers(files, cell_size=100.0):
    """The cells and connectors the CLI's run and export-connectors write."""
    roads = ingest.filter_motorable(ingest.load_roads(files.roads))
    buildings = ingest.load_buildings(files.buildings)
    boundary = ingest.load_boundary(files.boundary)
    buildings, roads = ingest.clip_to_boundary(buildings, roads, boundary)
    road_index = SegmentIndex(roads)
    metrics = compute_all(buildings, road_index, PolygonIndex(buildings), roads)
    aggregates = aggregate(metrics, buildings, cell_size)
    cells = classify_all(aggregates, enumerate_empty_cells(boundary, aggregates, cell_size))
    return cells, connectors_for(buildings, road_index), {m.building_id: m for m in metrics}


@pytest.mark.parametrize("seed", [3, 11, 12])
def test_layers_equal_the_reference_on_fuzz_scenes(tmp_path, seed):
    # seed 3 is the fuzz suite's own scene
    files = write_lonlat_scene(tmp_path, random.Random(seed), n_buildings=12, n_roads=3, span_deg=0.002)
    cells, connectors, by_id = pipeline_layers(files)
    assert cells and connectors
    assert_layers_match_reference(tmp_path, cells, 100.0, connectors, by_id)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_layers_equal_the_reference_on_seeded_scenes(tmp_path, layout):
    files = generate(SceneSpec(seed=7, layout=layout, extent=400, road_surface_mix=0.5), tmp_path)
    cells, connectors, by_id = pipeline_layers(files, cell_size=50.0)
    assert any(c.mean_obstruction is None for c in cells)  # empty cells: null values
    assert_layers_match_reference(tmp_path, cells, 50.0, connectors, by_id)


def test_empty_layers_equal_the_reference(tmp_path):
    assert_layers_match_reference(tmp_path, [], 100.0, [], {})
    text = (tmp_path / "cells.geojson").read_text()
    assert text == '{\n  "features": [],\n  "type": "FeatureCollection"\n}\n'


ODD_STRINGS = ['', 'a"b', "back\\slash", "\n\t\r\x00\x1f", "café", "\U0001f600", " /"]
ODD_FLOATS = [None, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, 2.0 / 3.0]


def test_edge_values_equal_the_reference(tmp_path):
    # Surfaces and level labels come from fixed vocabularies; stand-ins with
    # odd strings check the escaping all the same.
    cells = []
    connectors = []
    by_id = {}
    for n, value in enumerate(ODD_FLOATS):
        text = ODD_STRINGS[n % len(ODD_STRINGS)]
        cells.append(
            ClassifiedCell(
                CellId(n - 4, 2**40 * (n % 2) - n),  # odd j: far past the pole
                SimpleNamespace(label=text) if n % 2 else DeprivationLevel.MEDIUM,
                2**70 if n == 1 else n % 3,
                value,
                None if n % 3 == 0 else SimpleNamespace(value=text),
            )
        )
        distance = math.nan if value is None else value
        connectors.append(ConnectorLine(n, PlanePoint(n, -n), PlanePoint(-1e6, 2e6), 2**64 + n, distance))
        by_id[n] = BuildingMetrics(n, n, SimpleNamespace(value=text) if n % 2 else Surface.UNPAVED, distance, n)
    assert_layers_match_reference(tmp_path, cells, 100.0, connectors, by_id)


def _edge_cells():
    """Cells whose squares reach past the antimeridian or a pole."""
    i_edge = 180402  # the equator's half-width is 18,040,095.7 m
    j_edge = 90200  # MAX_NORTHING_M is 9,020,047.8 m
    return [
        ClassifiedCell(CellId(i, j), DeprivationLevel.LOW, 0, None, None)
        for i, j in (
            (i_edge - 1, 0), (i_edge, 0), (-i_edge - 1, -1), (i_edge - 1, 600), (0, j_edge),
            (-1, j_edge), (5, j_edge - 1), (0, -j_edge - 1), (-3, -j_edge - 1), (i_edge, j_edge),
        )
    ]


def test_cell_rings_at_the_projection_edge_stay_on_earth(tmp_path):
    cells = _edge_cells()
    assert_layers_match_reference(tmp_path, cells, 100.0, [], {})
    doc = json.loads((tmp_path / "cells.geojson").read_text())
    for feature in doc["features"]:
        (ring,) = feature["geometry"]["coordinates"]
        assert len(ring) == 5 and ring[0] == ring[-1]
        for lon, lat in ring:
            assert -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0
    # the edge itself is reached: lon 180 on the antimeridian, lat 90 at the pole
    lons = [p[0] for f in doc["features"] for p in f["geometry"]["coordinates"][0]]
    lats = [p[1] for f in doc["features"] for p in f["geometry"]["coordinates"][0]]
    assert max(lons) == 180.0 and min(lons) == -180.0
    assert max(lats) == 90.0 and min(lats) == -90.0


_DIGEST_SIZES = [0, 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 12345]


def _digest_files(tmp_path):
    rng = random.Random(9)
    paths = []
    for size in _DIGEST_SIZES:
        path = tmp_path / f"blob-{size}"
        path.write_bytes(rng.randbytes(size))
        paths.append(path)
    return paths


def test_file_sha256_matches_hashlib(tmp_path):
    import hashlib

    for path in _digest_files(tmp_path):
        assert outputs.file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest(), path.name
    # CPython's own SHA-256, not the OpenSSL one hashlib prefers
    assert type(outputs._sha256()).__module__ in ("_sha256", "_sha2")


def test_file_sha256_falls_back_to_hashlib(tmp_path, monkeypatch):
    import hashlib
    import sys

    paths = _digest_files(tmp_path)
    want = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
    monkeypatch.setitem(sys.modules, "_sha256", None)  # 3.10-3.11
    monkeypatch.setitem(sys.modules, "_sha2", None)  # 3.12+
    assert type(outputs._sha256()) is type(hashlib.sha256())
    assert [outputs.file_sha256(p) for p in paths] == want
