"""Fuzz the CLI with mutated configs and GeoJSON inputs on a tiny scene.

Every mutated input must end in a documented exit code (0 ok, 2 config,
3 data, 4 evaluation) with no exception escaping `main`, and the loaders'
counters must stay conserved (total == loaded + skipped). Examples are
derandomized, so the suite is the same on every run.
"""

import contextlib
import copy
import csv
import io
import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roadaccess.cli import main
from roadaccess.errors import DataError
from roadaccess.ingest import LoadStats, load_buildings, load_roads

from _scenes import write_lonlat_scene

EXIT_CODES = {0, 2, 3, 4}
ERROR_KINDS = ("configuration-error: ", "data-error: ", "evaluation-error: ")
COMMANDS = ("run", "evaluate", "export-connectors")

# Values a hand-edited or machine-written file might hold where a number,
# a string, a position or an object belongs. The smallest positive number
# is 2.5: as a cell_size over this scene's 0.004-degree boundary it already
# means about 30,000 cells, and the empty-cell scan grows with the inverse
# square of cell_size, so a much smaller one would run for minutes.
JUNK = [
    None, True, False, 0, -1, 1, 2.5, 10**6, 10**400, 0.0, -200.0, 1e308,
    math.nan, math.inf, -math.inf, "", "12", "x", [], [1], [True, 45.0], ["1", "2"],
    [[0, 0]], {}, {"type": "Point"}, {"type": "Polygon", "coordinates": 5},
]
MUTATION_TARGETS = (
    "buildings", "buildings", "buildings", "roads", "roads", "boundary",
    "config value", "config value", "config key",
)
CONFIG_KEYS = (
    "buildings", "roads", "boundary", "output_dir", "validations", "class_property",
    "surface_property", "min_confidence", "threshold", "cell_size",
    "include_empty_in_distribution", "workers",
)


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A clean config, its input documents, and votes on cells of its run."""
    root = tmp_path_factory.mktemp("fuzz")
    files = write_lonlat_scene(root, random.Random(3), n_buildings=12, n_roads=3, span_deg=0.002)
    config = {
        "buildings": str(files.buildings),
        "roads": str(files.roads),
        "boundary": str(files.boundary),
        "output_dir": str(root / "clean"),
        "workers": 1,
    }
    (root / "clean.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(root / "clean.json")]) == 0
    with open(root / "clean" / "cells.csv") as f:
        cells = list(csv.DictReader(f))[:6]
    votes = root / "votes.csv"
    votes.write_text(
        "cell_i,cell_j,validator_id,level\n"
        + "".join(f"{c['i']},{c['j']},v{n % 2},{c['level']}\n" for n, c in enumerate(cells))
    )
    config["validations"] = str(votes)
    documents = {
        name: json.loads(Path(config[name]).read_text()) for name in ("buildings", "roads", "boundary")
    }
    return config, documents


def _mutate(data, doc):
    """doc with one node, found by a walk of drawn depth, replaced by junk."""
    depth = data.draw(st.integers(0, 9), label="depth")
    path = []
    node = doc
    while len(path) < depth and isinstance(node, (dict, list)) and node:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    value = data.draw(st.sampled_from(JUNK), label="value")
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _run_cli(argv):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    text = err.getvalue()
    assert code in EXIT_CODES, (argv, code, text)
    assert "Traceback" not in text
    if code:
        assert any(line.startswith(ERROR_KINDS) for line in text.splitlines()), text
    return code


def _check_load_stats(loader, path):
    stats = LoadStats()
    try:
        loader(path, stats=stats)
    except DataError:
        return
    assert stats.total == stats.loaded + stats.skipped


@settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_inputs_end_in_a_documented_exit(scene, data):
    base_config, documents = scene
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = dict(base_config, output_dir=str(tmp / "out"))
        # one mutation per example, most of them inside the GeoJSON
        target = data.draw(st.sampled_from(MUTATION_TARGETS), label="target")
        for name, doc in documents.items():
            if name == target:
                doc = _mutate(data, copy.deepcopy(doc))
            config[name] = str(tmp / f"{name}.geojson")
            Path(config[name]).write_text(json.dumps(doc))
        if target == "config value":
            key = data.draw(st.sampled_from(CONFIG_KEYS), label="key")
            config[key] = data.draw(st.sampled_from(JUNK), label="value")
        elif target == "config key":
            del config[data.draw(st.sampled_from(sorted(config)), label="key")]
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(config))

        codes = [_run_cli([command, "--config", str(cfg)]) for command in COMMANDS]
        if codes[0] == 0:
            summary = tmp / config["output_dir"] / "summary.json"
            counts = json.loads(summary.read_text())["stage_counts"]
            for stage in ("roads", "buildings"):
                assert counts[stage]["total"] == counts[stage]["loaded"] + counts[stage]["skipped"]
        for loader, name in ((load_roads, "roads"), (load_buildings, "buildings")):
            path = tmp / f"{name}.geojson"
            _check_load_stats(loader, path)
