"""Fuzz the CLI with mutated inputs on a tiny scene: configs and GeoJSON
before `run`, the run's cells.csv and the votes CSV before `evaluate`.

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
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roadaccess.cli import main
from roadaccess.errors import DataError
from roadaccess.ingest import LoadStats, load_buildings, load_roads, load_validations

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


# What a hand-edited or truncated CSV cell might hold instead of its value.
CSV_JUNK = [
    "", " ", "x", "-1", "1.5", "1e3", "nan", "inf", "None", "LOW", " high ", "severe",
    "9" * 30, '"', "a,b", "\x00", "\u00e9",
]
CSV_MUTATIONS = (
    "drop field", "blank field", "junk field", "truncate row", "extra field",
    "duplicate row", "drop row", "undecodable byte",
)


def _mutate_csv(data, text: str) -> bytes:
    """text's CSV rows, header included, after one to three drawn edits."""
    rows = list(csv.reader(io.StringIO(text)))
    undecodable = False
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        kind = data.draw(st.sampled_from(CSV_MUTATIONS), label="kind")
        if kind == "undecodable byte":
            undecodable = True
            continue
        if not rows:
            break
        r = data.draw(st.integers(0, len(rows) - 1), label="row")
        row = rows[r]
        k = data.draw(st.integers(0, max(len(row) - 1, 0)), label="field")
        if kind == "duplicate row":
            rows.insert(r, list(row))
        elif kind == "drop row":
            del rows[r]
        elif kind == "extra field":
            row.append(data.draw(st.sampled_from(CSV_JUNK), label="value"))
        elif not row:
            continue
        elif kind == "drop field":
            del row[k]
        elif kind == "blank field":
            row[k] = ""
        elif kind == "junk field":
            row[k] = data.draw(st.sampled_from(CSV_JUNK), label="value")
        else:  # truncate row
            del row[k:]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    raw = out.getvalue().encode("utf-8")
    if undecodable:
        at = data.draw(st.integers(0, len(raw)), label="at")
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def _is_valid_vote(row: dict) -> bool:
    """The loader's row rule: integer cell, known level, non-blank validator."""
    try:
        int(row["cell_i"])
        int(row["cell_j"])
    except (TypeError, ValueError):
        return False
    level = (row["level"] or "").strip().upper()
    return level in ("LOW", "MEDIUM", "HIGH") and bool((row["validator_id"] or "").strip())


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_cells_and_votes_end_in_a_documented_exit(scene, data):
    base_config, _ = scene
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        shutil.copytree(base_config["output_dir"], out)
        votes = tmp / "votes.csv"
        shutil.copy(base_config["validations"], votes)
        target = data.draw(st.sampled_from(("cells.csv", "votes")), label="target")
        path = out / "cells.csv" if target == "cells.csv" else votes
        path.write_bytes(_mutate_csv(data, path.read_text(encoding="utf-8")))
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps(dict(base_config, output_dir=str(out), validations=str(votes))))

        code = _run_cli(["evaluate", "--config", str(cfg)])
        stats = LoadStats()
        try:
            cell_votes = load_validations(votes, stats=stats)
        except DataError:
            assert code == 3
            return
        with open(votes, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        valid = [row for row in rows if _is_valid_vote(row)]
        assert stats.total == stats.loaded + stats.skipped == len(rows)
        assert stats.loaded == len(valid)
        assert len(stats.rejected_lines) == stats.skipped
        voters = {(row["cell_i"], row["cell_j"], row["validator_id"].strip()) for row in valid}
        assert stats.records == sum(map(len, cell_votes.values())) == len(
            {(int(i), int(j), v) for i, j, v in voters}
        )
        if code == 0:
            report = json.loads((out / "evaluation.json").read_text())
            assert report["validation_rows"] == stats.as_dict()
