"""The benchmark's traced runner (perfbench/traced.py) re-enacts the CLI
through the package's public names, so a source refactor can break the
benchmark without touching perfbench/. This runs it on a tiny scene."""

import csv
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from _scenes import write_lonlat_scene

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"


def _config(tmp_path, paths, name, **extra):
    doc = {
        "buildings": str(paths.buildings),
        "roads": str(paths.roads),
        "boundary": str(paths.boundary),
        "output_dir": str(tmp_path / name),
        **extra,
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def _run(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_traced_runner_runs_and_matches_the_cli(tmp_path):
    paths = write_lonlat_scene(tmp_path, random.Random(17), 300, 12, span_deg=0.005)
    traced_cfg = _config(tmp_path, paths, "traced")
    cli_cfg = _config(tmp_path, paths, "cli")
    for command, extra in (
        ("run", ["--setup-only"]),
        ("run", []),
        ("export-connectors", []),
    ):
        report = tmp_path / f"{command}{len(extra)}.json"
        _run([str(TRACED), "--config", str(traced_cfg), "--command", command,
              "--workers", "1", "--report", str(report), *extra])
        assert "spans" in json.loads(report.read_text())
    _run(["-m", "roadaccess.cli", "run", "--config", str(cli_cfg)])
    traced_cells = (tmp_path / "traced" / "cells.csv").read_bytes()
    assert traced_cells == (tmp_path / "cli" / "cells.csv").read_bytes()
    assert traced_cells.count(b"\n") > 10


def test_traced_runner_at_two_workers_matches_the_cli(tmp_path):
    # at workers > 1 the traced run also re-runs the metric stage at
    # workers=1 and sizes the pickled inputs of a pool
    paths = write_lonlat_scene(tmp_path, random.Random(17), 300, 12, span_deg=0.005)
    traced_cfg = _config(tmp_path, paths, "traced")
    cli_cfg = _config(tmp_path, paths, "cli", workers=2)
    report = tmp_path / "run.json"
    _run([str(TRACED), "--config", str(traced_cfg), "--command", "run",
          "--workers", "2", "--report", str(report)])
    assert json.loads(report.read_text())["pool_payload_bytes"] > 0
    _run(["-m", "roadaccess.cli", "run", "--config", str(cli_cfg)])
    traced_cells = (tmp_path / "traced" / "cells.csv").read_bytes()
    assert traced_cells == (tmp_path / "cli" / "cells.csv").read_bytes()
    assert traced_cells.count(b"\n") > 10


def test_traced_evaluate_matches_the_cli(tmp_path):
    paths = write_lonlat_scene(tmp_path, random.Random(17), 300, 12, span_deg=0.005)
    votes = tmp_path / "votes.csv"
    traced_cfg = _config(tmp_path, paths, "traced", validations=str(votes))
    cli_cfg = _config(tmp_path, paths, "cli", validations=str(votes))
    _run(["-m", "roadaccess.cli", "run", "--config", str(cli_cfg)])
    with open(tmp_path / "cli" / "cells.csv", newline="") as f:
        cells = [(row["i"], row["j"]) for row in csv.DictReader(f)]
    # one to three random votes a cell: consensus on each level, ties and single votes
    rng = random.Random(5)
    rows = [
        f"{i},{j},v{k},{rng.choice(('low', 'medium', 'high'))}\n"
        for i, j in cells
        for k in range(rng.randint(1, 3))
    ]
    votes.write_text("cell_i,cell_j,validator_id,level\n" + "".join(rows))
    _run(["-m", "roadaccess.cli", "evaluate", "--config", str(cli_cfg)])
    for command in ("run", "evaluate"):
        _run([str(TRACED), "--config", str(traced_cfg), "--command", command,
              "--workers", "1", "--report", str(tmp_path / f"{command}.json")])
    for name in ("evaluation.json", "ternary.csv"):
        traced = (tmp_path / "traced" / name).read_bytes()
        assert traced == (tmp_path / "cli" / name).read_bytes(), name
    report = json.loads((tmp_path / "cli" / "evaluation.json").read_text())
    assert report["matched_cells"] > 10 and report["excluded"]["no_consensus"] > 0
    assert (tmp_path / "cli" / "ternary.csv").read_bytes().count(b"\n") > 10
