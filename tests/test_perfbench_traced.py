"""The benchmark's traced runner (perfbench/traced.py) re-enacts the CLI
through the package's public names, so a source refactor can break the
benchmark without touching perfbench/. This runs it on a tiny scene."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from _scenes import write_lonlat_scene

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"


def _config(tmp_path, paths, name):
    doc = {
        "buildings": str(paths.buildings),
        "roads": str(paths.roads),
        "boundary": str(paths.boundary),
        "output_dir": str(tmp_path / name),
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
