"""Seeded end-to-end and per-layer benchmark of the roadaccess pipeline.

    python3 perfbench/run.py --workload diagonal_random --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1                  # every workload, both modes

--trace 0 times the unmodified `roadaccess` CLI, one fresh process per
command, back to back for --seconds with a timed set-up after each
session, and reports the end-to-end metrics.
--trace 1 runs one CLI session and then the traced runner (traced.py) on
the same inputs, and reports the per-layer metrics. --trace both does both.
Every session passes the correctness gate or counts as failed. Metrics
print one per line with unit and sample count; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. A result file with the samples, checks, spans and environment
goes to .perfbench/results/ (or --result).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import scenes

ROOT = scenes.ROOT
SRC = scenes.SRC
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
PINS = HERE / "pins.json"
TRACED = HERE / "traced.py"
LAUNCH = HERE / "launch.py"

PROCESS_TIMEOUT_S = 170.0
MIN_LEVEL_AGREEMENT = 0.95

E2E = {  # name -> unit
    "wall_s": "s",
    "buildings_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "ingest.load_buildings_s": "s",
    "ingest.load_roads_s": "s",
    "ingest.clip_s": "s",
    "ingest.vertices": "count",
    "projection.forward_us": "us",
    "projection.inverse_us": "us",
    "spatial_index.segment_build_s": "s",
    "spatial_index.polygon_build_s": "s",
    "spatial_index.nearest_s": "s",
    "spatial_index.candidates_s": "s",
    "spatial_index.candidates": "count",
    "geometry.exact_test_s": "s",
    "geometry.obstructions": "count",
    "spatial_index.selectivity": "ratio",
    "metrics.compute_all_s": "s",
    "metrics.unaccounted_s": "s",
    "metrics.pool_payload_bytes": "bytes",
    "grid.aggregate_s": "s",
    "grid.empty_cells_s": "s",
    "classify.classify_all_s": "s",
    "outputs.cells_geojson_s": "s",
    "outputs.cells_csv_s": "s",
    "outputs.aggregates_csv_s": "s",
    "outputs.manifest_s": "s",
    "outputs.bytes_written": "bytes",
    "outputs.connectors_geojson_s": "s",
    "metrics.connectors_for_s": "s",
    "ingest.load_validations_s": "s",
    "evaluate.report_s": "s",
    "evaluate.ternary_s": "s",
    "evaluate.matched_cells": "count",
    "cli.run_s": "s",
    "cli.evaluate_s": "s",
    "cli.export_connectors_s": "s",
    "cli.trace_overhead_s": "s",
}
COMMANDS = ("run", "evaluate", "export-connectors")
# Traced runs of a workload without evaluate or export-connectors run them
# after its own commands, so every layer is measured on every scene. Only
# the spans that belong to those commands alone are kept from them.
EXTRA_SPANS = {
    "evaluate": {
        "outputs.read_cells_csv",
        "ingest.load_validations",
        "evaluate.report",
        "outputs.evaluation_json",
        "evaluate.ternary",
        "outputs.ternary_csv",
    },
    "export-connectors": {
        "metrics.connectors_for",
        "outputs.connectors_geojson",
        "outputs.building_metrics_csv",
    },
}
# Counts that must repeat exactly across runs of one seed and program.
EXACT_COUNTS = (
    "ingest.vertices",
    "spatial_index.candidates",
    "geometry.obstructions",
    "metrics.pool_payload_bytes",
    "evaluate.matched_cells",
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stderr_path: Path) -> tuple[float, int, int, float]:
    """Run argv to completion: (wall seconds, exit code, ru_maxrss KiB, spawn instant).

    argv runs under launch.py, which times it and reads its peak RSS
    without the benchmark's own memory in the figure.
    """
    with open(stderr_path, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(LAUNCH), *argv], env=_env(),
                                stdout=subprocess.PIPE, stderr=err, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
        except BaseException as exc:  # timeout or interrupt: end the command with its launcher
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            return time.perf_counter() - t0, -signal.SIGKILL, 0, t0
    if proc.returncode != 0:  # the launcher itself failed
        return time.perf_counter() - t0, proc.returncode, 0, t0
    report = json.loads(out)
    return report["wall_s"], report["exit"], report["maxrss_kib"], report["spawned"]


def _stderr_tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").strip().splitlines()[-lines:])
    except OSError:
        return ""


class Workdir:
    """A scratch output directory with a config file, removed on exit."""

    def __init__(self, scene: scenes.Scene, tag: str):
        self.path = STATE / "work" / f"{scene.workload}-s{scene.seed}-{tag}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.out = self.path / "out"
        self.out.mkdir(parents=True)
        self.stderr = self.path / "stderr.log"
        doc = {name: scene.inputs[name]["path"] for name in scene.inputs}
        doc["output_dir"] = str(self.out)
        self.config = self.path / "config.json"
        self.config.write_text(json.dumps(doc, indent=2, sort_keys=True))

    def __enter__(self) -> "Workdir":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# correctness gate


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as f:
        return json.load(f)["pins"]


def pinned(pins: dict, workload: str, seed: int) -> dict | None:
    return pins.get(workload, {}).get(str(seed))


def _read_cells(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as f:
        return {(int(r["i"]), int(r["j"])): r for r in csv.DictReader(f)}


def _level_agreement(expected_path: Path, cells: dict) -> tuple[int, int]:
    with open(expected_path, newline="", encoding="utf-8") as f:
        expected = {(int(r["i"]), int(r["j"])): r["level"] for r in csv.DictReader(f)}
    matched = sum(1 for cell, level in expected.items() if cells.get(cell, {}).get("level") == level)
    return matched, len(expected)


def output_digests(out: Path) -> dict:
    return {
        name: scenes.sha256_file(out / name)
        for name in ("cells.csv", "evaluation.json")
        if (out / name).exists()
    }


def workers1_digest(scene: scenes.Scene, pins: dict) -> str:
    """cells.csv digest of the scene at workers=1: pinned, else computed once."""
    pin = pinned(pins, scene.workload, scene.seed)
    if pin is not None:
        return pin["cells.csv"]
    cached = scene.dir / "workers1_cells.sha256"
    if not cached.exists():
        with Workdir(scene, "w1") as wd:
            argv = [sys.executable, "-m", "roadaccess.cli", "run", "--config", str(wd.config),
                    "--workers", "1"]
            _, code, _, _ = spawn(argv, wd.stderr)
            if code != 0:
                raise RuntimeError(f"workers=1 reference run failed: {_stderr_tail(wd.stderr)}")
            cached.write_text(scenes.sha256_file(wd.out / "cells.csv"))
    return cached.read_text().strip()


def check_outputs(scene: scenes.Scene, out: Path, digests: dict, pins: dict,
                  commands: tuple[str, ...]) -> list[str]:
    """Failures of one session's outputs against the gate; empty when correct."""
    wl = scenes.WORKLOADS[scene.workload]
    if "cells.csv" not in digests or not (out / "manifest.json").exists():
        return ["cells.csv or manifest.json not written"]
    failures = []
    pin = pinned(pins, scene.workload, scene.seed)
    if pin is not None:
        for name, want in pin.items():
            if digests.get(name) != want:
                failures.append(f"{name} digest {digests.get(name)} != pinned {want}")
    if wl.workers > 1:
        try:
            if digests["cells.csv"] != workers1_digest(scene, pins):
                failures.append(f"cells.csv at workers={wl.workers} differs from workers=1")
        except RuntimeError as exc:
            failures.append(str(exc))
    cells = _read_cells(out / "cells.csv")
    built = sum(int(r["building_count"]) for r in cells.values())
    with open(out / "manifest.json", encoding="utf-8") as f:
        in_scope = json.load(f)["stage_counts"]["buildings_in_scope"]
    if not built == in_scope == scene.buildings:
        failures.append(
            f"building conservation: cells hold {built}, manifest {in_scope}, "
            f"input {scene.buildings}"
        )
    if scene.expected_levels is not None:
        matched, total = _level_agreement(scene.expected_levels, cells)
        if matched < MIN_LEVEL_AGREEMENT * total:
            failures.append(f"expected-level agreement {matched}/{total} below 95%")
    if "export-connectors" in commands:
        with open(out / "connectors.geojson", encoding="utf-8") as f:
            n = len(json.load(f)["features"])
        if n != scene.buildings:
            failures.append(f"{n} connectors for {scene.buildings} buildings")
    return failures


# ---------------------------------------------------------------------------
# sessions


def cli_session(scene: scenes.Scene, pins: dict, extra: tuple[str, ...] = ()) -> dict:
    """The workload's commands, then `extra` ones, through the unmodified CLI, checked.

    `wall_s`, `buildings_per_s` and `peak_rss_mb` cover the workload's own
    commands only.
    """
    wl = scenes.WORKLOADS[scene.workload]
    with Workdir(scene, "cli") as wd:
        commands = {}
        failures = []
        for command in wl.commands + extra:
            argv = [sys.executable, "-m", "roadaccess.cli", command, "--config", str(wd.config),
                    "--workers", str(wl.workers)]
            wall, code, maxrss_kib, _ = spawn(argv, wd.stderr)
            commands[command] = {"wall_s": wall, "exit": code, "maxrss_kib": maxrss_kib}
            if code != 0:
                failures.append(f"{command} exited {code}: {_stderr_tail(wd.stderr)}")
                break
        digests = {}
        in_scope = 0
        if not failures:
            digests = output_digests(wd.out)
            failures = check_outputs(scene, wd.out, digests, pins, wl.commands + extra)
        if not failures:
            with open(wd.out / "manifest.json", encoding="utf-8") as f:
                in_scope = json.load(f)["stage_counts"]["buildings_in_scope"]
    own = [commands[c] for c in wl.commands if c in commands]
    wall = sum(c["wall_s"] for c in own)
    return {
        "commands": commands,
        "wall_s": wall,
        "buildings_in_scope": in_scope,
        "buildings_per_s": in_scope / wall,
        "peak_rss_mb": max(c["maxrss_kib"] for c in own) / 1024.0,
        "digests": digests,
        "failures": failures,
    }


def traced_command(wd: Workdir, command: str, workers: int, setup_only: bool = False) -> dict:
    """One traced.py process; its report plus the parent's spawn instant."""
    report_path = wd.path / f"trace-{command}.json"
    argv = [sys.executable, str(TRACED), "--config", str(wd.config), "--command", command,
            "--workers", str(workers), "--report", str(report_path)]
    if setup_only:
        argv.append("--setup-only")
    _, code, _, spawned = spawn(argv, wd.stderr)
    if code != 0:
        raise RuntimeError(f"traced {command} exited {code}: {_stderr_tail(wd.stderr)}")
    with open(report_path, encoding="utf-8") as f:
        report = json.load(f)
    report["spawned"] = spawned
    return report


def measure_setup(scene: scenes.Scene) -> float:
    """Spawn to both spatial indexes built, in a fresh traced process."""
    wl = scenes.WORKLOADS[scene.workload]
    with Workdir(scene, "setup") as wd:
        report = traced_command(wd, "run", wl.workers, setup_only=True)
    return report["setup_done"] - report["spawned"]


def traced_session(scene: scenes.Scene, extra: tuple[str, ...]) -> tuple[dict, dict, dict]:
    """The CLI session's commands through traced.py: (totals, counts, extras)."""
    wl = scenes.WORKLOADS[scene.workload]
    totals: dict[str, list] = {}
    counts: dict[str, int] = {}
    extras = {"traced_total_s": 0.0, "spans": {}}
    with Workdir(scene, "traced") as wd:
        for command in wl.commands + extra:
            report = traced_command(wd, command, wl.workers)
            own = command in wl.commands
            if own:
                extras["traced_total_s"] += report["pipeline_done"] - report["spawned"]
            extras["spans"][command] = [
                {**s, "start": s["start"] - report["spawned"], "end": s["end"] - report["spawned"]}
                for s in report["spans"]
            ]
            for name, (seconds, calls) in report["totals"].items():
                if own or name in EXTRA_SPANS[command]:
                    total = totals.setdefault(name, [0.0, 0])
                    total[0] += seconds
                    total[1] += calls
            for name, n in report["counts"].items():
                counts[name] = counts.get(name, 0) + n
            if command == "run":
                extras.update(
                    compute_all_w1_s=report["compute_all_w1_s"],
                    pool_payload_bytes=report["pool_payload_bytes"],
                    cells_sha256=report["cells_sha256"],
                )
        extras["bytes_written"] = sum(p.stat().st_size for p in wd.out.iterdir())
    return totals, counts, extras


def per_layer_metrics(scene: scenes.Scene, session: dict, totals: dict, counts: dict,
                      extras: dict) -> dict:
    def seconds(name: str) -> float:
        return totals.get(name, [0.0, 0])[0]

    def per_call_us(name: str) -> float:
        s, calls = totals.get(name, [0.0, 0])
        return s / calls * 1e6 if calls else 0.0

    def cli_s(command: str) -> float:
        return session["commands"].get(command, {}).get("wall_s", 0.0)

    split = (seconds("spatial_index.nearest") + seconds("spatial_index.candidates")
             + seconds("geometry.exact_test"))
    candidates = counts.get("spatial_index.candidates", 0)
    obstructions = counts.get("geometry.obstructions", 0)
    m = {
        "ingest.load_buildings_s": seconds("ingest.load_buildings"),
        "ingest.load_roads_s": seconds("ingest.load_roads"),
        "ingest.clip_s": seconds("ingest.clip"),
        "ingest.vertices": scene.vertices,
        "projection.forward_us": per_call_us("projection.forward"),
        "projection.inverse_us": per_call_us("projection.inverse"),
        "spatial_index.segment_build_s": seconds("spatial_index.segment_build"),
        "spatial_index.polygon_build_s": seconds("spatial_index.polygon_build"),
        "spatial_index.nearest_s": seconds("spatial_index.nearest"),
        "spatial_index.candidates_s": seconds("spatial_index.candidates"),
        "spatial_index.candidates": candidates,
        "geometry.exact_test_s": seconds("geometry.exact_test"),
        "geometry.obstructions": obstructions,
        # no candidates means no wasted exact tests
        "spatial_index.selectivity": obstructions / candidates if candidates else 1.0,
        "metrics.compute_all_s": seconds("metrics.compute_all"),
        "metrics.unaccounted_s": extras["compute_all_w1_s"] - split,
        "metrics.pool_payload_bytes": extras["pool_payload_bytes"],
        "grid.aggregate_s": seconds("grid.aggregate"),
        "grid.empty_cells_s": seconds("grid.empty_cells"),
        "classify.classify_all_s": seconds("classify.classify_all"),
        "outputs.cells_geojson_s": seconds("outputs.cells_geojson"),
        "outputs.cells_csv_s": seconds("outputs.cells_csv"),
        "outputs.aggregates_csv_s": seconds("outputs.aggregates_csv"),
        "outputs.manifest_s": seconds("outputs.manifest"),
        "outputs.bytes_written": extras["bytes_written"],
        "outputs.connectors_geojson_s": seconds("outputs.connectors_geojson"),
        "metrics.connectors_for_s": seconds("metrics.connectors_for"),
        "ingest.load_validations_s": seconds("ingest.load_validations"),
        "evaluate.report_s": seconds("evaluate.report"),
        "evaluate.ternary_s": seconds("evaluate.ternary"),
        "evaluate.matched_cells": counts.get("evaluate.matched_cells", 0),
        "cli.run_s": cli_s("run"),
        "cli.evaluate_s": cli_s("evaluate"),
        "cli.export_connectors_s": cli_s("export-connectors"),
        "cli.trace_overhead_s": extras["traced_total_s"] - session["wall_s"],
    }
    assert set(m) == set(PER_LAYER)
    return m


# ---------------------------------------------------------------------------
# modes


def _deadline_loop(seconds: float, step):
    """Call step() back to back until `seconds` have passed; at least once."""
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        samples.append(step())
    return samples


def warm_up() -> None:
    """Compile the program's bytecode once, so no timed process pays for it."""
    subprocess.run([sys.executable, "-c", "import roadaccess.cli"], env=_env(), check=True)


def run_e2e(scene: scenes.Scene, seconds: float, pins: dict) -> dict:
    """CLI sessions back to back, each followed by one timed set-up.

    Interleaving spreads both kinds of sample over the whole run, so a slow
    phase of the host weighs on the two medians alike.
    """
    def step() -> tuple[dict, float]:
        return cli_session(scene, pins), measure_setup(scene)

    steps = _deadline_loop(seconds, step)
    sessions = [session for session, _ in steps]
    ok = [s for s in sessions if not s["failures"]]
    samples = {
        "wall_s": [s["wall_s"] for s in ok],
        "buildings_per_s": [s["buildings_per_s"] for s in ok],
        "setup_s": [setup for _, setup in steps],
        "peak_rss_mb": [s["peak_rss_mb"] for s in ok],
    }
    return {
        "attempted": len(sessions),
        "failed": len(sessions) - len(ok),
        "failures": [f for s in sessions for f in s["failures"]],
        "samples": samples,
        "sessions": sessions,
    }


def _check_counts(scene: scenes.Scene, pairs: list[dict]) -> list[str]:
    """Exact-repeat counts: equal across this run's pairs and earlier runs."""
    failures = []
    first = {name: pairs[0]["metrics"][name] for name in EXACT_COUNTS}
    for p in pairs[1:]:
        for name in EXACT_COUNTS:
            if p["metrics"][name] != first[name]:
                failures.append(f"{name} changed between traced runs of one seed")
    recorded = scene.dir / "counts.json"
    if recorded.exists():
        earlier = json.loads(recorded.read_text())
        for name in EXACT_COUNTS:
            if earlier.get(name) != first[name]:
                failures.append(f"{name} {first[name]} != {earlier.get(name)} of an earlier run")
    else:
        recorded.write_text(json.dumps(first, sort_keys=True))
    return failures


def run_traced(scene: scenes.Scene, seconds: float, pins: dict) -> dict:
    extra = tuple(c for c in COMMANDS if c not in scenes.WORKLOADS[scene.workload].commands)

    def pair() -> dict:
        session = cli_session(scene, pins, extra)
        failures = list(session["failures"])
        try:
            totals, counts, extras = traced_session(scene, extra)
        except RuntimeError as exc:
            return {"failures": failures + [str(exc)], "session": session}
        if session["digests"] and extras["cells_sha256"] != session["digests"]["cells.csv"]:
            failures.append("traced cells.csv differs from the CLI's")
        metrics = per_layer_metrics(scene, session, totals, counts, extras) if not failures else {}
        return {"failures": failures, "metrics": metrics, "session": session,
                "spans": extras["spans"], "totals": totals}

    pairs = _deadline_loop(seconds, pair)
    ok = [p for p in pairs if not p["failures"]]
    failures = [f for p in pairs for f in p["failures"]]
    if ok:
        count_failures = _check_counts(scene, ok)
        failures += count_failures
        if count_failures:
            ok = []
    samples = {name: [p["metrics"][name] for p in ok] for name in PER_LAYER}
    return {
        "attempted": len(pairs),
        "failed": len(pairs) - len(ok),
        "failures": failures,
        "samples": samples,
        "pairs": pairs,
    }


# ---------------------------------------------------------------------------
# reporting


def top_percentile(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the maximum."""
    n = len(values)
    for q in (99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10:
            return f"p{q:g}", statistics.quantiles(values, n=1000, method="inclusive")[
                round(q * 10) - 1
            ]
    return "max", max(values)


def summarize(samples: dict, units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        values = samples.get(name) or []
        if not values:
            continue
        label, top = top_percentile(values)
        out[name] = {"median": statistics.median(values), label: top, "n": len(values),
                     "unit": unit}
    return out


def _git_commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git on PATH
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="comma-separated workload names, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time per workload and mode")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--result", help="result file (default: under .perfbench/results/)")
    args = parser.parse_args(argv)

    if not (SRC / "roadaccess" / "cli.py").is_file():
        print(f"roadaccess sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(scenes.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in scenes.WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    modes = ("0", "1") if args.trace == "both" else (args.trace,)
    pins = load_pins()
    warm_up()

    results = {}
    for name in names:
        scene = scenes.scene(name, args.seed)
        entry = {
            "workers": scenes.WORKLOADS[name].workers,
            "commands": list(scenes.WORKLOADS[name].commands),
            "inputs": {k: v["sha256"] for k, v in scene.inputs.items()},
            "input_vertices": scene.vertices,
            "input_buildings": scene.buildings,
            "pinned": pinned(pins, name, args.seed),
        }
        if "0" in modes:
            entry["end_to_end"] = run_e2e(scene, args.seconds, pins)
            entry["end_to_end"]["summary"] = summarize(entry["end_to_end"]["samples"], E2E)
        if "1" in modes:
            entry["per_layer"] = run_traced(scene, args.seconds, pins)
            entry["per_layer"]["summary"] = summarize(entry["per_layer"]["samples"], PER_LAYER)
        results[name] = entry

    attempted = failed = 0
    metrics = {}
    single = len(names) == 1 and len(modes) == 1
    for name, entry in results.items():
        pin_note = "pinned" if entry["pinned"] else "unpinned seed: digest checks vs pins skipped"
        print(f"== {name} seed={args.seed} workers={entry['workers']} ({pin_note})")
        for mode, units in (("end_to_end", E2E), ("per_layer", PER_LAYER)):
            if mode not in entry:
                continue
            part = entry[mode]
            attempted += part["attempted"]
            failed += part["failed"]
            rate = part["failed"] / part["attempted"]
            print(f"  {mode}: {part['attempted']} attempted, {part['failed']} failed, "
                  f"error_rate {rate:g}")
            for failure in part["failures"]:
                print(f"  FAIL {failure}")
            for metric, s in part["summary"].items():
                top = next(k for k in s if k not in ("median", "n", "unit"))
                print(f"  {metric:32s} {s['median']:.6g} {s['unit']}  "
                      f"({top} {s[top]:.6g}, n={s['n']})")
                key = metric if single else f"{name}/{metric}"
                metrics[key] = {"value": s["median"], "unit": s["unit"]}
            part["error_rate"] = rate

    correct = failed == 0 and attempted > 0
    doc = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "workloads": results,
        "correct": correct,
    }
    result_path = Path(args.result) if args.result else (
        STATE / "results" / f"{'+'.join(names)}-seed{args.seed}-trace{args.trace}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"result file: {result_path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
