"""Pin the output digests the benchmark's correctness gate expects.

    python3 perfbench/pin.py --seeds 0-24
    python3 perfbench/pin.py --seeds 3,7 --workload formal_session

For each (workload, seed) this runs the workload's commands through the
CLI at workers=1 and records the SHA-256 of `cells.csv` (and of
`evaluation.json` where the workload evaluates) in perfbench/pins.json.
`mixed_w2` is pinned at workers=1 too, so its gate also checks that the
process pool changes nothing. Re-pin only when a change alters outputs on
purpose, and say so in CHANGES.md: a speed-up that moves a digest is a bug.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import scenes


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def pin(workload: str, seed: int) -> dict:
    scene = scenes.scene(workload, seed)
    with run.Workdir(scene, "pin") as wd:
        for command in scenes.WORKLOADS[workload].commands:
            argv = [sys.executable, "-m", "roadaccess.cli", command, "--config", str(wd.config),
                    "--workers", "1"]
            _, code, _, _ = run.spawn(argv, wd.stderr)
            if code != 0:
                raise RuntimeError(f"{workload} seed {seed}: {command} exited {code}")
        digests = run.output_digests(wd.out)
        # the rest of the gate (conservation, expected levels) still applies
        failures = run.check_outputs(scene, wd.out, digests, {workload: {str(seed): digests}},
                                     scenes.WORKLOADS[workload].commands)
    if failures:
        raise RuntimeError(f"{workload} seed {seed}: {'; '.join(failures)}")
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-24 or 1,5,9")
    parser.add_argument("--workload", default="all")
    args = parser.parse_args()
    names = list(scenes.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    with open(run.PINS, encoding="utf-8") as f:
        doc = json.load(f)
    run.warm_up()
    for seed in _seeds(args.seeds):
        for name in names:
            doc["pins"].setdefault(name, {})[str(seed)] = pin(name, seed)
            print(f"pinned {name} seed {seed}", flush=True)
        with open(run.PINS, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
