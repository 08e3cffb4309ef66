"""Run one command and print its wall time, exit code and peak RSS as JSON.

    python3 perfbench/launch.py ARGV...

run.py starts every timed process through this small launcher. On Linux a
child's ru_maxrss is at least the resident size of the process it was
forked from, so a command forked straight from the benchmark, which holds
every session's results, would report the benchmark's memory whenever that
is larger than the command's own. Forked from this launcher, it reports its
own peak unless that is below the launcher's few MB. The command's
standard output is discarded and its standard error is inherited.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    spawned = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - spawned
    print(json.dumps({
        "wall_s": wall,
        "exit": os.waitstatus_to_exitcode(status),
        "maxrss_kib": usage.ru_maxrss,
        "spawned": spawned,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
