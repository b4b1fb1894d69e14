"""Start the benchmark's commands and measure each with os.wait4.

Reads one JSON request per line on stdin, {"argv": [...], "stderr": path,
"env": {...}, "cwd": path}, runs the command to its end and answers with one
JSON line, {"exit_code", "wall_s", "cpu_s", "rss_mb"}: wall time from start
to reaping, and the CPU time and peak RSS that wait4 reports for that
process and the workers it reaped. A request {"reference": true} makes it
time reference_pass() instead and answer {"pass_s"}: the benchmark makes
its own pass meanwhile, to measure the machine's speed on two CPUs at once.

On Linux a child's peak RSS starts from its parent's resident set at the
fork, so a command started by the benchmark itself, which holds the
workload's arrays, would report at least the benchmark's size. This process
imports only the standard library and is started before anything large is
loaded, which keeps that floor at a few megabytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def reference_pass() -> float:
    """Seconds of a fixed pure-Python loop, the faster of two passes."""
    best = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * 3
        best = min(best, time.perf_counter() - started)
    return best


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("reference"):
            print(json.dumps({"pass_s": reference_pass()}), flush=True)
            continue
        started = time.perf_counter()
        with open(req["stderr"], "ab") as err:
            proc = subprocess.Popen(
                req["argv"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, env=req["env"], cwd=req["cwd"],
            )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "exit_code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
