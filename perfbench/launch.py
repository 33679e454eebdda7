"""Starts the benchmark's child processes, one at a time, and reports their cost.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``,
answered by one JSON line on stdout,
``{"exit_code": int, "wall_s": float, "cpu_s": float, "maxrss_kb": int,
"timed_out": bool}``.
The wall time spans process creation to reaping, measured here, outside the
child.  CPU time and peak RSS come from ``os.wait4``.

This process imports nothing beyond the standard library and never grows:
on Linux a child's ``ru_maxrss`` starts from the high-water RSS of the
process it was spawned from, so spawning from the numpy-heavy benchmark
process itself would put a false floor under every child's figure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(request["timeout"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": timed_out.is_set(),
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
