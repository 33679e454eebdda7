"""qmtest benchmark: closed loop, one client, one CLI invocation per operation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qubit-aggregate --seed 1 --seconds 30 --trace 0

Set-up writes the workload's fixture files (derived from ``--seed``) several
times and reports the median.  The loop then cycles through the workload's
fixed operation list, with the same arguments each time, until ``--seconds``
have elapsed.  Each operation is ``python -m qmtest.cli ...`` in a fresh
child process, started by ``launch.py`` and timed from outside.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` one untraced pass is followed by whole traced passes through
``shim.py`` and the last line reports per-layer metrics.  The line before it
holds the details: environment, tail percentile, per-operation figures and
failures.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans
from workloads import WORKLOADS, Operation

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0  # a cheap set-up is repeated until it has taken this long
TAIL_BEYOND = 10
OPERATION_TIMEOUT_S = 120.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def tail_percentile(samples: int) -> float:
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples above it."""
    if samples <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {samples}")
    return 100.0 * (samples - TAIL_BEYOND) / samples


def list_quantile(records: list[dict], key: str, q: float) -> float:
    """Nearest-rank quantile of ``key`` over one pass of the operation list.

    Every operation of the list weighs the same, however many times the loop
    reached it, so a partly run last pass does not shift the mix.  With whole
    passes this is the plain nearest-rank quantile.
    """
    counts: dict[str, int] = {}
    for r in records:
        counts[r["op"]] = counts.get(r["op"], 0) + 1
    points = sorted((r[key], 1.0 / (counts[r["op"]] * len(counts))) for r in records)
    cumulative = 0.0
    for value, weight in points:
        cumulative += weight
        if cumulative >= q - 1e-9:
            return value
    return points[-1][0]


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Launcher:
    """The small helper process that starts and reaps every child."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, stdout: Path, stderr: Path) -> dict:
        request = {"argv": [str(a) for a in argv], "stdout": str(stdout),
                   "stderr": str(stderr), "timeout": OPERATION_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self):
        """End of input stops the launcher once its current child is reaped."""
        self.proc.stdin.close()
        self.proc.wait(timeout=OPERATION_TIMEOUT_S + 30)
        self.proc.stdout.close()


class Run:
    """One benchmark run: set-up, the timed loop, and its records."""

    def __init__(self, args, root: Path):
        self.args = args
        self.work = root / ".perfbench_work" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.launcher = Launcher(env)
        self.records: list[dict] = []

    def close(self):
        self.launcher.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def setup(self) -> tuple[list[Operation], list[float]]:
        times: list[float] = []
        while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < 15):
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            start = time.perf_counter()
            ops = WORKLOADS[self.args.workload](np.random.default_rng(self.args.seed), self.work)
            times.append(time.perf_counter() - start)
        return ops, times

    def invoke(self, op_id: int, argv, traced: bool) -> tuple[dict, str]:
        out, err = self.work / "stdout.txt", self.work / "stderr.txt"
        if traced:
            spans_path = self.work / "spans.npz"
            cmd = [sys.executable, HERE / "shim.py", spans_path, op_id, *argv]
        else:
            cmd = [sys.executable, "-m", "qmtest.cli", *argv]
        result = self.launcher.run(cmd, out, err)
        if result["exit_code"] not in (0, 1):
            sys.stderr.write(err.read_text(errors="replace")[-2000:])
        return result, out.read_text(errors="replace")

    def check_program(self):
        result, _ = self.invoke(-1, ["--help"], traced=False)
        if result["exit_code"] != 0:
            raise SystemExit(f"qmtest.cli does not start here (exit {result['exit_code']})")

    def run_op(self, op_id: int, op: Operation, traced: bool, totals=None):
        result, stdout = self.invoke(op_id, op.argv, traced)
        reason = checks.classify(op, result["exit_code"], stdout)
        if result["timed_out"]:
            reason = f"timed out after {OPERATION_TIMEOUT_S} s"
        self.records.append({"op": op.label, "wall_s": result["wall_s"],
                             "cpu_s": result["cpu_s"], "rss_mb": result["maxrss_kb"] / 1024.0,
                             "traced": traced, "failure": reason})
        spans_path = self.work / "spans.npz"
        if traced and spans_path.exists():
            with np.load(spans_path) as data:
                names = data["names"][data["name"]].tolist()
                totals.add_operation(result["wall_s"], names, data["start"].tolist(),
                                     data["end"].tolist(), data["parent"].tolist(),
                                     data["amount"].tolist())
            spans_path.unlink()

    def loop(self, ops: list[Operation], traced: bool, totals=None) -> int:
        """Runs the list in order, cycling, until --seconds have elapsed.

        Every operation runs at least once and the tail percentile exists.  A
        traced loop stops only at the end of a pass, so its per-pass figures
        cover whole passes.  Returns the number of invocations.
        """
        deadline = time.perf_counter() + self.args.seconds
        i = 0
        while (i < len(ops) or i <= TAIL_BEYOND or time.perf_counter() < deadline
               or (traced and i % len(ops))):
            self.run_op(i % len(ops), ops[i % len(ops)], traced, totals)
            i += 1
        return i


def summarize_operations(records) -> dict:
    by_op: dict[str, list[dict]] = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r)
    return {op: {"wall_s_median": statistics.median(r["wall_s"] for r in rs),
                 "cpu_s_median": statistics.median(r["cpu_s"] for r in rs),
                 "rss_mb_max": max(r["rss_mb"] for r in rs), "runs": len(rs)}
            for op, rs in by_op.items()}


def pass_rate(records: list[dict]) -> float:
    """Completed operations per second over one pass of the operation list.

    Each operation counts once, at its mean wall time and its share of
    successful runs, however often the loop reached it; so a partly run
    last pass does not change the mix, and the benchmark's own checking
    between invocations is not counted.
    """
    by_op: dict[str, list[dict]] = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r)
    completed = sum(sum(r["failure"] is None for r in rs) / len(rs) for rs in by_op.values())
    seconds = sum(statistics.fmean(r["wall_s"] for r in rs) for rs in by_op.values())
    return completed / seconds


def end_to_end(records: list[dict], setup_times: list[float], detail: dict) -> dict:
    failed = sum(1 for r in records if r["failure"] is not None)
    percentile = tail_percentile(len(records))
    detail["latency_tail"] = {"percentile": percentile, "samples": len(records),
                              "beyond": TAIL_BEYOND}
    detail["error_rate"] = failed / len(records)
    return {
        "throughput_ops_per_s": (pass_rate(records), "1/s"),
        "latency_p50_s": (list_quantile(records, "wall_s", 0.5), "s"),
        "latency_tail_s": (list_quantile(records, "wall_s", percentile / 100.0), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB"),
        "rss_p50_mb": (list_quantile(records, "rss_mb", 0.5), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qmtest" / "cli.py").is_file():
        print(f"no qmtest sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    detail: dict = {"environment": environment(args)}
    run = Run(args, root)
    try:
        run.check_program()
        ops, setup_times = run.setup()
        detail["setup_s"] = setup_times
        detail["operations_per_pass"] = len(ops)
        if args.trace:
            for op_id, op in enumerate(ops):
                run.run_op(op_id, op, traced=False)
            totals = spans.LayerTotals()
            passes = run.loop(ops, traced=True, totals=totals) // len(ops)
            metrics = totals.metrics(passes)
            untraced = sum(r["wall_s"] for r in run.records if not r["traced"])
            metrics["trace.overhead_s"] = (totals.wall_s / passes - untraced, "s")
            detail["dominant_layer"] = totals.dominant_layer()
        else:
            passes = run.loop(ops, traced=False) / len(ops)
            metrics = end_to_end(run.records, setup_times, detail)
        detail["passes"] = passes
        detail["operations"] = summarize_operations(run.records)
    finally:
        run.close()

    failures = [r for r in run.records if r["failure"] is not None]
    detail["failures"] = [{"op": r["op"], "reason": r["failure"]} for r in failures]
    for r in failures:
        print(f"FAILED {r['op']}: {r['failure']}", file=sys.stderr)
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise ArithmeticError(f"metric {name} is not finite: {value}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(run.records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
