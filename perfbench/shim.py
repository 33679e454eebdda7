"""Traced child: ``python perfbench/shim.py <spans.npz> <op-id> <qmtest args...>``.

Wraps the functions listed in ``spans`` (rebinding each one in every qmtest
module namespace that holds it, and wrapping ``BlackBox`` methods on the
class), then runs ``qmtest.cli.main`` on the remaining arguments.  Spans stay
in memory and are written to ``<spans.npz>`` when ``main`` returns or raises.
Some spans also carry an amount: samples drawn, bytes read, queries charged,
label-table bytes, or permutation count.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

import numpy as np

import qmtest.cli
from spans import BLACKBOX_METHODS, FUNCTIONS


def _arg(name):
    return lambda bound, result: float(bound[name])


# span name -> amount recorded for it, from the bound arguments and the result
AMOUNTS = {
    "blackbox.query_batch": _arg("L"),
    "blackbox.label_batch": _arg("T"),
    # aggregate mode draws one binomial, not ``copies`` samples
    "blackbox.paired_swap_zeros": lambda b, r: float(b["copies"]) if b.get("per_trial") else 0.0,
    "pauli.mu_vector": lambda b, r: 24.0 * b["d"] ** (3 * b["n"]),
    "schur.build_schur_transform": lambda b, r: float(math.factorial(b["n"])),
    "schur.block_decompose": lambda b, r: float(math.factorial(b["basis"].n)),
    "cli.load_measurement": lambda b, r: float(os.path.getsize(b["path"])),
    **{f"testers.{name}": (lambda b, r: float(r.query_count)) for name in FUNCTIONS["testers"]},
}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.amount: list[float] = []
        self.stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        amount = AMOUNTS.get(name)
        signature = inspect.signature(fn) if amount else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1])
            self.amount.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if amount is not None:
                self.amount[idx] = amount(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def save(self, path: str, op_id: int):
        np.savez(path, op_id=op_id, names=np.array(self.names),
                 name=np.array(self.name, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 amount=np.array(self.amount))


def install(recorder: Recorder):
    modules = [m for k, m in sys.modules.items() if k == "qmtest" or k.startswith("qmtest.")]
    for module_name, functions in FUNCTIONS.items():
        module = sys.modules[f"qmtest.{module_name}"]
        for fn_name in functions:
            original = getattr(module, fn_name)
            traced = recorder.wrap(f"{module_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)
    box = qmtest.cli.BlackBox
    for method in BLACKBOX_METHODS:
        setattr(box, method, recorder.wrap(f"blackbox.{method}", getattr(box, method)))


def main() -> int:
    out, op_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    recorder = Recorder()
    install(recorder)
    try:
        return qmtest.cli.main(args)
    finally:
        recorder.save(out, op_id)


if __name__ == "__main__":
    sys.exit(main())
