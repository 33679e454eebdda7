"""The benchmark's workloads: seeded fixture files plus a fixed operation list.

Every operation is one ``python -m qmtest.cli`` invocation with a known
answer.  Each workload loads a different layer of the program, so that a
change to one layer has a workload that exercises it and one that bypasses
it (NOTES.md gives the reasons in full):

qubit-aggregate
    Qubit files with n = 6..8 in aggregate mode: the d^{2n} x d^n Pauli label
    table and ``mu_vector`` dominate, sampling is O(outcomes) and no Schur
    code runs.
symmetric-aggregate
    ``test perminv`` on invariant and non-invariant inputs up to D = 256, plus
    ``schur 3 5``, a ``--schur-cache`` reload and ``fixtures perminv``: the
    Schur build and verify and ``block_decompose`` dominate and no Pauli
    transform runs.
small-per-trial
    The testers in ``--mode per-trial`` at n <= 4: drawing 10^7-10^8
    individual samples, held as whole arrays, dominates time and memory.

The epsilon and ``--scale`` values were sized for about 10 s per pass of each
list, not to keep the program's known defects out of the runs.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fixtures as fx


@dataclass(frozen=True)
class Operation:
    """One CLI invocation and its known answer.

    ``exit_code`` is 0 for success or accept and 1 for reject; ``decision``
    is the expected verdict for commands that report one; ``check`` inspects
    the parsed report and returns a failure reason or None.
    """

    label: str
    argv: tuple[str, ...]
    exit_code: int
    decision: str | None = None
    check: Callable[[dict], str | None] | None = field(default=None, compare=False)


def _estimate_check(exact: float, epsilon: float):
    def check(report: dict) -> str | None:
        est = report.get("estimate") or {}
        if not isinstance(est.get("delta_hat"), float) or not isinstance(
            est.get("exact_delta"), float
        ):
            return "estimate fields missing"
        if abs(est["exact_delta"] - exact) > 1e-9:
            return f"exact_delta {est['exact_delta']} != known {exact}"
        if abs(est["delta_hat"] - exact) > epsilon:
            return f"|delta_hat - exact| = {abs(est['delta_hat'] - exact):.4g} > {epsilon}"
        return None

    return check


def _distance_check(exact: float):
    def check(report: dict) -> str | None:
        est = report.get("estimate") or {}
        if not isinstance(est.get("delta"), float):
            return "distance fields missing"
        if abs(est["delta"] - exact) > 1e-9:
            return f"delta {est['delta']} != known {exact}"
        if not est.get("cross_check_gap", 1.0) <= 1e-6:
            return f"cross_check_gap {est.get('cross_check_gap')} > 1e-6"
        return None

    return check


def _written_check(out_dir: Path, verify: Callable[[Path], str | None]):
    def check(report: dict) -> str | None:
        written = report.get("written")
        if not isinstance(written, list) or len(written) != 1:
            return f"expected one written file, got {written!r}"
        return verify(out_dir / written[0])

    return check


def _load_ops(path: Path) -> tuple[list[np.ndarray], dict]:
    doc = json.loads(path.read_text())
    D = doc["d"] ** doc["n"]
    ops = [np.array(p, dtype=float).view(complex).reshape(D, D) for p in doc["operators"]]
    return ops, doc["metadata"]


def _far_stabilizer_verify(path: Path) -> str | None:
    """The certified distance must be the distance to the reported nearest pair."""
    ops, meta = _load_ops(path)
    try:
        certified = float(meta["certified_delta"])
        x, z = ast.literal_eval(meta["nearest_label"])
    except (KeyError, ValueError, SyntaxError, TypeError) as exc:
        return f"far-stabilizer metadata unreadable: {exc!r}"
    if not 0.0 < certified <= 1.0:
        return f"certified_delta {certified} outside (0, 1]"
    recomputed = fx.exact_distance(ops, fx.stabilizer_pair(x, z))
    if abs(recomputed - certified) > 1e-9:
        return f"certified_delta {certified} != distance to nearest pair {recomputed}"
    return None


def _isotypic_verify(d: int, n: int):
    def verify(path: Path) -> str | None:
        ops, _ = _load_ops(path)
        known = fx.isotypic_projectors(d, n)
        if len(ops) != len(known):
            return f"{len(ops)} isotypic projectors, expected {len(known)}"
        for got, want in zip(ops, known):
            if np.abs(got - want).max() > 1e-8:
                return "isotypic projector differs from the transposition-sum eigenspace"
        return None

    return verify


def _cli(*args) -> tuple[str, ...]:
    return tuple(str(a) for a in args)


class Fixtures:
    """Writes seeded fixture files into the work directory, one per call."""

    def __init__(self, rng: np.random.Generator, work: Path):
        self.rng = rng
        self.work = work

    def seed(self) -> str:
        return str(int(self.rng.integers(0, 2**31)))

    def write(self, name: str, ops, d: int, n: int) -> Path:
        path = self.work / f"{name}.json"
        fx.write_measurement(path, ops, d, n)
        return path

    def stabilizer(self, n: int) -> Path:
        return self.write(f"stab_n{n}", fx.stabilizer_pair(*fx.random_label(self.rng, n)), 2, n)

    def far_stabilizer(self, n: int) -> Path:
        pair = fx.stabilizer_pair(*fx.random_label(self.rng, n))
        return self.write(f"far_stab_n{n}", fx.rotated(pair, fx.haar_unitary(2**n, self.rng)),
                           2, n)

    def local(self, n: int, k: int) -> Path:
        sites = sorted(int(s) for s in self.rng.choice(n, size=k, replace=False))
        ops = fx.embed(fx.random_measurement(2**k, 2, self.rng), sites, n)
        return self.write(f"local{k}_n{n}", ops, 2, n)

    def spread(self, d: int, n: int) -> Path:
        """Random two-outcome measurement acting on every site."""
        return self.write(f"random_d{d}_n{n}", fx.random_measurement(d**n, 2, self.rng), d, n)

    def isotypic(self, d: int, n: int) -> Path:
        return self.write(f"isotypic_d{d}_n{n}", fx.isotypic_projectors(d, n), d, n)

    def types(self, d: int, n: int) -> Path:
        """Digit-multiset projectors conjugated by a seeded U^{(x) n}."""
        ops = fx.collective(fx.type_projectors(d, n), fx.haar_unitary(d, self.rng), n)
        return self.write(f"types_d{d}_n{n}", ops, d, n)

    def members(self, D: int, n: int, count: int) -> tuple[list[Path], list]:
        ms = [fx.random_measurement(D, 2, self.rng) for _ in range(count)]
        return [self.write(f"member{i}_D{D}", m, 2, n) for i, m in enumerate(ms)], ms

    def test(self, label: str, prop: str, path: Path, accept: bool, epsilon, *extra) -> Operation:
        argv = _cli("test", prop, path, "--epsilon", epsilon, "--seed", self.seed(), *extra)
        return Operation(label, argv, 0 if accept else 1, "accept" if accept else "reject")


def qubit_aggregate(rng: np.random.Generator, work: Path) -> list[Operation]:
    f = Fixtures(rng, work)
    eps = 0.1
    ops = [
        f.test("stabilizer-in n=6", "stabilizer", f.stabilizer(6), True, eps),
        f.test("stabilizer-far n=6", "stabilizer", f.far_stabilizer(6), False, eps),
        f.test("klocal-in n=6", "klocal", f.local(6, 2), True, eps, "--k", 2),
        f.test("klocal-far n=6", "klocal", f.spread(2, 6), False, eps, "--k", 2),
        f.test("stabilizer-in n=7", "stabilizer", f.stabilizer(7), True, eps),
        f.test("stabilizer-far n=7", "stabilizer", f.far_stabilizer(7), False, eps),
        f.test("klocal-in n=7", "klocal", f.local(7, 2), True, eps, "--k", 2),
        f.test("klocal-far n=7", "klocal", f.spread(2, 7), False, eps, "--k", 2),
        # one n=8 operation costs about as much as the rest of the pass
        f.test("stabilizer-far n=8", "stabilizer", f.far_stabilizer(8), False, eps),
    ]
    out = work / "fixtures_out"
    ops.append(Operation("fixtures far-stabilizer n=6",
                         _cli("fixtures", "far-stabilizer", out, "--n", 6, "--seed", f.seed()),
                         0, check=_written_check(out, _far_stabilizer_verify)))
    paths, members = f.members(64, 6, 3)
    exact = fx.exact_distance(members[0], members[1])
    eps_est = 0.3
    ops += [
        Operation("estimate D=64", _cli("estimate", paths[0], paths[1], "--epsilon", eps_est,
                                        "--seed", f.seed()), 0,
                  check=_estimate_check(exact, eps_est)),
        Operation("estimate-identity same D=64",
                  _cli("estimate", paths[0], paths[0], "--identity", "--epsilon", 0.4,
                       "--seed", f.seed()), 0, "accept"),
        Operation("estimate-identity far D=64",
                  _cli("estimate", paths[0], paths[2], "--identity", "--epsilon", 0.4,
                       "--seed", f.seed()), 1, "reject"),
        f.test("finite-set D=64", "finite-set", paths[0], True, 0.5,
               *(a for p in paths for a in ("--set", p))),
        Operation("distance D=64", _cli("distance", paths[0], paths[1]), 0,
                  check=_distance_check(exact)),
    ]
    return ops


def symmetric_aggregate(rng: np.random.Generator, work: Path) -> list[Operation]:
    f = Fixtures(rng, work)
    eps = 0.05
    cache = work / "schur_d3_n5.bin"
    out = work / "fixtures_out"
    iso35 = f.isotypic(3, 5)
    return [
        f.test("perminv-in isotypic d=2 n=6", "perminv", f.isotypic(2, 6), True, eps),
        f.test("perminv-in isotypic d=3 n=5", "perminv", iso35, True, eps),
        f.test("perminv-in isotypic d=4 n=4", "perminv", f.isotypic(4, 4), True, eps),
        f.test("perminv-in isotypic d=2 n=5", "perminv", f.isotypic(2, 5), True, eps),
        f.test("perminv-in types d=3 n=4", "perminv", f.types(3, 4), True, eps),
        f.test("perminv-in types d=2 n=6", "perminv", f.types(2, 6), True, eps),
        f.test("perminv-in types d=4 n=3", "perminv", f.types(4, 3), True, eps),
        f.test("perminv-far compbasis d=3 n=4", "perminv",
               f.write("compbasis_d3_n4", fx.computational_basis(81), 3, 4), False, eps),
        f.test("perminv-far stabilizer n=6", "perminv", f.far_stabilizer(6), False, eps),
        f.test("perminv-far random d=3 n=4", "perminv", f.spread(3, 4), False, eps),
        f.test("perminv-far random d=2 n=5", "perminv", f.spread(2, 5), False, eps),
        f.test("perminv-far random d=4 n=4", "perminv", f.spread(4, 4), False, eps),
        # the cache written here is what the next operation reloads
        Operation("schur d=3 n=5", _cli("schur", 3, 5, cache), 0),
        f.test("perminv-cache d=3 n=5", "perminv", iso35, True, eps, "--schur-cache", cache),
        Operation("fixtures perminv d=2 n=6", _cli("fixtures", "perminv", out, "--d", 2, "--n", 6),
                  0, check=_written_check(out, _isotypic_verify(2, 6))),
    ]


def small_per_trial(rng: np.random.Generator, work: Path) -> list[Operation]:
    f = Fixtures(rng, work)
    per_trial = ("--mode", "per-trial")
    paths, pair = f.members(16, 4, 2)
    spread = f.spread(2, 4)
    exact = fx.exact_distance(*pair)
    eps_est = 0.5
    return [
        f.test("stabilizer-in n=4", "stabilizer", f.stabilizer(4), True, 0.15, *per_trial),
        f.test("stabilizer-far n=4", "stabilizer", f.far_stabilizer(4), False, 0.15, *per_trial),
        f.test("stabilizer-in n=2", "stabilizer", f.stabilizer(2), True, 0.3, *per_trial),
        f.test("stabilizer-far n=3", "stabilizer", f.far_stabilizer(3), False, 0.3, *per_trial),
        f.test("klocal-in n=4", "klocal", f.local(4, 2), True, 0.06, "--k", 2, *per_trial),
        f.test("klocal-far n=4", "klocal", spread, False, 0.06, "--k", 2, *per_trial),
        f.test("klocal-in n=3", "klocal", f.local(3, 1), True, 0.1, "--k", 1, *per_trial),
        f.test("perminv-in isotypic d=2 n=4", "perminv", f.isotypic(2, 4), True, 0.005,
               *per_trial),
        f.test("perminv-in isotypic d=3 n=3", "perminv", f.isotypic(3, 3), True, 0.005,
               *per_trial),
        f.test("perminv-far random d=2 n=4", "perminv", spread, False, 0.005, *per_trial),
        f.test("perminv-far random d=3 n=2", "perminv", f.spread(3, 2), False, 0.005,
               *per_trial),
        Operation("estimate D=16", _cli("estimate", paths[0], paths[1], "--epsilon", eps_est,
                                        "--scale", 0.0005, "--seed", f.seed(), *per_trial),
                  0, check=_estimate_check(exact, eps_est)),
    ]


WORKLOADS: dict[str, Callable[[np.random.Generator, Path], list[Operation]]] = {
    "qubit-aggregate": qubit_aggregate,
    "symmetric-aggregate": symmetric_aggregate,
    "small-per-trial": small_per_trial,
}
