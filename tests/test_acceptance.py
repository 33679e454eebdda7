"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and sample count is pinned here; the runtime budgets
are asserted as part of each criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qmtest import core, metric, pauli, schur, testers
from qmtest.blackbox import BlackBox
from qmtest.cli import make_far_projective_fixture

import oracles
from conftest import comp_basis_measurement, one_local_measurement, stab_pair_1q


def _report(num: int, name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f", {detail}" if detail else ""
    print(f"[acceptance] C{num:02d} {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s{extra})")
    assert ok, f"criterion C{num:02d} failed: {detail}"
    assert elapsed < budget, f"criterion C{num:02d} exceeded runtime budget"


def test_c01_closed_form_vs_numeric_definition():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(500):
        D = (2, 4, 8)[i % 3]
        A, B = oracles.random_operator(D, rng), oracles.random_operator(D, rng)
        worst = max(worst, abs(oracles.delta_op(A, B) - oracles.delta_op_numeric(A, B)))
    _report(1, "metric closed form vs numeric infimum", worst <= 1e-9,
            time.perf_counter() - start, 10.0, f"worst gap {worst:.2e}")


def test_c02_metric_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    violations = 0
    for D in (2, 4, 8):
        for _ in range(500):
            k = int(rng.integers(2, 5))
            M = oracles.random_measurement(D, k, rng)
            N = oracles.random_measurement(D, k, rng)
            L = oracles.random_measurement(D, k, rng)
            dmn = metric.delta_measurement(M, N).delta
            dnl = metric.delta_measurement(N, L).delta
            dml = metric.delta_measurement(M, L).delta
            if dmn < 0 or dmn > 1 + 1e-12:
                violations += 1
            if abs(dmn - metric.delta_measurement(N, M).delta) > 1e-12:
                violations += 1
            if dml > dmn + dnl + 1e-10:
                violations += 1
            for r in (2, 3):
                eye = np.eye(r)
                Mr = core.validate_measurement([np.kron(op, eye) for op in M.operators])
                Nr = core.validate_measurement([np.kron(op, eye) for op in N.operators])
                if abs(metric.delta_measurement(Mr, Nr).delta - dmn) > 1e-10:
                    violations += 1
    _report(2, "metric axioms and ancilla invariance", violations == 0,
            time.perf_counter() - start, 60.0, f"{violations} violations over 1500 triples")


def test_c03_behavior_gap_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    hits = 0
    for _ in range(20):
        k = int(rng.integers(2, 5))
        M = oracles.random_measurement(4, k, rng)
        N = oracles.random_measurement(4, k, rng)
        target = 2 * metric.delta_measurement(M, N).delta_squared
        mean, stderr = oracles.behavior_gap_mc(M, N, 100_000, rng)
        hits += abs(mean - target) <= 3 * stderr
    _report(3, "average behavior gap matches twice squared distance", hits >= 18,
            time.perf_counter() - start, 120.0, f"{hits}/20 within 3 stderr")


def test_c04_stabilizer_tester():
    start = time.perf_counter()
    stab = pauli.stabilizer_measurement((1, 0), (0, 1))
    far, scan = make_far_projective_fixture(2, seed=3)
    assert scan.best_delta >= 0.4, "fixture certificate regressed"
    four = comp_basis_measurement(4)
    cfg = testers.TesterConfig(epsilon=0.4, seed=0)
    stab_accepts = sum(
        testers.test_stabilizer(BlackBox(stab, seed=s, d=2), cfg).accepted
        for s in range(40)
    )
    far_rejects = sum(
        not testers.test_stabilizer(BlackBox(far, seed=s, d=2), cfg).accepted
        for s in range(40)
    )
    four_rejects = sum(
        not testers.test_stabilizer(BlackBox(four, seed=s, d=2), cfg).accepted
        for s in range(40)
    )
    ok = stab_accepts >= 30 and far_rejects >= 30 and four_rejects == 40
    _report(4, "two-outcome Pauli-projector tester", ok, time.perf_counter() - start,
            300.0,
            f"accepts {stab_accepts}/40, far rejects {far_rejects}/40 "
            f"(certified {scan.best_delta:.3f}), 4-outcome rejects {four_rejects}/40")


def test_c05_klocal_tester():
    start = time.perf_counter()
    local = one_local_measurement(3)
    full = pauli.stabilizer_measurement((1, 1, 1), (0, 0, 0))
    bound = oracles.klocal_distance_lower_bound(full, 1)
    assert bound >= 0.541, "certificate regressed"
    cfg = testers.TesterConfig(epsilon=0.4, seed=0)
    local_accepts = sum(
        testers.test_klocal(BlackBox(local, seed=s, d=2), 1, cfg).accepted
        for s in range(40)
    )
    far_rejects = sum(
        not testers.test_klocal(BlackBox(full, seed=s, d=2), 1, cfg).accepted
        for s in range(40)
    )
    ok = local_accepts == 40 and far_rejects >= 30
    _report(5, "k-local support tester", ok, time.perf_counter() - start, 60.0,
            f"local accepts {local_accepts}/40, far rejects {far_rejects}/40 "
            f"(certified {bound:.4f})")


def test_c06_perminv_tester():
    start = time.perf_counter()
    iso = schur.isotypic_projectors(2, 2)
    comp = comp_basis_measurement(4)
    cfg = testers.TesterConfig(epsilon=0.5, seed=0)
    iso_accepts = sum(
        testers.test_perminv(BlackBox(iso, seed=s, d=2), cfg).accepted
        for s in range(400)
    )
    comp_accepts = sum(
        testers.test_perminv(BlackBox(comp, seed=s, d=2), cfg).accepted
        for s in range(400)
    )
    expect = 0.75**20
    sigma = math.sqrt(400 * expect * (1 - expect))
    ok = iso_accepts == 400 and abs(comp_accepts - 400 * expect) <= 3 * sigma
    _report(6, "permutation-invariance tester", ok, time.perf_counter() - start, 60.0,
            f"isotypic {iso_accepts}/400, computational basis {comp_accepts} accepts "
            f"vs expected {400 * expect:.2f} +- {sigma:.2f}")


def test_c07_finite_set_tester():
    start = time.perf_counter()
    members = testers.FiniteSetSpec(stab_pair_1q())
    assert abs(members.gamma - 1 / math.sqrt(2)) <= 1e-10
    U = core.random_unitary(2, np.random.default_rng(14))
    far = core.validate_measurement(
        [U @ op @ U.conj().T for op in members.members[0].operators]
    )
    far_distance = min(
        metric.delta_measurement(far, m).delta for m in members.members
    )
    assert far_distance >= 0.5, "far fixture certificate regressed"
    cfg = testers.TesterConfig(epsilon=0.5, seed=0)
    member_accepts = sum(
        testers.test_finite_set(BlackBox(members.members[0], seed=s), members, cfg).accepted
        for s in range(40)
    )
    far_rejects = sum(
        not testers.test_finite_set(BlackBox(far, seed=s), members, cfg).accepted
        for s in range(40)
    )
    ok = member_accepts >= 30 and far_rejects >= 30
    _report(7, "finite-family tester", ok, time.perf_counter() - start, 300.0,
            f"member accepts {member_accepts}/40, far rejects {far_rejects}/40 "
            f"(certified {far_distance:.3f})")


def test_c08_distance_estimator():
    start = time.perf_counter()
    P, Q, _ = stab_pair_1q()
    truth = metric.delta_measurement(P, Q).delta
    assert truth == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    good_pair = 0
    good_same = 0
    for s in range(25):
        cfg = testers.TesterConfig(epsilon=0.6, seed=s)
        rep = testers.estimate_distance(
            BlackBox(P, seed=2 * s), BlackBox(Q, seed=2 * s + 1), cfg
        )
        good_pair += abs(rep.delta_hat - truth) <= 0.6
        rep = testers.estimate_distance(
            BlackBox(P, seed=3 * s + 7), BlackBox(P, seed=3 * s + 8), cfg
        )
        good_same += rep.delta_hat <= 0.6
    ok = good_pair >= 20 and good_same >= 20
    _report(8, "distance estimator", ok, time.perf_counter() - start, 600.0,
            f"pair within 0.6: {good_pair}/25, identical below 0.6: {good_same}/25")


def test_c09_schur_transforms():
    start = time.perf_counter()
    checks = []
    for d, n in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]:
        basis = schur.build_schur_transform(d, n)
        res = schur.verify_schur_basis(basis)
        checks.append(
            res["unitarity"] <= 1e-10
            and res["permutation_blocks"] <= 1e-8
            and res["collective_blocks"] <= 1e-8
            and sum(w * v for _, w, v in basis.blocks.values()) == d**n
        )
    hooks_ok = (
        [schur.hook_lengths((5, 3, 1))[(0, j)] for j in range(5)] == [7, 5, 4, 2, 1]
        and schur.dim_sn((5, 3, 1)) == 162
    )
    ok = all(checks) and hooks_ok
    _report(9, "symmetry-adapted transforms", ok, time.perf_counter() - start, 120.0,
            f"6 bases verified, hook dims {'ok' if hooks_ok else 'bad'}")


def _perturbed_projector_cases(rng, count):
    """Perturbed projector pairs meeting the coefficient hypotheses."""
    bad = 0
    for _ in range(count):
        n = int(rng.integers(1, 3))
        idx = int(rng.integers(1, 4**n))
        label = pauli.label_from_index(idx, 2, n)
        P = pauli.stabilizer_measurement(label.x, label.z)
        D = 2**n
        t = 0.12
        M = oracles.renormalized(
            [op + t * oracles.random_operator(D, rng) / math.sqrt(D) for op in P.operators])
        mus = []
        for i in (0, 1):
            mu = pauli.mu_vector(M.operators[i], 2, n)
            mus.append((mu[0], mu[oracles.label_index(label)]))
        gamma = max(abs(abs(mu) ** 2 - 0.25) for pair in mus for mu in pair)
        delta = max(
            0.0,
            0.25 - (np.conj(mus[0][0]) * mus[0][1]).real,
            0.25 + (np.conj(mus[1][0]) * mus[1][1]).real,
        )
        if gamma > 0.25 or delta > 0.25:
            continue  # hypothesis needs both below 1/4; perturbation too big
        if metric.delta_measurement(M, P).delta > math.sqrt(8 * gamma + 2 * delta) + 1e-9:
            bad += 1
    return bad


def _tensor_power_overlap_cases(rng, count):
    bad = 0
    done = 0
    while done < count:
        k = int(rng.integers(2, 5))
        M = oracles.random_measurement(4, k, rng)
        N = oracles.renormalized(
            [op + 0.35 * oracles.random_operator(4, rng) / 2 for op in M.operators])
        delta = metric.delta_measurement(M, N).delta
        if not 0.05 < delta < 0.99:
            continue
        p_m = np.array([core.choi_prob(op) for op in M.operators])
        p_n = np.array([core.choi_prob(op) for op in N.operators])
        L = 1_000_000
        counts = rng.multinomial(L, p_m / p_m.sum())
        cut = 0.1 * delta**2 * L / k
        hypothesis = all(
            min(p_m[i], p_n[i]) >= (1 - 0.1 * delta**2) * counts[i] / L
            for i in range(k)
            if counts[i] >= cut
        )
        if not hypothesis:
            continue
        log_overlap = 0.0
        for i in range(k):
            if counts[i] == 0:
                continue
            xi = abs(core.hs_inner(M.operators[i], N.operators[i])) / (
                np.linalg.norm(M.operators[i]) * np.linalg.norm(N.operators[i])
            )
            if xi == 0.0:
                log_overlap = -math.inf
                break
            log_overlap += counts[i] * math.log(xi)
        bound = L * math.log(1 - 0.6 * delta**2)
        if log_overlap > bound + 1e-9:
            bad += 1
        done += 1
    return bad


def _span_projection_cases(rng, count):
    bad = 0
    for _ in range(count):
        m = int(rng.integers(2, 6))
        dim = m + 3
        cap = 1 / (5 * m)
        tau = cap / 4
        while True:
            vecs = []
            for i in range(m + 1):
                v = np.zeros(dim, dtype=complex)
                v[i] = 1.0
                v += tau * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                vecs.append(v / np.linalg.norm(v))
            phis, psi = vecs[:m], vecs[m]
            overlaps = [abs(np.vdot(a, b)) for a, b in itertools.combinations(phis, 2)]
            overlaps += [abs(np.vdot(psi, p)) for p in phis]
            if max(overlaps) <= cap:
                break
            tau /= 2
        q, _ = np.linalg.qr(np.column_stack(phis))
        proj = q @ q.conj().T
        if (psi.conj() @ proj @ psi).real > 0.1 + 1e-9:
            bad += 1
    return bad


def _rare_outcome_tail_cases(rng, count):
    bad = 0
    for _ in range(count):
        k = int(rng.integers(2, 5))
        M = oracles.random_measurement(4, k, rng)
        N = oracles.random_measurement(4, k, rng)
        for cut in (0.01, 0.05, 0.1):
            tail = sum(
                abs(np.vdot(oracles.choi_vector(M.operators[i]),
                            oracles.choi_vector(N.operators[i])))
                for i in range(k)
                if core.choi_prob(M.operators[i]) <= cut
                or core.choi_prob(N.operators[i]) <= cut
            )
            if tail > 2 * math.sqrt(cut * k) + 1e-9:
                bad += 1
    return bad


def test_c10_bound_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    bad = {}
    bad["projector_coeff_bound"] = _perturbed_projector_cases(rng, 200)

    bad["local_construction"] = 0
    for _ in range(100):
        M = oracles.random_measurement(8, int(rng.integers(2, 4)), rng)
        T = set(rng.choice([1, 2, 3], size=int(rng.integers(1, 3)), replace=False).tolist())
        N, bound = oracles.nearest_klocal(M, T, 2)
        if N.completeness_residual > 1e-8 or (
            metric.delta_measurement(M, N).delta > bound + 1e-9
        ):
            bad["local_construction"] += 1

    bad["invariant_construction"] = 0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        M = oracles.random_measurement(2**n, int(rng.integers(2, 4)), rng)
        N, bound = oracles.nearest_perminv(M)
        if N.completeness_residual > 1e-8 or (
            metric.delta_measurement(M, N).delta > bound + 1e-9
        ):
            bad["invariant_construction"] += 1

    bad["tensor_power_overlap"] = _tensor_power_overlap_cases(rng, 100)
    bad["projection_bound"] = _span_projection_cases(rng, 100)
    bad["small_outcome_tail"] = _rare_outcome_tail_cases(rng, 100)

    bad["fidelity_variational"] = 0
    for _ in range(10_000):
        k = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        F = oracles.fidelity(p, q)
        Dv = oracles.variational(p, q)
        if not (1 - F <= Dv + 1e-12 and Dv <= math.sqrt(max(1 - F**2, 0.0)) + 1e-12):
            bad["fidelity_variational"] += 1

    bad["outcome_lower_bound"] = 0
    for _ in range(500):
        M = oracles.random_measurement(4, int(rng.integers(2, 5)), rng)
        N = oracles.random_measurement(4, int(rng.integers(2, 5)), rng)
        if oracles.outcome_distance_lower_bound(M, N) > (
            metric.delta_measurement(M, N).delta + 1e-9
        ):
            bad["outcome_lower_bound"] += 1

    total = sum(bad.values())
    _report(10, "closeness and tail bound suites", total == 0, time.perf_counter() - start, 120.0,
            f"violations by suite: {bad}")


def test_c11_sampling_mode_equivalence():
    start = time.perf_counter()
    runs = 200
    freqs = {}

    stab = pauli.stabilizer_measurement((1, 0), (0, 1))
    for mode in ("aggregate", "per_trial"):
        cfg = testers.TesterConfig(epsilon=0.4, seed=0, constant_scale=0.01)
        freqs[("stabilizer", mode)] = sum(
            testers.test_stabilizer(BlackBox(stab, seed=s, d=2, sampling=mode), cfg).accepted
            for s in range(runs)
        ) / runs

    theta = 0.06
    XX = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]]).astype(complex)
    V = math.cos(theta) * np.eye(4) - 1j * math.sin(theta) * XX
    nearly_local = core.validate_measurement(
        [V @ op @ V.conj().T for op in one_local_measurement(2).operators]
    )
    for mode in ("aggregate", "per_trial"):
        cfg = testers.TesterConfig(epsilon=0.4, seed=0, constant_scale=0.01)
        freqs[("klocal", mode)] = sum(
            testers.test_klocal(BlackBox(nearly_local, seed=s, d=2, sampling=mode), 1,
                                cfg).accepted
            for s in range(runs)
        ) / runs

    comp = comp_basis_measurement(4)
    for mode in ("aggregate", "per_trial"):
        # epsilon 0.2 keeps the scaled iteration count above one, so the two
        # modes traverse genuinely different sampling paths
        cfg = testers.TesterConfig(epsilon=0.2, seed=0, constant_scale=0.01)
        freqs[("perminv", mode)] = sum(
            testers.test_perminv(BlackBox(comp, seed=s, d=2, sampling=mode), cfg).accepted
            for s in range(runs)
        ) / runs

    gaps = {}
    ok = True
    for alg in ("stabilizer", "klocal", "perminv"):
        fa, fp = freqs[(alg, "aggregate")], freqs[(alg, "per_trial")]
        pooled = 0.5 * (fa + fp)
        sigma = math.sqrt(max(pooled * (1 - pooled), 1e-6) * 2 / runs)
        gaps[alg] = (abs(fa - fp), 3 * sigma)
        ok = ok and abs(fa - fp) <= 3 * sigma
    _report(11, "aggregate vs per-trial equivalence", ok, time.perf_counter() - start,
            180.0, f"gap vs 3sigma: {gaps}")
