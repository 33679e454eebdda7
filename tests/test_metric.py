import math

import numpy as np
import pytest

from qmtest import core, metric, pauli, schur

import oracles
from conftest import comp_basis_measurement, one_local_measurement


class TestDeltaOp:
    def test_phase_class_is_zero(self, rng):
        A = oracles.random_operator(4, rng)
        for theta in (0.0, 0.7, math.pi):
            assert oracles.delta_op(A, np.exp(1j * theta) * A) == pytest.approx(0.0, abs=1e-12)

    def test_projector_pair(self):
        P = pauli.stabilizer_measurement((0,), (1,)).operators[0]
        Q = pauli.stabilizer_measurement((1,), (0,)).operators[0]
        # (1 + 1 - 2*1/2) / (2*2) = 1/4
        assert oracles.delta_op(P, Q) == pytest.approx(0.5)

    def test_identity_vs_zero(self):
        D = 3
        assert oracles.delta_op(np.eye(D), np.zeros((D, D))) == pytest.approx(1 / math.sqrt(2))

    def test_symmetry(self, rng):
        A, B = oracles.random_operator(4, rng), oracles.random_operator(4, rng)
        assert oracles.delta_op(A, B) == pytest.approx(oracles.delta_op(B, A), abs=1e-12)

    def test_tensor_invariance(self, rng):
        A, B = oracles.random_operator(3, rng), oracles.random_operator(3, rng)
        base = oracles.delta_op(A, B)
        for r in (2, 3):
            eye = np.eye(r)
            assert oracles.delta_op(np.kron(A, eye), np.kron(B, eye)) == pytest.approx(
                base, abs=1e-10
            )


class TestDeltaOpNumeric:
    def test_matches_closed_form(self, rng):
        for _ in range(20):
            A, B = oracles.random_operator(4, rng), oracles.random_operator(4, rng)
            assert abs(oracles.delta_op(A, B) - oracles.delta_op_numeric(A, B)) <= 1e-9

    def test_zero_b_is_phase_independent(self, rng):
        A = oracles.random_operator(4, rng)
        expected = np.linalg.norm(A) / math.sqrt(8)
        assert oracles.delta_op_numeric(A, np.zeros((4, 4))) == pytest.approx(expected)

    def test_equal_operators(self, rng):
        A = oracles.random_operator(4, rng)
        assert oracles.delta_op_numeric(A, A) == pytest.approx(0.0, abs=1e-7)


class TestDeltaMeasurement:
    def test_identical(self, rng):
        M = oracles.random_measurement(4, 3, rng)
        rep = metric.delta_measurement(M, M)
        # delta squared cancels to rounding level; the root sits near sqrt(eps)
        assert rep.delta_squared == pytest.approx(0.0, abs=1e-12)
        assert rep.delta <= 1e-6

    def test_distinct_stabilizers(self):
        M = pauli.stabilizer_measurement((0, 1), (1, 0))
        N = pauli.stabilizer_measurement((1, 0), (0, 0))
        rep = metric.delta_measurement(M, N)
        assert rep.delta_squared == pytest.approx(0.5, abs=1e-12)
        assert rep.delta == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_padding(self, rng):
        M = oracles.random_measurement(4, 2, rng)
        padded = core.Measurement(
            operators=np.concatenate([M.operators, np.zeros((1, 4, 4))]),
            completeness_residual=M.completeness_residual,
        )
        N = oracles.random_measurement(4, 2, rng)
        assert metric.delta_measurement(M, N).delta == pytest.approx(
            metric.delta_measurement(padded, N).delta, abs=1e-12
        )

    def test_report_terms_sum(self, rng):
        M = oracles.random_measurement(8, 3, rng)
        N = oracles.random_measurement(8, 3, rng)
        rep = metric.delta_measurement(M, N)
        terms = [oracles.delta_op(M.operator(i), N.operator(i)) ** 2 for i in range(3)]
        assert sum(terms) == pytest.approx(rep.delta_squared, abs=1e-10)
        assert 0.0 <= rep.delta <= 1.0 + 1e-12


class TestDeltaMeasurementNumeric:
    def test_agrees_with_closed_form(self, rng):
        M = oracles.random_measurement(4, 3, rng)
        N = oracles.random_measurement(4, 3, rng)
        exact = metric.delta_measurement(M, N)
        numeric = metric.delta_measurement_numeric(M, N)
        assert abs(numeric.delta - exact.delta) <= 1e-9

    def test_handles_padding(self, rng):
        M = oracles.random_measurement(2, 2, rng)
        N = core.validate_measurement([np.eye(2)])
        exact = metric.delta_measurement(M, N)
        numeric = metric.delta_measurement_numeric(M, N)
        assert abs(numeric.delta - exact.delta) <= 1e-9

    def test_matches_phase_scan(self, rng):
        # the direct norm at the minimizing phase against the oracle's scan,
        # with unequal outcome counts and a zero operator among the pairs
        zero = np.zeros((1, 4, 4))
        cases = [(oracles.random_measurement(D, k, rng), oracles.random_measurement(D, m, rng))
                 for D in (2, 4, 8, 16) for k, m in ((2, 2), (3, 1), (1, 4))]
        M = oracles.random_measurement(4, 2, rng)
        cases.append((M, core.Measurement(operators=np.concatenate([M.operators, zero]),
                                          completeness_residual=M.completeness_residual)))
        cases.append((core.Measurement(operators=np.concatenate([zero, M.operators]),
                                       completeness_residual=M.completeness_residual), M))
        for M, N in cases:
            numeric = metric.delta_measurement_numeric(M, N)
            scan = oracles.delta_measurement_scan(M, N)
            assert abs(numeric.delta - scan.delta) <= 1e-12
            assert abs(numeric.delta_squared - scan.delta_squared) <= 1e-12

    def test_needs_no_completeness(self):
        # the closed form assumes completeness; the direct norm does not
        M = core.Measurement(operators=np.stack([2 * np.eye(2)]), completeness_residual=3.0)
        N = core.validate_measurement([np.eye(2)])
        # |2I - I|_F^2 / (2D) = 2/4, while 1 - |<2I, I>|/D = -1 clips to 0
        assert metric.delta_measurement_numeric(M, N).delta_squared == pytest.approx(0.5)
        assert oracles.delta_measurement_scan(M, N).delta_squared == pytest.approx(0.5)
        assert metric.delta_measurement(M, N).delta_squared == 0.0


class TestMetricAxioms:
    def test_axioms_random_triples(self, rng):
        for D in (2, 4, 8):
            for _ in range(40):
                k = int(rng.integers(2, 5))
                M = oracles.random_measurement(D, k, rng)
                N = oracles.random_measurement(D, k, rng)
                L = oracles.random_measurement(D, k, rng)
                dmn = metric.delta_measurement(M, N).delta
                dnm = metric.delta_measurement(N, M).delta
                dml = metric.delta_measurement(M, L).delta
                dnl = metric.delta_measurement(N, L).delta
                assert dmn >= 0
                assert abs(dmn - dnm) <= 1e-12
                assert dml <= dmn + dnl + 1e-10
                assert dmn <= 1 + 1e-12

    def test_ancilla_invariance(self, rng):
        M = oracles.random_measurement(4, 3, rng)
        N = oracles.random_measurement(4, 3, rng)
        base = metric.delta_measurement(M, N).delta
        for r in (2, 3):
            eye = np.eye(r)
            Mr = core.validate_measurement([np.kron(op, eye) for op in M.operators])
            Nr = core.validate_measurement([np.kron(op, eye) for op in N.operators])
            assert metric.delta_measurement(Mr, Nr).delta == pytest.approx(base, abs=1e-10)

    def test_indiscernible_measurements(self, rng):
        M = oracles.random_measurement(4, 3, rng)
        phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=3))
        N = core.Measurement(
            operators=np.stack([p * op for p, op in zip(phases, M.operators)]),
            completeness_residual=M.completeness_residual,
        )
        assert metric.delta_measurement(M, N).delta <= 1e-7
        assert max(
            oracles.delta_op(M.operators[i], N.operators[i]) for i in range(3)
        ) <= 1e-3


class TestDistributions:
    def test_equal(self):
        assert oracles.fidelity([0.3, 0.7], [0.3, 0.7]) == pytest.approx(1.0)
        assert oracles.variational([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0)

    def test_disjoint(self):
        assert oracles.fidelity([1, 0], [0, 1]) == pytest.approx(0.0)
        assert oracles.variational([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_quarter_three_quarter(self):
        p, q = [0.75, 0.25], [0.25, 0.75]
        assert oracles.variational(p, q) == pytest.approx(0.5)
        assert oracles.fidelity(p, q) == pytest.approx(math.sqrt(3) / 2)

    def test_padding(self):
        assert oracles.variational([1.0], [0.0, 0.5, 0.5]) == pytest.approx(1.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            oracles.fidelity([0.5, 0.2], [0.5, 0.5])

    def test_fidelity_variational_relation(self, rng):
        for _ in range(500):
            k = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            F = oracles.fidelity(p, q)
            Dv = oracles.variational(p, q)
            assert 1 - F <= Dv + 1e-12
            assert Dv <= math.sqrt(max(1 - F**2, 0.0)) + 1e-12


class TestBehaviorGap:
    def test_identical_is_zero(self, rng):
        M = oracles.random_measurement(4, 2, rng)
        mean, _ = oracles.behavior_gap_mc(M, M, 2000, rng)
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_matches_twice_delta_squared(self):
        rng = np.random.default_rng(99)
        M = oracles.random_measurement(4, 3, rng)
        N = oracles.random_measurement(4, 3, rng)
        target = 2 * metric.delta_measurement(M, N).delta_squared
        mean, stderr = oracles.behavior_gap_mc(M, N, 100_000, rng)
        assert abs(mean - target) <= 3 * stderr

    def test_markov_fraction(self):
        rng = np.random.default_rng(123)
        M = oracles.random_measurement(4, 3, rng)
        N = oracles.random_measurement(4, 3, rng)
        dsq = metric.delta_measurement(M, N).delta_squared
        vals = oracles.behavior_gap_samples(M, N, 10_000, rng)
        frac = float((vals >= 10 * dsq).mean())
        assert frac <= 0.2 + 0.02


def loop_scan(M: core.Measurement) -> metric.StabilizerScan:
    """Reference scan: build every projector pair and measure its distance."""
    n = pauli._power_check(M.dim, 2)
    best_label = None
    best = math.inf
    swapped_best = math.inf
    for idx in range(1, 4**n):
        label = pauli.label_from_index(idx, 2, n)
        P = pauli.stabilizer_measurement(label.x, label.z)
        d_id = metric.delta_measurement(M, P).delta
        if d_id < best - 1e-15:
            best = d_id
            best_label = (label.x, label.z)
        P_swapped = core.validate_measurement(P.operators[::-1])
        swapped_best = min(swapped_best, metric.delta_measurement(M, P_swapped).delta)
    return metric.StabilizerScan(best_label=best_label, best_delta=best,
                                 swapped_delta=swapped_best)


def assert_scans_agree(M: core.Measurement):
    fast = metric.distance_to_stabilizer_family(M)
    ref = loop_scan(M)
    assert fast.best_label == ref.best_label
    assert fast.best_delta == pytest.approx(ref.best_delta, abs=1e-12)
    assert fast.swapped_delta == pytest.approx(ref.swapped_delta, abs=1e-12)


class TestStabilizerScan:
    def test_member_found(self):
        M = pauli.stabilizer_measurement((1, 1), (0, 1))
        scan = metric.distance_to_stabilizer_family(M)
        assert scan.best_label == ((1, 1), (0, 1))
        assert scan.best_delta == pytest.approx(0.0, abs=1e-10)

    def test_swapped_outcomes(self):
        P = pauli.stabilizer_measurement((1, 0), (0, 1))
        swapped = core.validate_measurement(P.operators[::-1])
        scan = metric.distance_to_stabilizer_family(swapped)
        assert scan.swapped_delta == pytest.approx(0.0, abs=1e-10)
        assert scan.best_delta > 0.4

    def test_compbasis_two_qubits_is_far(self):
        scan = metric.distance_to_stabilizer_family(comp_basis_measurement(4))
        assert scan.best_delta > 0.4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_loop_on_every_member(self, n):
        for idx in range(1, 4**n):
            label = pauli.label_from_index(idx, 2, n)
            P = pauli.stabilizer_measurement(label.x, label.z)
            assert_scans_agree(P)
            assert_scans_agree(core.validate_measurement(P.operators[::-1]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_loop_on_random_measurements(self, n, rng):
        for outcomes in (1, 2, 3):
            for _ in range(2):
                assert_scans_agree(oracles.random_measurement(2**n, outcomes, rng))

    def test_rejects_odd_dimension(self):
        with pytest.raises(core.DimensionMismatch):
            metric.distance_to_stabilizer_family(
                core.validate_measurement([np.eye(3)])
            )


class TestKLocalDistance:
    def test_nearest_klocal_trivial(self):
        M = one_local_measurement(3)
        N, bound = oracles.nearest_klocal(M, {1}, 2)
        assert bound == pytest.approx(0.0, abs=1e-9)
        assert metric.delta_measurement(M, N).delta <= 1e-8

    def test_full_support_projector_bound(self):
        M = pauli.stabilizer_measurement((1, 1, 1), (0, 0, 0))
        N, bound = oracles.nearest_klocal(M, {1}, 2)
        # f_T keeps only the identity halves: mass D/2, bound sqrt(1 - 1/2)
        assert bound == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert metric.delta_measurement(M, N).delta <= bound + 1e-9

    def test_construction_dominates_distance(self, rng):
        for _ in range(10):
            M = oracles.random_measurement(8, 3, rng)
            N, bound = oracles.nearest_klocal(M, {2}, 2)
            assert N.completeness_residual <= 1e-8
            assert metric.delta_measurement(M, N).delta <= bound + 1e-9

    def test_lower_bound_values(self):
        full = pauli.stabilizer_measurement((1, 1, 1), (0, 0, 0))
        assert oracles.klocal_distance_lower_bound(full, 1) == pytest.approx(
            math.sqrt(1 - 1 / math.sqrt(2)), abs=1e-9
        )
        assert oracles.klocal_distance_lower_bound(one_local_measurement(3), 1) == pytest.approx(
            0.0, abs=1e-9
        )
        trivial = core.validate_measurement([np.eye(8)])
        assert oracles.klocal_distance_lower_bound(trivial, 0) == pytest.approx(0.0, abs=1e-9)

    def test_lower_bound_is_sound(self, rng):
        # certified lower bound never exceeds the distance to the constructive witness
        for _ in range(5):
            M = oracles.random_measurement(8, 2, rng)
            lb = oracles.klocal_distance_lower_bound(M, 1)
            best_construction = min(
                metric.delta_measurement(M, oracles.nearest_klocal(M, {t}, 2)[0]).delta
                for t in (1, 2, 3)
            )
            assert lb <= best_construction + 1e-9


class TestPermInvDistance:
    def test_invariant_input(self):
        iso = schur.isotypic_projectors(2, 2)
        N, bound = oracles.nearest_perminv(iso)
        assert bound <= 1e-6

    def test_compbasis_bound(self):
        M = comp_basis_measurement(4)
        N, bound = oracles.nearest_perminv(M)
        # sum of invariant masses is 3, so the bound is sqrt(1 - 3/4)
        assert bound == pytest.approx(0.5, abs=1e-12)
        assert metric.delta_measurement(M, N).delta <= bound + 1e-9

    def test_random_inputs_within_bound(self, rng):
        for _ in range(10):
            M = oracles.random_measurement(8, 3, rng)
            N, bound = oracles.nearest_perminv(M)
            assert N.completeness_residual <= 1e-8
            assert metric.delta_measurement(M, N).delta <= bound + 1e-9


class TestOutcomeLowerBound:
    def test_identical(self, rng):
        M = oracles.random_measurement(4, 3, rng)
        assert oracles.outcome_distance_lower_bound(M, M) == pytest.approx(0.0, abs=1e-10)

    def test_trivial_vs_compbasis(self):
        # index-paired outcome laws: (1, 0) against (1/2, 1/2), so the
        # variational distance is 1/2 and the bound 1/(2 sqrt(2)); the exact
        # distance here is 1/sqrt(2), comfortably above it
        M = core.validate_measurement([np.eye(2)])
        N = comp_basis_measurement(2)
        bound = oracles.outcome_distance_lower_bound(M, N)
        assert bound == pytest.approx(0.5 / math.sqrt(2))
        assert bound <= metric.delta_measurement(M, N).delta

    def test_always_below_delta(self, rng):
        for _ in range(50):
            M = oracles.random_measurement(4, 3, rng)
            N = oracles.random_measurement(4, 3, rng)
            assert oracles.outcome_distance_lower_bound(M, N) <= (
                metric.delta_measurement(M, N).delta + 1e-9
            )
