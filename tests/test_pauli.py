import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmtest import core, pauli
from qmtest.blackbox import BlackBox

import oracles

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestPauliMatrix:
    def test_single_qubit_family(self):
        np.testing.assert_allclose(pauli.pauli_matrix(pauli.PauliLabel((0,), (0,))), I2)
        np.testing.assert_allclose(pauli.pauli_matrix(pauli.PauliLabel((1,), (0,))), X)
        np.testing.assert_allclose(pauli.pauli_matrix(pauli.PauliLabel((0,), (1,))), Z)
        np.testing.assert_allclose(pauli.pauli_matrix(pauli.PauliLabel((1,), (1,))), Y)

    def test_qutrit_shift(self):
        shift = pauli.pauli_matrix(pauli.PauliLabel((1,), (0,), d=3))
        expected = np.zeros((3, 3))
        for j in range(3):
            expected[(j + 1) % 3, j] = 1.0
        np.testing.assert_allclose(shift, expected)

    def test_qutrit_clock(self):
        clock = pauli.pauli_matrix(pauli.PauliLabel((0,), (1,), d=3))
        w = np.exp(2j * np.pi / 3)
        np.testing.assert_allclose(clock, np.diag([1, w, w**2]), atol=1e-14)

    def test_tensor_structure(self):
        lbl = pauli.PauliLabel((1, 0), (0, 1))
        np.testing.assert_allclose(pauli.pauli_matrix(lbl), np.kron(X, Z))

    def test_unitary_and_traceless(self):
        for lbl in oracles.all_labels(3, 1):
            mat = pauli.pauli_matrix(lbl)
            np.testing.assert_allclose(mat @ mat.conj().T, np.eye(3), atol=1e-12)
            if not lbl.is_identity():
                assert abs(np.trace(mat)) < 1e-12

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_orthogonality(self, d, n):
        # up to 81 labels at (3, 2); exact pairwise orthogonality
        labels = oracles.all_labels(d, n)
        mats = [pauli.pauli_matrix(lbl) for lbl in labels]
        D = d**n
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                expected = D if i == j else 0.0
                assert abs(core.hs_inner(a, b) - expected) < 1e-12


class TestProductPhase:
    def test_identity_factor(self):
        eye = pauli.PauliLabel((0, 0), (0, 0))
        other = pauli.PauliLabel((1, 0), (1, 1))
        assert oracles.pauli_product_phase(eye, other) == pytest.approx(1.0)

    def test_xz_is_minus_i_y(self):
        # X @ Z = -i Y, so the product phase onto sigma_{1,1}=Y is -i
        beta = oracles.pauli_product_phase(
            pauli.PauliLabel((1,), (0,)), pauli.PauliLabel((0,), (1,))
        )
        assert beta == pytest.approx(-1j)

    def test_mismatch(self):
        with pytest.raises(core.DimensionMismatch):
            oracles.pauli_product_phase(
                pauli.PauliLabel((1,), (0,)), pauli.PauliLabel((1, 0), (0, 0))
            )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4**3 - 1), st.integers(0, 4**3 - 1))
    def test_product_identity_holds(self, i, j):
        d, n = 2, 3
        a = pauli.label_from_index(i, d, n)
        b = pauli.label_from_index(j, d, n)
        beta = oracles.pauli_product_phase(a, b)
        target = pauli.PauliLabel(
            tuple((x + y) % d for x, y in zip(a.x, b.x)),
            tuple((x + y) % d for x, y in zip(a.z, b.z)),
            d,
        )
        lhs = pauli.pauli_matrix(a) @ pauli.pauli_matrix(b)
        rhs = beta * pauli.pauli_matrix(target)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        assert abs(abs(beta) - 1.0) < 1e-12

    def test_qutrit_products(self, rng):
        d, n = 3, 2
        for _ in range(25):
            i, j = rng.integers(0, d ** (2 * n), size=2)
            a = pauli.label_from_index(int(i), d, n)
            b = pauli.label_from_index(int(j), d, n)
            beta = oracles.pauli_product_phase(a, b)
            target = pauli.PauliLabel(
                tuple((x + y) % d for x, y in zip(a.x, b.x)),
                tuple((x + y) % d for x, y in zip(a.z, b.z)),
                d,
            )
            lhs = pauli.pauli_matrix(a) @ pauli.pauli_matrix(b)
            assert np.max(np.abs(lhs - beta * pauli.pauli_matrix(target))) < 1e-12


class TestDecompose:
    def test_x_coefficient(self):
        mu = pauli.mu_vector(X, 2, 1)
        idx = oracles.label_index(pauli.PauliLabel((1,), (0,)))
        assert mu[idx] == pytest.approx(1.0)
        assert np.flatnonzero(mu).tolist() == [idx]

    def test_stabilizer_projector_coefficients(self):
        P = pauli.stabilizer_measurement((1, 1), (0, 1))
        mu = pauli.mu_vector(P.operators[0], 2, 2)
        assert mu[oracles.label_index(pauli.PauliLabel((0, 0), (0, 0)))] == pytest.approx(0.5)
        assert mu[oracles.label_index(pauli.PauliLabel((1, 1), (0, 1)))] == pytest.approx(0.5)
        assert sum(abs(c) > 1e-12 for c in mu) == 2

    def test_parseval_and_reconstruction(self, rng):
        A = oracles.random_operator(8, rng)
        mu = pauli.mu_vector(A, 2, 3)
        assert np.sum(np.abs(mu) ** 2) * 8 == pytest.approx(
            np.linalg.norm(A) ** 2, abs=1e-10
        )
        np.testing.assert_allclose(oracles.matrix_from_mu(mu, 2, 3), A, atol=1e-10)

    def test_qutrit_reconstruction(self, rng):
        A = oracles.random_operator(9, rng)
        mu = pauli.mu_vector(A, 3, 2)
        np.testing.assert_allclose(oracles.matrix_from_mu(mu, 3, 2), A, atol=1e-10)
        assert np.sum(np.abs(mu) ** 2) * 9 == pytest.approx(
            np.linalg.norm(A) ** 2, abs=1e-10
        )

    def test_wrong_dimension(self):
        # 6 is no power of 2: both the explicit-n transform and every
        # function that derives n refuse it
        with pytest.raises(core.DimensionMismatch):
            pauli.mu_vector(np.eye(6), 2, 3)
        with pytest.raises(core.DimensionMismatch):
            pauli.q_distribution(np.eye(6), 2)

    def test_measurement_coefficient_mass(self, rng):
        meas = oracles.random_measurement(8, 4, rng)
        total = sum(np.sum(np.abs(pauli.mu_vector(op, 2, 3)) ** 2) for op in meas.operators)
        assert total == pytest.approx(1.0, abs=1e-10)


TRANSFORM_SIZES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 2)]


class TestTransformOracle:
    """The per-site contraction against the defining traces, label by label,
    and its inverse against the identity."""

    @pytest.mark.parametrize("d,n", TRANSFORM_SIZES)
    def test_mu_is_the_trace_against_each_sigma(self, d, n, rng):
        D = d**n
        A = oracles.random_operator(D, rng)
        expected = [np.trace(pauli.pauli_matrix(lbl).conj().T @ A) / D
                    for lbl in oracles.all_labels(d, n)]
        mu = pauli.mu_vector(A, d, n)
        np.testing.assert_allclose(mu, expected, atol=1e-13)
        np.testing.assert_allclose(oracles.matrix_from_mu(mu, d, n), A, atol=1e-12)

    @pytest.mark.parametrize("d,n", TRANSFORM_SIZES)
    def test_support_masks_match_each_label(self, d, n):
        expected = [sum(1 << (s - 1) for s in oracles.support(lbl))
                    for lbl in oracles.all_labels(d, n)]
        np.testing.assert_array_equal(pauli._support_masks(d, n), expected)

    def test_mu_vector_memory_is_a_few_operators(self, rng):
        # (2, 7): D = 128, so 8 complex D x D arrays are 2 MB; a table over
        # all d^{2n} labels and d^n columns would need over 100 MB
        D = 2**7
        A = oracles.random_operator(D, rng)
        tracemalloc.start()
        try:
            pauli.mu_vector(A, 2, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * D**2 * 16


class TestSupportAndLocality:
    def test_support_examples(self):
        assert oracles.support(pauli.PauliLabel((0, 0, 0), (0, 0, 0))) == set()
        assert oracles.support(pauli.PauliLabel((1, 0, 0), (0, 0, 1))) == {1, 3}
        assert oracles.support(pauli.PauliLabel((1, 1, 1), (1, 1, 1))) == {1, 2, 3}

    def test_full_set_is_identity_map(self, rng):
        A = oracles.random_operator(8, rng)
        np.testing.assert_allclose(oracles.f_T(A, {1, 2, 3}, 2), A, atol=1e-12)

    def test_projector_with_unsupported_label(self):
        P1 = pauli.stabilizer_measurement((1, 1, 1), (0, 0, 0)).operators[0]
        ft = oracles.f_T(P1, {1}, 2)
        np.testing.assert_allclose(ft, np.eye(8) / 2, atol=1e-12)
        assert np.linalg.norm(ft) ** 2 == pytest.approx(2.0)  # D/4

    def test_local_operator_untouched(self, rng):
        B = oracles.random_operator(2, rng)
        A = np.kron(B, np.eye(4))
        np.testing.assert_allclose(oracles.f_T(A, {1}, 2), A, atol=1e-12)

    def test_orthogonal_split(self, rng):
        A = oracles.random_operator(8, rng)
        ft = oracles.f_T(A, {2}, 2)
        gt = A - oracles.f_T(A, {2}, 2)
        assert abs(core.hs_inner(ft, gt)) < 1e-10
        assert np.linalg.norm(A) ** 2 == pytest.approx(
            np.linalg.norm(ft) ** 2 + np.linalg.norm(gt) ** 2, abs=1e-10
        )

    def test_idempotent_and_monotone(self, rng):
        A = oracles.random_operator(8, rng)
        ft = oracles.f_T(A, {1, 3}, 2)
        np.testing.assert_allclose(oracles.f_T(ft, {1, 3}, 2), ft, atol=1e-12)
        smaller = np.linalg.norm(oracles.f_T(A, {1}, 2))
        larger = np.linalg.norm(oracles.f_T(A, {1, 3}, 2))
        assert smaller <= larger + 1e-12


class TestStabilizerMeasurement:
    def test_z_measurement_is_computational(self):
        meas = pauli.stabilizer_measurement((0,), (1,))
        np.testing.assert_allclose(meas.operators[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(meas.operators[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_xx_eigenspaces(self):
        meas = pauli.stabilizer_measurement((1, 1), (0, 0))
        for P in meas.operators:
            np.testing.assert_allclose(P @ P, P, atol=1e-12)
            assert np.trace(P).real == pytest.approx(2.0)
        sigma = np.kron(X, X)
        np.testing.assert_allclose(sigma @ meas.operators[0], meas.operators[0], atol=1e-12)

    def test_degenerate_label(self):
        with pytest.raises(pauli.DegenerateLabel):
            pauli.stabilizer_measurement((0, 0), (0, 0))


class TestQDistribution:
    def test_projector_two_point_law(self):
        P1 = pauli.stabilizer_measurement((1, 0), (1, 1)).operators[0]
        q = pauli.q_distribution(P1, 2)
        idx_id = oracles.label_index(pauli.PauliLabel((0, 0), (0, 0)))
        idx_ab = oracles.label_index(pauli.PauliLabel((1, 0), (1, 1)))
        assert q[idx_id] == pytest.approx(0.5)
        assert q[idx_ab] == pytest.approx(0.5)
        assert q.sum() == pytest.approx(1.0)

    def test_unitary_is_point_mass(self):
        q = pauli.q_distribution(X, 2)
        assert q[oracles.label_index(pauli.PauliLabel((1,), (0,)))] == pytest.approx(1.0)

    def test_random_operator_normalized(self, rng):
        A = oracles.random_operator(4, rng)
        q = pauli.q_distribution(A, 2)
        assert q.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_operator(self):
        with pytest.raises(core.ZeroOperator):
            pauli.q_distribution(np.zeros((2, 2)), 2)

    def test_xi_distribution_matches_mixture(self, rng):
        meas = oracles.random_measurement(4, 3, rng)
        xi = pauli.xi_distribution(meas, 2)
        manual = np.zeros(16)
        for op in meas.operators:
            manual += core.choi_prob(op) * pauli.q_distribution(op, 2)
        np.testing.assert_allclose(xi, manual, atol=1e-10)


class TestPowerCheck:
    @pytest.mark.parametrize("dim,d,n", [(1, 1, 0), (1, 2, 0), (8, 2, 3), (27, 3, 3)])
    def test_powers(self, dim, d, n):
        assert pauli._power_check(dim, d) == n

    @pytest.mark.parametrize("dim,d", [(2, 1), (4, 0), (4, -2), (1, 0), (1, -1), (6, 4)])
    def test_no_power_refused(self, dim, d):
        # d = 1 once looped forever on dim > 1, and d = -2 read 4 as (-2)**1
        with pytest.raises(core.DimensionMismatch):
            pauli._power_check(dim, d)

    def test_local_dimension_one_refused_on_a_qubit(self, rng):
        meas = oracles.random_measurement(2, 2, rng)
        for call in (lambda: BlackBox(meas, d=1), lambda: pauli.xi_distribution(meas, 1),
                     lambda: pauli.q_distribution(meas.operators[0], 1)):
            with pytest.raises(core.DimensionMismatch):
                call()
