import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmtest import core, pauli

import oracles

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


class TestNormsAndInner:
    def test_inner_identity(self):
        assert core.hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_inner_orthogonal_paulis(self):
        assert core.hs_inner(X, Z) == pytest.approx(0.0)

    def test_inner_projectors(self):
        # expanding (I+X)(I+Z)/4, only the I*I term survives the trace
        P = (np.eye(2) + X) / 2
        Q = (np.eye(2) + Z) / 2
        assert core.hs_inner(P, Q) == pytest.approx(0.5)

    def test_conjugate_symmetry(self, rng):
        A = oracles.random_operator(3, rng)
        B = oracles.random_operator(3, rng)
        assert core.hs_inner(A, B) == pytest.approx(np.conj(core.hs_inner(B, A)))

    def test_dimension_mismatch(self):
        with pytest.raises(core.DimensionMismatch):
            core.hs_inner(np.eye(2), np.eye(3))


class TestValidateMeasurement:
    def test_trivial(self):
        m = core.validate_measurement([np.eye(3)])
        assert m.completeness_residual == pytest.approx(0.0, abs=1e-12)

    def test_projector_pair(self):
        m = core.validate_measurement([(np.eye(2) + X) / 2, (np.eye(2) - X) / 2])
        assert m.completeness_residual < 1e-12

    def test_violation(self):
        with pytest.raises(core.CompletenessViolation):
            core.validate_measurement([np.eye(2), np.eye(2)])

    def test_mixed_dims(self):
        with pytest.raises(core.DimensionMismatch):
            core.validate_measurement([np.eye(2), np.eye(3)])

    def test_empty(self):
        with pytest.raises(ValueError):
            core.validate_measurement([])

    def test_operators_frozen(self):
        m = core.validate_measurement([np.eye(2)])
        with pytest.raises(ValueError):
            m.operators[0][0, 0] = 5.0

    def test_operator_nobody_can_write_is_kept(self):
        # a read-only complex128 block that owns its memory is kept as it is
        block = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        block.setflags(write=False)
        m = core.validate_measurement(block)
        assert m.operators is block

    def test_list_of_read_only_operators_is_copied_once(self):
        # a list, even of read-only owners or of views of a read-only block,
        # is stacked into one new read-only block
        owner = np.eye(2, dtype=complex)
        owner.setflags(write=False)
        block = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        block.setflags(write=False)
        for ops, source in (([owner], owner), (list(block), block)):
            m = core.validate_measurement(ops)
            assert m.operators.shape == (len(ops), 2, 2) and m.operators.base is None
            assert not m.operators.flags.writeable
            assert not np.shares_memory(m.operators, source)
            np.testing.assert_array_equal(m.operators, source.reshape(m.operators.shape))

    @pytest.mark.parametrize("kind", ["writeable", "read-only view", "frombuffer", "writeable block",
                                      "read-only view of a block", "frombuffer block",
                                      "float block"])
    def test_operator_someone_can_write_is_copied(self, kind):
        source = np.eye(2, dtype=complex)
        block = np.stack([source])  # a writeable (1, 2, 2) owner
        buffer = bytearray(source.tobytes())
        op = {"writeable": lambda: source,
              "read-only view": lambda: source[:, :],
              "frombuffer": lambda: np.frombuffer(buffer, dtype=complex).reshape(2, 2),
              "writeable block": lambda: block,
              "read-only view of a block": lambda: block[:],
              "frombuffer block": lambda: np.frombuffer(buffer, dtype=complex).reshape(1, 2, 2),
              "float block": lambda: block.real}[kind]()
        op.setflags(write=kind.startswith("writeable"))
        m = core.validate_measurement(op if op.ndim == 3 else [op])
        assert not m.operators[0].flags.writeable and m.operators.base is None
        source[0, 0] = block[0, 0, 0] = 5.0
        buffer[:8] = np.float64(5.0).tobytes()
        assert op.flat[0] == 5.0  # the source changed, and the measurement did not
        np.testing.assert_array_equal(m.operators[0], np.eye(2))

    def test_list_and_its_block_give_the_same_bytes(self, rng):
        ops = list(oracles.random_measurement(8, 4, rng).operators)
        block = np.stack(ops)
        block.setflags(write=False)
        from_list, from_block = core.validate_measurement(ops), core.validate_measurement(block)
        assert from_block.operators is block
        assert from_list.operators.tobytes() == block.tobytes()
        assert (np.float64(from_list.completeness_residual).tobytes()
                == np.float64(from_block.completeness_residual).tobytes())


def planted_measurement(kind: str, D: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """A complete (k, D, D) block: dense, diagonal, or complete blocks on a random
    split of D (some of size 1), under a random permutation of the basis."""
    if kind == "dense":
        return np.array(oracles.random_measurement(D, k, rng).operators)
    cuts = np.flatnonzero(rng.random(D - 1) < (1.0 if kind == "diagonal" else 0.4)) + 1
    ops = np.zeros((k, D, D), dtype=complex)
    for block in np.split(np.arange(D), cuts):
        part = oracles.random_measurement(len(block), k, rng).operators
        ops[np.ix_(range(k), block, block)] = part
    perm = rng.permutation(D)
    return ops[:, perm][:, :, perm]


class TestCompletenessResidual:
    """The Gram sum by blocks of the nonzero pattern and by row blocks, against
    the dense D x D sum it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["dense", "diagonal", "blocks"]), D=st.integers(1, 40),
           k=st.integers(1, 4), exponent=st.floats(-14, -1), sign=st.sampled_from([-1, 1]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dense_sum(self, kind, D, k, exponent, sign, seed):
        # scaling a complete measurement by sqrt(1 + e) puts its residual near
        # |e| sqrt(D), on both sides of the threshold
        rng = np.random.default_rng(seed)
        ops = planted_measurement(kind, D, k, rng) * math.sqrt(1 + sign * 10.0**exponent)
        want = oracles.dense_completeness_residual(ops)
        got = core.validate_measurement(ops, math.inf).completeness_residual
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)  # abs: rounding of a complete one
        tol = core.DEFAULT_COMPLETENESS_TOL
        if abs(want - tol) > 1e-12:
            try:
                core.validate_measurement(ops)
                accepted = True
            except core.CompletenessViolation:
                accepted = False
            assert accepted == (want <= tol)

    def test_components_of_a_planted_pattern(self):
        # blocks {0, 3}, {1, 4, 5}, the isolated 2 and the all-zero 6
        ops = np.zeros((2, 7, 7), dtype=complex)
        ops[0, 0, 3] = ops[1, 3, 3] = ops[0, 4, 1] = ops[1, 5, 4] = ops[0, 2, 2] = 1
        singles, blocks = core._pattern_components(ops)
        assert singles.tolist() == [2, 6]
        assert [b.tolist() for b in blocks] == [[0, 3], [1, 4, 5]]

    def test_overflow_gives_a_residual_that_fails(self):
        for ops in ([np.full((3, 3), 1e200)], [np.diag([1e200, 1.0, 1.0])]):
            with pytest.raises(core.CompletenessViolation):
                core.validate_measurement(ops)

    def test_memory_traced(self, rng):
        # a dense pair at D = 512: the dense sum held three D x D complex arrays
        # (12 MiB); row blocks and the nonzero pattern stay under one (4 MiB)
        D = 512
        half = core.random_unitary(D, rng)[:, : D // 2]
        projector = half @ half.conj().T
        ops = np.array([projector, np.eye(D) - projector])
        ops.setflags(write=False)  # so validation keeps the block and copies nothing
        tracemalloc.start()
        try:
            meas = core.validate_measurement(ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert meas.operators is ops
        assert peak < 16 * D**2


class TestApplyMeasurement:
    def test_plus_state_split(self):
        meas = core.validate_measurement([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        probs, posts = oracles.apply_measurement(meas, plus)
        assert probs == pytest.approx([0.5, 0.5])
        assert abs(posts[0][0]) == pytest.approx(1.0)

    def test_identity_measurement_density(self, rng):
        psi = oracles.haar_random_state(3, rng)
        rho = np.outer(psi, psi.conj())
        meas = core.validate_measurement([np.eye(3)])
        probs, posts = oracles.apply_measurement(meas, rho)
        assert probs == pytest.approx([1.0])
        np.testing.assert_allclose(posts[0], rho, atol=1e-12)

    def test_first_factor_of_entangled_state(self):
        # measuring a stabilizer projector pair on half of the entangled
        # state splits 1/2 - 1/2
        P = pauli.stabilizer_measurement((1, 0), (0, 1))
        phi = oracles.maximally_entangled(4)
        probs, posts = oracles.apply_measurement(P, phi)
        assert probs == pytest.approx([0.5, 0.5])
        for i, post in enumerate(posts):
            expected = oracles.normalized_choi(P.operators[i])
            overlap = abs(np.vdot(expected, post))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_zero_probability_flagged(self):
        meas = core.validate_measurement([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        probs, posts = oracles.apply_measurement(meas, np.array([1.0, 0.0]))
        assert probs == pytest.approx([1.0, 0.0])
        assert posts[1] is None


class TestChoi:
    def test_maximally_entangled_dim1(self):
        np.testing.assert_allclose(oracles.maximally_entangled(1), [1.0])

    def test_bell_state(self):
        phi = oracles.maximally_entangled(2)
        np.testing.assert_allclose(phi, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])

    def test_d4_amplitudes(self):
        phi = oracles.maximally_entangled(4)
        hits = phi[np.arange(4) * 4 + np.arange(4)]
        np.testing.assert_allclose(hits, 0.5)
        assert np.linalg.norm(phi) == pytest.approx(1.0)

    def test_choi_of_identity(self):
        np.testing.assert_allclose(oracles.choi_vector(np.eye(3)), oracles.maximally_entangled(3))

    def test_choi_of_x(self):
        np.testing.assert_allclose(
            oracles.choi_vector(X), [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0]
        )

    def test_choi_prob_projector(self):
        P = (np.eye(2) + X) / 2
        assert core.choi_prob(P) == pytest.approx(0.5)
        assert np.linalg.norm(oracles.choi_vector(P)) ** 2 == pytest.approx(0.5)

    def test_choi_prob_identity_and_zero(self):
        assert core.choi_prob(np.eye(5)) == pytest.approx(1.0)
        assert core.choi_prob(np.zeros((2, 2))) == pytest.approx(0.0)

    def test_choi_inner_product_relation(self, rng):
        for D in (2, 8, 64):
            A = oracles.random_operator(D, rng)
            B = oracles.random_operator(D, rng)
            lhs = np.vdot(oracles.choi_vector(A), oracles.choi_vector(B))
            rhs = core.hs_inner(A, B) / D
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_normalized_choi(self):
        P = (np.eye(2) + X) / 2
        np.testing.assert_allclose(oracles.normalized_choi(P), [0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(oracles.normalized_choi(np.eye(2)),
                                   oracles.maximally_entangled(2))

    def test_normalized_choi_zero(self):
        with pytest.raises(core.ZeroOperator):
            oracles.normalized_choi(np.zeros((2, 2)))

    def test_completeness_through_choi(self, rng):
        meas = oracles.random_measurement(8, 3, rng)
        assert sum(core.choi_prob(op) for op in meas.operators) == pytest.approx(1.0, abs=1e-10)


class TestHaar:
    def test_dim_one_is_phase(self, rng):
        psi = oracles.haar_random_state(1, rng)
        assert abs(psi[0]) == pytest.approx(1.0)

    def test_seed_determinism(self):
        a = oracles.haar_random_state(4, np.random.default_rng(5))
        b = oracles.haar_random_state(4, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_first_moment(self):
        # mean of |<0|psi>|^2 is 1/D
        rng = np.random.default_rng(7)
        states = oracles.haar_random_states(4, 100_000, rng)
        weights = np.abs(states[0]) ** 2
        stderr = weights.std(ddof=1) / math.sqrt(weights.size)
        assert abs(weights.mean() - 0.25) < 3 * stderr

    def test_second_moment_matrix(self):
        rng = np.random.default_rng(8)
        D, S = 4, 100_000
        states = oracles.haar_random_states(D, S, rng)
        mean_proj = (states @ states.conj().T) / S
        assert np.max(np.abs(mean_proj - np.eye(D) / D)) < 5 / math.sqrt(S)


class TestPhaseAlign:
    def test_identity_case(self, rng):
        M = oracles.random_measurement(4, 2, rng)
        aligned = oracles.canonical_phase_align(M, M)
        for a, b in zip(aligned.operators, M.operators):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_pure_phase_removed(self, rng):
        M = oracles.random_measurement(4, 2, rng)
        shifted = core.Measurement(
            operators=np.exp(1j * math.pi / 3) * M.operators,
            completeness_residual=M.completeness_residual,
        )
        aligned = oracles.canonical_phase_align(M, shifted)
        for a, b in zip(aligned.operators, M.operators):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_random_pair_alignment(self, rng):
        M = oracles.random_measurement(4, 3, rng)
        N = oracles.random_measurement(4, 3, rng)
        aligned = oracles.canonical_phase_align(M, N)
        for i, op in enumerate(aligned.operators):
            ip = core.hs_inner(M.operators[i], op)
            assert abs(ip.imag) <= 1e-12
            assert ip.real >= 0
