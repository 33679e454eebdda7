import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qmtest import blackbox, cli, core, schur

import oracles
from conftest import comp_basis_measurement

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def loop_permutation_residual(basis) -> float:
    """Largest |U P_p U^dag - (+)_lambda I_w (x) rho_lambda(p)|_F over all n!
    permutations, each applied as a dense matrix: the check that the generator
    bound of ``verify_schur_basis`` replaced, kept here as its oracle."""
    U = basis.U
    worst = 0.0
    for p in oracles.schur_permutations(basis):
        got = U @ oracles.permutation_operator(p, basis.d) @ U.conj().T
        expected = np.zeros((basis.D, basis.D))
        for shape in basis.shapes:
            _, w, _ = basis.blocks[shape]
            sl = oracles.block_slice(basis, shape)
            expected[sl, sl] = np.kron(np.eye(w), oracles.schur_rep_matrix(basis, p, shape))
        worst = max(worst, float(np.linalg.norm(got - expected)))
    return worst


def dense_generator_residual(basis) -> float:
    """Largest |U P_s U^dag - (+)_lambda I_w (x) rho_lambda(s)|_F over the adjacent
    transpositions s, each U P_s U^dag a dense D x D product: the generator check
    that the gathered residual of ``verify_schur_basis`` replaced, kept here as its
    oracle."""
    U = basis.U
    worst = 0.0
    for j in range(basis.n - 1):
        s = schur._transposition(j, j + 1, basis.n)
        got = U[:, schur._perm_row_map(s, basis.d)] @ U.conj().T
        expected = np.zeros((basis.D, basis.D))
        for shape in basis.shapes:
            _, w, _ = basis.blocks[shape]
            sl = oracles.block_slice(basis, shape)
            expected[sl, sl] = np.kron(np.eye(w), oracles.schur_rep_matrix(basis, s, shape))
        worst = max(worst, float(np.linalg.norm(got - expected)))
    return worst


def generator_bound(basis) -> float:
    """r = g (1 + eta) + eta, the bound ``verify_schur_basis`` derives on every
    generator residual from the gathered one."""
    eta = basis.residuals["unitarity"]
    return schur._gathered_residual(basis) * (1.0 + eta) + eta


def sampled_collective_residual(basis) -> float:
    """Largest |X - hat|_F, X = U E^{(x)n} U^dag and hat its I_v-factored part,
    over 20 Haar-random unitaries E from the fixed seed 20240801: the sampled
    check that the derived bound of ``verify_schur_basis`` replaced, kept here
    as its oracle.  A unitary E keeps |E^{(x)n}| at 1, so the residual tracks
    the unitarity residual at every size."""
    rng = np.random.default_rng(20240801)
    U = basis.U
    worst = 0.0
    for _ in range(20):
        E = core.random_unitary(basis.d, rng)
        tensor = E
        for _ in range(basis.n - 1):
            tensor = np.kron(tensor, E)
        got = U @ tensor @ U.conj().T
        approx = np.zeros_like(got)
        for shape in basis.shapes:
            _, w, v = basis.blocks[shape]
            sl = oracles.block_slice(basis, shape)
            collective = np.einsum("abcb->ac", got[sl, sl].reshape(w, v, w, v)) / v
            approx[sl, sl] = np.kron(collective, np.eye(v))
        worst = max(worst, float(np.linalg.norm(got - approx)))
    return worst


def remainder(A, basis):
    """R = U A U^dag - hat: the part of A that the invariant projection drops."""
    bd = schur.block_decompose(A, basis)
    return bd.hat, basis.U @ A @ basis.U.conj().T - bd.hat


def group_average(A, d, n):
    """The literal (1/n!) sum_p P_p A P_p^dag over all n! permutations."""
    perms = [oracles.permutation_operator(p, d) for p in itertools.permutations(range(n))]
    return sum(P @ A @ P.T for P in perms) / len(perms)


class TestPartitions:
    def test_two_of_two(self):
        assert schur.partitions(2, 2) == [(2,), (1, 1)]

    def test_three_of_two_excludes_column(self):
        assert schur.partitions(3, 2) == [(3,), (2, 1)]

    def test_three_of_three(self):
        assert schur.partitions(3, 3) == [(3,), (2, 1), (1, 1, 1)]

    def test_sorted_decreasing(self):
        parts = schur.partitions(6, 4)
        assert parts == sorted(parts, reverse=True)
        assert all(sum(p) == 6 and len(p) <= 4 for p in parts)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_every_partition_strictly_decreasing(self, d):
        # the depth-first build tries the largest part first, so it needs no sort
        for n in range(1, 13):
            parts = schur.partitions(n, d)
            assert all(a > b for a, b in zip(parts, parts[1:]))
            # a decreasing input makes every tuple a partition's parts in order
            want = {c for r in range(1, d + 1)
                    for c in itertools.combinations_with_replacement(range(n, 0, -1), r)
                    if sum(c) == n}
            assert set(parts) == want


class TestHooksAndDims:
    def test_hooks_531(self):
        hooks = schur.hook_lengths((5, 3, 1))
        assert [hooks[(0, j)] for j in range(5)] == [7, 5, 4, 2, 1]
        assert [hooks[(1, j)] for j in range(3)] == [4, 2, 1]
        assert hooks[(2, 0)] == 1

    def test_single_box(self):
        assert schur.hook_lengths((1,)) == {(0, 0): 1}

    def test_hooks_21(self):
        hooks = schur.hook_lengths((2, 1))
        assert hooks == {(0, 0): 3, (0, 1): 1, (1, 0): 1}

    def test_trivial_rep_dimension(self):
        for n in range(1, 7):
            assert schur.dim_sn((n,)) == 1

    def test_dim_531(self):
        assert schur.dim_sn((5, 3, 1)) == 162

    def test_symmetric_subspace(self):
        assert schur.dim_gl((2,), 2) == 3

    def test_dims_against_tableau_count(self):
        for n in range(2, 6):
            for shape in schur.partitions(n, n):
                assert schur.dim_sn(shape) == len(schur.standard_tableaux(shape))

    def test_gl_dim_against_weight_count(self):
        # w for a single row equals the number of multisets
        assert schur.dim_gl((3,), 2) == 4
        assert schur.dim_gl((1, 1), 3) == 3
        assert schur.dim_gl((2, 1), 3) == 8

    def test_dims_against_hook_content_fractions(self):
        # every partition of n, so shapes with more than d rows, whose GL(d)
        # dimension is 0, are included
        for n in range(1, 9):
            for shape in schur.partitions(n, n):
                for d in range(1, 7):
                    gl, sn = oracles.hook_content_dims(shape, d)
                    assert (schur.dim_gl(shape, d), schur.dim_sn(shape)) == (gl, sn)


class TestPermutationOperator:
    def test_identity(self):
        np.testing.assert_allclose(oracles.permutation_operator((0, 1), 2), np.eye(4))

    def test_swap(self):
        swap = oracles.permutation_operator((1, 0), 2)
        np.testing.assert_allclose(swap @ swap, np.eye(4))
        psi = np.kron([1, 0], [0, 1]).astype(complex)
        np.testing.assert_allclose(swap @ psi, np.kron([0, 1], [1, 0]))

    def test_three_cycle_cubes_to_identity(self):
        cyc = oracles.permutation_operator((1, 2, 0), 2)
        np.testing.assert_allclose(np.linalg.matrix_power(cyc, 3), np.eye(8))

    def test_homomorphism(self, rng):
        for _ in range(10):
            p = tuple(rng.permutation(3))
            q = tuple(rng.permutation(3))
            comp = tuple(p[q[i]] for i in range(3))
            lhs = oracles.permutation_operator(p, 2) @ oracles.permutation_operator(q, 2)
            np.testing.assert_allclose(lhs, oracles.permutation_operator(comp, 2))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            oracles.permutation_operator((0, 0, 1), 2)


YOUNG_SIZES = [(d, n) for d in range(1, 6) for n in range(1, 7) if d**n <= 256]


@pytest.fixture(scope="module")
def basis22():
    return schur.build_schur_transform(2, 2)


@pytest.fixture(scope="module")
def basis23():
    return schur.build_schur_transform(2, 3)


class TestSchurTransform:
    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_invariants(self, d, n):
        basis = schur.build_schur_transform(d, n)
        residuals = schur.verify_schur_basis(basis)
        assert residuals["unitarity"] <= 1e-10
        assert residuals["permutation_blocks"] <= 1e-8
        assert residuals["collective_blocks"] <= 1e-8
        assert sum(w * v for _, w, v in basis.blocks.values()) == d**n

    def test_triplet_singlet(self, basis22):
        # the symmetric block must span {|00>, |11>, (|01>+|10>)/sqrt(2)}
        U = basis22.U
        sym_slice = oracles.block_slice(basis22, (2,))
        singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
        coeffs = U @ singlet
        assert np.linalg.norm(coeffs[sym_slice]) == pytest.approx(0.0, abs=1e-10)
        anti_slice = oracles.block_slice(basis22, (1, 1))
        assert np.linalg.norm(coeffs[anti_slice]) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_audit_2_3(self, basis23):
        dims = {shape: (w, v) for shape, (_, w, v) in basis23.blocks.items()}
        assert dims[(3,)] == (4, 1)
        assert dims[(2, 1)] == (2, 2)

    def test_dimension_audit_3_2(self):
        basis = schur.build_schur_transform(3, 2)
        dims = {shape: (w, v) for shape, (_, w, v) in basis.blocks.items()}
        assert dims[(2,)] == (6, 1)
        assert dims[(1, 1)] == (3, 1)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            schur.build_schur_transform(2, 12)

    @pytest.mark.parametrize("d,n", YOUNG_SIZES)
    def test_matches_the_young_build(self, d, n):
        # the Jucys-Murphy seeds are Gram-Schmidt over the columns of the same
        # projector, so U agrees entrywise, not only up to a unitary per block
        got, want = schur.build_schur_transform(d, n), oracles.build_schur_transform_young(d, n)
        assert (got.shapes, got.blocks) == (want.shapes, want.blocks)
        np.testing.assert_allclose(got.U, want.U, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [7, 8])
    def test_past_the_young_site_cap(self, n, rng):
        # the twirl is the reference: the isotypic projectors share the build's eigh
        basis = schur.build_schur_transform(2, n)
        assert max(basis.residuals.values()) <= 1e-10
        A = oracles.random_operator(2**n, rng)
        U = basis.U
        got = U.conj().T @ schur.block_decompose(A, basis).hat @ U
        np.testing.assert_allclose(got, schur.twirl(A, 2, n), rtol=0, atol=1e-10)

    def test_triples_enumeration(self, basis22):
        assert oracles.schur_index(basis22, (2,), 0, 0) == 0
        assert oracles.schur_index(basis22, (1, 1), 0, 0) == 3


class TestBlockDecompose:
    def test_permutation_invariant_operator(self, basis23, rng):
        A = oracles.random_operator(8, rng)
        _, R = remainder(group_average(A, 2, 3), basis23)
        assert np.linalg.norm(R) <= 1e-8

    def test_projector_01(self, basis22):
        A = np.zeros((4, 4), dtype=complex)
        A[1, 1] = 1.0
        hat, R = remainder(A, basis22)
        assert np.vdot(hat, hat).real == pytest.approx(0.5, abs=1e-12)
        assert np.vdot(R, R).real == pytest.approx(0.5, abs=1e-12)

    def test_permutation_image(self, basis23):
        # a permutation operator decomposes blockwise with invariant part
        # tr(V(tau))/v per block
        tau = (1, 2, 0)
        bd = schur.block_decompose(oracles.permutation_operator(tau, 2), basis23)
        for shape, collective in bd.per_lambda_hat.items():
            _, w, v = basis23.blocks[shape]
            char = np.trace(oracles.schur_rep_matrix(basis23, tau, shape))
            np.testing.assert_allclose(collective, np.eye(w) * char / v, atol=1e-10)

    def test_parts_reconstruct_and_orthogonal(self, basis23, rng):
        A = oracles.random_operator(8, rng)
        hat, R = remainder(A, basis23)
        assert abs(np.vdot(hat, R)) <= 1e-10
        assert np.vdot(hat, hat).real + np.vdot(R, R).real == pytest.approx(
            np.linalg.norm(A) ** 2, abs=1e-10
        )

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3)])
    def test_invariance_characterization(self, d, n, rng):
        # commuting with every permutation operator <=> the remainder vanishes;
        # exercised on raw random operators and on their group averages
        basis = schur.build_schur_transform(d, n)
        D = d**n
        perms = [oracles.permutation_operator(p, d) for p in itertools.permutations(range(n))]
        for i in range(50):
            A = oracles.random_operator(D, rng)
            if i % 2:
                A = sum(P @ A @ P.T for P in perms) / len(perms)
            commutes = all(np.linalg.norm(P @ A - A @ P) <= 1e-10 for P in perms)
            _, R = remainder(A, basis)
            assert commutes == (np.linalg.norm(R) <= 1e-8)

    def test_hat_norm_below_group_average(self, basis23, rng):
        A = oracles.random_operator(8, rng)
        avg = group_average(A, 2, 3)
        hat = schur.block_decompose(A, basis23).hat
        assert np.vdot(hat, hat).real <= np.vdot(avg, avg).real + 1e-10


def perminv_defect(M, d):
    """1 - (1/D) sum_i |twirl(M_i)|^2: the pass probability's shortfall."""
    return 1.0 - blackbox.BlackBox(M, seed=0, d=d).schur_audit()


class TestPermInvDefect:
    def test_invariant_measurement(self):
        iso = schur.isotypic_projectors(2, 2)
        assert perminv_defect(iso, 2) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_measurement(self):
        triv = core.validate_measurement([np.eye(4)])
        assert perminv_defect(triv, 2) == pytest.approx(0.0, abs=1e-12)

    def test_compbasis_defect(self):
        assert perminv_defect(comp_basis_measurement(4), 2) == pytest.approx(0.25, abs=1e-12)


ORACLE_SIZES = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (3, 5),
                (4, 2), (4, 3), (4, 4)]


class TestTwirl:
    @pytest.mark.parametrize("d,n", ORACLE_SIZES)
    def test_matches_schur_hat(self, d, n, rng):
        basis = schur.build_schur_transform(d, n)
        A = oracles.random_operator(d**n, rng)
        U = basis.U
        expected = U.conj().T @ schur.block_decompose(A, basis).hat @ U
        np.testing.assert_allclose(schur.twirl(A, d, n), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3),
                                     (3, 4), (4, 3)])
    def test_matches_group_average(self, d, n, rng):
        A = oracles.random_operator(d**n, rng)
        np.testing.assert_allclose(schur.twirl(A, d, n), group_average(A, d, n),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 2)])
    def test_projection(self, d, n, rng):
        # idempotent, self-adjoint for <B, A> = tr(B^dag A), and invariant
        # under every adjacent transposition (which generate S_n)
        A, B = oracles.random_operator(d**n, rng), oracles.random_operator(d**n, rng)
        TA, TB = schur.twirl(A, d, n), schur.twirl(B, d, n)
        np.testing.assert_allclose(schur.twirl(TA, d, n), TA, rtol=0, atol=1e-12)
        assert np.vdot(B, TA) == pytest.approx(np.vdot(TB, A), abs=1e-10)
        for j in range(n - 1):
            P = oracles.permutation_operator(schur._transposition(j, j + 1, n), d)
            np.testing.assert_allclose(P @ TA, TA @ P, rtol=0, atol=1e-12)

    def test_dimension_checked(self):
        with pytest.raises(core.DimensionMismatch):
            schur.twirl(np.eye(8), 2, 2)

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 8), (3, 2), (3, 4), (4, 3)])
    def test_computational_basis_pass_prob(self, d, n):
        # |twirl(|x><x|)|^2 = 1/|orbit of x|, so the mass is the number of
        # orbits (types): C(n + d - 1, d - 1) / d^n, 0.75 at (2, 2), 9/256 at (2, 8)
        ops = [np.diag((np.arange(d**n) == i).astype(complex)) for i in range(d**n)]
        meas = core.validate_measurement(ops)
        box = blackbox.BlackBox(meas, seed=0, d=d)
        expected = math.comb(n + d - 1, d - 1) / d**n
        for got in (box.schur_audit(), schur.symmetric_mass(meas, d, n)):
            assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_site_projector_pass_prob(self, n):
        # {|0><0|, |1><1|} on site 1, as ``qmtest fixtures klocal`` writes it:
        # pass probability (n + 1) / (2n)
        rest = np.eye(2 ** (n - 1))
        ops = [np.kron(np.diag([1.0, 0.0]), rest), np.kron(np.diag([0.0, 1.0]), rest)]
        meas = core.validate_measurement(ops)
        box = blackbox.BlackBox(meas, seed=0, d=2)
        for got in (box.schur_audit(), schur.symmetric_mass(meas, 2, n)):
            assert got == pytest.approx((n + 1) / (2 * n), abs=1e-12)


BASIS_SIZES = [(d, n) for d in (1, 2, 3, 4) for n in range(1, 7) if d**n <= 256]


class TestIsotypicProjectors:
    def test_projector_properties(self):
        iso = schur.isotypic_projectors(2, 3)
        shapes = schur.partitions(3, 2)
        assert len(iso) == len(shapes)
        for op, shape in zip(iso.operators, shapes):
            np.testing.assert_allclose(op @ op, op, atol=1e-10)
            rank = schur.dim_gl(shape, 2) * schur.dim_sn(shape)
            assert np.trace(op).real == pytest.approx(rank, abs=1e-10)

    def test_commutes_with_permutations(self):
        iso = schur.isotypic_projectors(2, 3)
        for p in itertools.permutations(range(3)):
            tau = oracles.permutation_operator(p, 2)
            for op in iso.operators:
                assert np.linalg.norm(tau @ op - op @ tau) <= 1e-10

    @pytest.mark.parametrize("d,n", BASIS_SIZES)
    def test_matches_the_basis_projectors(self, d, n):
        got = schur.isotypic_projectors(d, n).operators
        want = oracles.isotypic_projectors_from_basis(schur.build_schur_transform(d, n))
        assert len(got) == len(want)
        for a, b in zip(got, want.operators):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 10), (4, 5), (3, 6)])
    def test_matches_the_global_eigh(self, d, n):
        # one eigh per digit multiset's span gives what one eigh of all of Z gave,
        # with at least as many exact zeros as its mask between spans left
        got = schur.isotypic_projectors(d, n).operators
        want = oracles.isotypic_projectors_global_eigh(d, n).operators
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        zeros = [sum(np.count_nonzero(op == 0) for op in ops) for ops in (got, want)]
        assert zeros[0] >= zeros[1]

    def test_memory_traced(self):
        # the projectors are written into one read-only block that the measurement
        # keeps: 96 MiB at (2, 10), plus two D x D complex arrays' worth for one
        # V V^T and the completeness check, which gathers the blocks of the nonzero
        # pattern and forms a few Gram rows at a time.  Held as a float list,
        # complex copies and read-only copies of those, they peaked at 256 MiB, and
        # with the whole D x D Gram sum at 153 MiB
        tracemalloc.start()
        try:
            ops = schur.isotypic_projectors(2, 10).operators
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ops.nbytes + 2 * 16 * 2**20
        assert ops.base is None and not ops.flags.writeable

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 4), (4, 3)])
    def test_no_entries_between_digit_multisets(self, d, n):
        # permutations keep the span of each digit multiset, so entries between
        # two spans are exact zeros, as the basis build wrote them
        digits = np.sort(np.array(np.unravel_index(np.arange(d**n), (d,) * n)).T, axis=1)
        other_span = (digits[:, None, :] != digits[None, :, :]).any(axis=2)
        for op in schur.isotypic_projectors(d, n).operators:
            assert not np.any(op[other_span])

    def test_contents_and_squares_split_six_qutrits(self):
        # (4, 1, 1) and (3, 3) share the content sum 3; the squared contents
        # (19 against 7) keep their blocks apart
        iso = schur.isotypic_projectors(3, 6)
        ranks = [round(float(np.trace(op).real)) for op in iso.operators]
        assert ranks == [28, 175, 243, 100, 50, 128, 5]
        assert iso.completeness_residual <= 1e-12

    @pytest.mark.parametrize("n", [7, 8])
    def test_past_the_basis_site_cap(self, n):
        iso = schur.isotypic_projectors(2, n)
        shapes = schur.partitions(n, 2)
        assert len(iso) == len(shapes)
        assert iso.completeness_residual <= 1e-12
        for op, shape in zip(iso.operators, shapes):
            np.testing.assert_allclose(schur.twirl(op, 2, n), op, rtol=0, atol=1e-12)
            np.testing.assert_allclose(op @ op, op, rtol=0, atol=1e-12)
            rank = schur.dim_gl(shape, 2) * schur.dim_sn(shape)
            assert np.trace(op).real == pytest.approx(rank, abs=1e-10)

    def test_rank_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(schur, "dim_gl", lambda shape, d: 1)
        with pytest.raises(schur.VerificationFailure, match="rank"):
            schur.isotypic_projectors(2, 3)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="must stay <= 1024"):
            schur.isotypic_projectors(2, 11)


class TestJucysMurphyBlocks:
    @pytest.mark.parametrize("d,n", [(1, 1), (2, 1), (1, 3), (3, 2), (2, 6), (3, 5), (4, 4),
                                     (2, 8)])
    def test_matches_the_dense_build(self, d, n):
        # each span's Z has exact integer entries, as its square cut from the
        # dense Z has, so every eigh sees the same matrix
        gathers, spaces = schur._jucys_murphy_blocks(d, n)
        want_gathers, want_spaces = oracles.jucys_murphy_blocks_dense(d, n)
        assert len(gathers) == len(want_gathers) == n - 1
        for rows, want_rows in zip(gathers, want_gathers):
            assert len(rows) == len(want_rows)
            assert all(np.array_equal(r, w) for r, w in zip(rows, want_rows))
        assert len(spaces) == len(want_spaces) == len(schur.partitions(n, d))
        assert all(np.array_equal(V, W) for V, W in zip(spaces, want_spaces))

    def test_memory_traced(self):
        # Z is built per span: with a dense identity, X_k and Z the (2, 10) build
        # peaked at 48.4 MiB; per span it is about 16.4 MiB, the 8 MiB of
        # eigenvectors and the 8 MiB of blocks cut from them
        tracemalloc.start()
        try:
            schur._jucys_murphy_blocks(2, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20


def _swap_rows_across_blocks(basis):
    U = basis.U.copy()
    first, last = basis.shapes[0], basis.shapes[-1]
    i, j = oracles.schur_index(basis, first, 0, 0), oracles.schur_index(basis, last, 0, 0)
    U[[i, j]] = U[[j, i]]
    return U


def _rotate_permutation_index(basis, angle=1e-4):
    shape = next(s for s in basis.shapes if basis.blocks[s][2] >= 2)
    i, j = oracles.schur_index(basis, shape, 0, 0), oracles.schur_index(basis, shape, 0, 1)
    U = basis.U.copy()
    c, s = math.cos(angle), math.sin(angle)
    U[i], U[j] = c * basis.U[i] - s * basis.U[j], s * basis.U[i] + c * basis.U[j]
    return U


def _gather_by_site_transposition(basis):
    s0 = schur._transposition(0, 1, basis.n)
    return basis.U @ oracles.permutation_operator(s0, basis.d)


class TestGeneratorCheck:
    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
    def test_bound_covers_every_permutation(self, d, n):
        basis = schur.build_schur_transform(d, n)
        residuals = schur.verify_schur_basis(basis)
        assert residuals == basis.residuals
        assert residuals["permutation_blocks"] >= loop_permutation_residual(basis)
        assert residuals["permutation_blocks"] <= 1e-8
        assert residuals["collective_blocks"] >= sampled_collective_residual(basis)

    @pytest.mark.parametrize("eps", [1e-12, 1e-11, 1e-10])
    @pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 4)])
    def test_bound_covers_perturbed_bases(self, d, n, eps):
        # U exp(i eps H) with |H|_F = 1 moves U by about eps and every block residual
        # off rounding; the derived collective bound must still cover the sampled one
        basis = schur.build_schur_transform(d, n)
        G = oracles.random_operator(basis.D, np.random.default_rng(n * d))
        H = G + G.conj().T
        values, vectors = np.linalg.eigh(H / np.linalg.norm(H))
        U = basis.U @ (vectors * np.exp(1j * eps * values)) @ vectors.conj().T
        perturbed = schur.SchurBasis.from_unitary(d, n, U)
        assert perturbed.residuals["collective_blocks"] >= sampled_collective_residual(perturbed)
        assert generator_bound(perturbed) >= dense_generator_residual(perturbed)

    @pytest.mark.parametrize("d,n", YOUNG_SIZES)
    def test_gathered_bound_covers_the_dense_residual(self, d, n):
        # bases from the Young matrix-unit build, off by rounding alone
        basis = oracles.build_schur_transform_young(d, n)
        assert generator_bound(basis) >= dense_generator_residual(basis)

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 4)])
    def test_collective_rotation_accepted(self, d, n):
        # any unitary on the collective factor of a block keeps a Schur basis
        basis = schur.build_schur_transform(d, n)
        shape = next(s for s in basis.shapes if min(basis.blocks[s][1:]) >= 2)
        U = basis.U.copy()
        c, s = math.cos(0.7), math.sin(0.7)
        for b in range(basis.blocks[shape][2]):
            i, j = oracles.schur_index(basis, shape, 0, b), oracles.schur_index(basis, shape, 1, b)
            U[i], U[j] = c * basis.U[i] - s * basis.U[j], s * basis.U[i] + c * basis.U[j]
        rotated = schur.SchurBasis.from_unitary(d, n, U)
        assert not np.allclose(rotated.U, basis.U)
        assert max(rotated.residuals.values()) <= 1e-10
        assert rotated.residuals["collective_blocks"] >= sampled_collective_residual(rotated)

    @pytest.mark.parametrize("mutate", [_swap_rows_across_blocks, _rotate_permutation_index,
                                        _gather_by_site_transposition])
    @pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 4)])
    def test_mutated_basis_rejected(self, d, n, mutate):
        basis = schur.build_schur_transform(d, n)
        U = mutate(basis)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(basis.D), atol=1e-12)
        mutant = dataclasses.replace(basis, U=U)
        assert loop_permutation_residual(mutant) > 1e-8
        with pytest.raises(schur.VerificationFailure):
            schur.verify_schur_basis(mutant)
        with pytest.raises(schur.VerificationFailure):
            schur.SchurBasis.from_unitary(d, n, U)

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
    def test_permutation_operator_homomorphism_on_generators(self, d, n):
        for p in itertools.permutations(range(n)):
            for j in range(n - 1):
                s = schur._transposition(j, j + 1, n)
                ps = tuple(p[s[i]] for i in range(n))
                assert np.array_equal(
                    oracles.permutation_operator(ps, d),
                    oracles.permutation_operator(p, d) @ oracles.permutation_operator(s, d),
                )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_representation_homomorphism_on_generators(self, n):
        shapes = tuple(schur.partitions(n, n))
        _, reps = oracles.young_representations(n, shapes)
        for p in itertools.permutations(range(n)):
            for j in range(n - 1):
                s = schur._transposition(j, j + 1, n)
                ps = tuple(p[s[i]] for i in range(n))
                for k in range(len(shapes)):
                    np.testing.assert_allclose(reps[ps][k], reps[p][k] @ reps[s][k],
                                               rtol=0, atol=1e-12)

    def test_cache_bytes_unchanged(self, tmp_path):
        # schur_d2_n3.bin was written by the Young matrix-unit build, now the oracle
        path = tmp_path / "schur_d2_n3.bin"
        cli.save_schur_cache(oracles.build_schur_transform_young(2, 3), path)
        assert path.read_bytes() == (GOLDEN / "schur_d2_n3.bin").read_bytes()

    def test_cache_load_matches_build(self):
        loaded = cli.load_schur_cache(GOLDEN / "schur_d2_n3.bin")
        built = oracles.build_schur_transform_young(2, 3)
        assert loaded.U.tobytes() == built.U.tobytes()
        assert (loaded.shapes, loaded.blocks) == (built.shapes, built.blocks)
        assert loaded.residuals == built.residuals
        assert not loaded.U.flags.writeable

    def test_from_unitary_checks_shape(self):
        with pytest.raises(core.DimensionMismatch):
            schur.SchurBasis.from_unitary(2, 3, np.eye(4, dtype=complex))
