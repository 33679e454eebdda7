import itertools
import math

import numpy as np
import pytest

from qmtest import core, schur

from conftest import comp_basis_measurement


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


class TestPermutationOperator:
    def test_identity(self):
        np.testing.assert_allclose(schur.permutation_operator((0, 1), 2), np.eye(4))

    def test_swap(self):
        swap = schur.permutation_operator((1, 0), 2)
        np.testing.assert_allclose(swap @ swap, np.eye(4))
        psi = np.kron([1, 0], [0, 1]).astype(complex)
        np.testing.assert_allclose(swap @ psi, np.kron([0, 1], [1, 0]))

    def test_three_cycle_cubes_to_identity(self):
        cyc = schur.permutation_operator((1, 2, 0), 2)
        np.testing.assert_allclose(np.linalg.matrix_power(cyc, 3), np.eye(8))

    def test_homomorphism(self, rng):
        for _ in range(10):
            p = tuple(rng.permutation(3))
            q = tuple(rng.permutation(3))
            comp = tuple(p[q[i]] for i in range(3))
            lhs = schur.permutation_operator(p, 2) @ schur.permutation_operator(q, 2)
            np.testing.assert_allclose(lhs, schur.permutation_operator(comp, 2))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            schur.permutation_operator((0, 0, 1), 2)


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
        sym_slice = basis22.block_slice((2,))
        singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
        coeffs = U @ singlet
        assert np.linalg.norm(coeffs[sym_slice]) == pytest.approx(0.0, abs=1e-10)
        anti_slice = basis22.block_slice((1, 1))
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

    def test_triples_enumeration(self, basis22):
        assert basis22.triples[0] == ((2,), 0, 0)
        assert len(basis22.triples) == 4
        assert basis22.index_of((1, 1), 0, 0) == 3


class TestBlockDecompose:
    def test_permutation_invariant_operator(self, basis23, rng):
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        sym = sum(
            schur.permutation_operator(p, 2) @ A @ schur.permutation_operator(p, 2).T
            for p in itertools.permutations(range(3))
        ) / 6
        bd = schur.block_decompose(sym, basis23)
        assert np.linalg.norm(bd.tilde) <= 1e-8
        assert np.linalg.norm(bd.bar) <= 1e-8

    def test_projector_01(self, basis22):
        A = np.zeros((4, 4), dtype=complex)
        A[1, 1] = 1.0
        bd = schur.block_decompose(A, basis22)
        assert np.vdot(bd.hat, bd.hat).real == pytest.approx(0.5, abs=1e-12)
        assert np.vdot(bd.bar, bd.bar).real == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.norm(bd.tilde) == pytest.approx(0.0, abs=1e-12)

    def test_permutation_image(self, basis23):
        # a permutation operator decomposes blockwise with invariant part
        # tr(V(tau))/v per block
        tau = (1, 2, 0)
        bd = schur.block_decompose(schur.permutation_operator(tau, 2), basis23)
        for shape, collective in bd.per_lambda_hat.items():
            _, w, v = basis23.blocks[shape]
            char = np.trace(basis23.rep_matrix(tau, shape))
            np.testing.assert_allclose(collective, np.eye(w) * char / v, atol=1e-10)

    def test_parts_reconstruct_and_orthogonal(self, basis23, rng):
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        bd = schur.block_decompose(A, basis23)
        rotated = basis23.U @ A @ basis23.U.conj().T
        np.testing.assert_allclose(bd.hat + bd.tilde + bd.bar, rotated, atol=1e-10)
        assert abs(np.vdot(bd.hat, bd.tilde)) <= 1e-10
        assert abs(np.vdot(bd.hat, bd.bar)) <= 1e-10
        assert abs(np.vdot(bd.tilde, bd.bar)) <= 1e-10
        assert (
            np.vdot(bd.hat, bd.hat).real
            + np.vdot(bd.tilde, bd.tilde).real
            + np.vdot(bd.bar, bd.bar).real
        ) == pytest.approx(core.frobenius_norm(A) ** 2, abs=1e-10)

    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3)])
    def test_invariance_characterization(self, d, n, rng):
        # commuting with every permutation operator <=> tilde and bar vanish;
        # exercised on raw random operators and on their group averages
        basis = schur.build_schur_transform(d, n)
        D = d**n
        perms = [schur.permutation_operator(p, d) for p in itertools.permutations(range(n))]
        for i in range(50):
            A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
            if i % 2:
                A = sum(P @ A @ P.T for P in perms) / len(perms)
            commutes = all(np.linalg.norm(P @ A - A @ P) <= 1e-10 for P in perms)
            bd = schur.block_decompose(A, basis)
            vanishes = (
                np.linalg.norm(bd.tilde) <= 1e-8 and np.linalg.norm(bd.bar) <= 1e-8
            )
            assert commutes == vanishes

    def test_hat_norm_below_group_average(self, basis23, rng):
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        avg = sum(
            schur.permutation_operator(p, 2) @ A @ schur.permutation_operator(p, 2).T
            for p in itertools.permutations(range(3))
        ) / 6
        hat = schur.block_decompose(A, basis23).hat
        assert np.vdot(hat, hat).real <= np.vdot(avg, avg).real + 1e-10


class TestPermInvDefect:
    def test_invariant_measurement(self, basis22):
        iso = schur.isotypic_projectors(basis22)
        assert schur.perminv_defect(iso, basis22) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_measurement(self, basis22):
        triv = core.validate_measurement([np.eye(4)])
        assert schur.perminv_defect(triv, basis22) == pytest.approx(0.0, abs=1e-12)

    def test_compbasis_defect(self, basis22):
        assert schur.perminv_defect(comp_basis_measurement(4), basis22) == pytest.approx(
            0.25, abs=1e-12
        )


class TestIsotypicProjectors:
    def test_projector_properties(self, basis23):
        iso = schur.isotypic_projectors(basis23)
        assert len(iso) == len(basis23.shapes)
        for op, shape in zip(iso.operators, basis23.shapes):
            np.testing.assert_allclose(op @ op, op, atol=1e-10)
            _, w, v = basis23.blocks[shape]
            assert np.trace(op).real == pytest.approx(w * v, abs=1e-10)

    def test_commutes_with_permutations(self, basis23):
        iso = schur.isotypic_projectors(basis23)
        for p in itertools.permutations(range(3)):
            tau = schur.permutation_operator(p, 2)
            for op in iso.operators:
                assert np.linalg.norm(tau @ op - op @ tau) <= 1e-10
