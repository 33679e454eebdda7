import math

import numpy as np
import pytest
from scipy import stats

from qmtest import blackbox, core, pauli, schur

import oracles
from conftest import comp_basis_measurement, overlap_boxes


def swap_zero_fraction(overlap: float, copies: int, sampling: str, seed: int) -> float:
    box_m, box_n = overlap_boxes(overlap, sampling)
    assert blackbox.hidden_choi_overlap(box_m, box_n, 0) == pytest.approx(overlap)
    rng = np.random.default_rng(seed)
    return blackbox.paired_swap_zeros(box_m, box_n, 0, copies, rng) / copies


class TestSwapTest:
    def test_perfect_overlap_always_zero(self):
        for mode in blackbox.SAMPLING_MODES:
            assert swap_zero_fraction(1.0, 200, mode, seed=0) == 1.0

    def test_zero_overlap_is_fair_coin(self):
        n = 20_000
        for mode in blackbox.SAMPLING_MODES:
            frac0 = swap_zero_fraction(0.0, n, mode, seed=1)
            assert abs(frac0 - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_intermediate_overlap(self):
        n = 40_000
        for mode in blackbox.SAMPLING_MODES:
            frac0 = swap_zero_fraction(0.6, n, mode, seed=2)
            assert abs(frac0 - 0.68) < 3 * math.sqrt(0.68 * 0.32 / n)

    def test_aggregate_count_matches(self):
        # (1 + 0.6^2)/2 = 0.68 in both modes, from the same seed
        n = 50_000
        fracs = [swap_zero_fraction(0.6, n, mode, seed=3) for mode in blackbox.SAMPLING_MODES]
        for frac0 in fracs:
            assert abs(frac0 - 0.68) < 3 * math.sqrt(0.68 * 0.32 / n)

    def test_rejects_bad_overlap(self):
        # the overlap is undefined for a vanishing operator, and two boxes
        # queried side by side must share one sampling mode
        m = comp_basis_measurement(2)
        padded = core.Measurement(operators=m.operators + (np.zeros((2, 2)),),
                                  completeness_residual=m.completeness_residual)
        box = blackbox.BlackBox(padded, seed=0)
        with pytest.raises(core.ZeroOperator):
            blackbox.paired_swap_zeros(box, box, 2, 10, np.random.default_rng(0))
        box_m, _ = overlap_boxes(0.5, "aggregate")
        _, box_n = overlap_boxes(0.5, "per_trial")
        with pytest.raises(ValueError):
            blackbox.paired_swap_zeros(box_m, box_n, 0, 10, np.random.default_rng(0))


class TestAggregateMultinomial:
    def test_zero_draws(self):
        out = blackbox.aggregate_multinomial(0, [0.2, 0.8], np.random.default_rng(0))
        np.testing.assert_array_equal(out, [0, 0])

    def test_point_mass(self):
        out = blackbox.aggregate_multinomial(37, [1.0], np.random.default_rng(0))
        np.testing.assert_array_equal(out, [37])

    def test_counts_sum(self):
        rng = np.random.default_rng(5)
        out = blackbox.aggregate_multinomial(10_000, [0.1, 0.2, 0.3, 0.4], rng)
        assert out.sum() == 10_000

    def test_huge_count(self):
        rng = np.random.default_rng(6)
        out = blackbox.aggregate_multinomial(3_000_000_000, [0.5, 0.5], rng)
        assert out.sum() == 3_000_000_000
        assert abs(out[0] / 3e9 - 0.5) < 1e-4

    def test_chi_square_against_per_trial(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        rng = np.random.default_rng(7)
        agg = blackbox.aggregate_multinomial(10_000, probs, rng)
        per = np.bincount(rng.choice(4, size=10_000, p=probs), minlength=4)
        _, pvalue, _, _ = stats.chi2_contingency(np.stack([agg, per]))
        assert pvalue > 0.001

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            blackbox.aggregate_multinomial(10, [0.5, 0.2], np.random.default_rng(0))


class TestChoiQueries:
    def test_trivial_box_always_first_outcome(self):
        for mode in blackbox.SAMPLING_MODES:
            box = blackbox.BlackBox(core.validate_measurement([np.eye(3)]), seed=0,
                                    sampling=mode)
            np.testing.assert_array_equal(box.sample_outcome_counts(50), [50])
            assert box.query_count == 50

    def test_stabilizer_box_balanced(self):
        meas = pauli.stabilizer_measurement((1, 0), (0, 1))
        box = blackbox.BlackBox(meas, seed=1, d=2)
        outcomes = box.query_batch(100_000)
        frac = (outcomes == 0).mean()
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / 100_000)
        assert box.query_count == 100_000

    def test_seed_reproducibility(self):
        meas = comp_basis_measurement(4)
        seq1 = blackbox.BlackBox(meas, seed=9).query_batch(100)
        seq2 = blackbox.BlackBox(meas, seed=9).query_batch(100)
        np.testing.assert_array_equal(seq1, seq2)

    def test_aggregate_counting(self):
        box = blackbox.BlackBox(comp_basis_measurement(4), seed=2)
        counts = box.sample_outcome_counts(1000)
        assert counts.sum() == 1000
        assert box.query_count == 1000


class TestPauliBasisMeasurement:
    def test_projector_labels(self):
        meas = pauli.stabilizer_measurement((1, 1), (0, 0))
        box = blackbox.BlackBox(meas, seed=4, d=2)
        idx_id = pauli.PauliLabel((0, 0), (0, 0)).index()
        idx_ab = pauli.PauliLabel((1, 1), (0, 0)).index()
        counts = box.sample_label_counts(0, 50_000)
        assert set(np.nonzero(counts)[0]) == {idx_id, idx_ab}
        assert abs(counts[idx_id] / 50_000 - 0.5) < 3 * math.sqrt(0.25 / 50_000)

    def test_unitary_label_point_mass(self):
        meas = core.validate_measurement([pauli.pauli_matrix(pauli.PauliLabel((1,), (0,)))])
        idx = pauli.PauliLabel((1,), (0,)).index()
        for mode in blackbox.SAMPLING_MODES:
            box = blackbox.BlackBox(meas, seed=5, d=2, sampling=mode)
            assert np.flatnonzero(box.sample_label_counts(0, 40)).tolist() == [idx]
            assert np.flatnonzero(box.sample_joint_label_counts(40)).tolist() == [idx]

    def test_joint_law_of_total_probability(self):
        rng = np.random.default_rng(11)
        meas = oracles.random_measurement(4, 3, rng)
        box = blackbox.BlackBox(meas, seed=12, d=2)
        draws = 100_000
        counts = np.zeros(16)
        outcomes = box.query_batch(draws)
        for i in np.unique(outcomes):
            hits = int((outcomes == i).sum())
            counts += np.bincount(box.label_batch(int(i), hits), minlength=16)
        xi = pauli.xi_distribution(meas, 2)
        for idx in range(16):
            sigma = math.sqrt(max(xi[idx] * (1 - xi[idx]), 1e-12) / draws)
            assert abs(counts[idx] / draws - xi[idx]) < max(3 * sigma, 1e-3)

    def test_aggregate_joint_counts(self):
        meas = pauli.stabilizer_measurement((1, 1, 1), (0, 0, 0))
        box = blackbox.BlackBox(meas, seed=13, d=2)
        counts = box.sample_joint_label_counts(10_000)
        assert counts.sum() == 10_000
        assert box.query_count == 10_000
        nz = set(np.nonzero(counts)[0])
        assert nz == {0, pauli.PauliLabel((1, 1, 1), (0, 0, 0)).index()}


class TestSignMeasurement:
    def test_stabilizer_branches_deterministic(self):
        label = pauli.PauliLabel((1, 0), (0, 1))
        meas = pauli.stabilizer_measurement(label.x, label.z)
        box = blackbox.BlackBox(meas, seed=6, d=2)
        assert box.sign_plus_prob(0, label) == pytest.approx(1.0)
        assert box.sign_plus_prob(1, label) == pytest.approx(0.0)
        for mode in blackbox.SAMPLING_MODES:
            box = blackbox.BlackBox(meas, seed=6, d=2, sampling=mode)
            assert box.sample_failure_count(50, 1.0 - box.sign_plus_prob(0, label)) == 0
            assert box.sample_failure_count(50, box.sign_plus_prob(1, label)) == 0
            assert box.sample_failure_count(50, 1.0) == 50

    def test_uniform_operator_coin(self):
        meas = core.validate_measurement([np.eye(2) / math.sqrt(2), np.eye(2) / math.sqrt(2)])
        box = blackbox.BlackBox(meas, seed=7, d=2)
        label = pauli.PauliLabel((0,), (1,))
        assert box.sign_plus_prob(0, label) == pytest.approx(0.5)


class TestSchurIteration:
    def test_invariant_always_passes(self):
        basis = schur.build_schur_transform(2, 2)
        iso = schur.isotypic_projectors(basis)
        box = blackbox.BlackBox(iso, seed=8, d=2)
        assert box.schur_audit() == pytest.approx(1.0)
        assert all(box.schur_iteration() for _ in range(100))
        assert box.query_count == 100

    def test_trivial_always_passes(self):
        box = blackbox.BlackBox(core.validate_measurement([np.eye(4)]), seed=9, d=2)
        assert box.schur_audit() == pytest.approx(1.0)

    def test_compbasis_three_quarters(self):
        box = blackbox.BlackBox(comp_basis_measurement(4), seed=10, d=2)
        assert box.schur_audit() == pytest.approx(0.75)
        draws = 20_000
        passes = sum(box.schur_iteration() for _ in range(draws))
        assert abs(passes / draws - 0.75) < 3 * math.sqrt(0.75 * 0.25 / draws)

    def test_audit_events_sum_to_pass_prob(self, rng):
        # the per-(shape, outcome) event probabilities v/D |hat_lambda(M_i)|^2
        # of the Schur basis add up to the twirl's pass probability
        basis = schur.build_schur_transform(2, 3)
        meas = oracles.random_measurement(8, 3, rng)
        events = {}
        for i, op in enumerate(meas.operators):
            for shape, collective in schur.block_decompose(op, basis).per_lambda_hat.items():
                _, _, v = basis.blocks[shape]
                events[(shape, i)] = v / basis.D * float(np.vdot(collective, collective).real)
        box = blackbox.BlackBox(meas, seed=11, d=2)
        assert sum(events.values()) == pytest.approx(box.schur_audit(), abs=1e-12)
        assert box.schur_audit() < 1.0

    def test_audit_cached_and_needs_d(self):
        box = blackbox.BlackBox(comp_basis_measurement(4), seed=12, d=2)
        assert box.schur_audit() is box.schur_audit()
        with pytest.raises(ValueError, match="construct the box with d"):
            blackbox.BlackBox(comp_basis_measurement(4), seed=12).schur_audit()


class TestHiddenOverlap:
    def test_distinct_stabilizers(self):
        a = blackbox.BlackBox(pauli.stabilizer_measurement((0,), (1,)), seed=0)
        b = blackbox.BlackBox(pauli.stabilizer_measurement((1,), (0,)), seed=0)
        assert blackbox.hidden_choi_overlap(a, b, 0) == pytest.approx(0.5)

    def test_paired_swap_zeros_statistics(self):
        # overlap 1/2 gives zero-outcome probability (1 + 1/4)/2 = 0.625
        rng = np.random.default_rng(21)
        copies = 100_000
        for mode in blackbox.SAMPLING_MODES:
            a = blackbox.BlackBox(pauli.stabilizer_measurement((0,), (1,)), seed=0, sampling=mode)
            b = blackbox.BlackBox(pauli.stabilizer_measurement((1,), (0,)), seed=0, sampling=mode)
            zeros = blackbox.paired_swap_zeros(a, b, 0, copies, rng)
            assert abs(zeros / copies - 0.625) < 3 * math.sqrt(0.625 * 0.375 / copies)

    def test_identical(self):
        m = pauli.stabilizer_measurement((1,), (1,))
        a = blackbox.BlackBox(m, seed=0)
        b = blackbox.BlackBox(m, seed=1)
        assert blackbox.hidden_choi_overlap(a, b, 1) == pytest.approx(1.0)

    def test_zero_operator(self):
        m = comp_basis_measurement(2)
        padded = core.Measurement(
            operators=m.operators + (np.zeros((2, 2)),),
            completeness_residual=m.completeness_residual,
        )
        a = blackbox.BlackBox(padded, seed=0)
        with pytest.raises(core.ZeroOperator):
            blackbox.hidden_choi_overlap(a, a, 2)


class TestSamplingLayer:
    def test_sampling_mode_checked(self):
        with pytest.raises(ValueError):
            blackbox.BlackBox(comp_basis_measurement(2), sampling="bulk")

    def test_chunk_boundary(self):
        # per-trial counts over 3 chunks and a remainder equal one whole-array
        # draw from the same seed, and leave the generator in the same state
        L = 3 * blackbox.CHUNK + 5
        meas = comp_basis_measurement(4)
        box = blackbox.BlackBox(meas, seed=31, d=2, sampling="per_trial")
        sizes = []

        def recorded(fn):
            def wrapper(*args):
                sizes.append(args[-1])
                return fn(*args)
            return wrapper

        box.query_batch = recorded(box.query_batch)
        box.label_batch = recorded(box.label_batch)
        outcomes = box.sample_outcome_counts(L)
        labels = box.sample_label_counts(1, L)
        failures = box.sample_failure_count(L, 0.3)

        whole = blackbox.BlackBox(meas, seed=31, d=2, sampling="per_trial")
        np.testing.assert_array_equal(outcomes, np.bincount(whole.query_batch(L), minlength=4))
        np.testing.assert_array_equal(labels, np.bincount(whole.label_batch(1, L), minlength=16))
        assert failures == int((whole.rng.random(L) < 0.3).sum())
        assert box.rng.bit_generator.state == whole.rng.bit_generator.state
        assert box.query_count == whole.query_count == L
        assert max(sizes) == blackbox.CHUNK
        assert sum(sizes) == 2 * L

    def test_sample_budget_exceeded(self):
        too_many = blackbox.MAX_DRAWS + 1
        for mode in blackbox.SAMPLING_MODES:
            box = blackbox.BlackBox(comp_basis_measurement(4), seed=0, d=2, sampling=mode)
            state = box.rng.bit_generator.state
            for draw in (lambda: box.sample_outcome_counts(too_many),
                         lambda: box.sample_label_counts(0, too_many),
                         lambda: box.sample_joint_label_counts(too_many),
                         lambda: box.sample_failure_count(too_many, 0.5),
                         lambda: box.sample_first_failure(too_many),
                         lambda: blackbox.paired_swap_zeros(box, box, 0, too_many, box.rng)):
                with pytest.raises(blackbox.SampleBudgetExceeded):
                    draw()
            assert box.rng.bit_generator.state == state
            assert box.query_count == 0

    def test_first_failure_charges_iterations_run(self):
        iso = schur.isotypic_projectors(schur.build_schur_transform(2, 2))
        for mode in blackbox.SAMPLING_MODES:
            box = blackbox.BlackBox(iso, seed=8, d=2, sampling=mode)
            assert box.sample_first_failure(30) == 31
            assert box.query_count == 30
            for s in range(20):
                box = blackbox.BlackBox(comp_basis_measurement(4), seed=s, d=2, sampling=mode)
                first = box.sample_first_failure(5)
                assert 1 <= first <= 6
                assert box.query_count == min(first, 5)

    def test_per_trial_first_failure_matches_single_draws(self, monkeypatch):
        # the chunked scan finds the failure that one-at-a-time
        # ``schur_iteration`` calls would, across chunk boundaries too
        monkeypatch.setattr(blackbox, "CHUNK", 7)
        basis = schur.build_schur_transform(2, 2)
        for meas, L in ((comp_basis_measurement(4), 60), (schur.isotypic_projectors(basis), 30)):
            for s in range(40):
                box = blackbox.BlackBox(meas, seed=s, d=2, sampling="per_trial")
                first = box.sample_first_failure(L)
                single = blackbox.BlackBox(meas, seed=s, d=2)
                expected = next((j for j in range(1, L + 1) if not single.schur_iteration()),
                                L + 1)
                assert first == expected
                assert box.query_count == single.query_count == min(expected, L)

    def test_per_trial_first_failure_budget(self):
        box = blackbox.BlackBox(comp_basis_measurement(4), seed=0, d=2, sampling="per_trial")
        state = box.rng.bit_generator.state
        with pytest.raises(blackbox.SampleBudgetExceeded):
            box.sample_first_failure(2**63)
        assert box.rng.bit_generator.state == state
        assert box.query_count == 0
