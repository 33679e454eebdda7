import inspect
import math
import mmap
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qmtest import blackbox, core, pauli, schur

import oracles
from conftest import comp_basis_measurement, overlap_boxes


def outcome_law(meas: core.Measurement) -> np.ndarray:
    """The law a box draws outcomes from: ``Measurement.outcome_probs``, normalized."""
    p = meas.outcome_probs()
    return p / p.sum()


def swap_zero_fraction(overlap: float, copies: int, sampling: str, seed: int) -> float:
    box_m, box_n = overlap_boxes(overlap, sampling)
    hidden = core.unit_overlap(box_m._hidden.operator(0), box_n._hidden.operator(0))
    assert abs(hidden) == pytest.approx(overlap)
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
        padded = core.Measurement(operators=np.concatenate([m.operators, np.zeros((1, 2, 2))]),
                                  completeness_residual=m.completeness_residual)
        box = blackbox.BlackBox(padded, seed=0)
        with pytest.raises(core.ZeroOperator):
            blackbox.paired_swap_zeros(box, box, 2, 10, np.random.default_rng(0))
        box_m, _ = overlap_boxes(0.5, "aggregate")
        _, box_n = overlap_boxes(0.5, "per_trial")
        with pytest.raises(ValueError):
            blackbox.paired_swap_zeros(box_m, box_n, 0, 10, np.random.default_rng(0))


class TestAggregateMultinomial:
    """``draw_counts`` in aggregate mode: one exact multinomial draw."""

    def test_zero_draws(self):
        for mode in blackbox.SAMPLING_MODES:
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            out = blackbox.draw_counts(0, [0.2, 0.8], rng, mode)
            np.testing.assert_array_equal(out, [0, 0])
            assert rng.bit_generator.state == state

    def test_point_mass(self):
        for mode in blackbox.SAMPLING_MODES:
            out = blackbox.draw_counts(37, [1.0], np.random.default_rng(0), mode)
            np.testing.assert_array_equal(out, [37])

    def test_counts_sum(self):
        rng = np.random.default_rng(5)
        out = blackbox.draw_counts(10_000, [0.1, 0.2, 0.3, 0.4], rng, "aggregate")
        assert out.sum() == 10_000

    def test_huge_count(self):
        rng = np.random.default_rng(6)
        out = blackbox.draw_counts(3_000_000_000, [0.5, 0.5], rng, "aggregate")
        assert out.sum() == 3_000_000_000
        assert abs(out[0] / 3e9 - 0.5) < 1e-4

    def test_chi_square_against_per_trial(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        rng = np.random.default_rng(7)
        agg = blackbox.draw_counts(10_000, probs, rng, "aggregate")
        per = np.bincount(rng.choice(4, size=10_000, p=probs), minlength=4)
        _, pvalue, _, _ = stats.chi2_contingency(np.stack([agg, per]))
        assert pvalue > 0.001

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            blackbox.draw_counts(10, [0.5, 0.2], np.random.default_rng(0), "aggregate")


class TestChoiQueries:
    def test_trivial_box_always_first_outcome(self):
        for mode in blackbox.SAMPLING_MODES:
            box = blackbox.BlackBox(core.validate_measurement([np.eye(3)]), seed=0,
                                    sampling=mode)
            np.testing.assert_array_equal(box.sample_outcome_counts(50), [50])
            assert box.query_count == 50

    def test_stabilizer_box_balanced(self):
        meas = pauli.stabilizer_measurement((1, 0), (0, 1))
        box = blackbox.BlackBox(meas, seed=1, d=2, sampling="per_trial")
        counts = box.sample_outcome_counts(100_000)
        assert counts.sum() == 100_000
        assert abs(counts[0] / 100_000 - 0.5) < 3 * math.sqrt(0.25 / 100_000)
        assert box.query_count == 100_000
        expected = oracles.per_trial_counts(100_000, outcome_law(meas),
                                            np.random.default_rng(1), blackbox.CHUNK)
        np.testing.assert_array_equal(counts, expected)

    def test_seed_reproducibility(self):
        meas = comp_basis_measurement(4)
        for mode in blackbox.SAMPLING_MODES:
            seq1 = blackbox.BlackBox(meas, seed=9, sampling=mode).sample_outcome_counts(100)
            seq2 = blackbox.BlackBox(meas, seed=9, sampling=mode).sample_outcome_counts(100)
            np.testing.assert_array_equal(seq1, seq2)

    def test_batch_names_are_the_samplers(self):
        # the traced benchmark wraps query_batch and label_batch and reads
        # their L and T; they are the sample_* methods, in either mode
        assert blackbox.BlackBox.query_batch is blackbox.BlackBox.sample_outcome_counts
        assert blackbox.BlackBox.label_batch is blackbox.BlackBox.sample_label_counts
        assert "L" in inspect.signature(blackbox.BlackBox.query_batch).parameters
        assert "T" in inspect.signature(blackbox.BlackBox.label_batch).parameters

    def test_aggregate_counting(self):
        box = blackbox.BlackBox(comp_basis_measurement(4), seed=2)
        counts = box.sample_outcome_counts(1000)
        assert counts.sum() == 1000
        assert box.query_count == 1000


class TestPauliBasisMeasurement:
    def test_projector_labels(self):
        meas = pauli.stabilizer_measurement((1, 1), (0, 0))
        box = blackbox.BlackBox(meas, seed=4, d=2)
        idx_id = oracles.label_index(pauli.PauliLabel((0, 0), (0, 0)))
        idx_ab = oracles.label_index(pauli.PauliLabel((1, 1), (0, 0)))
        counts = box.sample_label_counts(0, 50_000)
        assert set(np.nonzero(counts)[0]) == {idx_id, idx_ab}
        assert abs(counts[idx_id] / 50_000 - 0.5) < 3 * math.sqrt(0.25 / 50_000)

    def test_unitary_label_point_mass(self):
        meas = core.validate_measurement([pauli.pauli_matrix(pauli.PauliLabel((1,), (0,)))])
        idx = oracles.label_index(pauli.PauliLabel((1,), (0,)))
        for mode in blackbox.SAMPLING_MODES:
            box = blackbox.BlackBox(meas, seed=5, d=2, sampling=mode)
            assert np.flatnonzero(box.sample_label_counts(0, 40)).tolist() == [idx]
            assert np.flatnonzero(box.sample_joint_label_counts(40)).tolist() == [idx]

    def test_joint_law_of_total_probability(self):
        rng = np.random.default_rng(11)
        meas = oracles.random_measurement(4, 3, rng)
        box = blackbox.BlackBox(meas, seed=12, d=2, sampling="per_trial")
        draws = 100_000
        counts = np.zeros(16, dtype=np.int64)
        expected = np.zeros(16, dtype=np.int64)
        outcomes = box.sample_outcome_counts(draws)
        stream = np.random.default_rng(12)
        np.testing.assert_array_equal(
            outcomes, oracles.per_trial_counts(draws, outcome_law(meas), stream, blackbox.CHUNK))
        for i in np.flatnonzero(outcomes):
            hits = int(outcomes[i])
            counts += box.sample_label_counts(int(i), hits)
            expected += oracles.per_trial_counts(hits, pauli.q_distribution(meas.operators[i], 2),
                                                 stream, blackbox.CHUNK)
        np.testing.assert_array_equal(counts, expected)
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
        assert nz == {0, oracles.label_index(pauli.PauliLabel((1, 1, 1), (0, 0, 0)))}

    @pytest.mark.parametrize("L", [1, 50_000, blackbox.CHUNK + 7])
    def test_per_trial_joint_draw_is_one_uniform_per_round(self, L):
        # each round's label is drawn from xi = sum_i p_i q_i with one uniform,
        # as choice(p=xi) draws it, and the stream is left where choice leaves it
        meas = oracles.random_measurement(4, 3, np.random.default_rng(21))
        xi = pauli.xi_distribution(meas, 2)
        box = blackbox.BlackBox(meas, seed=22, d=2, sampling="per_trial")
        stream = np.random.default_rng(22)
        np.testing.assert_array_equal(box.sample_joint_label_counts(L),
                                      oracles.per_trial_counts(L, xi, stream, blackbox.CHUNK))
        assert box.rng.bit_generator.state == stream.bit_generator.state
        assert box.query_count == L

    def test_aggregate_joint_draw_is_one_multinomial(self):
        meas = oracles.random_measurement(4, 3, np.random.default_rng(23))
        xi = pauli.xi_distribution(meas, 2)
        box = blackbox.BlackBox(meas, seed=24, d=2)
        np.testing.assert_array_equal(box.sample_joint_label_counts(10_000),
                                      np.random.default_rng(24).multinomial(10_000, xi / xi.sum()))


class TestReferenceOverlaps:
    def test_unit_overlaps_with_zero_padding(self):
        # tr(A_j^dag M_j) / (|A_j| |M_j|) for each outcome j < k, and 0 where a
        # measurement has fewer than k outcomes
        rng = np.random.default_rng(25)
        hidden = oracles.random_measurement(4, 3, rng)
        box = blackbox.BlackBox(hidden, seed=0)
        k = 4
        for member in (oracles.random_measurement(4, 2, rng), hidden,
                       oracles.random_measurement(4, 4, rng)):
            expected = []
            for j in range(k):
                a, m = member.operator(j), hidden.operator(j)
                na, nm = float(np.linalg.norm(a)), float(np.linalg.norm(m))
                expected.append(0.0 if min(na, nm) < 1e-14 else
                                complex(np.vdot(a, m)) / (na * nm))
            overlaps = box.reference_overlaps(member, k)
            assert overlaps == expected
            assert overlaps[3] == 0.0
        assert box.reference_overlaps(hidden, 3) == pytest.approx([1.0] * 3)


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

    def test_matches_the_dense_formula(self, rng):
        # every label at n <= 3, then random labels (Y sites included) to n = 6
        cases = [(n, lbl) for n in (1, 2, 3) for lbl in oracles.all_labels(2, n)]
        for n in (4, 5, 6):
            for _ in range(10):
                x, z = rng.integers(0, 2, size=(2, n))
                cases.append((n, pauli.PauliLabel(tuple(map(int, x)), tuple(map(int, z)))))
        boxes = {n: blackbox.BlackBox(oracles.random_measurement(2**n, 2, rng), seed=9, d=2)
                 for n in range(1, 7)}
        for n, lbl in cases:
            box = boxes[n]
            for i in (0, 1):
                dense = oracles.sign_plus_prob_dense(box._hidden, i, lbl)
                for got in (box.sign_plus_prob(i, lbl), pauli.sign_plus_prob(box._hidden, i, lbl)):
                    assert abs(got - dense) <= 1e-14

    def test_qubit_labels_on_every_site_only(self):
        # the sign law is a qubit Pauli's on all sites; anything else is a typed
        # dimension mismatch, from the law and through the box alike
        qutrit = core.validate_measurement([np.eye(3)])
        with pytest.raises(core.DimensionMismatch):
            blackbox.BlackBox(qutrit, seed=0, d=3).sign_plus_prob(
                0, pauli.PauliLabel((1,), (0,), 3))
        qubits = pauli.stabilizer_measurement((1, 0), (0, 1))
        with pytest.raises(core.DimensionMismatch):
            pauli.sign_plus_prob(qubits, 0, pauli.PauliLabel((1,), (0,)))
        assert issubclass(core.DimensionMismatch, core.QmtestError)


class TestSchurIteration:
    def test_invariant_always_passes(self):
        iso = schur.isotypic_projectors(2, 2)
        box = blackbox.BlackBox(iso, seed=8, d=2)
        assert box.schur_audit() == pytest.approx(1.0)
        assert all(box.schur_iteration() for _ in range(100))
        assert box.query_count == 100

    def test_trivial_always_passes(self):
        box = blackbox.BlackBox(core.validate_measurement([np.eye(4)]), seed=9, d=2)
        assert box.schur_audit() == pytest.approx(1.0)

    def test_compbasis_three_quarters(self):
        box = blackbox.BlackBox(comp_basis_measurement(4), seed=10, d=2)
        for got in (box.schur_audit(), schur.symmetric_mass(comp_basis_measurement(4), 2, 2)):
            assert got == pytest.approx(0.75)
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
    """The swap test's overlap is |``core.unit_overlap``| of the two outcomes."""

    def test_distinct_stabilizers(self):
        a = pauli.stabilizer_measurement((0,), (1,))
        b = pauli.stabilizer_measurement((1,), (0,))
        assert abs(core.unit_overlap(a.operator(0), b.operator(0))) == pytest.approx(0.5)

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
        assert abs(core.unit_overlap(m.operator(1), m.operator(1))) == pytest.approx(1.0)

    def test_zero_operator(self):
        m = comp_basis_measurement(2)
        padded = core.Measurement(
            operators=np.concatenate([m.operators, np.zeros((1, 2, 2))]),
            completeness_residual=m.completeness_residual,
        )
        a = blackbox.BlackBox(padded, seed=0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(core.ZeroOperator):
            blackbox.paired_swap_zeros(a, a, 2, 10, rng)
        assert rng.bit_generator.state == state


class TestVanishingOperator:
    """One rule, ``core.vanishes`` (p(M_i) < 1e-14), decides a vanishing outcome
    for the label law, the sign law, the swap test and the overlap alike."""

    @pytest.mark.parametrize("D", [4, 256])
    @pytest.mark.parametrize("t", [1e-16, 1e-12])
    def test_every_caller_agrees(self, t, D):
        # [sqrt(1 - t) I, sqrt(t) I]: p(M_1) = t at every D, while |M_1|^2 = t D
        # and |M_1| grow with D, so a rule on either would split the callers
        meas = core.validate_measurement([math.sqrt(1 - t) * np.eye(D), math.sqrt(t) * np.eye(D)])
        small = meas.operators[1]
        box = blackbox.BlackBox(meas, seed=0, d=2)
        n = D.bit_length() - 1
        label = pauli.PauliLabel((0,) * n, (1,) + (0,) * (n - 1))
        calls = {"label law": lambda: pauli.q_distribution(small, 2)[0],
                 "sign law": lambda: box.sign_plus_prob(1, label),
                 "swap test": lambda: blackbox.paired_swap_zeros(box, box, 1, 10,
                                                                 np.random.default_rng(0))}
        vanishing = t < 1e-14
        assert core.vanishes(small) is vanishing
        if vanishing:
            for call in calls.values():
                with pytest.raises(core.ZeroOperator):
                    call()
            assert core.unit_overlap(small, small) == 0.0
        else:
            values = {name: call() for name, call in calls.items()}
            assert values == {"label law": pytest.approx(1.0), "sign law": pytest.approx(0.5),
                              "swap test": 10}
            assert core.unit_overlap(small, small) == pytest.approx(1.0)


class TestDrawPoint:
    """Each sampler draws exactly its law through ``draw_counts`` and charges
    exactly its stage's queries."""

    @pytest.mark.parametrize("mode", blackbox.SAMPLING_MODES)
    @pytest.mark.parametrize("sampler,charged", [("outcome", True), ("label", False),
                                                 ("joint", True), ("sign failure", False)])
    def test_draws_its_law_and_charges_its_stage(self, monkeypatch, mode, sampler, charged):
        # a fixed law that sums to exactly 1, so normalizing it keeps its bits
        law = np.array([0.125, 0.375, 0.5])
        monkeypatch.setattr(core.Measurement, "outcome_probs", lambda self: law)
        monkeypatch.setattr(pauli, "q_distribution", lambda op, d: law)
        monkeypatch.setattr(pauli, "xi_distribution", lambda meas, d: law)
        box = blackbox.BlackBox(comp_basis_measurement(4), seed=41, d=2, sampling=mode)
        box.query_count = before = 7
        L, p_fail = 5000, 0.3
        twin = np.random.default_rng(41)
        if sampler == "sign failure":
            got = box.sample_failure_count(L, p_fail)
            expected = int(blackbox.draw_counts(L, (p_fail, 1.0 - p_fail), twin, mode)[0])
        else:
            got = {"outcome": lambda: box.sample_outcome_counts(L),
                   "label": lambda: box.sample_label_counts(2, L),
                   "joint": lambda: box.sample_joint_label_counts(L)}[sampler]()
            expected = blackbox.draw_counts(L, law, twin, mode)
        np.testing.assert_array_equal(got, expected)
        assert box.rng.bit_generator.state == twin.bit_generator.state
        assert box.query_count - before == (L if charged else 0)

    def test_box_only_draws_and_charges(self):
        # no operator arithmetic in the box, and one line that charges queries
        source = inspect.getsource(blackbox)
        assert not [name for name in ("_pauli_action", "twirl", "vdot", "linalg")
                    if name in source]
        assert source.count("query_count +=") == 1


class TestSamplingLayer:
    def test_sampling_mode_checked(self):
        with pytest.raises(ValueError):
            blackbox.BlackBox(comp_basis_measurement(2), sampling="bulk")

    def test_chunk_boundary(self, monkeypatch):
        # per-trial counts over 3 chunks and a remainder equal one whole-array
        # draw from the same seed and leave the generator in the same state,
        # while each span holds at most one BLOCK of uniforms at once
        L = 3 * blackbox.CHUNK + 5
        meas = comp_basis_measurement(4)
        box = blackbox.BlackBox(meas, seed=31, d=2, sampling="per_trial")
        spans = []
        count_span = blackbox._count_span

        def recorded(bit_generator, size, cuts, block):
            spans.append((size, block.size))
            return count_span(bit_generator, size, cuts, block)

        monkeypatch.setattr(blackbox, "_count_span", recorded)
        outcomes = box.sample_outcome_counts(L)
        labels = box.sample_label_counts(1, L)
        failures = box.sample_failure_count(L, 0.3)

        whole = np.random.default_rng(31)
        np.testing.assert_array_equal(
            outcomes, np.bincount(whole.choice(4, size=L, p=outcome_law(meas)), minlength=4))
        np.testing.assert_array_equal(labels, np.bincount(
            whole.choice(16, size=L, p=pauli.q_distribution(meas.operators[1], 2)), minlength=16))
        assert failures == int((whole.random(L) < 0.3).sum())
        assert box.rng.bit_generator.state == whole.bit_generator.state
        assert box.query_count == L
        workers = len(spans) // 3
        assert workers == min(blackbox._cores(), 4)
        assert sum(size for size, _ in spans) == 3 * L
        assert all(block_size == blackbox.BLOCK for _, block_size in spans)

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
        iso = schur.isotypic_projectors(2, 2)
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
        # the blockwise scan finds the failure that one-at-a-time
        # ``schur_iteration`` calls would, across block boundaries too
        monkeypatch.setattr(blackbox, "BLOCK", 7)
        for meas, L in ((comp_basis_measurement(4), 60), (schur.isotypic_projectors(2, 2), 30)):
            for s in range(40):
                box = blackbox.BlackBox(meas, seed=s, d=2, sampling="per_trial")
                first = box.sample_first_failure(L)
                single = blackbox.BlackBox(meas, seed=s, d=2)
                expected = next((j for j in range(1, L + 1) if not single.schur_iteration()),
                                L + 1)
                assert first == expected
                assert box.query_count == single.query_count == min(expected, L)


@st.composite
def laws(draw):
    """Probability vectors with zeros, entries of 1e-30 and point masses."""
    k = draw(st.sampled_from((1, 2, 3, 16, 17, 256)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = gen.random(k)
    weights[gen.random(k) < draw(st.sampled_from((0.0, 0.5, 0.95)))] = 0.0
    weights[gen.random(k) < draw(st.sampled_from((0.0, 0.3)))] = 1e-30
    if draw(st.sampled_from((False, False, False, True))) or not weights.any():
        weights[:] = 0.0
        weights[draw(st.integers(0, k - 1))] = 1.0
    return weights / weights.sum()


def forbid_threads(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a worker thread was started")
    monkeypatch.setattr(threading, "Thread", no_thread)


class TestDrawCounts:
    """``draw_counts`` draws what numpy would, counts and end state alike."""

    @settings(max_examples=150, deadline=None)
    @given(p=laws(), total=st.sampled_from((0, 1, 2, 63, 1000)), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy(self, p, total, seed):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(
            blackbox.draw_counts(total, p, rng, "per_trial"),
            np.bincount(oracle.choice(p.size, size=total, p=p), minlength=p.size))
        assert rng.bit_generator.state == oracle.bit_generator.state
        np.testing.assert_array_equal(blackbox.draw_counts(total, p, rng, "aggregate"),
                                      oracle.multinomial(total, p / p.sum()))
        assert rng.bit_generator.state == oracle.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(p=st.one_of(st.sampled_from((0.0, 1.0, 5e-324)), st.floats(0.0, 1.0)),
           total=st.sampled_from((0, 1, 7, 1000, 10**12)), seed=st.integers(0, 2**32 - 1))
    def test_bernoulli_count(self, p, total, seed):
        # p + (1 - p) rounds to exactly 1, so the law's first count is the
        # binomial count in aggregate and the uniforms below p per trial
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        assert blackbox.draw_counts(total, (p, 1.0 - p), rng, "aggregate")[0] == \
            oracle.binomial(total, p)
        assert rng.bit_generator.state == oracle.bit_generator.state
        trials = min(total, 10**5)
        assert blackbox.draw_counts(trials, (p, 1.0 - p), rng, "per_trial")[0] == \
            oracles.per_trial_successes(trials, p, oracle, blackbox.CHUNK)
        assert rng.bit_generator.state == oracle.bit_generator.state


class TestCountBelow:
    """``count_below`` and per-trial ``draw_counts`` against one index per trial
    drawn by ``Generator.choice`` and one uniform per trial compared with p."""

    @settings(max_examples=150, deadline=None)
    @given(p=laws(), chunk=st.sampled_from((7, 64)), workers=st.integers(1, 4),
           total=st.sampled_from(("zero", "one", "below", "chunk", "above", "several")),
           chunks=st.integers(2, 6), success=st.sampled_from((0.0, 1e-30, 0.3, 0.999, 1.0)),
           seed=st.integers(0, 2**32 - 1), half_word=st.booleans())
    def test_matches_per_trial_draws(self, p, chunk, workers, total, chunks, success, seed,
                                     half_word):
        total = {"zero": 0, "one": 1, "below": chunk - 1, "chunk": chunk, "above": chunk + 1,
                 "several": chunks * chunk + 3}[total]
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        if half_word:  # leaves a buffered 32-bit half-word in the generator's state
            rng.integers(0, 5, dtype=np.int32)
            oracle.integers(0, 5, dtype=np.int32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blackbox, "CHUNK", chunk)
            mp.setattr(blackbox, "_cores", lambda: workers)
            counts = blackbox.draw_counts(total, p, rng, "per_trial")
            np.testing.assert_array_equal(counts, oracles.per_trial_counts(total, p, oracle, chunk))
            assert rng.bit_generator.state == oracle.bit_generator.state
            successes = int(blackbox.count_below(total, [success], rng)[0])
            assert successes == oracles.per_trial_successes(total, success, oracle, chunk)
            assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_every_span_matches(self, monkeypatch, workers):
        # every span starts exactly where the one before it stops, and every
        # block where the one before it stops, on the compare path and on the
        # sort path
        monkeypatch.setattr(blackbox, "CHUNK", 64)
        monkeypatch.setattr(blackbox, "BLOCK", 5)
        monkeypatch.setattr(blackbox, "_cores", lambda: workers)
        total = 5 * 64 + 7
        rng, oracle = np.random.default_rng(17), np.random.default_rng(17)
        for k in (3, 17, 256):
            p = np.full(k, 1 / k)
            np.testing.assert_array_equal(blackbox.draw_counts(total, p, rng, "per_trial"),
                                          oracles.per_trial_counts(total, p, oracle, 64))
        cuts = np.linspace(0.05, 0.95, 40)
        below = blackbox.count_below(total, cuts, rng)
        u = oracle.random(total)
        np.testing.assert_array_equal(below, [(u < c).sum() for c in cuts])
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_worker_error_reaches_caller(self, monkeypatch):
        count_span = blackbox._count_span

        def fails_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return count_span(*args)

        monkeypatch.setattr(blackbox, "CHUNK", 8)
        monkeypatch.setattr(blackbox, "_cores", lambda: 3)
        monkeypatch.setattr(blackbox, "_count_span", fails_off_main)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(RuntimeError, match="worker failed"):
            blackbox.count_below(100, [0.5], rng)
        assert rng.bit_generator.state == state

    def test_checks_before_any_draw(self, monkeypatch):
        # the budget and the law checks ``choice`` makes come before any thread
        # or draw: no span is counted and the stream does not move
        monkeypatch.setattr(blackbox, "CHUNK", 8)
        monkeypatch.setattr(blackbox, "_cores", lambda: 4)
        forbid_threads(monkeypatch)
        monkeypatch.setattr(blackbox, "_count_span", None)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(blackbox.SampleBudgetExceeded):
            blackbox.count_below(blackbox.MAX_DRAWS + 1, [0.5], rng)
        with pytest.raises(ValueError, match="non-negative"):
            blackbox.count_below(-1, [0.5], rng)
        for mode in blackbox.SAMPLING_MODES:
            with pytest.raises(blackbox.SampleBudgetExceeded):
                blackbox.draw_counts(blackbox.MAX_DRAWS + 1, [0.5, 0.5], rng, mode)
            with pytest.raises(ValueError, match="non-negative"):
                blackbox.draw_counts(-1, [0.5, 0.5], rng, mode)
        for p in ([np.nan, 1.0], [-0.1, 1.1], [0.5, 0.5 + 1e-7], [0.5, np.inf], []):
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(len(p), size=100, p=p)
            with pytest.raises(ValueError):
                blackbox.draw_counts(100, p, rng, "per_trial")
        assert rng.bit_generator.state == state
        box = blackbox.BlackBox(comp_basis_measurement(4), seed=0, d=2, sampling="per_trial")
        with pytest.raises(blackbox.SampleBudgetExceeded):
            box.sample_outcome_counts(blackbox.MAX_DRAWS + 1)
        assert box.query_count == 0

    def test_law_within_tolerance_accepted(self):
        # ``choice`` allows a sum off 1 by up to sqrt(eps) and so does the count
        p = [0.5, 0.5 + 1e-9]
        counts = blackbox.draw_counts(1000, p, np.random.default_rng(4), "per_trial")
        expected = oracles.per_trial_counts(1000, p, np.random.default_rng(4), blackbox.CHUNK)
        np.testing.assert_array_equal(counts, expected)

    @pytest.mark.parametrize("p,accepted", [
        ([np.nan, 1.0], False), ([-0.1, 1.1], False), ([0.5, 0.5 + 1e-7], False),
        ([0.5, np.inf], False), ([], False), ([-1e-13, 1 + 1e-13], False),
        ([0.5, 0.5 + 1e-9], True)])
    def test_both_modes_check_a_law_alike(self, p, accepted):
        # aggregate and per-trial draws accept and refuse the same laws, by
        # ``choice``'s rules: a negative entry is refused however small
        for mode in blackbox.SAMPLING_MODES:
            if accepted:
                assert blackbox.draw_counts(100, p, np.random.default_rng(0), mode).sum() == 100
            else:
                with pytest.raises(ValueError):
                    blackbox.draw_counts(100, p, np.random.default_rng(0), mode)
        if not accepted:
            with pytest.raises(ValueError):
                np.random.default_rng(0).choice(len(p), size=100, p=p)

    def test_rejects_other_bit_generators(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(blackbox.UnsupportedGenerator, match="MT19937"):
            blackbox.count_below(10, [0.5], rng)
        with pytest.raises(blackbox.UnsupportedGenerator):
            blackbox.draw_counts(10, [0.5, 0.5], rng, "per_trial")
        box_m, box_n = overlap_boxes(0.5, "per_trial")
        with pytest.raises(blackbox.UnsupportedGenerator):
            blackbox.paired_swap_zeros(box_m, box_n, 0, 10, rng)

    def test_spans_leave_concurrent_futures_unloaded(self):
        # a fresh interpreter, since any earlier import would already be cached
        script = "\n".join([
            "import sys, threading",
            "import numpy as np",
            "from qmtest import blackbox",
            "started = []",
            "start = threading.Thread.start",
            "threading.Thread.start = lambda self: (started.append(self), start(self))[1]",
            "blackbox.CHUNK, blackbox._cores = 8, lambda: 3",
            "blackbox.count_below(100, [0.5], np.random.default_rng(0))",
            "assert len(started) == 2, started",
            "assert 'concurrent.futures' not in sys.modules",
        ])
        src = str(Path(blackbox.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)

    def test_one_worker_runs_inline(self, monkeypatch):
        # one core, or a draw within one chunk, starts no thread
        forbid_threads(monkeypatch)
        rng = np.random.default_rng(5)
        blackbox.count_below(blackbox.CHUNK, [0.5], rng)
        monkeypatch.setattr(blackbox, "_cores", lambda: 1)
        blackbox.count_below(3 * blackbox.CHUNK, [0.5], rng)
        oracle = np.random.default_rng(5)
        oracle.random(4 * blackbox.CHUNK)
        assert rng.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_memory_bounded_by_one_chunk(self, monkeypatch, workers):
        # 5 chunks of uniforms take one BLOCK of float64 uniforms per span,
        # far below one CHUNK, plus one comparison mask of BLOCK bytes per
        # span.  The uniforms are mapped outside the malloc heap, where
        # tracemalloc does not see them, so the mapped bytes are counted
        # separately.
        monkeypatch.setattr(blackbox, "_cores", lambda: workers)
        mapped, real_mmap = [], mmap.mmap

        def recording_mmap(fileno, length, *args, **kwargs):
            mapped.append(length)
            return real_mmap(fileno, length, *args, **kwargs)

        monkeypatch.setattr(mmap, "mmap", recording_mmap)
        blackbox.count_below(10, [0.5], np.random.default_rng(0))  # one-time allocations
        for cuts in ([0.3], np.linspace(0.01, 0.99, 5), np.linspace(0.001, 0.999, 300)):
            mapped.clear()
            tracemalloc.start()
            try:
                blackbox.count_below(5 * blackbox.CHUNK, cuts, np.random.default_rng(0))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert mapped == [8 * workers * blackbox.BLOCK]
            assert peak < (workers + 1) * blackbox.BLOCK
