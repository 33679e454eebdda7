import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmtest import blackbox, core, metric, pauli, schur, testers
from qmtest.blackbox import BlackBox
from qmtest.cli import make_far_projective_fixture

import oracles
from conftest import (comp_basis_measurement, one_local_measurement, overlap_boxes,
                      stab_pair_1q)


class TestConfigAndVerdict:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            testers.TesterConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            testers.TesterConfig(epsilon=1.0)

    def test_sampling_mode_checked(self):
        # the mode belongs to the box, not to the tester configuration
        with pytest.raises(ValueError):
            BlackBox(comp_basis_measurement(2), sampling="bulk")
        with pytest.raises(TypeError):
            testers.TesterConfig(epsilon=0.5, sampling="aggregate")

    def test_verdict_decision_follows_reject_stage(self):
        accepted = testers.Verdict(None, 0, {}, {})
        assert (accepted.decision, accepted.accepted) == ("accept", True)
        rejected = testers.Verdict("stage", 0, {}, {})
        assert (rejected.decision, rejected.accepted) == ("reject", False)
        with pytest.raises(TypeError):  # the decision is not an argument
            testers.Verdict("accept", None, 0, {}, {})


class TestConstants:
    @pytest.mark.parametrize(
        "eps,L,N,T,W",
        [
            (0.2, 12_500_000, 6_242_187, 6_179_766, 300),
            (0.3, 2_469_136, 1_231_095, 1_218_785, 134),
            (0.4, 781_250, 388_671, 384_785, 75),
            (0.5, 320_000, 158_750, 157_163, 48),
            (0.6, 154_321, 76_292, 75_530, 34),
        ],
    )
    def test_stabilizer_constants(self, eps, L, N, T, W):
        c = testers.stabilizer_constants(eps)
        assert (c["L"], c["N"], c["T"], c["W"]) == (L, N, T, W)
        assert c["half_window"] == pytest.approx(eps**2 / 64)

    @pytest.mark.parametrize(
        "eps,k,L",
        [(0.2, 1, 78_284), (0.3, 2, 77_257), (0.4, 1, 14_373), (0.5, 3, 40_202), (0.6, 2, 14_694)],
    )
    def test_klocal_constants(self, eps, k, L):
        assert testers.klocal_constants(eps, k)["L"] == L

    @pytest.mark.parametrize("eps,L", [(0.2, 125), (0.3, 56), (0.4, 32), (0.5, 20), (0.6, 14)])
    def test_perminv_constants(self, eps, L):
        assert testers.perminv_constants(eps)["L"] == L

    @pytest.mark.parametrize(
        "eps,gamma,k,m,L",
        [
            (0.5, 0.7071067811865476, 2, 3, 18_887_063),
            (0.3, 0.5, 2, 4, 1_124_486_955),
            (0.7, 0.2, 3, 2, 71_970_900_508),
            (0.4, 0.9, 2, 5, 112_575_667),
            (0.25, 0.6, 4, 3, 22_974_439_803),
        ],
    )
    def test_finite_set_constants(self, eps, gamma, k, m, L):
        c = testers.finite_set_constants(eps, gamma, k, m)
        assert c["L"] == L
        assert c["a"] == min(eps, gamma)
        assert c["count_threshold"] == pytest.approx(0.1 * c["a"] ** 2 * L / k)

    @pytest.mark.parametrize(
        "eps,k,L,T",
        [
            (0.6, 2, 3_220_920_393, 10_145_899),
            (0.5, 2, 28_718_049_753, 43_625_509),
            (0.7, 3, 4_202_501_100, 17_906_999),
            (0.8, 2, 102_027_009, 1_015_735),
            (0.4, 2, 417_902_625_530, 260_028_300),
        ],
    )
    def test_distance_constants(self, eps, k, L, T):
        c = testers.distance_constants(eps, k)
        assert (c["L"], c["T"]) == (L, T)
        assert c["threshold"] == pytest.approx(eps**4 / (16 * k) - eps**4 / (36 * k**2))

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_refused(self, k):
        for constants in (testers.klocal_constants, testers.distance_constants):
            with pytest.raises(testers.InvalidLocality, match="k must be a positive integer"):
                constants(0.3, k)
        assert issubclass(testers.InvalidLocality, core.QmtestError)

    @pytest.mark.parametrize(
        "eps,delta,L",
        [(0.1, 0.05, 73_778), (0.2, 0.1, 3_745), (0.3, 0.05, 911), (0.1, 0.01, 105_967), (0.5, 0.2, 74)],
    )
    def test_overlap_copies(self, eps, delta, L):
        assert oracles.overlap_copies(eps, delta) == L


class TestStabilizerTester:
    def test_accepts_true_stabilizer(self):
        meas = pauli.stabilizer_measurement((1, 0), (1, 1))
        cfg = testers.TesterConfig(epsilon=0.4, seed=0)
        accepted = 0
        for s in range(10):
            v = testers.test_stabilizer(BlackBox(meas, seed=s, d=2), cfg)
            accepted += v.accepted
            assert v.query_count == v.params["L"]
        assert accepted >= 8

    def test_identifies_label(self):
        meas = pauli.stabilizer_measurement((0, 1), (1, 1))
        v = testers.test_stabilizer(
            BlackBox(meas, seed=5, d=2), testers.TesterConfig(epsilon=0.4, seed=5)
        )
        assert v.accepted
        assert v.stage_stats["ab_label"] == [[0, 1], [1, 1]]

    def test_rejects_extra_outcomes(self):
        v = testers.test_stabilizer(
            BlackBox(comp_basis_measurement(4), seed=1, d=2),
            testers.TesterConfig(epsilon=0.4, seed=1),
        )
        assert v.reject_stage == "outcome_support"

    def test_rejects_far_fixture(self):
        meas, scan = make_far_projective_fixture(2, seed=3)
        assert scan.best_delta >= 0.4
        cfg = testers.TesterConfig(epsilon=0.4, seed=0)
        rejected = sum(
            not testers.test_stabilizer(BlackBox(meas, seed=s, d=2), cfg).accepted
            for s in range(10)
        )
        assert rejected >= 8

    def test_rejects_unbalanced_two_outcome(self):
        # valid two-outcome measurement with lopsided outcome law
        a = math.sqrt(0.9)
        b = math.sqrt(0.1)
        meas = core.validate_measurement([a * np.eye(4), b * np.eye(4)])
        v = testers.test_stabilizer(
            BlackBox(meas, seed=2, d=2), testers.TesterConfig(epsilon=0.4, seed=2)
        )
        assert v.reject_stage == "outcome_fraction"

    def test_single_label_ambiguity_rejects(self):
        # the trivial split I/sqrt(2) twice only ever shows the identity label
        meas = core.validate_measurement([np.eye(4) / math.sqrt(2)] * 2)
        v = testers.test_stabilizer(
            BlackBox(meas, seed=3, d=2), testers.TesterConfig(epsilon=0.4, seed=3)
        )
        assert v.reject_stage == "pauli_labels"
        assert v.stage_stats["label_ambiguity"] is True

    def test_sign_check_rejects_swapped_outcomes(self):
        P = pauli.stabilizer_measurement((1, 1), (0, 0))
        swapped = core.validate_measurement(P.operators[::-1])
        v = testers.test_stabilizer(
            BlackBox(swapped, seed=4, d=2), testers.TesterConfig(epsilon=0.4, seed=4)
        )
        assert v.reject_stage == "sign_check"

    def test_needs_qubits(self):
        box = BlackBox(core.validate_measurement([np.eye(3)]), seed=0)
        with pytest.raises(testers.DimensionNotPowerOfTwo):
            testers.test_stabilizer(box, testers.TesterConfig(epsilon=0.4))

    def test_label_union_memory(self):
        # a Haar-rotated 7-qubit projector pair shows most of the 4^7 labels; a
        # Python set of the observed labels once took over 3 MB at the peak
        n, rng = 7, np.random.default_rng(11)
        base = pauli.stabilizer_measurement((1,) + (0,) * (n - 1), (0,) * n)
        U = core.random_unitary(2**n, rng)
        meas = core.validate_measurement([U @ op @ U.conj().T for op in base.operators])
        box = BlackBox(meas, seed=0, d=2)
        for branch in (0, 1):  # the label laws are the box's, not the union's
            pauli.q_distribution(meas.operators[branch], 2)
        tracemalloc.start()
        try:
            v = testers.test_stabilizer(box, testers.TesterConfig(epsilon=0.4, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.reject_stage == "pauli_labels"
        assert v.stage_stats["labels_observed"] > 4**n // 2
        assert peak < 2 * 2**20

    def test_per_trial_mode_runs(self):
        # scaled-down per-trial run lands in a genuinely stochastic regime
        meas = pauli.stabilizer_measurement((1,), (0,))
        cfg = testers.TesterConfig(epsilon=0.6, seed=0, constant_scale=0.05)
        results = [
            testers.test_stabilizer(BlackBox(meas, seed=s, d=2, sampling="per_trial"),
                                    cfg).accepted
            for s in range(50)
        ]
        assert 0 < sum(results) < 50


class TestKLocalTester:
    def test_accepts_local_fixture(self):
        cfg = testers.TesterConfig(epsilon=0.4, seed=0)
        for s in range(5):
            v = testers.test_klocal(BlackBox(one_local_measurement(3), seed=s, d=2), 1, cfg)
            assert v.accepted
            assert v.query_count == v.params["L"]

    def test_accepts_trivial(self):
        cfg = testers.TesterConfig(epsilon=0.4, seed=0)
        v = testers.test_klocal(BlackBox(core.validate_measurement([np.eye(8)]), seed=0, d=2), 1, cfg)
        assert v.accepted
        assert v.stage_stats["support_union"] == []

    def test_rejects_far_fixture(self):
        full = pauli.stabilizer_measurement((1, 1, 1), (0, 0, 0))
        assert oracles.klocal_distance_lower_bound(full, 1) >= 0.5411
        cfg = testers.TesterConfig(epsilon=0.4, seed=0)
        rejected = sum(
            not testers.test_klocal(BlackBox(full, seed=s, d=2), 1, cfg).accepted
            for s in range(10)
        )
        assert rejected >= 8

    def test_per_trial_matches(self):
        cfg = testers.TesterConfig(epsilon=0.4, seed=0, constant_scale=0.05)
        box = BlackBox(one_local_measurement(3), seed=1, d=2, sampling="per_trial")
        v = testers.test_klocal(box, 1, cfg)
        assert v.accepted
        assert v.query_count == v.params["L"]

    def test_qutrit_local(self):
        rest = np.eye(3)
        meas = core.validate_measurement(
            [np.kron(np.diag((np.arange(3) == i).astype(complex)), rest) for i in range(3)]
        )
        cfg = testers.TesterConfig(epsilon=0.4, seed=0)
        v = testers.test_klocal(BlackBox(meas, seed=0, d=3), 1, cfg)
        assert v.accepted

    @settings(max_examples=100, deadline=None)
    @given(d=st.sampled_from((2, 3)), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           labels=st.sampled_from((0, 1, 2, 3, 0.05, 0.5, 1.0)))
    def test_support_union_is_the_or_of_the_seen_masks(self, d, n, seed, labels):
        # the union read from the seen labels' digits equals the OR of every
        # seen label's support mask, for a few labels or a share of them all
        gen = np.random.default_rng(seed)
        size = d ** (2 * n)
        counts = np.zeros(size, dtype=np.int64)
        if isinstance(labels, int):
            counts[gen.integers(0, size, labels)] = gen.integers(1, 9, labels)
        else:
            counts[gen.random(size) < labels] = 1
        box = BlackBox(core.validate_measurement([np.eye(d**n)]), seed=0, d=d)
        box.sample_joint_label_counts = lambda L: counts
        v = testers.test_klocal(box, n, testers.TesterConfig(epsilon=0.5))
        mask = int(np.bitwise_or.reduce(oracles.support_masks(d, n)[counts > 0]))
        assert v.stage_stats["support_union"] == [s + 1 for s in range(n) if mask >> s & 1]
        assert v.stage_stats["distinct_labels"] == np.count_nonzero(counts)

    @pytest.mark.parametrize("mode", blackbox.SAMPLING_MODES)
    def test_box_without_d_is_refused_before_any_draw(self, mode):
        box = BlackBox(one_local_measurement(3), seed=0, sampling=mode)
        state = box.rng.bit_generator.state
        with pytest.raises(ValueError, match="construct the box with d"):
            testers.test_klocal(box, 1, testers.TesterConfig(epsilon=0.4))
        assert box.query_count == 0
        assert box.rng.bit_generator.state == state


@pytest.fixture(scope="module")
def members():
    return testers.FiniteSetSpec(stab_pair_1q())


class TestPermInvTester:
    def test_accepts_isotypic(self):
        iso = schur.isotypic_projectors(2, 2)
        cfg = testers.TesterConfig(epsilon=0.5, seed=0)
        for s in range(20):
            v = testers.test_perminv(BlackBox(iso, seed=s, d=2), cfg)
            assert v.accepted
            assert v.query_count == v.params["L"]

    def test_compbasis_acceptance_rate(self):
        cfg = testers.TesterConfig(epsilon=0.5, seed=0)
        accepted = sum(
            testers.test_perminv(BlackBox(comp_basis_measurement(4), seed=s, d=2), cfg).accepted
            for s in range(400)
        )
        expect = 0.75**20 * 400
        sigma = math.sqrt(400 * 0.75**20 * (1 - 0.75**20))
        assert abs(accepted - expect) <= 3 * sigma

    def test_per_trial_queries_stop_at_failure(self):
        cfg = testers.TesterConfig(epsilon=0.5, seed=0)
        box = BlackBox(comp_basis_measurement(4), seed=3, d=2, sampling="per_trial")
        v = testers.test_perminv(box, cfg)
        if not v.accepted:
            assert v.query_count == v.stage_stats["iterations"] <= v.params["L"]

    def test_pass_prob_recorded(self):
        cfg = testers.TesterConfig(epsilon=0.5, seed=0)
        v = testers.test_perminv(BlackBox(comp_basis_measurement(4), seed=0, d=2), cfg)
        assert v.stage_stats["pass_prob"] == pytest.approx(0.75)

    def test_builds_no_schur_basis(self, monkeypatch, rng):
        # the tester and the nearest invariant measurement use the twirl alone
        def refuse(*args, **kwargs):
            raise AssertionError("the perminv path must not touch a Schur basis")

        for name in ("build_schur_transform", "verify_schur_basis", "block_decompose"):
            monkeypatch.setattr(schur, name, refuse)
        meas = oracles.random_measurement(27, 3, rng)
        cfg = testers.TesterConfig(epsilon=0.5, seed=0, constant_scale=0.1)
        for mode in blackbox.SAMPLING_MODES:
            v = testers.test_perminv(BlackBox(meas, seed=1, d=3, sampling=mode), cfg)
            assert 0.0 < v.stage_stats["pass_prob"] < 1.0
        N, bound = oracles.nearest_perminv(meas, d=3)
        assert metric.delta_measurement(meas, N).delta <= bound + 1e-9


class TestFiniteSetTester:
    def test_testers_never_read_the_hidden_measurement(self):
        # the box is the one reader of its measurement: testers see its draws
        # and the overlaps it computes
        assert "_hidden" not in inspect.getsource(testers)

    def test_gamma_and_k(self, members):
        assert members.gamma == pytest.approx(1 / math.sqrt(2))
        assert members.k == 2

    def test_identical_members_refused(self):
        # a member and a copy of it up to sign are at distance 0
        z, x, _ = stab_pair_1q()
        flipped = core.validate_measurement([-op for op in z.operators])
        for family in ((z, x, z), (x, z, flipped)):
            with pytest.raises(testers.DuplicateMember, match=r"members \d and 2 are identical"):
                testers.FiniteSetSpec(family)
        assert issubclass(testers.DuplicateMember, core.QmtestError)

    def test_member_accepted(self, members):
        cfg = testers.TesterConfig(epsilon=0.5, seed=0)
        accepted = sum(
            testers.test_finite_set(
                BlackBox(members.members[0], seed=s), members, cfg
            ).accepted
            for s in range(10)
        )
        assert accepted >= 8

    def test_trivial_measurement_filtered_out(self, members):
        cfg = testers.TesterConfig(epsilon=0.5, seed=0)
        box = BlackBox(core.validate_measurement([np.eye(2)]), seed=1)
        v = testers.test_finite_set(box, members, cfg)
        assert v.reject_stage == "member_filter"

    def test_far_fixture_rejected(self, members):
        rng = np.random.default_rng(17)
        U = core.random_unitary(2, rng)
        rotated = core.validate_measurement(
            [U @ op @ U.conj().T for op in members.members[0].operators]
        )
        dists = [metric.delta_measurement(rotated, m).delta for m in members.members]
        assert min(dists) >= 0.3  # seeded rotation is far from all three
        cfg = testers.TesterConfig(epsilon=0.3, seed=0)
        rejected = sum(
            not testers.test_finite_set(BlackBox(rotated, seed=s), members, cfg).accepted
            for s in range(10)
        )
        assert rejected >= 8

    def test_extra_outcome_rejected(self, members):
        third = core.validate_measurement(
            [np.eye(2) / math.sqrt(3)] * 3
        )
        cfg = testers.TesterConfig(epsilon=0.5, seed=0)
        v = testers.test_finite_set(BlackBox(third, seed=0), members, cfg)
        assert v.reject_stage == "outcome_support"

    def test_query_count_is_stage_size(self, members):
        cfg = testers.TesterConfig(epsilon=0.5, seed=0)
        v = testers.test_finite_set(BlackBox(members.members[1], seed=3), members, cfg)
        assert v.query_count == v.params["L"]

    def test_mode_equivalence_small_scale(self, members):
        runs = 200
        freqs = []
        for mode in ("aggregate", "per_trial"):
            cfg = testers.TesterConfig(epsilon=0.5, seed=0, constant_scale=2e-5)
            hits = sum(
                testers.test_finite_set(
                    BlackBox(members.members[0], seed=s, sampling=mode), members, cfg
                ).accepted
                for s in range(runs)
            )
            freqs.append(hits / runs)
        pooled = 0.5 * (freqs[0] + freqs[1])
        sigma = math.sqrt(max(pooled * (1 - pooled), 1e-4) * 2 / runs)
        assert abs(freqs[0] - freqs[1]) <= 3 * sigma


def swap_overlap_estimate(overlap: float, copies: int, rng, sampling: str) -> float:
    """Overlap estimate from swap tests on two boxes with the given overlap."""
    box_m, box_n = overlap_boxes(overlap, sampling)
    zeros = blackbox.paired_swap_zeros(box_m, box_n, 0, copies, rng)
    return testers.overlap_estimate_from_counts(zeros, copies)


class TestOverlapEstimation:
    def test_perfect_overlap(self):
        rng = np.random.default_rng(0)
        for mode in blackbox.SAMPLING_MODES:
            assert swap_overlap_estimate(1.0, 500, rng, mode) == pytest.approx(1.0)

    def test_zero_overlap_clamped(self):
        rng = np.random.default_rng(1)
        for mode in blackbox.SAMPLING_MODES:
            est = swap_overlap_estimate(0.0, 50_000, rng, mode)
            assert 0.0 <= est <= 0.1

    def test_precision_guarantee(self):
        # eps=0.1, delta=0.05 needs 73778 copies; check the CI empirically
        copies = oracles.overlap_copies(0.1, 0.05)
        assert copies == 73_778
        rng = np.random.default_rng(2)
        for mode in blackbox.SAMPLING_MODES:
            hits = sum(
                abs(swap_overlap_estimate(0.6, copies, rng, mode) - 0.6) <= 0.1
                for _ in range(200)
            )
            assert hits >= 190

    def test_per_trial_mode(self):
        rng = np.random.default_rng(3)
        est = swap_overlap_estimate(0.6, 20_000, rng, "per_trial")
        assert abs(est - 0.6) < 0.05


class TestDistanceEstimation:
    def test_identical_boxes(self):
        m = pauli.stabilizer_measurement((0,), (1,))
        cfg = testers.TesterConfig(epsilon=0.6, seed=0)
        rep = testers.estimate_distance(BlackBox(m, seed=1), BlackBox(m, seed=2), cfg)
        assert rep.delta_hat <= 0.6
        assert rep.query_count == 2 * rep.params["L"]

    def test_stabilizer_pair(self):
        ms = stab_pair_1q()
        cfg = testers.TesterConfig(epsilon=0.6, seed=1)
        rep = testers.estimate_distance(BlackBox(ms[0], seed=1), BlackBox(ms[1], seed=2), cfg)
        assert abs(rep.delta_hat - 1 / math.sqrt(2)) <= 0.6

    def test_small_outcome_exclusion(self):
        # one branch has probability below the threshold: excluded from the
        # retained set, and the excluded mass obeys the tail bound
        t = 1e-4
        m1 = core.validate_measurement(
            [math.sqrt(1 - t) * np.eye(2), math.sqrt(t) * np.eye(2)]
        )
        cfg = testers.TesterConfig(epsilon=0.6, seed=0, constant_scale=1e-3)
        rep = testers.estimate_distance(BlackBox(m1, seed=3), BlackBox(m1, seed=4), cfg)
        assert 1 not in rep.stage_stats["kept_m"]
        delta_cut = cfg.epsilon**4 / (16 * 2)
        tail = abs(core.hs_inner(m1.operators[1], m1.operators[1])) / 2
        assert tail <= 2 * math.sqrt(delta_cut * 2)

    @pytest.mark.parametrize("mode", blackbox.SAMPLING_MODES)
    def test_outcome_bound_is_the_larger_outcome_count(self, mode):
        # a 2-outcome box against a 3-outcome one: k = 3 sizes the run, so no
        # outcome of the larger box is dropped
        two = pauli.stabilizer_measurement((0,), (1,))
        three = core.validate_measurement(
            [np.diag([1.0, 0.0]), np.diag([0.0, math.sqrt(0.5)]), np.diag([0.0, math.sqrt(0.5)])])
        cfg = testers.TesterConfig(epsilon=0.5, seed=0, constant_scale=1e-7)
        rep = testers.estimate_distance(BlackBox(two, seed=1, sampling=mode),
                                        BlackBox(three, seed=2, sampling=mode), cfg)
        assert rep.params["k"] == 3
        assert rep.params["L"] == testers.distance_constants(0.5, 3, 1e-7)["L"]
        assert len(rep.stage_stats["fractions_n"]) == 3
        v = testers.test_identity(BlackBox(three, seed=1, sampling=mode),
                                  BlackBox(two, seed=2, sampling=mode), cfg)
        assert v.params["k"] == 3
        assert v.params["L"] == testers.distance_constants(0.25, 3, 1e-7)["L"]

    def test_mode_equivalence(self):
        ms = stab_pair_1q()
        truth = 1 / math.sqrt(2)
        runs = 200
        freqs = []
        for mode in ("aggregate", "per_trial"):
            cfg = testers.TesterConfig(epsilon=0.6, seed=0, constant_scale=1e-6)
            hits = sum(
                abs(
                    testers.estimate_distance(
                        BlackBox(ms[0], seed=s, sampling=mode),
                        BlackBox(ms[1], seed=s + 1000, sampling=mode), cfg
                    ).delta_hat
                    - truth
                )
                <= 0.6
                for s in range(runs)
            )
            freqs.append(hits / runs)
        pooled = 0.5 * sum(freqs)
        sigma = math.sqrt(max(pooled * (1 - pooled), 1e-4) * 2 / runs)
        assert abs(freqs[0] - freqs[1]) <= 3 * sigma


class TestIdentityTest:
    def test_same_boxes(self):
        m = pauli.stabilizer_measurement((1,), (1,))
        cfg = testers.TesterConfig(epsilon=0.7, seed=0)
        hits = sum(
            testers.test_identity(BlackBox(m, seed=s), BlackBox(m, seed=s + 99), cfg).accepted
            for s in range(5)
        )
        assert hits >= 4

    def test_far_boxes(self):
        ms = stab_pair_1q()
        cfg = testers.TesterConfig(epsilon=0.7, seed=0)
        hits = sum(
            not testers.test_identity(
                BlackBox(ms[0], seed=s), BlackBox(ms[1], seed=s + 99), cfg
            ).accepted
            for s in range(5)
        )
        assert hits >= 4

    def test_promise_flagged(self):
        m = pauli.stabilizer_measurement((1,), (0,))
        cfg = testers.TesterConfig(epsilon=0.7, seed=0)
        v = testers.test_identity(BlackBox(m, seed=0), BlackBox(m, seed=1), cfg)
        assert v.stage_stats["promise_unchecked"] is True


class TestReproducibility:
    def test_verdicts_bit_identical(self):
        meas = pauli.stabilizer_measurement((1, 0), (0, 1))
        cfg = testers.TesterConfig(epsilon=0.4, seed=42)
        v1 = testers.test_stabilizer(BlackBox(meas, seed=7, d=2), cfg)
        v2 = testers.test_stabilizer(BlackBox(meas, seed=7, d=2), cfg)
        assert v1 == v2

    def test_estimates_bit_identical(self):
        ms = stab_pair_1q()
        cfg = testers.TesterConfig(epsilon=0.6, seed=9)
        reps = [
            testers.estimate_distance(BlackBox(ms[0], seed=1), BlackBox(ms[1], seed=2), cfg)
            for _ in range(2)
        ]
        assert reps[0].delta_hat == reps[1].delta_hat
        assert reps[0].stage_stats == reps[1].stage_stats
