"""The measurement property testers and the distance estimator.

Each tester consumes a black box through entangled queries only, uses the
published sample-size constants, and returns a Verdict: the stage that
rejected (None on accept, and the decision is derived from it), the queries
charged, the stage statistics, and the run parameters that ``_run_params``
assembles for every report.  Physical randomness (query outcomes,
measurements on post-states) is drawn from the box's stream;
tester-apparatus randomness (swap tests, the final projective check of the
finite-set test) is drawn from streams derived from the config seed, so
verdicts are reproducible given (seed, config).

The testers never see the sampling mode: every draw is a ``BlackBox``
sampling method (or ``blackbox.paired_swap_zeros``), and the box decides
whether it is drawn in aggregate or per trial.  Each report still records
the box's mode as ``params["sampling"]``.

Only the k-local tester takes a bound k, its locality.  Every outcome bound is
derived: the finite-set test's is the largest outcome count of the family, and
the distance estimator's the larger outcome count of its two boxes.  A
constants function given a k below 1 raises ``InvalidLocality``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import metric, pauli
from .blackbox import BlackBox, SampleBudgetExceeded, paired_swap_zeros, shared_sampling
from .core import DimensionMismatch, Measurement, QmtestError, unit_overlap


class DimensionNotPowerOfTwo(DimensionMismatch):
    """The stabilizer tester needs an n-qubit black box."""


class GramIllConditioned(QmtestError):
    """Reference states are nearly dependent; contradicts the separation gamma."""


class InvalidLocality(QmtestError):
    """The locality or outcome bound k is not a positive integer."""


class DuplicateMember(QmtestError):
    """Two members of a finite family are the same measurement, so the family
    has no separation gamma to test against."""


def _check_k(k: int) -> None:
    if k < 1:
        raise InvalidLocality(f"k must be a positive integer, got {k}")


@dataclass(frozen=True)
class TesterConfig:
    epsilon: float
    seed: int = 0
    constant_scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0 < self.constant_scale < math.inf:
            raise ValueError("constant_scale must be positive and finite")


@dataclass
class Verdict:
    """A tester's outcome: ``reject_stage`` names the stage that rejected and is
    None on accept, so ``decision`` and ``accepted`` are derived from it."""

    reject_stage: str | None
    query_count: int
    stage_stats: dict
    params: dict

    @property
    def accepted(self) -> bool:
        return self.reject_stage is None

    @property
    def decision(self) -> str:
        return "accept" if self.accepted else "reject"


@dataclass(frozen=True)
class FiniteSetSpec:
    """Finite family of candidate measurements with their separation.

    Both parameters are derived from the members on construction: ``gamma``
    is the minimum pairwise distance (infinite for a single member) and ``k``
    the largest outcome count.  Two members at distance 0 raise
    ``DuplicateMember``.
    """

    members: tuple[Measurement, ...]
    gamma: float = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "gamma", _min_pairwise_delta(members))
        object.__setattr__(self, "k", max(len(m) for m in members))


def _min_pairwise_delta(members) -> float:
    best = math.inf
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            delta = metric.delta_measurement(members[i], members[j]).delta
            if delta == 0.0:
                raise DuplicateMember(f"members {i} and {j} are identical (distance 0)")
            best = min(best, delta)
    return best


def _run_params(cfg: TesterConfig, sampling: str, **extra) -> dict:
    """A report's ``params``: the config, the sampling mode and the run's ``extra``."""
    return {"epsilon": cfg.epsilon, "seed": cfg.seed, "sampling": sampling,
            "constant_scale": cfg.constant_scale, **extra}


def _tester_rng(cfg: TesterConfig, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, stream)))


def _scaled_count(value: float, scale: float) -> int:
    return math.ceil(scale * value)


def _sample_sizes(constants):
    """Make a constants function raise ``SampleBudgetExceeded`` for a count that
    is no finite number: an epsilon power it divides by underflows to 0, or the
    scaled count overflows."""

    @functools.wraps(constants)
    def sized(*args, **kwargs) -> dict:
        try:
            return constants(*args, **kwargs)
        except (ZeroDivisionError, OverflowError) as exc:
            raise SampleBudgetExceeded(
                f"no finite sample size for {constants.__name__}{args}: {exc}") from exc

    return sized


# ---------------------------------------------------------------------------
# stabilizer test


@_sample_sizes
def stabilizer_constants(epsilon: float, scale: float = 1.0) -> dict:
    L = _scaled_count(20000 / epsilon**4, scale)
    N = math.floor((0.5 - epsilon**2 / 64) * L)
    T = math.ceil(0.99 * N)
    W = _scaled_count(12 / epsilon**2, scale)
    return {"L": L, "N": N, "T": T, "W": W, "half_window": epsilon**2 / 64}


def test_stabilizer(box: BlackBox, cfg: TesterConfig) -> Verdict:
    """Accepts measurements close to a two-outcome Pauli-projector pair.

    Stage 1 checks the outcome law is two-valued and balanced; stage 2 checks
    the post-states put half their label weight on the identity and half on a
    single common label; stage 3 checks the signed eigenspace assignment.
    """
    if box.d != 2 or box.n is None:
        raise DimensionNotPowerOfTwo("construct the black box with d=2")
    n = box.n
    consts = stabilizer_constants(cfg.epsilon, cfg.constant_scale)
    L, T, W = consts["L"], consts["T"], consts["W"]
    lo, hi = 0.5 - consts["half_window"], 0.5 + consts["half_window"]
    params = _run_params(cfg, box.sampling, **consts)
    stats: dict = {}

    counts = box.sample_outcome_counts(L)
    stats["outcome_counts"] = counts.tolist()
    if counts[2:].sum() > 0:
        return Verdict("outcome_support", box.query_count, stats, params)
    frac1 = counts[0] / L
    stats["outcome1_fraction"] = frac1
    if not lo <= frac1 <= hi:
        return Verdict("outcome_fraction", box.query_count, stats, params)

    label_counts = [box.sample_label_counts(branch, T) for branch in (0, 1)]
    observed = np.flatnonzero(label_counts[0] | label_counts[1])
    extra = observed[observed != 0]
    stats["labels_observed"] = int(observed.size)
    if extra.size != 1:
        stats["label_ambiguity"] = extra.size == 0
        return Verdict("pauli_labels", box.query_count, stats, params)
    ab = pauli.label_from_index(int(extra[0]), 2, n)
    stats["ab_label"] = [list(ab.x), list(ab.z)]
    fracs = [label_counts[b][0] / T for b in (0, 1)]
    stats["identity_label_fractions"] = fracs
    if not all(lo <= f <= hi for f in fracs):
        return Verdict("pauli_fraction", box.query_count, stats, params)

    fail_probs = (1.0 - box.sign_plus_prob(0, ab), box.sign_plus_prob(1, ab))
    failures = [box.sample_failure_count(W, p_fail) for p_fail in fail_probs]
    stats["sign_failures"] = failures
    return Verdict("sign_check" if any(failures) else None, box.query_count, stats, params)


# ---------------------------------------------------------------------------
# k-local test


@_sample_sizes
def klocal_constants(epsilon: float, k: int, scale: float = 1.0) -> dict:
    _check_k(k)
    L = _scaled_count(1200 * k / epsilon**2 * (math.log(k / epsilon) + 1), scale)
    return {"L": L}


def test_klocal(box: BlackBox, k: int, cfg: TesterConfig) -> Verdict:
    """Accepts iff all sampled labels fit inside a k-site window."""
    d, n = box.d, box.n
    consts = klocal_constants(cfg.epsilon, k, cfg.constant_scale)
    params = _run_params(cfg, box.sampling, k=k, **consts)

    # a label's index is x * d**n + z, and site s + 1 holds digit s of x and of
    # z, counted from the most significant; each distinct half is read once
    seen = np.flatnonzero(box.sample_joint_label_counts(consts["L"]))
    x, z = np.divmod(seen, d**n)
    halves = np.flatnonzero(np.bincount(x, minlength=d**n) + np.bincount(z, minlength=d**n))
    union = [s + 1 for s in range(n) if (halves // d ** (n - 1 - s) % d).any()]
    stats = {"support_union": union, "distinct_labels": int(seen.size)}
    return Verdict(None if len(union) <= k else "support_size", box.query_count, stats, params)


# ---------------------------------------------------------------------------
# permutation-invariance test


@_sample_sizes
def perminv_constants(epsilon: float, scale: float = 1.0) -> dict:
    return {"L": _scaled_count(5 / epsilon**2, scale)}


def test_perminv(box: BlackBox, cfg: TesterConfig) -> Verdict:
    """Accepts iff L symmetry-check iterations all pass.

    Each iteration passes with probability p = (1/D) sum_i |twirl(M_i)|_F^2,
    the mass of the hidden operators on the commutant of the site
    permutations (``BlackBox.schur_audit``), so the acceptance probability is
    p^L.  No Schur basis is built; the box must know its local dimension d.
    """
    L = perminv_constants(cfg.epsilon, cfg.constant_scale)["L"]
    p = box.schur_audit()
    params = _run_params(cfg, box.sampling, L=L)
    first_failure = box.sample_first_failure(L)
    stats = {"pass_prob": p, "iterations": min(first_failure, L)}
    return Verdict(None if first_failure > L else "schur_iteration", box.query_count, stats,
                   params)


# ---------------------------------------------------------------------------
# finite-set test


@_sample_sizes
def finite_set_constants(epsilon: float, gamma: float, k: int, m: int,
                         scale: float = 1.0) -> dict:
    a = min(epsilon, gamma)
    L = max(
        _scaled_count(5000 * k**2 * math.log(20 * k) / a**8, scale),
        _scaled_count(2 * math.log(5 * m) / a**2, scale),
    )
    return {"a": a, "L": L, "count_threshold": 0.1 * a**2 * L / k}


def _log_overlap_product(pairs, counts) -> complex:
    """prod_j overlap_j^{counts_j} accumulated as log-magnitude plus phase.

    Unit overlaps keep the log-magnitude non-positive, so the only rounding
    hazard is graceful underflow of the final exponential.
    """
    log_mag = 0.0
    phase = 0.0
    for ov, c in zip(pairs, counts):
        if c == 0:
            continue
        mag = abs(ov)
        if mag == 0.0:
            return 0.0
        log_mag += c * math.log(mag)
        phase += c * math.atan2(ov.imag, ov.real)
    if log_mag < -745.0:
        return 0.0
    return math.exp(log_mag) * complex(math.cos(phase), math.sin(phase))


def test_finite_set(box: BlackBox, members: FiniteSetSpec, cfg: TesterConfig) -> Verdict:
    """Accepts measurements that match some member of the finite family.

    Filters members by outcome statistics, then simulates the projective check
    onto the span of the surviving members' tensor-power reference states:
    the acceptance probability is the exact squared projection computed from
    the Gram matrix, with every tensor-power overlap held in log form.
    """
    for member in members.members:
        if member.dim != box.dim:
            raise DimensionMismatch("member and box dimensions differ")
    k, m = members.k, len(members.members)
    consts = finite_set_constants(cfg.epsilon, members.gamma, k, m, cfg.constant_scale)
    L, a = consts["L"], consts["a"]
    params = _run_params(cfg, box.sampling, gamma=members.gamma, k=k, m=m, L=L, a=a)
    stats: dict = {}

    counts = box.sample_outcome_counts(L)
    stats["outcome_counts"] = counts.tolist()
    if counts[k:].sum() > 0:
        return Verdict("outcome_support", box.query_count, stats, params)
    counts = np.pad(counts, (0, max(0, k - counts.size)))[:k]

    # a member survives when it gives every frequent outcome enough weight
    frequent = [j for j in range(k) if counts[j] >= consts["count_threshold"]]
    probs = [np.pad(member.outcome_probs(), (0, k)) for member in members.members]
    surviving = [idx for idx, p in enumerate(probs)
                 if all(p[j] >= (1 - 0.1 * a**2) * counts[j] / L for j in frequent)]
    stats["surviving_members"] = surviving
    if not surviving:
        return Verdict("member_filter", box.query_count, stats, params)

    # the surviving members' reference states, then the box's as the last one,
    # whose overlaps with the members the box computes
    refs = [members.members[i] for i in surviving]
    t = len(surviving)
    full = np.eye(t + 1, dtype=np.complex128)
    for r in range(t):
        for s in range(r + 1, t + 1):
            pairs = (box.reference_overlaps(refs[r], k) if s == t else
                     [unit_overlap(refs[r].operator(j), refs[s].operator(j)) for j in range(k)])
            val = _log_overlap_product(pairs, counts)
            full[r, s] = val
            full[s, r] = np.conj(val)
    gram, overlap_vec = full[:t, :t], full[:t, t]

    vals, vecs = np.linalg.eigh(gram)
    if vals.min() < 1e-12:
        raise GramIllConditioned(
            f"reference Gram matrix eigenvalue {vals.min():.3e} below 1e-12"
        )
    comps = vecs.conj().T @ overlap_vec
    projection = float(np.sum(np.abs(comps) ** 2 / vals).real)
    projection = min(max(projection, 0.0), 1.0)
    stats["projection_prob"] = projection
    accept = _tester_rng(cfg, stream=2).random() < projection
    return Verdict(None if accept else "projection", box.query_count, stats, params)


# ---------------------------------------------------------------------------
# overlap and distance estimation


def overlap_estimate_from_counts(zeros: int, copies: int) -> float:
    """sqrt(max(2 p0_hat - 1, 0)) with p0_hat the zero-outcome fraction."""
    return math.sqrt(max(2.0 * zeros / copies - 1.0, 0.0))


@_sample_sizes
def distance_constants(epsilon: float, k: int, scale: float = 1.0) -> dict:
    _check_k(k)
    L = _scaled_count(50000 * k**5 * math.log(40 * k) / epsilon**12, scale)
    threshold = epsilon**4 / (16 * k) - epsilon**4 / (36 * k**2)
    T = math.floor(threshold * L)
    if T < 1:  # no swap-test copies to estimate an overlap from
        raise SampleBudgetExceeded(f"distance_constants({epsilon}, {k}, {scale}) gives "
                                   f"T = {T} swap-test copies, fewer than 1")
    return {"L": L, "threshold": threshold, "T": T}


@dataclass
class EstimateReport:
    delta_hat: float
    query_count: int
    stage_stats: dict
    params: dict


def estimate_distance(box_m: BlackBox, box_n: BlackBox, cfg: TesterConfig) -> EstimateReport:
    """Estimate the distance between two hidden measurements.

    The outcome bound k is the larger outcome count of the two boxes.
    Collects outcome fractions from L entangled queries per box, keeps the
    outcomes frequent on both sides, swap-tests each retained pair of
    post-states, and reports sqrt(1 - sum_i sqrt(a_i b_i) lambda_i) clamped
    at zero.
    """
    if box_m.dim != box_n.dim:
        raise DimensionMismatch("boxes live on different dimensions")
    k = max(box_m.num_outcomes, box_n.num_outcomes)
    consts = distance_constants(cfg.epsilon, k, cfg.constant_scale)
    L, T, threshold = consts["L"], consts["T"], consts["threshold"]
    params = _run_params(cfg, shared_sampling(box_m, box_n), k=k, **consts)

    def fractions(box: BlackBox) -> np.ndarray:
        counts = box.sample_outcome_counts(L)
        return np.pad(counts, (0, max(0, k - counts.size))) / L

    a = fractions(box_m)
    b = fractions(box_n)
    keep_a = {i for i in range(k) if a[i] >= threshold}
    keep_b = {i for i in range(k) if b[i] >= threshold}
    shared = sorted(keep_a & keep_b)
    rng = _tester_rng(cfg, stream=1)
    lambdas = {}
    total = 0.0
    for i in shared:
        zeros = paired_swap_zeros(box_m, box_n, i, T, rng)
        lam = overlap_estimate_from_counts(zeros, T)
        lambdas[i] = lam
        total += math.sqrt(a[i] * b[i]) * lam
    delta_hat = math.sqrt(max(1.0 - total, 0.0))
    stats = {"fractions_m": a.tolist(), "fractions_n": b.tolist(),
             "kept_m": sorted(keep_a), "kept_n": sorted(keep_b),
             "overlap_estimates": lambdas}
    return EstimateReport(delta_hat=delta_hat,
                          query_count=box_m.query_count + box_n.query_count,
                          stage_stats=stats, params=params)


def test_identity(box_m: BlackBox, box_n: BlackBox, cfg: TesterConfig) -> Verdict:
    """Same-or-far decision under the promise that the distance is 0 or >= eps.

    Runs the distance estimator at precision eps/2 and declares "same"
    (accept) when the estimate lands below eps/2.  The promise itself is not
    checkable from queries, which the verdict records.
    """
    report = estimate_distance(box_m, box_n, replace(cfg, epsilon=cfg.epsilon / 2))
    same = report.delta_hat < cfg.epsilon / 2
    stats = dict(report.stage_stats)
    stats["delta_hat"] = report.delta_hat
    stats["promise_unchecked"] = True
    params = dict(report.params)
    params["epsilon"] = cfg.epsilon
    return Verdict(None if same else "distance_estimate", report.query_count, stats, params)
