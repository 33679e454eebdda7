"""Simulated black-box measurement device and its query-level samplers.

The device hides a measurement and exposes only the entangled-input query:
each query feeds half of a maximally entangled state to the hidden
measurement, yielding an outcome index with probability p(M_i) and leaving
the normalized vectorized operator as the post-measurement state.  Follow-up
measurements on that post-state (Pauli-basis labels, single-site signs) are
sampled from their exact distributions computed out of the hidden operators;
post-states are never materialized.  The symmetry check passes with
probability (1/D) sum_i |twirl(M_i)|_F^2 (``schur_audit``); no basis is built.

The box owns the sampling mode, fixed at construction, and every draw a
tester makes goes through one of its ``sample_*`` methods, or through
``paired_swap_zeros`` for two boxes side by side.  In ``"aggregate"`` mode a
run of i.i.d. draws is one exact multinomial or binomial draw, which makes
the published sample sizes (up to ~1e12) feasible.  In ``"per_trial"`` mode
every trial still draws its own uniform from the stream, the one that
``Generator.choice`` or ``Generator.random`` would draw for it, but no
outcome index is formed: ``count_below`` counts how many uniforms fall below
each cut of the law's cdf, and the differences of those counts are the
per-outcome counts, equal bit for bit to ``bincount(choice(...))``, generator
state afterwards included.  The uniforms are split into one contiguous span
per core, each drawn by a PCG64 copy jumped ahead to its start, and at most
``CHUNK`` = 2^20 of them are held in memory at once, whatever the core
count.  Both modes give the same distribution, and per-trial mode is the
reference that aggregate mode is checked against.  Both modes check a law
once, in ``_law``, by ``choice``'s rules: no NaN, no negative entry, and a sum
within sqrt(eps) of 1.  So they accept and refuse the same laws.  A draw count
beyond int64 raises ``SampleBudgetExceeded`` before any draw.
"""

from __future__ import annotations

import math
import mmap
import os
import threading

import numpy as np

from . import pauli, schur
from .core import Measurement, QmtestError, ZeroOperator, hs_inner

SAMPLING_MODES = ("aggregate", "per_trial")
CHUNK = 1 << 20
MAX_DRAWS = int(np.iinfo(np.int64).max)
# above this many cuts, one sort and one search per chunk beat a compare per cut
SORT_CUTS = 16
# uniforms compared per pass below that: the block stays in cache across the
# cuts, and each comparison mask takes BLOCK bytes
BLOCK = 1 << 16
# the tolerance ``Generator.choice`` allows on the sum of a law
_SUM_TOL = math.sqrt(np.finfo(np.float64).eps)


class SampleBudgetExceeded(QmtestError):
    """A draw count does not fit the generator's int64 counts."""


class UnsupportedGenerator(QmtestError):
    """Per-trial counting jumps ahead in the stream, which needs a PCG64 bit generator."""


def _check_budget(n: int) -> None:
    if n > MAX_DRAWS:
        raise SampleBudgetExceeded(f"{n} draws exceed the int64 budget of {MAX_DRAWS}")


def _law(p) -> np.ndarray:
    """``p`` as a float64 law, checked as ``Generator.choice`` checks one: no NaN,
    no negative entry, and a sum within ``_SUM_TOL`` of 1."""
    p = np.asarray(p, dtype=np.float64)
    if np.isnan(p).any():
        raise ValueError("probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if not abs(float(p.sum()) - 1.0) <= _SUM_TOL:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    return p


def aggregate_multinomial(L: int, probs, rng: np.random.Generator) -> np.ndarray:
    """Exact multinomial counts for L categorical draws from the law ``probs``.

    Backed by the generator's conditional-binomial chain; no normal
    approximation is involved, so the counts are exchangeable with L
    individual draws.  The law is checked as ``choice_counts`` checks it.
    """
    if L < 0:
        raise ValueError("L must be non-negative")
    _check_budget(L)
    probs = _law(probs)
    if L == 0:
        return np.zeros(probs.size, dtype=np.int64)
    return rng.multinomial(L, probs / probs.sum())


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _jumped(state: dict, delta: int) -> np.random.PCG64:
    """A PCG64 stream at ``state`` moved ``delta`` draws ahead."""
    bit_generator = np.random.PCG64(0)
    bit_generator.state = state
    return bit_generator.advance(delta)


def _count_span(bit_generator: np.random.PCG64, size: int, cuts: np.ndarray,
                buffer: np.ndarray) -> np.ndarray:
    """How many of the next ``size`` uniforms fall below each of the sorted ``cuts``,
    drawn into ``buffer`` and counted a buffer at a time."""
    counts = np.zeros(cuts.size, dtype=np.int64)
    draw = np.random.Generator(bit_generator).random
    for start in range(0, size, buffer.size):
        u = buffer[:min(buffer.size, size - start)]
        draw(out=u)
        if cuts.size > SORT_CUTS:
            u.sort()
            counts += np.searchsorted(u, cuts)
        else:
            for lo in range(0, u.size, BLOCK):
                block = u[lo:lo + BLOCK]
                for j, cut in enumerate(cuts):
                    counts[j] += np.count_nonzero(block < cut)
    return counts


def count_below(total: int, cuts, rng: np.random.Generator) -> np.ndarray:
    """For each cut c, how many of the next ``total`` uniforms of ``rng`` fall below c.

    Leaves ``rng`` where ``rng.random(total)`` would.  The uniforms are split
    into one contiguous span per core (a span runs inline when there is one),
    each drawn from a copy of the stream jumped ahead to the span's start, and
    at most ``CHUNK`` of them are held at once.  Cuts outside (0, 1) are
    answered without drawing, and repeated cuts are counted once.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    _check_budget(total)
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise UnsupportedGenerator(
            f"per-trial counting needs a PCG64 stream, not {type(bit_generator).__name__}")
    cuts = np.asarray(cuts, dtype=np.float64)
    inside = (cuts > 0.0) & (cuts < 1.0)
    counts = np.where(cuts >= 1.0, total, 0).astype(np.int64)
    active = np.unique(cuts[inside])
    state = bit_generator.state
    if active.size and total:
        workers = max(1, min(_cores(), -(-total // CHUNK)))
        bounds = [total * w // workers for w in range(workers + 1)]
        # one buffer, mapped on the calling thread and sliced per span: a malloc'd
        # one, once freed, can leave a heap hole that the next call's does not fit
        per = max(1, min(CHUNK // workers, -(-total // workers)))
        buffer = np.frombuffer(mmap.mmap(-1, 8 * workers * per), dtype=np.float64)

        results: list = [None] * workers

        def run(w):
            try:
                results[w] = _count_span(_jumped(state, bounds[w]), bounds[w + 1] - bounds[w],
                                         active, buffer[w * per:(w + 1) * per])
            except BaseException as exc:  # re-raised on the calling thread
                results[w] = exc

        # spans 1... on their own threads, span 0 inline
        threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
        for thread in threads:
            thread.start()
        run(0)
        for thread in threads:
            thread.join()
        for result in results:
            if isinstance(result, BaseException):
                raise result
        below = sum(results)
        counts[inside] = below[np.searchsorted(active, cuts[inside])]
    bit_generator.advance(total)
    if state["has_uint32"]:  # ``advance`` drops the buffered half-word; ``random`` keeps it
        moved = bit_generator.state
        moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
        bit_generator.state = moved
    return counts


def choice_counts(total: int, p, rng: np.random.Generator) -> np.ndarray:
    """Counts of ``total`` draws from the law ``p``, equal bit for bit to
    ``np.bincount(rng.choice(p.size, size=total, p=p), minlength=p.size)``.

    ``choice`` normalizes the cumulative sum of ``p`` and returns, for each
    uniform u, the first index whose cdf entry exceeds u, so the indices up to
    j are counted by the uniforms below cdf[j].  The law is checked as
    ``choice`` checks it, before any draw.
    """
    cdf = _law(p).cumsum()
    cdf /= cdf[-1]
    return np.diff(count_below(total, cdf, rng), prepend=0)


def _bernoulli_count(n: int, p: float, rng: np.random.Generator, sampling: str) -> int:
    """Successes among n independent trials that each succeed with probability p."""
    if sampling == "per_trial":
        return int(count_below(n, [p], rng)[0])
    _check_budget(n)
    return int(rng.binomial(n, p))


class BlackBox:
    """Opaque measurement device with query accounting, a seeded stream and a
    sampling mode (one of ``SAMPLING_MODES``).

    Testers interact only through the sampling methods; the hidden measurement
    is an implementation detail of the simulation.  ``d`` must be supplied for
    the label-level samplers (the hidden dimension must be a power of d), and
    ``n`` is derived from it.  The box keeps the laws that a run draws from
    more than once: the outcome law, each outcome's label law and the
    symmetry-check pass probability.  The joint label law and the sign
    probabilities are computed on each call, since a tester asks for each
    of them once.

    Per trial, every draw of outcomes or labels is one ``count_below`` pass
    over the uniforms that ``rng.choice`` would draw, counted at the cuts of
    the law's cdf and split across cores in spans of at most ``CHUNK``
    uniforms in memory; the counts and the stream's end state are those of
    ``bincount(choice(...))``.
    """

    def __init__(self, measurement: Measurement, seed=None, d: int | None = None,
                 sampling: str = "aggregate"):
        if sampling not in SAMPLING_MODES:
            raise ValueError(f"sampling must be one of {SAMPLING_MODES}")
        self.sampling = sampling
        self._hidden = measurement
        self.rng = np.random.default_rng(seed)
        self.query_count = 0
        self.d = d
        self.n = pauli._power_check(measurement.dim, d) if d is not None else None
        self._choi_probs: np.ndarray | None = None
        self._q_dists: dict[int, np.ndarray] = {}
        self._pass_prob: float | None = None

    @property
    def dim(self) -> int:
        return self._hidden.dim

    @property
    def num_outcomes(self) -> int:
        return len(self._hidden)

    def choi_probs(self) -> np.ndarray:
        """Outcome law of the entangled query: p(M_i) = |M_i|_F^2/D."""
        if self._choi_probs is None:
            p = self._hidden.outcome_probs()
            self._choi_probs = p / p.sum()
        return self._choi_probs

    def query_batch(self, L: int) -> np.ndarray:
        """Outcome counts of L per-trial queries; charges L queries.

        Draws the L uniforms that ``rng.choice`` would and counts them at the
        cuts of the outcome law's cdf (``choice_counts``), one span per core
        with at most ``CHUNK`` uniforms in memory; no outcome index is drawn.
        """
        counts = choice_counts(L, self.choi_probs(), self.rng)
        self.query_count += L
        return counts

    def sample_outcome_counts(self, L: int) -> np.ndarray:
        """Outcome counts of L entangled queries; charges L queries."""
        if self.sampling == "per_trial":
            return self.query_batch(L)
        counts = aggregate_multinomial(L, self.choi_probs(), self.rng)
        self.query_count += L
        return counts

    def _require_label_space(self):
        if self.d is None:
            raise ValueError("construct the box with d to use label-level samplers")

    def q_distribution(self, outcome: int) -> np.ndarray:
        """Pauli-label law of the post-state for the given outcome."""
        self._require_label_space()
        if outcome not in self._q_dists:
            op = self._hidden.operators[outcome]
            self._q_dists[outcome] = pauli.q_distribution(op, self.d)
        return self._q_dists[outcome]

    def label_batch(self, outcome: int, T: int) -> np.ndarray:
        """Label counts of T per-trial draws for one branch.

        Draws the T uniforms that ``rng.choice`` would and counts them at the
        cuts of the branch's label cdf (``choice_counts``), one span per core
        with at most ``CHUNK`` uniforms in memory; no label index is drawn.
        """
        return choice_counts(T, self.q_distribution(outcome), self.rng)

    def sample_label_counts(self, outcome: int, T: int) -> np.ndarray:
        """Label counts of T Pauli-basis measurements on one branch's post-state.

        These are follow-up measurements: no queries are charged.
        """
        if self.sampling == "per_trial":
            return self.label_batch(outcome, T)
        return aggregate_multinomial(T, self.q_distribution(outcome), self.rng)

    def sample_joint_label_counts(self, L: int) -> np.ndarray:
        """Label counts of L query-then-label rounds; charges L queries.

        Per trial, all L queries come first, then the labels of each observed
        outcome in ascending outcome order.  In aggregate, the counts are one
        multinomial draw from the law of (outcome, then label) marginalized to
        labels, sum_i |mu(M_i)|^2.
        """
        self._require_label_space()
        if self.sampling == "per_trial":
            outcomes = self.sample_outcome_counts(L)
            counts = np.zeros(self.d ** (2 * self.n), dtype=np.int64)
            for i in np.nonzero(outcomes)[0]:
                counts += self.sample_label_counts(int(i), int(outcomes[i]))
            return counts
        xi = pauli.xi_distribution(self._hidden, self.d)
        counts = aggregate_multinomial(L, xi, self.rng)
        self.query_count += L
        return counts

    def sign_plus_prob(self, outcome: int, label: pauli.PauliLabel) -> float:
        """Probability that the sitewise sign product comes out +1.

        Equals tr(P_plus(a,b) M_i M_i^dag) / tr(M_i^dag M_i) where P_plus
        projects on the +1 eigenspace of the labelled Pauli operator.
        """
        self._require_label_space()
        if self.d != 2:
            raise ValueError("sign measurement is defined for qubits only")
        op = self._hidden.operators[outcome]
        sigma = pauli.pauli_matrix(label)
        num = float(np.trace((np.eye(self.dim) + sigma) / 2 @ op @ op.conj().T).real)
        den = float(np.trace(op.conj().T @ op).real)
        if den < 1e-14:
            raise ZeroOperator("sign distribution undefined for a zero operator")
        return min(max(num / den, 0.0), 1.0)

    def sample_failure_count(self, W: int, p_fail: float) -> int:
        """Failures among W independent checks that each fail with probability
        p_fail (the stabilizer sign checks); no queries are charged."""
        return _bernoulli_count(W, p_fail, self.rng, self.sampling)

    def schur_audit(self) -> float:
        """Pass probability of one symmetry-check iteration,
        (1/D) sum_i |twirl(M_i)|_F^2, clipped to 1."""
        self._require_label_space()
        if self._pass_prob is None:
            mass = 0.0
            for op in self._hidden.operators:
                hat = schur.twirl(op, self.d, self.n)
                mass += float(np.vdot(hat, hat).real)
            self._pass_prob = min(mass / self.dim, 1.0)
        return self._pass_prob

    def schur_iteration(self) -> bool:
        """One full symmetry-check iteration (query, transform, compare, measure).

        Passes exactly when the two block labels agree and the permutation
        registers land on the identity basis operator, with probability
        ``schur_audit()``.
        """
        passed = self.rng.random() < self.schur_audit()
        self.query_count += 1
        return passed

    def sample_first_failure(self, L: int) -> int:
        """First failing iteration among L symmetry checks, or L + 1 if all pass.

        Charges the iterations run, min(first failure, L).  Per trial, the
        checks draw one uniform each, as ``schur_iteration`` does, scanned
        ``CHUNK`` at a time up to the chunk holding the first failure; in
        aggregate the geometric first failure is drawn from one uniform by
        inverse transform.
        """
        _check_budget(L)
        p = self.schur_audit()
        if self.sampling == "per_trial":
            for start in range(0, L, CHUNK):
                failed = np.flatnonzero(~(self.rng.random(min(CHUNK, L - start)) < p))
                if failed.size:
                    first = start + int(failed[0]) + 1
                    self.query_count += first
                    return first
            self.query_count += L
            return L + 1
        u = self.rng.random()
        if p <= 0.0:
            first = 1
        elif p >= 1.0 or u <= 0.0:
            first = L + 1
        else:
            first = min(1 + math.floor(math.log(u) / math.log(p)), L + 1)
        self.query_count += min(first, L)
        return first


def hidden_choi_overlap(box_m: BlackBox, box_n: BlackBox, outcome: int) -> float:
    """|<v~(M_i)|v~(N_i)>| from the hidden operators.

    Simulator privilege: drives swap-test draws without materializing
    tensor-power states.  Tester logic never reads this directly; it only
    consumes the resulting samples.
    """
    a = box_m._hidden.operator(outcome)
    b = box_n._hidden.operator(outcome)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < 1e-14 or nb < 1e-14:
        raise ZeroOperator("overlap undefined when an operator vanishes")
    return min(abs(hs_inner(a, b)) / (na * nb), 1.0)


def shared_sampling(box_m: BlackBox, box_n: BlackBox) -> str:
    """The sampling mode of two boxes queried side by side; they must agree."""
    if box_m.sampling != box_n.sampling:
        raise ValueError(f"boxes sample differently: {box_m.sampling} vs {box_n.sampling}")
    return box_m.sampling


def paired_swap_zeros(box_m: BlackBox, box_n: BlackBox, outcome: int, copies: int,
                      rng: np.random.Generator) -> int:
    """Zero-outcome count of ``copies`` swap tests on matching post-states.

    A swap test on states with overlap lambda gives 0 with probability
    (1 + lambda^2)/2.  The overlap comes from the hidden operators; callers
    see only the sampled count, never the overlap itself.  ``rng`` is the
    tester's apparatus stream; the boxes' shared mode decides how it is drawn.
    """
    overlap = hidden_choi_overlap(box_m, box_n, outcome)
    p0 = (1.0 + overlap**2) / 2.0
    return _bernoulli_count(copies, p0, rng, shared_sampling(box_m, box_n))
