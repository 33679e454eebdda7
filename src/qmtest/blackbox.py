"""Simulated black-box measurement device and its query-level samplers.

The device hides a measurement and exposes only the entangled-input query:
each query feeds half of a maximally entangled state to the hidden
measurement, yielding an outcome index with probability p(M_i) and leaving
the normalized vectorized operator as the post-measurement state, which is
never materialized.  The box only draws and charges; each law is a function
of the measurement beside its math: the outcome and overlap laws in ``core``,
the label and sign laws in ``pauli``, and the symmetry check's pass
probability (``symmetric_mass``) in ``schur``.

The box owns the sampling mode, fixed at construction, and every count a
tester draws, from the box's stream or from an apparatus stream beside two
boxes (``paired_swap_zeros``), is one ``draw_counts`` call in that mode: per
trial, one uniform per trial from the law it draws.  Only this module reads
the hidden measurement.
"""

from __future__ import annotations

import math
import mmap
import os
import threading

import numpy as np

from . import pauli, schur
from .core import Measurement, QmtestError, ZeroOperator, unit_overlap, vanishes

SAMPLING_MODES = ("aggregate", "per_trial")
# a draw gets one span (thread) per core, but at most one per CHUNK uniforms begun
CHUNK = 1 << 20
# uniforms a span holds at once: the block stays in cache across the cuts, and
# each comparison mask takes BLOCK bytes
BLOCK = 1 << 16
MAX_DRAWS = int(np.iinfo(np.int64).max)
# above this many cuts, one sort and one search per block beat a compare per cut
SORT_CUTS = 16
# the tolerance ``Generator.choice`` allows on the sum of a law
_SUM_TOL = math.sqrt(np.finfo(np.float64).eps)


class SampleBudgetExceeded(QmtestError):
    """No usable sample size: a count is no finite number, does not fit the
    generator's int64 counts, or leaves a stage with no sample at all."""


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
                block: np.ndarray) -> np.ndarray:
    """How many of the next ``size`` uniforms fall below each of the sorted ``cuts``,
    drawn into ``block`` and counted a block at a time."""
    counts = np.zeros(cuts.size, dtype=np.int64)
    draw = np.random.Generator(bit_generator).random
    for start in range(0, size, block.size):
        u = block[:min(block.size, size - start)]
        draw(out=u)
        if cuts.size > SORT_CUTS:
            u.sort()
            counts += np.searchsorted(u, cuts)
        else:
            for j, cut in enumerate(cuts):
                counts[j] += np.count_nonzero(u < cut)
    return counts


def count_below(total: int, cuts, rng: np.random.Generator) -> np.ndarray:
    """For each cut c, how many of the next ``total`` uniforms of ``rng`` fall below c.

    Leaves ``rng`` where ``rng.random(total)`` would.  The uniforms are split
    into contiguous spans, one per core but at most one per ``CHUNK`` uniforms
    begun (a span runs inline when there is one), each drawn from a copy of
    the stream jumped ahead to the span's start, one ``BLOCK`` at a time.  So
    at most one ``BLOCK`` per span is held at once.  Cuts outside (0, 1) are
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
        # one block per span, all in one mapping made on the calling thread: a
        # malloc'd one, once freed, can leave a heap hole that the next call's
        # does not fit
        per = min(BLOCK, -(-total // workers))
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


def draw_counts(total: int, p, rng: np.random.Generator, sampling: str) -> np.ndarray:
    """Counts of ``total`` i.i.d. draws from the law ``p``, one per category.

    In ``"aggregate"`` mode the counts are one exact multinomial draw, the
    generator's conditional-binomial chain with no normal approximation, which
    makes the published sample sizes (up to ~1e12) feasible.  In
    ``"per_trial"`` mode every trial draws the uniform that ``Generator.choice``
    would, and ``count_below`` counts the uniforms below each cut of the law's
    cdf; the differences are the counts, equal bit for bit to
    ``bincount(choice(...))``, generator state afterwards included.  Both modes
    give the same distribution and check the law alike, by ``choice``'s rules
    (``_law``), before any draw; so does a ``total`` beyond int64.  A Bernoulli
    count is ``draw_counts(n, (p, 1 - p), ...)[0]``: the law sums to exactly 1,
    so it draws as ``rng.binomial(n, p)`` and as ``count_below(n, [p])`` do.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    _check_budget(total)
    p = _law(p)
    if sampling == "per_trial":
        cdf = p.cumsum()
        return np.diff(count_below(total, cdf / cdf[-1], rng), prepend=0)
    if total == 0:
        return np.zeros(p.size, dtype=np.int64)
    return rng.multinomial(total, p / p.sum())


class BlackBox:
    """Opaque measurement device with query accounting, a seeded stream and a
    sampling mode (one of ``SAMPLING_MODES``).

    ``d`` must be supplied for the label-level samplers (the hidden dimension
    must be a power of d), and ``n`` is derived from it.  Each sampler gets its
    law, draws it at ``_draw`` and charges its queries at ``_charge``.  Laws are
    computed on each call, as a tester draws from each once; the box keeps only
    the symmetry-check pass probability, which ``test_perminv`` reads and
    ``sample_first_failure`` draws with.
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
        self._pass_prob: float | None = None

    @property
    def dim(self) -> int:
        return self._hidden.dim

    @property
    def num_outcomes(self) -> int:
        return len(self._hidden)

    def _charge(self, queries: int, result):
        """``result``, after charging ``queries`` queries: the one charge point."""
        self.query_count += queries
        return result

    def _draw(self, total: int, law, queries: int = 0) -> np.ndarray:
        """Counts of ``total`` draws from ``law``, charging ``queries``: the one draw point."""
        return self._charge(queries, draw_counts(total, law, self.rng, self.sampling))

    def sample_outcome_counts(self, L: int) -> np.ndarray:
        """Outcome counts of L entangled queries; charges L queries."""
        p = self._hidden.outcome_probs()
        return self._draw(L, p / p.sum(), L)

    def _require_label_space(self):
        if self.d is None:
            raise ValueError("construct the box with d to use label-level samplers")

    def sample_label_counts(self, outcome: int, T: int) -> np.ndarray:
        """Label counts of T Pauli-basis measurements on one branch's post-state.

        These are follow-up measurements: no queries are charged.
        """
        self._require_label_space()
        return self._draw(T, pauli.q_distribution(self._hidden.operators[outcome], self.d))

    # perfbench's traced run wraps these two names and reads their L and T;
    # they go once its shim skips names it cannot find (ROADMAP item 1)
    query_batch = sample_outcome_counts
    label_batch = sample_label_counts

    def sample_joint_label_counts(self, L: int) -> np.ndarray:
        """Label counts of L query-then-label rounds; charges L queries.

        A round's label follows the law of (outcome, then label) marginalized to
        labels, xi = sum_i |mu(M_i)|^2 (since sum_i p_i q_i = xi), so the counts
        are one draw from xi: per trial, one uniform per round.
        """
        self._require_label_space()
        return self._draw(L, pauli.xi_distribution(self._hidden, self.d), L)

    def sign_plus_prob(self, outcome: int, label: pauli.PauliLabel) -> float:
        """Probability that the sitewise sign product comes out +1 (``pauli.sign_plus_prob``)."""
        return pauli.sign_plus_prob(self._hidden, outcome, label)

    def sample_failure_count(self, W: int, p_fail: float) -> int:
        """Failures among W independent checks that each fail with probability
        p_fail (the stabilizer sign checks); no queries are charged."""
        return int(self._draw(W, (p_fail, 1.0 - p_fail))[0])

    def schur_audit(self) -> float:
        """Pass probability of one symmetry-check iteration (``schur.symmetric_mass``)."""
        self._require_label_space()
        if self._pass_prob is None:
            self._pass_prob = schur.symmetric_mass(self._hidden, self.d, self.n)
        return self._pass_prob

    def reference_overlaps(self, member: Measurement, k: int) -> list:
        """<v~(A_j)|v~(M_j)> between ``member``'s outcomes A_j and the hidden ones
        M_j for j < k, zero-padded, 0 where either vanishes: the finite-set
        check's overlaps of a member's reference state with the box's."""
        return [unit_overlap(member.operator(j), self._hidden.operator(j)) for j in range(k)]

    def schur_iteration(self) -> bool:
        """One full symmetry-check iteration (query, transform, compare, measure).

        Passes exactly when the two block labels agree and the permutation
        registers land on the identity basis operator, with probability
        ``schur_audit()``.
        """
        return self._charge(1, self.rng.random() < self.schur_audit())

    def sample_first_failure(self, L: int) -> int:
        """First failing iteration among L symmetry checks, or L + 1 if all pass.

        Charges the iterations run, min(first failure, L).  Per trial, the
        checks draw one uniform each, as ``schur_iteration`` does, scanned
        ``BLOCK`` at a time up to the block holding the first failure; in
        aggregate the geometric first failure is drawn from one uniform by
        inverse transform.
        """
        _check_budget(L)
        p = self.schur_audit()
        first = L + 1
        if self.sampling == "per_trial":
            for start in range(0, L, BLOCK):
                failed = np.flatnonzero(~(self.rng.random(min(BLOCK, L - start)) < p))
                if failed.size:
                    first = start + int(failed[0]) + 1
                    break
        else:
            u = self.rng.random()
            if p <= 0.0:
                first = 1
            elif p < 1.0 and u > 0.0:
                first = min(1 + math.floor(math.log(u) / math.log(p)), L + 1)
        return self._charge(min(first, L), first)


def shared_sampling(box_m: BlackBox, box_n: BlackBox) -> str:
    """The sampling mode of two boxes queried side by side; they must agree."""
    if box_m.sampling != box_n.sampling:
        raise ValueError(f"boxes sample differently: {box_m.sampling} vs {box_n.sampling}")
    return box_m.sampling


def paired_swap_zeros(box_m: BlackBox, box_n: BlackBox, outcome: int, copies: int,
                      rng: np.random.Generator) -> int:
    """Zero-outcome count of ``copies`` swap tests on matching post-states.

    A swap test on states with overlap lambda gives 0 with probability
    (1 + lambda^2)/2, lambda = |``unit_overlap``| of the nonzero hidden
    operators; callers see only the sampled count, never the overlap.  ``rng``
    is the tester's apparatus stream; the boxes' shared mode decides its draw.
    """
    a, b = box_m._hidden.operator(outcome), box_n._hidden.operator(outcome)
    if vanishes(a) or vanishes(b):
        raise ZeroOperator("overlap undefined when an operator vanishes")
    overlap = min(abs(unit_overlap(a, b)), 1.0)
    p0 = (1.0 + overlap**2) / 2.0
    return int(draw_counts(copies, (p0, 1.0 - p0), rng, shared_sampling(box_m, box_n))[0])
