"""Phase-invariant distance between operators and between measurements.

The operator distance is inf over a relative phase of the scaled Frobenius
norm |A - e^{i theta} B|_F / sqrt(2D); the measurement distance is the root
of the per-outcome sum of squares, which collapses to
1 - (1/D) sum_i |<M_i, N_i>| by completeness.  Both the closed forms and a
direct numeric minimization are provided so each can certify the other.  For
the tested measurement families there are certified distances: the nearest
two-outcome Pauli projector pair from one Pauli transform, and constructed
k-local and permutation-invariant neighbours with their bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pauli, schur
from .core import (
    DimensionMismatch,
    Measurement,
    QmtestError,
    as_operator,
    canonical_phase_align,
    choi_prob,
    haar_random_states,
    hs_inner,
    validate_measurement,
)

_GOLDEN = (math.sqrt(5) - 1) / 2
_GRID = 256  # phase probes of the numeric scan


class SquareRootFailure(QmtestError):
    """Operator square root hit an eigenvalue below the negativity budget."""


def delta_op(A, B) -> float:
    """Closed-form operator distance sqrt((<A,A>+<B,B>-2|<A,B>|)/(2D))."""
    A = as_operator(A)
    B = as_operator(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    D = A.shape[0]
    val = (np.vdot(A, A).real + np.vdot(B, B).real - 2 * abs(np.vdot(A, B))) / (2 * D)
    return math.sqrt(max(val, 0.0))


def delta_op_numeric(A, B) -> float:
    """Oracle for delta_op: grid scan over the phase plus golden-section polish.

    Evaluates |A - e^{i theta} B|_F directly at every probe so the result is
    independent of the closed form it checks.
    """
    A = as_operator(A)
    B = as_operator(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    scale = 1.0 / math.sqrt(2 * A.shape[0])

    def f(theta: float) -> float:
        return scale * float(np.linalg.norm(A - np.exp(1j * theta) * B))

    thetas = np.linspace(0.0, 2 * math.pi, _GRID, endpoint=False)
    values = [f(t) for t in thetas]
    j = int(np.argmin(values))
    step = 2 * math.pi / _GRID
    lo, hi = thetas[j] - step, thetas[j] + step
    # golden-section: the objective is sinusoidal in theta, so the grid
    # brackets the global minimum and the section search converges cleanly
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best = min(values[j], f1, f2)
    while hi - lo > 1e-12:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        best = min(best, f1, f2)
    return best


@dataclass(frozen=True)
class DistanceReport:
    """Measurement distance with its per-outcome breakdown."""

    delta: float
    delta_squared: float
    per_outcome_terms: np.ndarray
    method: str = "closed_form"


def delta_measurement(M: Measurement, N: Measurement) -> DistanceReport:
    """Distance between measurements, outcomes paired by index.

    The shorter list is padded with zero operators.  Computes both the
    per-outcome sum and the 1 - (1/D) sum |<M_i,N_i>| form and checks they
    agree; for distinct stabilizer measurements this gives delta^2 = 1/2,
    i.e. delta = 1/sqrt(2) ~ 0.70711.
    """
    if M.dim != N.dim:
        raise DimensionMismatch("measurements live on different dimensions")
    D = M.dim
    count = max(len(M), len(N))
    terms = np.empty(count)
    overlap_sum = 0.0
    for i in range(count):
        a = M.operator(i)
        b = N.operator(i)
        ip = abs(hs_inner(a, b))
        overlap_sum += ip
        terms[i] = max(
            (np.vdot(a, a).real + np.vdot(b, b).real - 2 * ip) / (2 * D), 0.0
        )
    total = float(terms.sum())
    closed = 1.0 - overlap_sum / D
    if abs(total - closed) > 1e-10:
        raise ArithmeticError(
            f"distance forms disagree: sum {total} vs closed {closed}"
        )
    dsq = max(closed, 0.0)
    return DistanceReport(delta=math.sqrt(dsq), delta_squared=dsq, per_outcome_terms=terms)


def delta_measurement_numeric(M: Measurement, N: Measurement) -> DistanceReport:
    """Oracle counterpart of delta_measurement built from the phase scans."""
    if M.dim != N.dim:
        raise DimensionMismatch("measurements live on different dimensions")
    count = max(len(M), len(N))
    terms = np.array(
        [delta_op_numeric(M.operator(i), N.operator(i)) ** 2 for i in range(count)]
    )
    total = float(terms.sum())
    return DistanceReport(
        delta=math.sqrt(max(total, 0.0)),
        delta_squared=total,
        per_outcome_terms=terms,
        method="numeric_inf",
    )


def _check_distribution(p: np.ndarray):
    if np.any(p < -1e-12):
        raise ValueError("distribution has negative entries")
    if abs(p.sum() - 1.0) > 1e-10:
        raise ValueError(f"distribution sums to {p.sum()}, not 1")


def _pad_pair(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    size = max(p.size, q.size)
    return (
        np.pad(p, (0, size - p.size)),
        np.pad(q, (0, size - q.size)),
    )


def fidelity(p, q) -> float:
    """sum_i sqrt(p_i q_i) for distributions padded to a common index set."""
    p, q = _pad_pair(p, q)
    _check_distribution(p)
    _check_distribution(q)
    return float(np.sqrt(np.clip(p, 0, None) * np.clip(q, 0, None)).sum())


def variational(p, q) -> float:
    """(1/2) sum_i |p_i - q_i|."""
    p, q = _pad_pair(p, q)
    _check_distribution(p)
    _check_distribution(q)
    return 0.5 * float(np.abs(p - q).sum())


def behavior_gap_samples(
    M: Measurement, N: Measurement, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-state values of sum_i |(M_i - N_i')|psi>|^2 over Haar states.

    N is phase-aligned to M first; the aligned gap averages to twice the
    squared measurement distance.
    """
    aligned = canonical_phase_align(M, N)
    count = max(len(M), len(N))
    diffs = np.stack([M.operator(i) - aligned.operator(i) for i in range(count)])
    out = np.empty(samples)
    done = 0
    chunk = max(1, min(samples, 20000))
    while done < samples:
        take = min(chunk, samples - done)
        states = haar_random_states(M.dim, take, rng)
        mapped = diffs @ states  # (k, D, take)
        out[done : done + take] = np.sum(np.abs(mapped) ** 2, axis=(0, 1))
        done += take
    return out


def behavior_gap_mc(
    M: Measurement, N: Measurement, samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo mean of the behavior gap and its standard error."""
    vals = behavior_gap_samples(M, N, samples, rng)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr


class StabilizerScan(NamedTuple):
    best_label: tuple[tuple[int, ...], tuple[int, ...]]
    best_delta: float
    swapped_delta: float


def distance_to_stabilizer_family(M: Measurement) -> StabilizerScan:
    """Distance to the nearest two-outcome Pauli projector pair, over all labels.

    Outcomes are paired by index: M_0 with P_+ = (I + sigma)/2, M_1 with
    P_- = (I - sigma)/2, later outcomes with zero.  Since
    <M_i, P_pm> = (D/2) conj(mu_0(M_i) pm mu_sigma(M_i)), one Pauli transform
    of M_0 and of M_1 gives every nonzero label's distance at once:
    delta^2 = 1 - (|mu_0(M_0) + mu_sigma(M_0)| + |mu_0(M_1) - mu_sigma(M_1)|)/2.
    The minimum under the swapped pairing (M_0 against P_-) is reported
    alongside.  Ties break toward the smallest label index within 1e-15 of
    the minimum.
    """
    n = pauli._power_check(M.dim, 2)
    mu0, mu1 = (pauli.mu_vector(M.operator(i), 2, n) for i in (0, 1))

    def deltas(sign: int) -> np.ndarray:
        overlap = np.abs(mu0[0] + sign * mu0[1:]) + np.abs(mu1[0] - sign * mu1[1:])
        return np.sqrt(np.clip(1.0 - overlap / 2, 0.0, None))

    same = deltas(1)
    best = int(np.flatnonzero(same <= same.min() + 1e-15)[0])
    label = pauli.label_from_index(best + 1, 2, n)
    return StabilizerScan(best_label=(label.x, label.z), best_delta=float(same[best]),
                          swapped_delta=float(deltas(-1).min()))


def _psd_sqrt(A: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(A)
    if vals.min() < -1e-8:
        raise SquareRootFailure(
            f"slack operator has eigenvalue {vals.min():.3e} below -1e-8"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def nearest_klocal(M: Measurement, T: set[int], d: int = 2) -> tuple[Measurement, float]:
    """Measurement supported on sites T that is provably close to M.

    Keeps the T-supported component of every operator and appends the square
    root of the completeness slack as one extra outcome; the returned bound
    sqrt(1 - (1/D) sum |f_T(M_i)|^2) dominates the actual distance.
    """
    ops = [pauli.f_T(op, T, d) for op in M.operators]
    slack = np.eye(M.dim, dtype=np.complex128) - sum(op.conj().T @ op for op in ops)
    ops.append(_psd_sqrt(slack))
    N = validate_measurement(ops)
    mass = sum(float(np.vdot(op, op).real) for op in ops[:-1])
    bound = math.sqrt(max(1.0 - mass / M.dim, 0.0))
    return N, bound


def klocal_distance_lower_bound(M: Measurement, k: int, d: int = 2) -> float:
    """Certified lower bound on the distance from M to every k-local measurement.

    Cauchy-Schwarz on the T-supported components: for any measurement N
    supported on T, sum_i |<M_i, N_i>| <= sqrt(sum_i |f_T(M_i)|^2) * sqrt(D),
    so delta^2 >= 1 - max_T sqrt(sum_i |f_T(M_i)|^2 / D).
    """
    n = pauli._power_check(M.dim, d)
    if k >= n:
        return 0.0
    xi = pauli.xi_distribution(M, d)
    masks = pauli._support_masks(d, n)
    best_mass = 0.0
    for T in itertools.combinations(range(n), max(k, 0)):
        tmask = 0
        for s in T:
            tmask |= 1 << s
        mass = float(xi[(masks & ~tmask) == 0].sum())
        best_mass = max(best_mass, mass)
    # xi sums to sum_i p(M_i) = 1, so the T-mass is sum_i |f_T(M_i)|^2 / D
    return math.sqrt(max(1.0 - math.sqrt(min(best_mass, 1.0)), 0.0))


def nearest_perminv(M: Measurement, d: int = 2) -> tuple[Measurement, float]:
    """Permutation-invariant measurement provably close to M.

    Keeps the twirl of every operator over the site permutations of
    (C^d)^(x)n and appends the completeness slack root.
    """
    n = pauli._power_check(M.dim, d)
    ops = [schur.twirl(op, d, n) for op in M.operators]
    mass = sum(float(np.vdot(op, op).real) for op in ops)
    slack = np.eye(M.dim, dtype=np.complex128) - sum(op.conj().T @ op for op in ops)
    ops.append(_psd_sqrt(slack))
    N = validate_measurement(ops)
    bound = math.sqrt(max(1.0 - mass / M.dim, 0.0))
    return N, bound


def outcome_distance_lower_bound(M: Measurement, N: Measurement) -> float:
    """Variational distance of the entangled-query outcome laws over sqrt(2).

    Always a lower bound on the measurement distance.
    """
    p = np.array([choi_prob(op) for op in M.operators])
    q = np.array([choi_prob(op) for op in N.operators])
    return variational(p, q) / math.sqrt(2)
