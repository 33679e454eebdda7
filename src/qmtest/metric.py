"""Phase-invariant distance between operators and between measurements.

The operator distance is inf over a relative phase of the scaled Frobenius
norm |A - e^{i theta} B|_F / sqrt(2D); the measurement distance is the root
of the per-outcome sum of squares, which collapses to
1 - (1/D) sum_i |<M_i, N_i>| by completeness.  Both the closed forms and a
direct numeric minimization are provided so each can certify the other.  For
the stabilizer family there is a certified distance: the nearest two-outcome
Pauli projector pair, from one Pauli transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pauli
from .core import (
    DimensionMismatch,
    Measurement,
    as_operator,
    hs_inner,
)

_GOLDEN = (math.sqrt(5) - 1) / 2
_GRID = 256  # phase probes of the numeric scan


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
    """Measurement distance and its square."""

    delta: float
    delta_squared: float


def delta_measurement(M: Measurement, N: Measurement) -> DistanceReport:
    """Distance between measurements, outcomes paired by index.

    The shorter list is padded with zero operators.  Computes both the
    per-outcome sum and the 1 - (1/D) sum |<M_i,N_i>| form and checks they
    agree; for distinct stabilizer measurements this gives delta^2 = 1/2,
    i.e. delta = 1/sqrt(2) ~ 0.70711.
    """
    if M.dim != N.dim:
        raise DimensionMismatch("measurements live on different dimensions")
    pairs = [(M.operator(i), N.operator(i)) for i in range(max(len(M), len(N)))]
    terms = np.array([delta_op(a, b) ** 2 for a, b in pairs])
    overlap_sum = sum(abs(hs_inner(a, b)) for a, b in pairs)
    total = float(terms.sum())
    closed = 1.0 - overlap_sum / M.dim
    if abs(total - closed) > 1e-10:
        raise ArithmeticError(
            f"distance forms disagree: sum {total} vs closed {closed}"
        )
    dsq = max(closed, 0.0)
    return DistanceReport(delta=math.sqrt(dsq), delta_squared=dsq)


def delta_measurement_numeric(M: Measurement, N: Measurement) -> DistanceReport:
    """Oracle counterpart of delta_measurement built from the phase scans."""
    if M.dim != N.dim:
        raise DimensionMismatch("measurements live on different dimensions")
    total = float(np.sum([delta_op_numeric(M.operator(i), N.operator(i)) ** 2
                          for i in range(max(len(M), len(N)))]))
    return DistanceReport(delta=math.sqrt(max(total, 0.0)), delta_squared=total)


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
