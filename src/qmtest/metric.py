"""Phase-invariant distance between operators and between measurements.

The operator distance is inf over a relative phase of the scaled Frobenius
norm |A - e^{i theta} B|_F / sqrt(2D); the measurement distance is the root
of the per-outcome sum of squares, which collapses to the one closed form
1 - (1/D) sum_i |<M_i, N_i>| by completeness.  A direct norm at each
outcome's minimizing phase checks it without assuming completeness.  For
the stabilizer family there is a certified distance: the nearest two-outcome
Pauli projector pair, from one Pauli transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pauli
from .core import DimensionMismatch, Measurement, hs_inner


@dataclass(frozen=True)
class DistanceReport:
    """Measurement distance and its square."""

    delta: float
    delta_squared: float


def delta_measurement(M: Measurement, N: Measurement) -> DistanceReport:
    """Distance between measurements, outcomes paired by index.

    The shorter list is padded with zero operators.  By completeness the
    per-outcome infimum over a phase collapses to
    delta^2 = 1 - (1/D) sum_i |<M_i,N_i>|; for distinct stabilizer
    measurements this gives delta^2 = 1/2, i.e. delta = 1/sqrt(2) ~ 0.70711.
    """
    if M.dim != N.dim:
        raise DimensionMismatch("measurements live on different dimensions")
    pairs = [(M.operator(i), N.operator(i)) for i in range(max(len(M), len(N)))]
    overlap_sum = sum(abs(hs_inner(a, b)) for a, b in pairs)
    dsq = max(1.0 - overlap_sum / M.dim, 0.0)
    return DistanceReport(delta=math.sqrt(dsq), delta_squared=dsq)


def delta_measurement_numeric(M: Measurement, N: Measurement) -> DistanceReport:
    """Cross-check of delta_measurement that assumes no completeness.

    Evaluates each |M_i - e^{i theta_i} N_i|_F directly at the minimizing
    phase theta_i = arg tr(N_i^dag M_i) and returns the root of their sum of
    squares over 2D, in O(k D^2).
    """
    if M.dim != N.dim:
        raise DimensionMismatch("measurements live on different dimensions")
    total = 0.0
    for i in range(max(len(M), len(N))):
        a, b = M.operator(i), N.operator(i)
        total += float(np.linalg.norm(a - np.exp(1j * np.angle(np.vdot(b, a))) * b)) ** 2
    dsq = total / (2 * M.dim)
    return DistanceReport(delta=math.sqrt(dsq), delta_squared=dsq)


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
