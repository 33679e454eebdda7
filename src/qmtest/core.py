"""Dense complex linear algebra for quantum measurements.

Operators are plain complex numpy matrices; pure states are complex vectors.
A measurement is an ordered collection of operators whose squares sum to the
identity.  Everything here is exact desk-scale simulation: no sparsity, no
circuit decompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_COMPLETENESS_TOL = 1e-8


class QmtestError(Exception):
    """Base class for library errors."""


class DimensionMismatch(QmtestError):
    """Operands live on incompatible Hilbert spaces."""


class CompletenessViolation(QmtestError):
    """Operator collection does not sum to the identity within tolerance."""


class ZeroOperator(QmtestError):
    """Operation undefined for the zero operator."""


def as_operator(A) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.view(np.float64))):
        raise ValueError("operator contains NaN or Inf entries")
    return A


def frobenius_norm(A) -> float:
    """sqrt(tr(A^dag A))."""
    A = np.asarray(A, dtype=np.complex128)
    return float(np.linalg.norm(A))


def hs_inner(A, B) -> complex:
    """Hilbert-Schmidt inner product tr(A^dag B)."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    return complex(np.vdot(A, B))


@dataclass(frozen=True)
class Measurement:
    """Ordered operators M_1..M_k with sum_i M_i^dag M_i = I.

    Outcome indices are 0-based in code.  Operators beyond the stored list are
    implicitly zero, which is how measurements with different outcome counts
    are compared.
    """

    operators: tuple[np.ndarray, ...]
    completeness_residual: float
    dim: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", self.operators[0].shape[0])

    def __len__(self) -> int:
        return len(self.operators)

    def operator(self, i: int) -> np.ndarray:
        """M_i, with the implicit zero-padding convention for i >= len."""
        if i < len(self.operators):
            return self.operators[i]
        return np.zeros((self.dim, self.dim), dtype=np.complex128)

    def outcome_probs(self) -> np.ndarray:
        """p(M_i) = |M_i|_F^2 / D for each stored outcome."""
        return np.array([choi_prob(op) for op in self.operators])


def validate_measurement(ops, tol: float = DEFAULT_COMPLETENESS_TOL) -> Measurement:
    """Check the completeness equation and freeze the operator list."""
    if not ops:
        raise ValueError("measurement needs at least one operator")
    mats = [as_operator(op) for op in ops]
    dim = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != dim:
            raise DimensionMismatch("measurement operators have mixed dimensions")
    gram = sum(m.conj().T @ m for m in mats)
    residual = float(np.linalg.norm(gram - np.eye(dim)))
    if residual > tol:
        raise CompletenessViolation(
            f"sum_i M_i^dag M_i deviates from I by {residual:.3e} (tol {tol:.1e})"
        )
    frozen = []
    for m in mats:
        m = m.copy()
        m.setflags(write=False)
        frozen.append(m)
    return Measurement(operators=tuple(frozen), completeness_residual=residual)


def apply_measurement(meas: Measurement, state):
    """Outcome distribution and post-measurement states.

    ``state`` is a pure-state vector or a density matrix.  If its dimension is
    a multiple of the measurement's, the operators act on the first tensor
    factor.  Outcomes with probability ~0 get ``None`` instead of a post-state.
    """
    state = np.asarray(state, dtype=np.complex128)
    if state.ndim == 1:
        return _apply_to_vector(meas, state)
    if state.ndim == 2 and state.shape[0] == state.shape[1]:
        return _apply_to_density(meas, state)
    raise DimensionMismatch(f"state has unsupported shape {state.shape}")


def _first_factor_split(meas_dim: int, state_dim: int) -> int:
    if state_dim % meas_dim:
        raise DimensionMismatch(
            f"state dim {state_dim} is not a multiple of measurement dim {meas_dim}"
        )
    return state_dim // meas_dim


def _apply_to_vector(meas: Measurement, psi: np.ndarray):
    rest = _first_factor_split(meas.dim, psi.shape[0])
    block = psi.reshape(meas.dim, rest)
    probs = np.empty(len(meas))
    posts: list[np.ndarray | None] = []
    for i, op in enumerate(meas.operators):
        out = (op @ block).reshape(-1)
        p = float(np.vdot(out, out).real)
        probs[i] = p
        posts.append(out / math.sqrt(p) if p > 1e-14 else None)
    return probs, posts


def _apply_to_density(meas: Measurement, rho: np.ndarray):
    rest = _first_factor_split(meas.dim, rho.shape[0])
    blocks = rho.reshape(meas.dim, rest, meas.dim, rest)
    probs = np.empty(len(meas))
    posts: list[np.ndarray | None] = []
    for i, op in enumerate(meas.operators):
        # (M_i (x) I) rho (M_i^dag (x) I) on the reshaped tensor
        out = np.einsum("ab,bicj,dc->aidj", op, blocks, op.conj())
        out = out.reshape(rho.shape)
        p = float(np.trace(out).real)
        probs[i] = p
        posts.append(out / p if p > 1e-14 else None)
    return probs, posts


def maximally_entangled(D: int) -> np.ndarray:
    """(1/sqrt(D)) sum_i |i>|i> on dimension D^2."""
    if D < 1:
        raise ValueError("dimension must be positive")
    phi = np.zeros(D * D, dtype=np.complex128)
    phi[np.arange(D) * D + np.arange(D)] = 1.0 / math.sqrt(D)
    return phi


def choi_vector(A) -> np.ndarray:
    """(A (x) I) applied to the maximally entangled state; generally unnormalized.

    In coordinates this is the row-major flattening of A divided by sqrt(D),
    so <v(A)|v(B)> = tr(A^dag B)/D.
    """
    A = as_operator(A)
    return A.reshape(-1) / math.sqrt(A.shape[0])


def choi_prob(A) -> float:
    """p(A) = |A|_F^2 / D; the outcome probability of A in the entangled query."""
    A = as_operator(A)
    return float(np.linalg.norm(A)) ** 2 / A.shape[0]


def normalized_choi(A) -> np.ndarray:
    """Unit vector along choi_vector(A)."""
    v = choi_vector(A)
    norm = float(np.linalg.norm(v))
    if norm < 1e-14:
        raise ZeroOperator("cannot normalize the Choi vector of the zero operator")
    return v / norm


def haar_random_state(D: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform pure state: normalized i.i.d. complex Gaussian vector."""
    if D < 1:
        raise ValueError("dimension must be positive")
    return haar_random_states(D, 1, rng)[:, 0]


def haar_random_states(D: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Batch of Haar states as columns of a (D, count) array."""
    raw = rng.standard_normal((D, count)) + 1j * rng.standard_normal((D, count))
    return raw / np.linalg.norm(raw, axis=0, keepdims=True)


def random_unitary(D: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    raw = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    q, r = np.linalg.qr(raw)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_measurement(D: int, k: int, rng: np.random.Generator) -> Measurement:
    """Random k-outcome measurement: Ginibre operators renormalized by S^{-1/2}."""
    ops = [rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)) for _ in range(k)]
    S = sum(op.conj().T @ op for op in ops)
    vals, vecs = np.linalg.eigh(S)
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    return validate_measurement([op @ inv_sqrt for op in ops])


def canonical_phase_align(M: Measurement, N: Measurement) -> Measurement:
    """Rephase each N_i so <M_i, N_i> is real and non-negative.

    Picks the unique representative of N's phase class with that property;
    outcomes where the inner product vanishes keep their phase.
    """
    if M.dim != N.dim:
        raise DimensionMismatch("measurements live on different dimensions")
    aligned = []
    for i, op in enumerate(N.operators):
        ip = hs_inner(M.operator(i), op)
        if abs(ip) < 1e-14:
            aligned.append(op.copy())
        else:
            aligned.append(op * np.exp(-1j * np.angle(ip)))
    frozen = []
    for m in aligned:
        m.setflags(write=False)
        frozen.append(m)
    return Measurement(operators=tuple(frozen), completeness_residual=N.completeness_residual)
