"""Dense complex linear algebra for quantum measurements.

Operators are plain complex numpy matrices.  A measurement is an ordered
collection of operators whose squares sum to the identity.  Everything here is
exact desk-scale simulation: no sparsity, no circuit decompositions.
"""

from __future__ import annotations

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
    if not residual <= tol:  # a NaN residual, from overflowing entries, fails too
        raise CompletenessViolation(
            f"sum_i M_i^dag M_i deviates from I by {residual:.3e} (tol {tol:.1e})"
        )
    frozen = []
    for m in mats:
        m = m.copy()
        m.setflags(write=False)
        frozen.append(m)
    return Measurement(operators=tuple(frozen), completeness_residual=residual)


def choi_prob(A) -> float:
    """p(A) = |A|_F^2 / D; the outcome probability of A in the entangled query."""
    A = as_operator(A)
    return float(np.linalg.norm(A)) ** 2 / A.shape[0]


def random_unitary(D: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    raw = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    q, r = np.linalg.qr(raw)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
