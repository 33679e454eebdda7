"""Dense complex linear algebra for quantum measurements.

Operators are plain complex numpy matrices.  A measurement is one read-only
(k, D, D) array of them, ordered, whose squares sum to the identity.  Everything
here is exact desk-scale simulation: no sparsity, no circuit decompositions.  The
outcome law p(M_i) = |M_i|_F^2/D (``Measurement.outcome_probs``), its one
zero rule (``vanishes``) and the overlap law (``unit_overlap``) live here.
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


def vanishes(A) -> bool:
    """p(A) = |A|_F^2/D < 1e-14, which every law of A's post-state divides by."""
    return choi_prob(A) < 1e-14


def unit_overlap(A, B) -> complex:
    """tr(A^dag B) / (|A|_F |B|_F), the overlap of the normalized vectorized
    operators; 0 when either operator ``vanishes``."""
    if vanishes(A) or vanishes(B):
        return 0.0
    return hs_inner(A, B) / (float(np.linalg.norm(A)) * float(np.linalg.norm(B)))


@dataclass(frozen=True)
class Measurement:
    """Ordered operators M_1..M_k with sum_i M_i^dag M_i = I, as one (k, D, D) array.

    Outcome indices are 0-based in code.  Operators beyond the stored ones are
    implicitly zero, which is how measurements with different outcome counts
    are compared.
    """

    operators: np.ndarray
    completeness_residual: float
    dim: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", self.operators.shape[1])

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
    """Check the completeness equation and hold the operators as one read-only
    (k, D, D) complex128 block: such a block that owns its memory (``base is None``)
    is kept, and anything else is copied once.  The finite check and the Gram sum
    run one operator at a time, so their temporaries stay D x D.
    """
    if len(ops) == 0:
        raise ValueError("measurement needs at least one operator")
    if not (isinstance(ops, np.ndarray) and ops.dtype == np.complex128
            and ops.base is None and not ops.flags.writeable):
        if len({np.shape(op) for op in ops}) > 1:  # before numpy's plain ragged-array error
            raise DimensionMismatch("measurement operators have mixed dimensions")
        ops = np.array(ops, dtype=np.complex128)
        ops.setflags(write=False)
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
        raise DimensionMismatch(f"expected square matrices, got shape {ops.shape[1:]}")
    if not all(np.isfinite(m).all() for m in ops):
        raise ValueError("operator contains NaN or Inf entries")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves a NaN residual
        gram = sum(m.conj().T @ m for m in ops)
        residual = float(np.linalg.norm(gram - np.eye(ops.shape[1])))
    if not residual <= tol:  # a NaN residual, from overflowing entries, fails too
        raise CompletenessViolation(
            f"sum_i M_i^dag M_i deviates from I by {residual:.3e} (tol {tol:.1e})"
        )
    return Measurement(operators=ops, completeness_residual=residual)


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
