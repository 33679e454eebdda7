"""Dense complex linear algebra for quantum measurements.

Operators are plain complex numpy matrices.  A measurement is one read-only
(k, D, D) array of them, ordered, whose squares sum to the identity.  Everything
here is exact desk-scale simulation with dense operators and no circuit
decompositions; the one use of sparsity is the completeness check, which sums
the Gram matrix over the blocks of the operators' common nonzero pattern.  The
outcome law p(M_i) = |M_i|_F^2/D (``Measurement.outcome_probs``), its one
zero rule (``vanishes``) and the overlap law (``unit_overlap``) live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_COMPLETENESS_TOL = 1e-8
GRAM_ROWS = 64  # rows of the Gram matrix that the completeness check forms at a time


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
    is kept, and anything else is copied once.  The finite check runs one
    operator at a time, and the completeness check forms no D x D complex
    array: its temporaries are the boolean nonzero pattern, the gathered
    blocks of that pattern and ``GRAM_ROWS`` rows of the Gram matrix.
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
    residual = _completeness_residual(ops)
    if not residual <= tol:  # a NaN residual, from overflowing entries, fails too
        raise CompletenessViolation(
            f"sum_i M_i^dag M_i deviates from I by {residual:.3e} (tol {tol:.1e})"
        )
    return Measurement(operators=ops, completeness_residual=residual)


def _completeness_residual(ops: np.ndarray) -> float:
    """|G - I|_F for the Gram matrix G = sum_i M_i^dag M_i of a (k, D, D) block.

    G[j, l] sums products M_i[r, j]^* M_i[r, l], so it vanishes unless j and l
    lie in one connected component of the symmetric nonzero pattern of the
    operators, and each component's part of G comes from the operators'
    entries inside it.  So |G - I|_F^2 is a sum over components: the
    singletons j, where G_jj = sum_i |M_i[j, j]|^2, in one vectorized step,
    and each other component by ``_gram_deviation`` on its gathered entries
    (on the operators themselves when it covers all of D).  Overflowing
    entries give an Inf or NaN residual.
    """
    singles, blocks = _pattern_components(ops)
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = ops[:, singles, singles]
        gram = (diagonal.real**2 + diagonal.imag**2).sum(axis=0)
        total = float(((gram - 1) ** 2).sum())
        for block in blocks:
            part = ops if block.size == ops.shape[1] else ops[:, block[:, None], block]
            total += _gram_deviation(part)
    return math.sqrt(total)


def _pattern_components(ops: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The indices with no nonzero entry off the diagonal in their row or
    column of any operator, and the other connected components of the
    symmetric nonzero pattern, each as sorted indices."""
    pattern = ops[0] != 0
    for m in ops[1:]:
        pattern |= m != 0
    pattern |= pattern.T
    np.fill_diagonal(pattern, False)
    single = ~pattern.any(axis=1)
    seen = single.copy()
    blocks = []
    for start in np.flatnonzero(~single):
        if seen[start]:
            continue
        members = np.zeros_like(seen)
        members[start] = True
        frontier = members
        while frontier.any():  # breadth-first: the neighbours not reached yet
            frontier = pattern[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        blocks.append(np.flatnonzero(members))
    return np.flatnonzero(single), blocks


def _gram_deviation(ops: np.ndarray) -> float:
    """|G - I|_F^2 for G = sum_i M_i^dag M_i, formed ``GRAM_ROWS`` rows at a time.

    Rows lo:hi of G are sum_i M_i[:, lo:hi]^dag M_i, and G is Hermitian, so
    each block needs only its columns from lo on: the square part on the
    diagonal counts once and the rest twice.
    """
    total = 0.0
    for lo in range(0, ops.shape[1], GRAM_ROWS):
        hi = min(lo + GRAM_ROWS, ops.shape[1])
        rows = ops[0][:, lo:hi].conj().T @ ops[0][:, lo:]
        for m in ops[1:]:
            rows += m[:, lo:hi].conj().T @ m[:, lo:]
        j = np.arange(hi - lo)
        rows[j, j] -= 1
        square = rows[:, : hi - lo]
        total += 2 * np.vdot(rows, rows).real - np.vdot(square, square).real
    return float(total)


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
