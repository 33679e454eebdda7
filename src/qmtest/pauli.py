"""Generalized Pauli operators on n qudits and operator decompositions.

Site operators follow the shift-clock form sigma_{x,z} = sum_j w^{jz}|j+x><j|
(indices mod d, w = exp(2*pi*i/d)); for qubits the x=z=1 case is taken to be
the Hermitian Y so that single-site operators are I, X, Z, Y.  Labels iterate
in lexicographic (x, z) order throughout, which fixes every categorical
sampler's category order.

Every coefficient comes from one transform.  A D x D operator (D = d^n) is
reshaped to a (d,)*2n tensor, and each site's (row, column) pair is
contracted with the d^2 single-site operators, one ``tensordot`` per site.
That costs O(n d^2 D^2) time and O(D^2) memory, with no per-label index or
phase tables.  Beside it live the label laws ``q_distribution`` and
``xi_distribution`` and the qubit sign law ``sign_plus_prob``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    DimensionMismatch,
    Measurement,
    QmtestError,
    ZeroOperator,
    as_operator,
    validate_measurement,
    vanishes,
)


class DegenerateLabel(QmtestError):
    """The all-zero label does not define a two-outcome projective measurement."""


@dataclass(frozen=True)
class PauliLabel:
    """Pair (x, z) in Z_d^n x Z_d^n indexing a tensor-product Pauli operator."""

    x: tuple[int, ...]
    z: tuple[int, ...]
    d: int = 2

    def __post_init__(self):
        if len(self.x) != len(self.z):
            raise ValueError("x and z must have equal length")
        if any(not 0 <= c < self.d for c in self.x + self.z):
            raise ValueError(f"label components must lie in [0, {self.d - 1}]")

    def is_identity(self) -> bool:
        return not any(self.x) and not any(self.z)


def label_from_index(idx: int, d: int, n: int) -> PauliLabel:
    """The label at ``idx`` in lexicographic (x, z) order: its 2n base-d digits."""
    digits = tuple(int(c) for c in np.unravel_index(idx, (d,) * (2 * n)))
    return PauliLabel(digits[:n], digits[n:], d)


@lru_cache(maxsize=None)
def _site_matrices(d: int) -> np.ndarray:
    """(d, d, d, d) array whose [x, z] entry is the single-site sigma_{x,z}."""
    if d == 2:
        # exact I, Z, X and Y = i X Z: exp(i pi) would carry rounding error
        eye, X, Z = np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1])
        sites = np.array([[eye, Z], [X, 1j * X @ Z]], dtype=np.complex128)
    else:
        j = np.arange(d)
        sites = np.zeros((d, d, d, d), dtype=np.complex128)
        for x in range(d):
            for z in range(d):
                sites[x, z, (j + x) % d, j] = np.exp(2j * np.pi * (j * z % d) / d)
    sites.setflags(write=False)
    return sites


def _contract_sites(T: np.ndarray, table: np.ndarray, n: int) -> np.ndarray:
    """Contract each site's axis pair of T with the first two axes of table.

    T has shape (d,)*2n with axes (a_1..a_n, b_1..b_n); site s contracts
    (a_s, b_s) against table[a, b, c, e] and the result has axes
    (c_1..c_n, e_1..e_n).
    """
    for s in range(n):
        # site s's pair sits at axes 0 and n - s; its new pair goes last
        T = np.tensordot(T, table, axes=([0, n - s], [0, 1]))
    return T.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))


def pauli_matrix(label: PauliLabel) -> np.ndarray:
    """Dense matrix of the tensor-product operator for ``label``."""
    rows, phases = _pauli_action(label)
    out = np.zeros((rows.size, rows.size), dtype=np.complex128)
    out[rows, np.arange(rows.size)] = phases
    return out


def _pauli_action(label: PauliLabel) -> tuple[np.ndarray, np.ndarray]:
    """(rows, phases) with sigma|j> = phases[j] |rows[j]> for ``label``'s
    operator, built site by site in Kronecker order (site 1 most significant)."""
    sites = _site_matrices(label.d)
    cols = np.arange(label.d)
    rows, phases = np.zeros(1, dtype=np.intp), np.ones(1, dtype=np.complex128)
    for x, z in zip(label.x, label.z):
        site = sites[x, z]
        r = np.argmax(np.abs(site), axis=0)  # each column's one nonzero row
        rows = (rows[:, None] * label.d + r).reshape(-1)
        phases = (phases[:, None] * site[r, cols]).reshape(-1)
    return rows, phases


def sign_plus_prob(meas: Measurement, outcome: int, label: PauliLabel) -> float:
    """Sign law: the probability that ``label``'s qubit Pauli sigma gives +1 on
    outcome i's post-state, tr((I + sigma)/2 M_i M_i^dag) / tr(M_i^dag M_i)."""
    if label.d != 2 or meas.dim != 2 ** len(label.x):
        raise DimensionMismatch("sign measurement is defined for qubit labels on all sites")
    op = meas.operators[outcome]
    if vanishes(op):
        raise ZeroOperator("sign distribution undefined for a zero operator")
    den = float(np.vdot(op, op).real)
    # sigma|j> = phase_j |row_j>, so tr(sigma M M^dag) is
    # sum_j phase_j <M[row_j, :], M[j, :]>: no dense Pauli, no D x D product
    rows, phases = _pauli_action(label)
    num = (den + np.vdot(op[rows], phases[:, None] * op).real) / 2
    return min(max(num / den, 0.0), 1.0)


def _power_check(dim: int, d: int) -> int:
    """The n with dim = d**n; d = 1 has only the power 1, and d < 1 none."""
    if d < 1 or d == 1 and dim > 1:
        raise DimensionMismatch(f"dimension {dim} is not a power of {d}")
    n = 0
    v = dim
    while v > 1:
        if v % d:
            raise DimensionMismatch(f"dimension {dim} is not a power of {d}")
        v //= d
        n += 1
    return n


def mu_vector(A, d: int, n: int) -> np.ndarray:
    """All d^{2n} coefficients mu_l = tr(sigma_l^dag A) / d^n, in label order."""
    A = as_operator(A)
    D = d**n
    if A.shape[0] != D:
        raise DimensionMismatch(f"operator dim {A.shape[0]} != {d}^{n}")
    table = _site_matrices(d).conj().transpose(2, 3, 0, 1)
    return _contract_sites(A.reshape((d,) * (2 * n)), table, n).reshape(-1) / D


def stabilizer_measurement(a, b) -> Measurement:
    """Projective measurement onto the +/-1 eigenspaces of sigma_{a,b}, d=2."""
    a = tuple(int(v) for v in a)
    b = tuple(int(v) for v in b)
    label = PauliLabel(a, b, 2)
    if label.is_identity():
        raise DegenerateLabel("the all-zero label gives the degenerate pair {I, 0}")
    sigma = pauli_matrix(label)
    eye = np.eye(sigma.shape[0])
    return validate_measurement([(eye + sigma) / 2, (eye - sigma) / 2])


def q_distribution(M_i, d: int) -> np.ndarray:
    """Label distribution |mu_{x,z}(M_i)|^2 / p(M_i) in label order."""
    M_i = as_operator(M_i)
    n = _power_check(M_i.shape[0], d)
    if vanishes(M_i):
        raise ZeroOperator("q-distribution undefined for a (near-)zero operator")
    weights = np.abs(mu_vector(M_i, d, n)) ** 2
    # by Parseval, sum |mu|^2 = |M_i|_F^2 / d^n = p(M_i); dividing by the
    # computed sum rather than by p makes the law sum to 1 up to rounding
    return weights / weights.sum()


def xi_distribution(meas: Measurement, d: int) -> np.ndarray:
    """Joint label distribution xi_{x,z} = sum_i |mu_{x,z}(M_i)|^2."""
    n = _power_check(meas.dim, d)
    xi = np.zeros(d ** (2 * n))
    for op in meas.operators:
        xi += np.abs(mu_vector(op, d, n)) ** 2
    return xi / xi.sum()
