"""Generalized Pauli operators on n qudits and operator decompositions.

Site operators follow the shift-clock form sigma_{x,z} = sum_j w^{jz}|j+x><j|
(indices mod d, w = exp(2*pi*i/d)); for qubits the x=z=1 case is taken to be
the Hermitian Y so that single-site operators are I, X, Z, Y.  Labels iterate
in lexicographic (x, z) order throughout, which fixes every categorical
sampler's category order.

Every coefficient comes from one transform, ``mu_vector``, which writes into
two preallocated D x D buffers (D = d^n) and leaves its result in label order,
with no transpose and no per-label index or phase tables.  For qubits it goes
site by site: the operator is viewed as a (2,)*2n tensor, and each site's
(row, column) pair of axes is mapped in place to that site's (x, z) pair by
exact sums, O(n D^2) in all.  For d >= 3 the (x, z) coefficient is a DFT of
the entries A[x (+) b, b] over b, so one gather and two matrix products over
halves of the digits give every coefficient, O(d^(n/2) D^2).  Beside it live
the label laws ``q_distribution`` and ``xi_distribution`` and the qubit sign
law ``sign_plus_prob``.
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


SITE_CHUNK = 1 << 14  # operator entries a qubit site step reads at a time, so they stay in cache


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


def _qubit_site(t: np.ndarray, o: np.ndarray):
    """Write the (x, z) pairs of t's transform into o, for d = 2; t and o are
    (l, a, m, b, r) views with the site's pair at axes 1 and 3.

    tr(sigma^dag Q) of a 2 x 2 pair Q is a sum of two entries times 1 or -i,
    so each output is one exact sum, as a product with the entries 0, +-1 and
    +-i of I, Z, X and Y = iXZ would give.
    """
    np.add(t[:, 0, :, 0], t[:, 1, :, 1], out=o[:, 0, :, 0])  # I
    np.subtract(t[:, 0, :, 0], t[:, 1, :, 1], out=o[:, 0, :, 1])  # Z
    np.add(t[:, 1, :, 0], t[:, 0, :, 1], out=o[:, 1, :, 0])  # X
    # Y: -i (Q[1, 0] - Q[0, 1]), one part at a time
    np.subtract(t[:, 1, :, 0].imag, t[:, 0, :, 1].imag, out=o[:, 1, :, 1].real)
    np.subtract(t[:, 0, :, 1].real, t[:, 1, :, 0].real, out=o[:, 1, :, 1].imag)


@lru_cache(maxsize=None)
def _digit_sums(d: int, m: int) -> np.ndarray:
    """(d^m, d^m) table of x (+) b, the digitwise sum mod d of two m-digit indices."""
    x = np.arange(d**m)
    sums = np.zeros((d**m, d**m), dtype=np.intp)
    for s in range(m):
        place = d**s
        sums += (x[:, None] // place + x // place) % d * place
    sums.setflags(write=False)
    return sums


@lru_cache(maxsize=None)
def _dft(d: int, m: int) -> np.ndarray:
    """The symmetric (d^m, d^m) matrix with [z, b] = w^{-b.z} over m digits,
    from the site table."""
    site = _site_matrices(d)[0].diagonal(axis1=1, axis2=2).conj()  # Z^z's diagonal, conjugated
    out = np.ones((1, 1), dtype=np.complex128)
    for _ in range(m):
        out = np.kron(out, site)
    out.setflags(write=False)
    return out


def _qudit_transform(A: np.ndarray, first: np.ndarray, second: np.ndarray, d: int, n: int):
    """D * mu of A at d >= 3, written into ``first`` (``second`` is scratch).

    sigma_{x,z} has the entry w^{b.z} at row x (+) b of column b, so D mu_{x,z}
    is sum_b w^{-b.z} A[x (+) b, b].  A gather puts A[x (+) b, b] at [x, b],
    and two matrix products take the DFT over b's last n // 2 digits and then
    over the others, in place of one product per site.
    """
    D, k = A.shape[0], n // 2
    high, low = d ** (n - k), d**k
    sums = _digit_sums(d, n - k)
    lows = _digit_sums(d, k) * D + np.arange(low)  # [x_low, b_low]: flat offset of the low digits
    gathered = first.reshape(high, low, high, low)
    flat = A.reshape(-1)
    for x in range(high):  # rows whose high digits are x
        offsets = sums[x] * (low * D) + np.arange(high) * low  # [b_high]
        np.take(flat, offsets[:, None] + lows[:, None, :], out=gathered[x])
    np.matmul(first.reshape(D * high, low), _dft(d, k), out=second.reshape(D * high, low))
    np.matmul(_dft(d, n - k), second.reshape(D, high, low), out=first.reshape(D, high, low))
    return first


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
    """All d^{2n} coefficients mu_l = tr(sigma_l^dag A) / d^n, in label order.

    Two D x D buffers hold the work: a qubit site step reads one (A itself at
    first) and writes the other, ``SITE_CHUNK`` entries at a time, and at
    d >= 3 ``_qudit_transform`` gathers into one and multiplies through the other.
    """
    A = as_operator(A)
    D = d**n
    if A.shape[0] != D:
        raise DimensionMismatch(f"operator dim {A.shape[0]} != {d}^{n}")
    first, second = np.empty((D, D), dtype=np.complex128), np.empty((D, D), dtype=np.complex128)
    if d == 2:
        T = A
        # nothing is cast, so numpy's iteration buffers (8192 entries an operand
        # by default, allocated on every call over these strided views) go unused
        buffer_size = np.setbufsize(256)
        try:
            for s in range(n):
                out = second if T is first else first
                shape = (2**s, 2, 2 ** (n - 1), 2, 2 ** (n - 1 - s))  # the site's pair at axes 1, 3
                t, o = T.reshape(shape), out.reshape(shape)
                step = max(1, SITE_CHUNK * 2**s // D**2)  # leading indices per chunk
                for lo in range(0, 2**s, step):
                    _qubit_site(t[lo : lo + step], o[lo : lo + step])
                T = out
        finally:
            np.setbufsize(buffer_size)
        mu = A.copy() if T is A else T  # n = 0 leaves A alone
    else:
        mu = _qudit_transform(A, first, second, d, n)
    parts = mu.view(np.float64)  # a real divisor divides each part alone
    parts /= D
    parts += 0.0  # -0.0 becomes 0.0, as in a matrix product's sums
    return mu.reshape(-1)


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
