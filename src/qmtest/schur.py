"""The symmetry projection, the isotypic projectors and the Schur basis.

``twirl`` projects an operator onto the commutant of the site permutations,
the group average (1/n!) sum_p P_p A P_p^dag, by O(n^2) axis swaps and no
basis; the symmetry check's law, its pass probability ``symmetric_mass``,
uses it alone.  ``isotypic_projectors`` builds no basis either: its blocks
are eigenspaces of a central element in Jucys-Murphy elements, the content
sum plus the squared contents, as content sums alone collide: (4, 1, 1) and
(3, 3) both give 3.

The Schur basis serves only ``qmtest schur`` and the tests' oracles for the
twirl and the projectors.  For n qudits, the permutation action and the
collective action E^{(x)n} commute, and the space splits into blocks labelled
by partitions of n with at most d parts.  The transform is built numerically
from the same Jucys-Murphy eigenvectors: each block's first-tableau vectors are
a joint eigenspace of X_2..X_n, and Young's orthogonal form steps from them to
every other tableau; nothing n!-sized is built, so d^n <= MAX_DIM is the only
size limit.

Every basis, built here or read from a cache, goes through one constructor,
``SchurBasis.from_unitary``, which lays out the blocks and verifies U.  The
permutation part of the check runs on the n - 1 adjacent transpositions
s_j = (j, j+1) alone.  Both p -> U P_p U^dag and p -> (+)_lambda I_w (x)
rho_lambda(p) are homomorphisms (the site permutation unitaries have
P_{p s} = P_p P_s, and rho_lambda is a representation, of which
``_yor_generators`` gives the generators), and every permutation is a word of
at most n(n-1)/2 generators, so the generator residuals bound the residual of
all n! permutations; see ``verify_schur_basis``.  Each U P_{s_j}, a column
gather of U, is compared with R_{s_j} U inside each block, and by Schur's lemma
the collective residual follows with no product formed; see the same place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import DimensionMismatch, Measurement, QmtestError, as_operator, validate_measurement

Partition = tuple[int, ...]

MAX_DIM = 1024


class VerificationFailure(QmtestError):
    """A constructed transform failed its structural checks."""


def partitions(n: int, d: int) -> list[Partition]:
    """Partitions of n into at most d parts, lexicographically decreasing."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    out: list[Partition] = []

    def grow(prefix: tuple[int, ...], remaining: int, cap: int):
        if remaining == 0:
            out.append(prefix)
            return
        if len(prefix) == d:
            return
        for part in range(min(cap, remaining), 0, -1):
            grow(prefix + (part,), remaining - part, part)

    grow((), n, n)  # largest part first, so the order is already decreasing
    return out


def hook_lengths(shape: Partition) -> dict[tuple[int, int], int]:
    """Hook length (arm + leg + 1) of every box, keyed by 0-based (row, col)."""
    hooks = {}
    for i, row_len in enumerate(shape):
        for j in range(row_len):
            arm = row_len - j - 1
            leg = sum(1 for r in shape[i + 1 :] if r > j)
            hooks[(i, j)] = arm + leg + 1
    return hooks


def _hook_quotient(numerator, shape: Partition) -> int:
    """prod(numerator) over the hook product of ``shape``, which must divide it."""
    top, hooks = math.prod(numerator), math.prod(hook_lengths(shape).values())
    dim, rem = divmod(top, hooks)
    if rem:
        raise ArithmeticError(f"hook product {hooks} of {shape} does not divide {top}")
    return dim


def dim_sn(shape: Partition) -> int:
    """Dimension of the symmetric-group irrep: n! over the hook product."""
    return _hook_quotient(range(1, sum(shape) + 1), shape)


def dim_gl(shape: Partition, d: int) -> int:
    """Dimension of the GL(d) irrep: product of (d + col - row) over the hook product."""
    return _hook_quotient((d + j - i for i, j in hook_lengths(shape)), shape)


def checked_dimension(d: int, n: int) -> int:
    """d^n for d, n >= 1; ValueError when it exceeds MAX_DIM.  With d >= 2, an
    n past MAX_DIM's bit length is refused before d**n is formed."""
    if d > 1 and n > MAX_DIM.bit_length() or d**n > MAX_DIM:
        raise ValueError(f"d^n must stay <= {MAX_DIM}")
    return d**n


def _perm_row_map(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Row index hit by each column of the permutation unitary.

    Axis s of the transposed (d,)*n index tensor is axis perm[s] of the
    original, so column i maps to the index whose digit at perm[s] is i_s.
    """
    n = len(perm)
    return np.arange(d**n).reshape((d,) * n).transpose(perm).reshape(-1)


def _transposition(j: int, k: int, n: int) -> tuple[int, ...]:
    """The permutation (j k) of n sites, which swaps sites j and k."""
    return tuple(k if s == j else j if s == k else s for s in range(n))


def twirl(A, d: int, n: int) -> np.ndarray:
    """Projection of A onto the commutant of S_n: (1/n!) sum_p P_p A P_p^dag.

    Averages over the coset chain S_1 < ... < S_n (Harrow, "The church of the
    symmetric subspace", arXiv:1308.6595): with T_0 = A, the identity and the
    transpositions (j k), j < k, represent the cosets of S_k in S_{k+1}, so
    T_k = (T_{k-1} + sum_{j<k} Ad_{(j k)} T_{k-1}) / (k + 1) is S_{k+1}-invariant.
    Ad_{(j k)} swaps row axes j, k and column axes n+j, n+k of the (d,)*2n
    tensor, so the cost is O(n^2 D^2) with about three D x D arrays alive.
    """
    A = as_operator(A)
    if A.shape[0] != d**n:
        raise DimensionMismatch(f"operator dimension {A.shape[0]} is not {d}^{n}")
    T = A.reshape((d,) * (2 * n))
    for k in range(1, n):
        acc = T.copy()
        for j in range(k):
            axes = list(range(2 * n))
            axes[j], axes[k], axes[n + j], axes[n + k] = k, j, n + k, n + j
            acc += T.transpose(axes)
        T = np.divide(acc, k + 1, out=acc)
    return T.reshape(A.shape)


def symmetric_mass(meas: Measurement, d: int, n: int) -> float:
    """The symmetry check's pass probability, (1/D) sum_i |twirl(M_i)|_F^2 clipped to 1."""
    mass = 0.0
    for op in meas.operators:
        hat = twirl(op, d, n)
        mass += float(np.vdot(hat, hat).real)
    return min(mass / meas.dim, 1.0)


def standard_tableaux(shape: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All standard fillings with 1..n, sorted by their row-word for stability."""
    n = sum(shape)

    def fills(current_rows, value):
        if value > n:
            yield tuple(tuple(r) for r in current_rows)
            return
        for i, row_len in enumerate(shape):
            filled = len(current_rows[i])
            if filled < row_len and (i == 0 or len(current_rows[i - 1]) > filled):
                current_rows[i].append(value)
                yield from fills(current_rows, value + 1)
                current_rows[i].pop()

    tabs = list(fills([[] for _ in shape], 1))
    tabs.sort()
    return tabs


def _yor_generators(shape: Partition) -> list[np.ndarray]:
    """Orthogonal-representation matrices of the adjacent transpositions.

    Basis: standard tableaux in standard_tableaux() order.  The matrix for
    swapping values (i, i+1) has diagonal 1/axial distance and, when the
    swapped filling is again standard, symmetric off-diagonal
    sqrt(1 - 1/dist^2).
    """
    tabs = standard_tableaux(shape)
    index = {t: k for k, t in enumerate(tabs)}
    n = sum(shape)
    v = len(tabs)
    gens = []
    for i in range(1, n):
        mat = np.zeros((v, v))
        for k, tab in enumerate(tabs):
            pos = {}
            for r, row in enumerate(tab):
                for c, val in enumerate(row):
                    pos[val] = (r, c)
            (r1, c1), (r2, c2) = pos[i], pos[i + 1]
            dist = (c2 - r2) - (c1 - r1)
            mat[k, k] = 1.0 / dist
            swapped = tuple(
                tuple(i + 1 if val == i else i if val == i + 1 else val for val in row)
                for row in tab
            )
            if swapped in index:
                other = index[swapped]
                mat[other, k] = math.sqrt(1.0 - 1.0 / dist**2)
        gens.append(mat)
    return gens


@dataclass(frozen=True)
class SchurBasis:
    """Unitary change of basis plus the label bookkeeping.

    ``U`` maps standard coordinates to symmetry-adapted coordinates; row k of
    U is the bra of the k-th adapted vector.  Basis order: partitions in
    partitions() order, then the collective index a, then the permutation
    index b, so index k of block lambda is offset + a*v + b.  ``residuals``
    are those of the verification ``from_unitary`` ran.
    """

    d: int
    n: int
    U: np.ndarray
    shapes: tuple[Partition, ...]
    blocks: dict[Partition, tuple[int, int, int]]  # shape -> (offset, w, v)
    residuals: dict[str, float] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_unitary(cls, d: int, n: int, U: np.ndarray) -> SchurBasis:
        """Lay out the blocks of (d, n) around U, then verify the result.

        U is made read-only.  Raises VerificationFailure when U fails
        ``verify_schur_basis``; the residuals are kept on the basis.
        """
        shapes, blocks = _block_layout(d, n)
        if U.shape != (d**n, d**n):
            raise DimensionMismatch(f"U has shape {U.shape}, expected {(d**n, d**n)}")
        U.setflags(write=False)
        basis = cls(d=d, n=n, U=U, shapes=shapes, blocks=blocks)
        return replace(basis, residuals=verify_schur_basis(basis))

    @property
    def D(self) -> int:
        return self.d**self.n


def _block_layout(d: int, n: int) -> tuple[tuple[Partition, ...], dict]:
    """Block shapes in basis order and each one's (offset, w, v)."""
    shapes = tuple(partitions(n, d))
    blocks: dict[Partition, tuple[int, int, int]] = {}
    offset = 0
    for shape in shapes:
        w, v = dim_gl(shape, d), dim_sn(shape)
        blocks[shape] = (offset, w, v)
        offset += w * v
    if offset != d**n:
        raise VerificationFailure("block dimensions do not add up to d^n")
    return shapes, blocks


def build_schur_transform(d: int, n: int) -> SchurBasis:
    """Construct and verify the symmetry-adapted transform for (d, n).

    Young's orthogonal basis is the Gelfand-Tsetlin basis, on which X_k acts as
    the content of the box holding k (Okounkov and Vershik, arXiv:math/0503040).
    Within block lambda, the eigenspace of each X_k at its content in the first
    tableau T_0 is the image of the matrix unit e_00, spanned by the chain's V,
    and Gram-Schmidt over the columns of V V^T, each V times a row of V, gives
    the seeds; as V keeps inner products, it runs on the rows of V, with no D x D
    projector formed.  Every other tableau T is s_i T' for an earlier T', as
    swapping i and i + 1 with i + 1 in a higher row gives a smaller standard
    tableau, and P_{s_i}|T'> = g[T', T']|T'> + g[T, T']|T> with g = rho(s_i)
    gives |T>.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    gathers, spaces = _jucys_murphy_blocks(d, n)
    shapes, blocks = _block_layout(d, n)
    D = d**n
    U = np.zeros((D, D), dtype=np.complex128)
    for shape, V in zip(shapes, spaces):
        offset, w, v = blocks[shape]
        # T_0 holds 1..n in reading order, so contents[k] is the content of k + 1
        contents = [c - r for r, length in enumerate(shape) for c in range(length)]
        for k, rows in enumerate(gathers, start=1):
            values, vectors = np.linalg.eigh(V.T @ sum(V[r] for r in rows))  # V^T X_{k+1} V
            V = V @ vectors[:, np.abs(values - contents[k]) < 0.5]
        columns = [V @ _orthonormal_image(V.T, w, shape)]
        gens = _yor_generators(shape)
        for b in range(1, v):
            # off the diagonal, gens[i] couples T only to T' = s_i T
            i, earlier = next((i, e) for i, g in enumerate(gens) for e in np.flatnonzero(g[b, :b]))
            g, prev = gens[i], columns[earlier]
            swapped = prev[_perm_row_map(_transposition(i, i + 1, n), d)]  # P_{s_i} |T'>
            columns.append((swapped - g[earlier, earlier] * prev) / g[b, earlier])
        # row offset + a*v + b is the bra of column a of columns[b]
        U[offset : offset + w * v] = np.stack(columns).transpose(2, 0, 1).reshape(w * v, D).conj()
    return SchurBasis.from_unitary(d, n, U)


def _orthonormal_image(mat: np.ndarray, rank: int, shape: Partition) -> np.ndarray:
    """Deterministic orthonormal basis of a matrix's column span (columns).

    Modified Gram-Schmidt over the columns in column order, with a
    re-orthogonalization pass; fails loudly if the detected rank is off.
    """
    vectors: list[np.ndarray] = []
    for c in range(mat.shape[1]):
        vec = mat[:, c].astype(np.complex128)
        for _ in range(2):
            for u in vectors:
                vec = vec - u * np.vdot(u, vec)
        norm = float(np.linalg.norm(vec))
        if norm > 1e-8:
            vectors.append(vec / norm)
        if len(vectors) == rank:
            break
    if len(vectors) != rank:
        raise VerificationFailure(
            f"image for shape {shape} has rank {len(vectors)}, expected {rank}"
        )
    return np.column_stack(vectors)


def _gathered_residual(basis: SchurBasis) -> float:
    """max_s |U P_s - R_s U|_F: a column gather of U against a row mix inside each block."""
    squares = np.zeros(basis.n - 1)
    for shape in basis.shapes:
        offset, w, v = basis.blocks[shape]
        block = basis.U[offset : offset + w * v]
        for j, g in enumerate(_yor_generators(shape)):
            rows = _perm_row_map(_transposition(j, j + 1, basis.n), basis.d)
            mixed = (g @ block.reshape(w, v, basis.D)).reshape(w * v, basis.D)
            squares[j] += np.linalg.norm(block[:, rows] - mixed) ** 2
    return math.sqrt(squares.max(initial=0.0))


def verify_schur_basis(basis: SchurBasis) -> dict[str, float]:
    """Check unitarity and both intertwining block structures.

    ``unitarity`` is eta = |U U^dag - I|_F = |U^dag U - I|_F (the products share
    their eigenvalues), so |U|^2 <= 1 + eta in operator norm.
    ``permutation_blocks`` bounds |Q_p - R_p|_F, Q_p = U P_p U^dag and R_p =
    (+)_lambda I_w (x) rho_lambda(p), over all n! permutations p, from the n - 1
    adjacent transpositions s alone, each compared inside the blocks: g is the
    largest |U P_s - R_s U|_F (``_gathered_residual``).  As Q_s - R_s =
    (U P_s - R_s U) U^dag + R_s (U U^dag - I), |U^dag| <= 1 + eta and R_s is
    orthogonal, each generator residual is at most r = g (1 + eta) + eta.  With
    a = r + eta, appending a generator to a word of residual e gives a residual
    of at most e + a + e r + eta^2 <= (e + a)(1 + a), and every p is a word of
    at most K = n(n-1)/2 generators, so up to rounding each residual is at most
    K a (1 + a)^K, which is K (r + eta) to first order.

    ``collective_blocks`` bounds |X - Pi(X)|_F, X = U F U^dag, F = E^{(x)n}, for
    every unitary E, where Pi(X) = (1/n!) sum_p R_p X R_p^dag.  The rho_lambda
    are irreducible and pairwise inequivalent, so by Schur's lemma Pi(X) is the
    I_v-factored part of X, the ``hat`` of ``block_decompose``: 0 between
    blocks and (1/v) tr_v(X_lambda,lambda) (x) I_v on block lambda.  With e the
    permutation bound and Delta = U^dag U - I, as P_p F P_p^dag = F,
    X - Q_p X Q_p^dag = -U P_p (Delta F + F Delta + Delta F Delta) P_p^dag U^dag
    has norm <= (1 + eta)(2 eta + eta^2), and Q_p X Q_p^dag - R_p X R_p^dag =
    (Q_p - R_p) X Q_p^dag + R_p X (Q_p - R_p)^dag has norm <= 2 e (1 + eta)^2.
    So |X - Pi(X)|_F <= max_p |X - R_p X R_p^dag|_F is at most the reported
    (2 b + b^2)(1 + b)^2, b = e + eta.

    Raises VerificationFailure when either block residual exceeds 1e-8 or
    the unitarity residual exceeds 1e-10.  Returns the residuals for reporting.
    """
    unitarity = float(np.linalg.norm(basis.U @ basis.U.conj().T - np.eye(basis.D)))
    words = basis.n * (basis.n - 1) // 2
    a = _gathered_residual(basis) * (1.0 + unitarity) + 2.0 * unitarity  # r + eta
    perm_res = max(unitarity, words * a * (1.0 + a) ** words)
    b = perm_res + unitarity
    collective_res = (2.0 * b + b * b) * (1.0 + b) ** 2
    residuals = {"unitarity": unitarity, "permutation_blocks": perm_res,
                 "collective_blocks": collective_res}
    if unitarity > 1e-10 or perm_res > 1e-8 or collective_res > 1e-8:
        raise VerificationFailure(f"block-structure residuals too large: {residuals}")
    return residuals


@dataclass(frozen=True)
class BlockDecomposition:
    """Invariant part of U A U^dag in the symmetry-adapted basis.

    ``hat`` collects the identity-on-permutation-factor component of every
    diagonal block, and ``per_lambda_hat[shape]`` is that block's collective
    factor, so hat = (+)_lambda per_lambda_hat[lambda] (x) I_v.  U^dag hat U is
    ``twirl(A)``.
    """

    hat: np.ndarray
    per_lambda_hat: dict[Partition, np.ndarray]


def block_decompose(A, basis: SchurBasis) -> BlockDecomposition:
    A = as_operator(A)
    if A.shape[0] != basis.D:
        raise DimensionMismatch("operator dimension does not match the basis")
    B = basis.U @ A @ basis.U.conj().T
    hat = np.zeros_like(B)
    per_lambda: dict[Partition, np.ndarray] = {}
    for shape in basis.shapes:
        offset, w, v = basis.blocks[shape]
        sl = slice(offset, offset + w * v)
        collective = np.einsum("abcb->ac", B[sl, sl].reshape(w, v, w, v)) / v
        hat[sl, sl] = np.kron(collective, np.eye(v))
        per_lambda[shape] = collective
    return BlockDecomposition(hat=hat, per_lambda_hat=per_lambda)


def _jucys_murphy_blocks(d: int, n: int) -> tuple[list, list[np.ndarray]]:
    """Row gathers of the Jucys-Murphy elements and each block's eigenvectors.

    For d, n >= 1 with d^n <= MAX_DIM; nothing n!-sized is built.  Returns
    the gathers of X_k = sum_{j<k} (j k), one row array per transposition
    (P_(j k) A = A[r], as P = P^T), for k = 2..n, and the real orthonormal
    eigenvectors spanning each block in partitions() order.  X_k acts on block
    lambda as the content of the box holding k, so the real symmetric
    Z = (n^3 + 1) sum_k X_k + sum_k X_k^2 is (n^3 + 1) sum c + sum c^2 there,
    fixing both sums as 0 <= sum c^2 <= n^3; content sums alone collide:
    (4, 1, 1) and (3, 3) both give 3.  A site permutation keeps each basis
    vector's digit multiset, so Z has no entries between two multisets' spans,
    the weight spaces, and is built per span from the m x m matrices of the
    transpositions on its m indices; one ``eigh`` per span leaves each eigenvector
    on its span, with exact zeros elsewhere.  A wrong rank raises VerificationFailure.
    """
    D = checked_dimension(d, n)
    gathers = [[_perm_row_map(_transposition(j, k, n), d) for j in range(k)] for k in range(1, n)]
    keys = d ** np.arange(n) @ np.sort(np.indices((d,) * n).reshape(n, D), axis=0)
    values, vectors = np.zeros(D), np.zeros((D, D))
    for key in np.unique(keys):
        span = np.flatnonzero(keys == key)
        Z = np.zeros((len(span), len(span)))
        for rows in gathers:
            X = sum(np.equal.outer(r[span], span) for r in rows).astype(float)  # X_k on the span
            Z += (n**3 + 1) * X + X @ X
        values[span], vectors[np.ix_(span, span)] = np.linalg.eigh(Z)
    spaces = []
    for shape in partitions(n, d):
        c = np.array([j - i for i, length in enumerate(shape) for j in range(length)])
        V = vectors[:, np.abs(values - (n**3 + 1) * c.sum() - c @ c) < 0.5]
        rank = dim_gl(shape, d) * dim_sn(shape)
        if V.shape[1] != rank:
            raise VerificationFailure(f"block {shape} has rank {V.shape[1]}, expected {rank}")
        spaces.append(V)
    return gathers, spaces


def isotypic_projectors(d: int, n: int) -> Measurement:
    """Projective measurement onto the partition blocks, in partitions() order,
    for d, n >= 1 with d^n <= MAX_DIM: V V^T over each block's eigenvectors V
    from ``_jucys_murphy_blocks``, so n has no cap, written into the real parts
    of one read-only block that the measurement keeps.  Each eigenvector lies on
    one digit multiset's span, so entries between two spans are exact zeros.
    """
    spaces = _jucys_murphy_blocks(d, n)[1]
    ops = np.zeros((len(spaces), d**n, d**n), dtype=complex)
    for op, V in zip(ops, spaces):
        op.real = V @ V.T
    ops.setflags(write=False)
    return validate_measurement(ops)
