"""Symmetric-group machinery and the symmetry-adapted (Schur) basis.

For n qudits, the permutation action and the collective action E^{(x)n}
commute, and the space splits into blocks labelled by partitions of n with at
most d parts.  The transform is built numerically: Young's orthogonal
representation on standard tableaux gives group-algebra matrix units, whose
images carve out the blocks.  Everything is verified after construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import DimensionMismatch, Measurement, QmtestError, as_operator

Partition = tuple[int, ...]

MAX_DIM = 1024
MAX_SITES = 6


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

    grow((), n, n)
    out.sort(reverse=True)
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


def dim_sn(shape: Partition) -> int:
    """Dimension of the symmetric-group irrep: n! over the hook product."""
    n = sum(shape)
    prod = math.prod(hook_lengths(shape).values())
    dim, rem = divmod(math.factorial(n), prod)
    if rem:
        raise ArithmeticError(f"hook product {prod} does not divide {n}!")
    return dim


def dim_gl(shape: Partition, d: int) -> int:
    """Dimension of the GL(d) irrep: product of (d + col - row)/hook."""
    val = Fraction(1)
    for (i, j), hook in hook_lengths(shape).items():
        val *= Fraction(d + j - i, hook)
    if val.denominator != 1:
        raise ArithmeticError(f"non-integer GL dimension for {shape}, d={d}")
    return int(val)


def permutation_operator(perm, d: int) -> np.ndarray:
    """Unitary relocating site s to site perm[s] (0-based images).

    Sends |i_0,...,i_{n-1}> to the basis state whose digit at perm[s] is i_s.
    """
    perm = tuple(int(p) for p in perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    D = d**n
    rows = _perm_row_map(perm, d)
    out = np.zeros((D, D))
    out[rows, np.arange(D)] = 1.0
    return out


def _site_digits(d: int, n: int) -> np.ndarray:
    """(n, d^n) array: digit of each site for every basis index, site 0 leading."""
    D = d**n
    digits = np.empty((n, D), dtype=np.int64)
    v = np.arange(D)
    for s in range(n - 1, -1, -1):
        digits[s] = v % d
        v = v // d
    return digits


def _perm_row_map(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Row index hit by each column of the permutation unitary."""
    n = len(perm)
    digits = _site_digits(d, n)
    inv = [0] * n
    for s, t in enumerate(perm):
        inv[t] = s
    weights = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return weights @ digits[inv]


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


@lru_cache(maxsize=16)
def _group_representations(n: int, shapes: tuple[Partition, ...]):
    """Orthogonal-representation matrices of every permutation of n sites.

    Returns (perms, reps) where reps[perm][j] is the matrix for shapes[j].
    Built by breadth-first composition from adjacent transpositions, so the
    map is a homomorphism for the composition (p*s)(x) = p(s(x)).
    """
    gens = {shape: _yor_generators(shape) for shape in shapes}
    identity = tuple(range(n))
    reps = {identity: tuple(np.eye(dim_sn(s)) for s in shapes)}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            mats = reps[p]
            for j in range(n - 1):
                q = list(p)
                q[j], q[j + 1] = q[j + 1], q[j]
                q = tuple(q)
                if q not in reps:
                    reps[q] = tuple(
                        mats[s] @ gens[shape][j] for s, shape in enumerate(shapes)
                    )
                    nxt.append(q)
        frontier = nxt
    perms = sorted(reps)
    return perms, reps


@dataclass(frozen=True)
class SchurBasis:
    """Unitary change of basis plus the label bookkeeping.

    ``U`` maps standard coordinates to symmetry-adapted coordinates; row k of
    U is the bra of the k-th adapted vector.  Basis order: partitions in
    partitions() order, then the collective index a, then the permutation
    index b, so index k of block lambda is offset + a*v + b.
    """

    d: int
    n: int
    U: np.ndarray
    shapes: tuple[Partition, ...]
    blocks: dict[Partition, tuple[int, int, int]]  # shape -> (offset, w, v)
    triples: tuple[tuple[Partition, int, int], ...] = field(repr=False)

    @property
    def D(self) -> int:
        return self.d**self.n

    def index_of(self, shape: Partition, a: int, b: int) -> int:
        offset, w, v = self.blocks[shape]
        if not (0 <= a < w and 0 <= b < v):
            raise ValueError("collective/permutation index out of range")
        return offset + a * v + b

    def block_slice(self, shape: Partition) -> slice:
        offset, w, v = self.blocks[shape]
        return slice(offset, offset + w * v)

    def permutations(self):
        perms, _ = _group_representations(self.n, self.shapes)
        return perms

    def rep_matrix(self, perm, shape: Partition) -> np.ndarray:
        _, reps = _group_representations(self.n, self.shapes)
        return reps[tuple(perm)][self.shapes.index(shape)]


def _matrix_unit_image(
    d: int, n: int, shape_idx: int, b: int, bp: int, perms, reps, v: int
) -> np.ndarray:
    """Dense image of the group-algebra matrix unit e^shape_{b,bp}."""
    D = d**n
    out = np.zeros((D, D))
    cols = np.arange(D)
    scale = v / math.factorial(n)
    for p in perms:
        coef = scale * reps[p][shape_idx][b, bp]
        if coef == 0.0:
            continue
        out[_perm_row_map(p, d), cols] += coef
    return out


def build_schur_transform(d: int, n: int) -> SchurBasis:
    """Construct and verify the symmetry-adapted transform for (d, n)."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    if d**n > MAX_DIM or n > MAX_SITES:
        raise ValueError(f"d^n must stay <= {MAX_DIM} with n <= {MAX_SITES}")
    shapes = tuple(partitions(n, d))
    perms, reps = _group_representations(n, shapes)
    D = d**n
    dims = [(dim_gl(s, d), dim_sn(s)) for s in shapes]
    if sum(w * v for w, v in dims) != D:
        raise VerificationFailure("block dimensions do not add up to d^n")

    rows = np.zeros((D, D), dtype=np.complex128)
    blocks: dict[Partition, tuple[int, int, int]] = {}
    triples: list[tuple[Partition, int, int]] = []
    offset = 0
    for s, shape in enumerate(shapes):
        w, v = dims[s]
        e00 = _matrix_unit_image(d, n, s, 0, 0, perms, reps, v)
        seeds = _orthonormal_image(e00, w, shape)
        columns = [seeds]
        for b in range(1, v):
            eb0 = _matrix_unit_image(d, n, s, b, 0, perms, reps, v)
            columns.append(eb0 @ seeds)
        for a in range(w):
            for b in range(v):
                rows[offset + a * v + b] = columns[b][:, a].conj()
                triples.append((shape, a, b))
        blocks[shape] = (offset, w, v)
        offset += w * v

    U = rows
    U.setflags(write=False)
    basis = SchurBasis(
        d=d, n=n, U=U, shapes=shapes, blocks=blocks, triples=tuple(triples)
    )
    verify_schur_basis(basis)
    return basis


def _orthonormal_image(proj: np.ndarray, rank: int, shape: Partition) -> np.ndarray:
    """Deterministic orthonormal basis of a projector's image (columns).

    Modified Gram-Schmidt over the projector's columns in column order, with a
    re-orthogonalization pass; fails loudly if the detected rank is off.
    """
    vectors: list[np.ndarray] = []
    for c in range(proj.shape[1]):
        vec = proj[:, c].astype(np.complex128)
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
            f"projector image for shape {shape} has rank {len(vectors)}, expected {rank}"
        )
    return np.column_stack(vectors)


def verify_schur_basis(
    basis: SchurBasis,
    rng: np.random.Generator | None = None,
    random_maps: int = 20,
    tol: float = 1e-8,
) -> dict[str, float]:
    """Check unitarity and both intertwining block structures.

    Raises VerificationFailure when any residual exceeds ``tol`` (unitarity is
    held to 1e-10).  Returns the residuals for reporting.
    """
    if rng is None:
        rng = np.random.default_rng(20240801)
    U = basis.U
    D = basis.D
    unitarity = float(np.linalg.norm(U @ U.conj().T - np.eye(D)))
    perms, reps = _group_representations(basis.n, basis.shapes)
    perm_res = 0.0
    for p in perms:
        got = U @ permutation_operator(p, basis.d) @ U.conj().T
        expected = np.zeros((D, D))
        for s, shape in enumerate(basis.shapes):
            offset, w, v = basis.blocks[shape]
            block = np.kron(np.eye(w), reps[p][s])
            expected[offset : offset + w * v, offset : offset + w * v] = block
        perm_res = max(perm_res, float(np.linalg.norm(got - expected)))
    collective_res = 0.0
    for _ in range(random_maps):
        E = rng.standard_normal((basis.d, basis.d)) + 1j * rng.standard_normal(
            (basis.d, basis.d)
        )
        tensor = E
        for _ in range(basis.n - 1):
            tensor = np.kron(tensor, E)
        got = U @ tensor @ U.conj().T
        approx = np.zeros_like(got)
        for shape in basis.shapes:
            offset, w, v = basis.blocks[shape]
            sl = slice(offset, offset + w * v)
            sub = got[sl, sl].reshape(w, v, w, v)
            collective = np.einsum("abcb->ac", sub) / v
            approx[sl, sl] = np.kron(collective, np.eye(v))
        collective_res = max(collective_res, float(np.linalg.norm(got - approx)))
    residuals = {
        "unitarity": unitarity,
        "permutation_blocks": perm_res,
        "collective_blocks": collective_res,
    }
    if unitarity > 1e-10 or perm_res > tol or collective_res > tol:
        raise VerificationFailure(f"block-structure residuals too large: {residuals}")
    return residuals


@dataclass(frozen=True)
class BlockDecomposition:
    """Split of U A U^dag into invariant, within-block, and cross-block parts.

    ``hat`` collects the identity-on-permutation-factor component of every
    diagonal block, ``tilde`` the traceless remainder within diagonal blocks,
    and ``bar`` everything between different blocks; the three are mutually
    orthogonal and their norms square-add to |A|_F^2.
    """

    hat: np.ndarray
    tilde: np.ndarray
    bar: np.ndarray
    per_lambda_hat: dict[Partition, np.ndarray]


def block_decompose(A, basis: SchurBasis) -> BlockDecomposition:
    A = as_operator(A)
    if A.shape[0] != basis.D:
        raise DimensionMismatch("operator dimension does not match the basis")
    B = basis.U @ A @ basis.U.conj().T
    hat = np.zeros_like(B)
    tilde = np.zeros_like(B)
    bar = B.copy()
    per_lambda: dict[Partition, np.ndarray] = {}
    for shape in basis.shapes:
        offset, w, v = basis.blocks[shape]
        sl = slice(offset, offset + w * v)
        block = B[sl, sl]
        bar[sl, sl] = 0.0
        sub = block.reshape(w, v, w, v)
        collective = np.einsum("abcb->ac", sub) / v
        hat_block = np.kron(collective, np.eye(v))
        hat[sl, sl] = hat_block
        tilde[sl, sl] = block - hat_block
        per_lambda[shape] = collective
    return BlockDecomposition(hat=hat, tilde=tilde, bar=bar, per_lambda_hat=per_lambda)


def perminv_defect(M: Measurement, basis: SchurBasis) -> float:
    """1 - (1/D) sum_i |hat(M_i)|^2, in [0, 1]; zero iff permutation-invariant."""
    mass = 0.0
    for op in M.operators:
        hat = block_decompose(op, basis).hat
        mass += float(np.vdot(hat, hat).real)
    return min(max(1.0 - mass / basis.D, 0.0), 1.0)


def isotypic_projectors(basis: SchurBasis) -> Measurement:
    """Projective measurement onto the partition blocks, in the standard basis."""
    from .core import validate_measurement

    ops = []
    for shape in basis.shapes:
        offset, w, v = basis.blocks[shape]
        diag = np.zeros(basis.D)
        diag[offset : offset + w * v] = 1.0
        ops.append(basis.U.conj().T @ np.diag(diag) @ basis.U)
    return validate_measurement(ops)
