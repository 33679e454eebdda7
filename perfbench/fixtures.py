"""Seeded measurement fixtures, built with numpy alone and written in the
measurement-file format that ``qmtest`` reads (JSON, complex entries as
[re, im] pairs in row-major order).

Nothing here imports ``qmtest``: the program under test sees only the files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FILE_VERSION = 1

# single-qubit sigma_{x,z} in qmtest's site convention: I, X, Z and the
# Hermitian Y for x = z = 1
_SITE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def write_measurement(path: Path, ops, d: int, n: int):
    doc = {
        "version": FILE_VERSION,
        "d": d,
        "n": n,
        "operators": [
            np.stack([op.real, op.imag], axis=-1).reshape(-1, 2).tolist() for op in ops
        ],
        "metadata": {},
    }
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def pauli_operator(x, z) -> np.ndarray:
    """Tensor product of single-qubit sigma_{x_s, z_s}, site 1 most significant."""
    out = np.ones((1, 1), dtype=complex)
    for xs, zs in zip(x, z):
        out = np.kron(out, _SITE[(int(xs), int(zs))])
    return out


def random_label(rng: np.random.Generator, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Uniform non-identity qubit label (x, z)."""
    while True:
        x = tuple(int(v) for v in rng.integers(0, 2, n))
        z = tuple(int(v) for v in rng.integers(0, 2, n))
        if any(x) or any(z):
            return x, z


def stabilizer_pair(x, z) -> list[np.ndarray]:
    """Projectors (I + sigma)/2 and (I - sigma)/2 of a qubit Pauli label."""
    sigma = pauli_operator(x, z)
    eye = np.eye(sigma.shape[0], dtype=complex)
    return [(eye + sigma) / 2, (eye - sigma) / 2]


def haar_unitary(D: int, rng: np.random.Generator) -> np.ndarray:
    raw = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    q, r = np.linalg.qr(raw)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def rotated(ops, U: np.ndarray) -> list[np.ndarray]:
    return [U @ op @ U.conj().T for op in ops]


def random_measurement(D: int, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """k Ginibre operators renormalized so that sum_i M_i^dag M_i = I."""
    ops = [rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)) for _ in range(k)]
    S = sum(op.conj().T @ op for op in ops)
    vals, vecs = np.linalg.eigh(S)
    inv_sqrt = (vecs * vals**-0.5) @ vecs.conj().T
    return [op @ inv_sqrt for op in ops]


def embed(local_ops, sites, n: int, d: int = 2) -> list[np.ndarray]:
    """Place operators on the 0-based ``sites`` of n qudits, identity elsewhere."""
    k = len(sites)
    rest = [s for s in range(n) if s not in sites]
    order = list(sites) + rest
    inv = list(np.argsort(order))
    axes = inv + [n + i for i in inv]
    out = []
    for op in local_ops:
        full = np.kron(op, np.eye(d ** (n - k)))
        out.append(full.reshape((d,) * (2 * n)).transpose(axes).reshape(d**n, d**n))
    return out


def isotypic_projectors(d: int, n: int) -> list[np.ndarray]:
    """Projectors onto the S_n isotypic blocks of (C^d)^n.

    The sum of all transpositions is central in the group algebra and acts on
    the block of partition lambda as the content sum of lambda; for the (d, n)
    used here those sums are distinct, so its eigenspaces are the blocks.
    Ordered by decreasing content sum, which matches partitions in
    lexicographically decreasing order for these sizes.
    """
    D = d**n
    digits = np.array(np.unravel_index(np.arange(D), (d,) * n)).T
    weights = d ** np.arange(n - 1, -1, -1)
    casimir = np.zeros((D, D))
    cols = np.arange(D)
    for i in range(n):
        for j in range(i + 1, n):
            swapped = digits.copy()
            swapped[:, [i, j]] = swapped[:, [j, i]]
            casimir[swapped @ weights, cols] += 1.0
    vals, vecs = np.linalg.eigh(casimir)
    labels = np.rint(vals).astype(int)
    if np.max(np.abs(vals - labels)) > 1e-8:
        raise ArithmeticError("transposition class sum has non-integer eigenvalues")
    out = []
    for c in sorted(set(labels.tolist()), reverse=True):
        V = vecs[:, labels == c]
        out.append((V @ V.T).astype(complex))
    return out


def computational_basis(D: int) -> list[np.ndarray]:
    return [np.diag((np.arange(D) == i).astype(complex)) for i in range(D)]


def exact_distance(M, N) -> float:
    """delta(M, N) = sqrt(1 - (1/D) sum_i |<M_i, N_i>|), outcomes paired by index."""
    D = M[0].shape[0]
    overlap = sum(abs(np.vdot(a, b)) for a, b in zip(M, N))
    return float(np.sqrt(max(1.0 - overlap / D, 0.0)))


def type_projectors(d: int, n: int) -> list[np.ndarray]:
    """Projectors onto the spans of basis states sharing a digit multiset."""
    D = d**n
    digits = np.array(np.unravel_index(np.arange(D), (d,) * n)).T
    counts = np.stack([(digits == c).sum(axis=1) for c in range(d)], axis=1)
    _, group = np.unique(counts, axis=0, return_inverse=True)
    return [np.diag((group.ravel() == g).astype(complex)) for g in range(group.max() + 1)]


def collective(ops, U: np.ndarray, n: int) -> list[np.ndarray]:
    """Conjugate every operator by U^{(x) n}, which commutes with site permutations."""
    V = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        V = np.kron(V, U)
    return rotated(ops, V)
