"""The paper's identities and certified constructions that no command runs,
and the slow paths that faster library code replaced, kept as references the
tests check the library against.  The library never imports this module."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from qmtest import cli, pauli, schur
from qmtest.core import (
    DEFAULT_COMPLETENESS_TOL,
    DimensionMismatch,
    Measurement,
    QmtestError,
    ZeroOperator,
    as_operator,
    choi_prob,
    hs_inner,
    validate_measurement,
)


def apply_measurement(meas: Measurement, state):
    """Outcome distribution and post-measurement states.

    ``state`` is a pure-state vector or a density matrix.  If its dimension is
    a multiple of the measurement's, the operators act on the first tensor
    factor.  Outcomes with probability ~0 get ``None`` instead of a post-state.
    """
    state = np.asarray(state, dtype=np.complex128)
    pure = state.ndim == 1
    if not (pure or state.ndim == 2 and state.shape[0] == state.shape[1]):
        raise DimensionMismatch(f"state has unsupported shape {state.shape}")
    if state.shape[0] % meas.dim:
        raise DimensionMismatch(
            f"state dim {state.shape[0]} is not a multiple of measurement dim {meas.dim}"
        )
    rest = state.shape[0] // meas.dim
    probs = np.empty(len(meas))
    posts: list[np.ndarray | None] = []
    for i, op in enumerate(meas.operators):
        if pure:
            out = (op @ state.reshape(meas.dim, rest)).reshape(-1)
            p = float(np.vdot(out, out).real)
        else:
            # (M_i (x) I) rho (M_i^dag (x) I) on the reshaped tensor
            blocks = state.reshape(meas.dim, rest, meas.dim, rest)
            out = np.einsum("ab,bicj,dc->aidj", op, blocks, op.conj()).reshape(state.shape)
            p = float(np.trace(out).real)
        probs[i] = p
        norm = math.sqrt(p) if pure else p
        posts.append(out / norm if p > 1e-14 else None)
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


def random_operator(D: int, rng: np.random.Generator) -> np.ndarray:
    """D x D Ginibre matrix: i.i.d. standard complex Gaussian entries."""
    return rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))


def renormalized(ops) -> Measurement:
    """The measurement {op S^{-1/2}} with S = sum_i op^dag op."""
    S = sum(op.conj().T @ op for op in ops)
    vals, vecs = np.linalg.eigh(S)
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    return validate_measurement([op @ inv_sqrt for op in ops])


def random_measurement(D: int, k: int, rng: np.random.Generator) -> Measurement:
    """Random k-outcome measurement: Ginibre operators renormalized by S^{-1/2}."""
    return renormalized([random_operator(D, rng) for _ in range(k)])


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
        op = op.copy() if abs(ip) < 1e-14 else op * np.exp(-1j * np.angle(ip))
        op.setflags(write=False)
        aligned.append(op)
    return Measurement(operators=tuple(aligned), completeness_residual=N.completeness_residual)


def _distributions(p, q) -> tuple[np.ndarray, np.ndarray]:
    """p and q zero-padded to a common index set, each checked to be a law."""
    size = max(np.size(p), np.size(q))
    out = []
    for r in (p, q):
        r = np.pad(np.asarray(r, dtype=float), (0, size - np.size(r)))
        if np.any(r < -1e-12):
            raise ValueError("distribution has negative entries")
        if abs(r.sum() - 1.0) > 1e-10:
            raise ValueError(f"distribution sums to {r.sum()}, not 1")
        out.append(r)
    return out[0], out[1]


def fidelity(p, q) -> float:
    """sum_i sqrt(p_i q_i) for distributions padded to a common index set."""
    p, q = _distributions(p, q)
    return float(np.sqrt(np.clip(p, 0, None) * np.clip(q, 0, None)).sum())


def variational(p, q) -> float:
    """(1/2) sum_i |p_i - q_i|."""
    p, q = _distributions(p, q)
    return 0.5 * float(np.abs(p - q).sum())


def behavior_gap_samples(
    M: Measurement, N: Measurement, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-state values of sum_i |(M_i - N_i')|psi>|^2 over Haar states.

    N is phase-aligned to M first; the aligned gap averages to twice the
    squared measurement distance.
    """
    aligned = canonical_phase_align(M, N)
    count = max(len(M), len(N))
    diffs = np.stack([M.operator(i) - aligned.operator(i) for i in range(count)])
    out = np.empty(samples)
    done = 0
    chunk = max(1, min(samples, 20000))
    while done < samples:
        take = min(chunk, samples - done)
        states = haar_random_states(M.dim, take, rng)
        mapped = diffs @ states  # (k, D, take)
        out[done : done + take] = np.sum(np.abs(mapped) ** 2, axis=(0, 1))
        done += take
    return out


def behavior_gap_mc(
    M: Measurement, N: Measurement, samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo mean of the behavior gap and its standard error."""
    vals = behavior_gap_samples(M, N, samples, rng)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, stderr


def outcome_distance_lower_bound(M: Measurement, N: Measurement) -> float:
    """Variational distance of the entangled-query outcome laws over sqrt(2).

    Always a lower bound on the measurement distance.
    """
    p = np.array([choi_prob(op) for op in M.operators])
    q = np.array([choi_prob(op) for op in N.operators])
    return variational(p, q) / math.sqrt(2)


def label_index(label: pauli.PauliLabel) -> int:
    """Position of the label in the lexicographic (x, z) enumeration: the digits
    of x then z read in base d."""
    index = 0
    for digit in label.x + label.z:
        index = index * label.d + digit
    return index


def all_labels(d: int, n: int) -> list[pauli.PauliLabel]:
    """All d^{2n} labels in lexicographic (x, z) order."""
    return [pauli.label_from_index(i, d, n) for i in range(d ** (2 * n))]


def pauli_product_phase(ab: pauli.PauliLabel, cd: pauli.PauliLabel) -> complex:
    """Unit scalar beta with sigma_ab sigma_cd = beta sigma_{a+c, b+d}.

    Computed sitewise from the d x d matrices, so it is correct for either
    site convention.
    """
    if ab.d != cd.d or len(ab.x) != len(cd.x):
        raise DimensionMismatch("labels must share d and n")
    d = ab.d
    sites = pauli._site_matrices(d)
    beta = 1.0 + 0j
    for s in range(len(ab.x)):
        prod = sites[ab.x[s], ab.z[s]] @ sites[cd.x[s], cd.z[s]]
        target = sites[(ab.x[s] + cd.x[s]) % d, (ab.z[s] + cd.z[s]) % d]
        r, c = np.nonzero(target)
        beta *= prod[r[0], c[0]] / target[r[0], c[0]]
    return complex(beta)


def support(label: pauli.PauliLabel) -> set[int]:
    """1-based site indices where the label acts nontrivially."""
    return {s + 1 for s in range(len(label.x)) if label.x[s] or label.z[s]}


def matrix_from_mu(mu: np.ndarray, d: int, n: int) -> np.ndarray:
    """Inverse of mu_vector: A = sum_l mu_l sigma_l, by the same per-site contraction."""
    D = d**n
    coefficients = np.reshape(mu, (d,) * (2 * n))
    return pauli._contract_sites(coefficients, pauli._site_matrices(d), n).reshape(D, D)


def f_T(A, T: set[int], d: int) -> np.ndarray:
    """Component of A supported on the site subset T (1-based sites)."""
    A = as_operator(A)
    n = pauli._power_check(A.shape[0], d)
    mu = pauli.mu_vector(A, d, n)
    tmask = 0
    for s in T:
        if not 1 <= s <= n:
            raise ValueError(f"site {s} outside 1..{n}")
        tmask |= 1 << (s - 1)
    masks = pauli._support_masks(d, n)
    keep = (masks & ~tmask) == 0
    return matrix_from_mu(np.where(keep, mu, 0), d, n)


class SquareRootFailure(QmtestError):
    """Operator square root hit an eigenvalue below the negativity budget."""


def _psd_sqrt(A: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(A)
    if vals.min() < -1e-8:
        raise SquareRootFailure(
            f"slack operator has eigenvalue {vals.min():.3e} below -1e-8"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _complete(ops: list[np.ndarray]) -> tuple[Measurement, float]:
    """The projected operators plus the square root of their completeness slack.

    Returns that measurement and the bound sqrt(1 - (1/D) sum_i |ops_i|_F^2),
    which dominates its distance from the measurement the operators were
    projected from.
    """
    D = ops[0].shape[0]
    mass = sum(float(np.vdot(op, op).real) for op in ops)
    slack = np.eye(D, dtype=np.complex128) - sum(op.conj().T @ op for op in ops)
    N = validate_measurement(ops + [_psd_sqrt(slack)])
    return N, math.sqrt(max(1.0 - mass / D, 0.0))


def nearest_klocal(M: Measurement, T: set[int], d: int = 2) -> tuple[Measurement, float]:
    """Measurement supported on sites T that is provably close to M.

    Keeps the T-supported component of every operator and appends the square
    root of the completeness slack as one extra outcome; the returned bound
    sqrt(1 - (1/D) sum |f_T(M_i)|^2) dominates the actual distance.
    """
    return _complete([f_T(op, T, d) for op in M.operators])


def klocal_distance_lower_bound(M: Measurement, k: int, d: int = 2) -> float:
    """Certified lower bound on the distance from M to every k-local measurement.

    Cauchy-Schwarz on the T-supported components: for any measurement N
    supported on T, sum_i |<M_i, N_i>| <= sqrt(sum_i |f_T(M_i)|^2) * sqrt(D),
    so delta^2 >= 1 - max_T sqrt(sum_i |f_T(M_i)|^2 / D).
    """
    n = pauli._power_check(M.dim, d)
    if k >= n:
        return 0.0
    xi = pauli.xi_distribution(M, d)
    masks = pauli._support_masks(d, n)
    best_mass = 0.0
    for T in itertools.combinations(range(n), max(k, 0)):
        tmask = sum(1 << s for s in T)
        mass = float(xi[(masks & ~tmask) == 0].sum())
        best_mass = max(best_mass, mass)
    # xi sums to sum_i p(M_i) = 1, so the T-mass is sum_i |f_T(M_i)|^2 / D
    return math.sqrt(max(1.0 - math.sqrt(min(best_mass, 1.0)), 0.0))


def nearest_perminv(M: Measurement, d: int = 2) -> tuple[Measurement, float]:
    """Permutation-invariant measurement provably close to M.

    Keeps the twirl of every operator over the site permutations of
    (C^d)^(x)n and appends the completeness slack root.
    """
    n = pauli._power_check(M.dim, d)
    return _complete([schur.twirl(op, d, n) for op in M.operators])


def hook_content_dims(shape, d: int) -> tuple[Fraction, Fraction]:
    """(GL(d) dimension, S_n dimension) of ``shape`` in exact rationals: the
    products of (d + content)/hook and of 1/hook over its boxes, the second
    times n!, with each hook read off the conjugate partition."""
    columns = [sum(1 for row in shape if row > j) for j in range(max(shape))]
    gl = sn = Fraction(1)
    for i, row in enumerate(shape):
        for j in range(row):
            hook = (row - j) + (columns[j] - i) - 1
            gl *= Fraction(d + j - i, hook)
            sn /= hook
    return gl, sn * math.factorial(sum(shape))


def schur_index(basis: schur.SchurBasis, shape, a: int, b: int) -> int:
    """Row of U holding collective index a and permutation index b of block ``shape``."""
    offset, w, v = basis.blocks[shape]
    if not (0 <= a < w and 0 <= b < v):
        raise ValueError("collective/permutation index out of range")
    return offset + a * v + b


def schur_permutations(basis: schur.SchurBasis) -> list[tuple[int, ...]]:
    """Every permutation of the basis's n sites, in sorted order."""
    return schur._group_representations(basis.n, basis.shapes)[0]


def schur_rep_matrix(basis: schur.SchurBasis, perm, shape) -> np.ndarray:
    """Young's orthogonal representation of ``perm`` on block ``shape``."""
    reps = schur._group_representations(basis.n, basis.shapes)[1]
    return reps[tuple(perm)][basis.shapes.index(shape)]


def permutation_operator(perm, d: int) -> np.ndarray:
    """Unitary relocating site s to site perm[s] (0-based images).

    Sends |i_0,...,i_{n-1}> to the basis state whose digit at perm[s] is i_s.
    """
    perm = tuple(int(p) for p in perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    D = d**n
    rows = schur._perm_row_map(perm, d)
    out = np.zeros((D, D))
    out[rows, np.arange(D)] = 1.0
    return out


def overlap_copies(epsilon: float, delta: float) -> int:
    """Swap-test repetitions for precision epsilon and confidence 1 - delta."""
    return math.ceil(2 * math.log(2 / delta) / epsilon**4)


def per_trial_counts(total: int, p, rng: np.random.Generator, chunk: int) -> np.ndarray:
    """Category counts of ``total`` draws from the law ``p``, one index drawn per
    trial by ``rng.choice``, ``chunk`` at a time."""
    counts = np.zeros(len(p), dtype=np.int64)
    for start in range(0, total, chunk):
        drawn = rng.choice(len(p), size=min(chunk, total - start), p=p)
        counts += np.bincount(drawn, minlength=len(p))
    return counts


def per_trial_successes(total: int, p: float, rng: np.random.Generator, chunk: int) -> int:
    """Successes among ``total`` trials that each succeed when their uniform is
    below p, ``chunk`` uniforms at a time."""
    return sum(int(np.count_nonzero(rng.random(min(chunk, total - start)) < p))
               for start in range(0, total, chunk))


def _pairs_to_matrix(pairs, dim: int) -> np.ndarray:
    """A dim x dim complex matrix from row-major [re, im] number pairs."""
    try:
        arr = np.array(pairs)
    except ValueError as exc:  # ragged pairs
        raise cli.FileFormatError(f"operator entries are not [re, im] pairs: {exc}") from exc
    if arr.shape != (dim * dim, 2) or arr.dtype.kind not in "biuf":
        raise cli.FileFormatError(f"operator needs {dim * dim} [re, im] number pairs, "
                                  f"got {arr.dtype} entries of shape {arr.shape}")
    return arr.astype(float).view(complex).reshape(dim, dim)


def load_measurement_json(path, tol: float = DEFAULT_COMPLETENESS_TOL):
    """``cli.load_measurement`` by ``json.loads`` of the whole file, one Python
    float per entry, then ``np.array`` per operator: the slow path the numpy
    reader replaced."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise cli.FileFormatError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != cli.FILE_VERSION:
        raise cli.FileFormatError(f"{path}: unknown or missing file version")
    try:
        d = int(doc["d"])
        n = int(doc["n"])
        raw_ops = doc["operators"]
    except (KeyError, TypeError, ValueError) as exc:
        raise cli.FileFormatError(f"{path}: missing field {exc}") from exc
    dim = d**n
    ops = [_pairs_to_matrix(pairs, dim) for pairs in raw_ops]
    return validate_measurement(ops, tol), d, n, doc.get("metadata", {})
