"""Command-line front end: file formats, fixtures, test runs, JSON reports.

Measurement files are JSON objects with the fields ``version`` (1), ``d``,
``n``, ``operators`` and ``metadata``.  ``operators`` is a non-empty list of
operators, each a list of (d**n)**2 [re, im] number pairs in row-major order.
The reader parses every other field with json's own scanner and decodes
``operators`` straight from the file's bytes with numpy.  It refuses whatever
json refuses, and also NaN, Infinity, true, false and blank entries; it reads
the spellings +1, .5, 1. and 01, which JSON forbids, as numbers.

Reports are canonical, strict JSON (sorted keys, two-space indent, non-finite
numbers written as null) so a parse/emit round trip is byte-identical.  Exit
codes: 0 accept/success, 1 reject/violation, 2 error; any argument error or
exception a command raises is an error, reported as ``"error"``.  Each command
takes only the options it reads:

    validate PATH [--tol]
    distance PATH_A PATH_B
    test stabilizer|klocal|perminv|finite-set PATH --epsilon [--seed --scale --mode]
        klocal also needs --k; finite-set needs --set MEMBER, repeatable
    estimate PATH_A PATH_B --epsilon [--seed --scale --mode --identity]
    fixtures stabilizer|far-stabilizer|klocal|perminv|compbasis OUT_DIR [--n]
        far-stabilizer also takes --seed; perminv and compbasis take --d
    schur D N OUT

``estimate`` takes no outcome bound: the estimator derives it as the larger
outcome count of the two files.  ``test perminv`` accepts ``--schur-cache``
and ignores it.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import struct
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__, metric, pauli, schur, testers
from .blackbox import BlackBox
from .core import (
    CompletenessViolation,
    DEFAULT_COMPLETENESS_TOL,
    DimensionMismatch,
    Measurement,
    QmtestError,
    random_unitary,
    validate_measurement,
)

FILE_VERSION = 1
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_TRIPLE_CLOSE = re.compile(r"\][ \t\n\r]*\][ \t\n\r]*\]")
_WHITESPACE_BYTES = b" \t\n\r"
_NUMBER_BYTES = b"0123456789.eE+-"
# number characters as n, brackets and commas as s
_ENTRIES = bytes.maketrans(_NUMBER_BYTES + b"[,]", b"n" * len(_NUMBER_BYTES) + b"sss")
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
SCHUR_MAGIC = b"QMSCHURB"
SCHUR_VERSION = 1


class FileFormatError(QmtestError):
    """Measurement or cache file is malformed or of an unknown version."""


class UsageError(QmtestError):
    """The command line does not parse."""


# ---------------------------------------------------------------------------
# measurement files


def _matrix_to_pairs(op: np.ndarray) -> list:
    """Row-major [re, im] pairs of a complex matrix, as Python floats."""
    return np.stack([op.real, op.imag], axis=-1).reshape(-1, 2).tolist()


def save_measurement(path, meas: Measurement, d: int, n: int, metadata: dict | None = None):
    doc = {
        "version": FILE_VERSION,
        "d": int(d),
        "n": int(n),
        "operators": [_matrix_to_pairs(op) for op in meas.operators],
        "metadata": {str(k): str(v) for k, v in (metadata or {}).items()},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _fields(text: str) -> dict:
    """The fields of the JSON object ``text``, with ``operators`` left undecoded.

    Keys and every other value go through json's own scanner, and the walk is as
    strict as ``json.loads``; the last of duplicate keys wins.  An ``operators``
    value that opens a list maps to the slice of ``text`` that holds it: the list
    ends at the first ``]]]`` (whitespace allowed between the brackets), because a
    valid one is nested exactly three deep.
    """
    scan = json.JSONDecoder().scan_once

    def skip(i):
        return _WHITESPACE.match(text, i).end()

    def expect(char, i):
        if not text.startswith(char, i):
            raise ValueError(f"expected {char!r} at char {i}")
        return skip(i + 1)

    def value(i):
        try:
            return scan(text, i)
        except StopIteration:
            raise ValueError(f"expected a value at char {i}") from None

    fields = {}
    i = expect("{", skip(0))
    more = not text.startswith("}", i)
    while more:
        if not text.startswith('"', i):
            raise ValueError(f"expected a key at char {i}")
        key, i = value(i)
        i = expect(":", skip(i))
        earlier = fields.get(key)
        if isinstance(earlier, slice) and value(earlier.start)[1] != earlier.stop:
            raise ValueError(f"the operators value at char {earlier.start} is not JSON")
        if key == "operators" and text.startswith("[", i):
            close = _TRIPLE_CLOSE.search(text, i)
            if close is None:
                raise ValueError(f"the operators value at char {i} has no closing ']]]'")
            fields[key], i = slice(i, close.end()), close.end()
        else:
            fields[key], i = value(i)
        i = skip(i)
        more = text.startswith(",", i)
        if more:
            i = skip(i + 1)
    i = expect("}", i)
    if i != len(text):
        raise ValueError(f"extra data at char {i}")
    return fields


def _skeleton(k: int, pairs: int) -> bytes:
    """What is left of a list of k operators of ``pairs`` [re, im] pairs once
    its numbers and whitespace are deleted."""
    operator = b"[[,]" + b",[,]" * (pairs - 1) + b"]"
    return b"[" + b",".join([operator] * k) + b"]"


def _operator_count(data: bytes, pairs: int, path) -> int:
    """How many operators of ``pairs`` entries the bytes of an operators list hold.

    Deleting number characters and whitespace must leave exactly the list's
    skeleton: ``[`` + k >= 1 operators ``[[,],...,[,]]`` joined by commas + ``]``.
    No entry may be blank either, because numpy's parser reads a blank entry
    between commas as -1.
    """
    skeleton = data.translate(None, _NUMBER_BYTES + _WHITESPACE_BYTES)
    k, rest = divmod(len(skeleton) - 1, 4 * pairs + 2)
    if k < 1 or rest or skeleton != _skeleton(k, pairs):
        raise FileFormatError(
            f"{path}: operators must be a non-empty list of lists of {pairs} [re, im] pairs")
    del skeleton
    # an entry opens where a bracket or comma meets a number character
    if data.translate(_ENTRIES, _WHITESPACE_BYTES).count(b"sn") != 2 * k * pairs:
        raise FileFormatError(f"{path}: an operator entry is blank")
    return k


def load_measurement(path, tol: float = DEFAULT_COMPLETENESS_TOL):
    """Parse and validate a measurement file; returns (measurement, d, n, metadata).

    The operators are decoded straight from the file's bytes by numpy, never
    as one Python float per entry.  Each big buffer is dropped as soon as the
    next one exists, so the peak stays near twice the larger of the file and
    its decoded operators.
    """
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
        fields = _fields(text)
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"cannot parse {path}: {exc}") from exc
    if fields.get("version") != FILE_VERSION:
        raise FileFormatError(
            f"{path}: unknown or missing file version {fields.get('version')!r}"
        )
    try:
        d, n, span = fields["d"], fields["n"], fields["operators"]
    except KeyError as exc:
        raise FileFormatError(f"{path}: missing field {exc}") from exc
    if not isinstance(span, slice):
        raise FileFormatError(f"{path}: operators must be a list of operators")
    if type(d) is not int or type(n) is not int:  # bool is a subclass of int
        raise FileFormatError(f"{path}: d and n must be JSON integers, "
                              f"got {type(d).__name__} and {type(n).__name__}")
    if d < 1 or n < 0:
        raise FileFormatError(f"{path}: d must be at least 1 and n at least 0, got {d} and {n}")
    # each of the d**(2n) [re, im] pairs takes at least 5 bytes; an n past the
    # file size's bit length cannot fit, so d**n is not formed before this holds
    if d > 1 and 5 * d ** (2 * min(n, len(data).bit_length())) > len(data):
        raise FileFormatError(f"{path}: {len(data)} bytes cannot hold the operators "
                              f"of d = {d} and n = {n}")
    if not text.isascii():  # the span counts characters; find its first byte
        start = len(text[:span.start].encode())
        span = slice(start, start + span.stop - span.start)
    del text
    dim = d**n
    data = data[span]  # the operators list alone; a non-ASCII byte fails its checks
    k = _operator_count(data, dim * dim, path)
    data = data.translate(_BRACKETS_TO_SPACES)  # numbers separated by commas
    with warnings.catch_warnings():
        # numpy < 2 warns where numpy 2 raises on a number it cannot read to the end
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(data, sep=",")
        except (ValueError, DeprecationWarning) as exc:
            raise FileFormatError(f"{path}: operator entries must be numbers: {exc}") from exc
    del data
    if values.size != 2 * k * dim * dim:
        raise FileFormatError(f"{path}: expected {2 * k * dim * dim} numbers, read {values.size}")
    ops = values.view(complex).reshape(k, dim, dim)
    meas = validate_measurement(list(ops), tol)
    return meas, d, n, fields.get("metadata", {})


# ---------------------------------------------------------------------------
# Schur transform cache


def save_schur_cache(basis: schur.SchurBasis, path):
    """Binary cache: magic, version, d, n, D, then row-major complex128 U."""
    header = SCHUR_MAGIC + struct.pack("<III", SCHUR_VERSION, basis.d, basis.n)
    header += struct.pack("<I", basis.D)
    payload = np.ascontiguousarray(basis.U, dtype="<c16").tobytes()
    Path(path).write_bytes(header + payload)


def load_schur_cache(path) -> schur.SchurBasis:
    raw = Path(path).read_bytes()
    if raw[:8] != SCHUR_MAGIC:
        raise FileFormatError(f"{path}: bad magic")
    version, d, n = struct.unpack("<III", raw[8:20])
    if version != SCHUR_VERSION:
        raise FileFormatError(f"{path}: unknown cache version {version}")
    (D,) = struct.unpack("<I", raw[20:24])
    if D != d**n:
        raise FileFormatError(f"{path}: header dimension mismatch")
    U = np.frombuffer(raw[24:], dtype="<c16").reshape(D, D).copy()
    return schur.SchurBasis.from_unitary(d, n, U)


# ---------------------------------------------------------------------------
# reports


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_jsonable(v) for v in sorted(obj)] if isinstance(obj, set) else [
            _jsonable(v) for v in obj
        ]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def emit_report(report: dict) -> str:
    """Canonical serialization; parse->emit of the result is byte-identical."""
    return json.dumps(_jsonable(report), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _verdict_payload(v: testers.Verdict) -> dict:
    return {
        "decision": v.decision,
        "reject_stage": v.reject_stage,
        "query_count": v.query_count,
        "stage_stats": v.stage_stats,
        "params": v.params,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_validate(ns, report) -> int:
    try:
        meas, d, n, meta = load_measurement(ns.path, ns.tol)
    except CompletenessViolation as exc:
        report["error"] = f"CompletenessViolation: {exc}"
        return 1
    report["params"] = {"d": d, "n": n, "outcomes": len(meas), "tol": ns.tol}
    report["completeness_residual"] = meas.completeness_residual
    report["metadata"] = meta
    return 0


def cmd_distance(ns, report) -> int:
    M, _, _, _ = load_measurement(ns.path_a)
    N, _, _, _ = load_measurement(ns.path_b)
    exact = metric.delta_measurement(M, N)
    numeric = metric.delta_measurement_numeric(M, N)
    report["estimate"] = {
        "delta": exact.delta,
        "delta_squared": exact.delta_squared,
        "numeric_inf_delta": numeric.delta,
        "cross_check_gap": abs(exact.delta - numeric.delta),
    }
    return 0


def _config_from_flags(ns, seed) -> testers.TesterConfig:
    return testers.TesterConfig(epsilon=ns.epsilon, seed=seed, constant_scale=ns.scale)


def _sampling(ns) -> str:
    """The box's sampling mode named by ``--mode``."""
    return ns.mode.replace("-", "_")


def cmd_test(ns, report) -> int:
    seed = report["seed"] = ns.seed
    meas, d, n, _ = load_measurement(ns.path)
    cfg = _config_from_flags(ns, seed)
    box = BlackBox(meas, seed=seed, d=d, sampling=_sampling(ns))
    verdict = ns.tester(ns, box, cfg)
    report["verdict"] = _verdict_payload(verdict)
    return 0 if verdict.accepted else 1


def cmd_estimate(ns, report) -> int:
    seed = report["seed"] = ns.seed
    M, _, _, _ = load_measurement(ns.path_a)
    N, _, _, _ = load_measurement(ns.path_b)
    if M.dim != N.dim:
        raise DimensionMismatch("measurements live on different dimensions")
    cfg = _config_from_flags(ns, seed)
    box_m = BlackBox(M, seed=seed, sampling=_sampling(ns))
    box_n = BlackBox(N, seed=seed + 1, sampling=_sampling(ns))
    if ns.identity:
        verdict = testers.test_identity(box_m, box_n, cfg)
        report["verdict"] = _verdict_payload(verdict)
        report["verdict"]["meaning"] = "accept=same, reject=different"
        return 0 if verdict.accepted else 1
    est = testers.estimate_distance(box_m, box_n, cfg)
    exact = metric.delta_measurement(M, N)
    report["estimate"] = {
        "delta_hat": est.delta_hat,
        "exact_delta": exact.delta,
        "query_count": est.query_count,
        "params": est.params,
    }
    return 0


def make_far_projective_fixture(n: int, seed: int = 3):
    """Rotated two-outcome projective measurement with a certified distance.

    Rotates the computational +/- projector pair of the first label by a
    seeded random unitary and records the scan over the whole projector-pair
    family; the scan minimum is the certified distance.
    """
    D = 2**n
    rng = np.random.default_rng(seed)
    base = pauli.stabilizer_measurement((1,) + (0,) * (n - 1), (0,) * n)
    U = random_unitary(D, rng)
    meas = validate_measurement([U @ op @ U.conj().T for op in base.operators])
    scan = metric.distance_to_stabilizer_family(meas)
    return meas, scan


def cmd_fixtures(ns, report) -> int:
    report["seed"] = getattr(ns, "seed", None)  # only far-stabilizer takes --seed
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, meas, d, metadata in ns.fixtures(ns):
        save_measurement(out_dir / name, meas, d, ns.n, metadata)
        written.append(name)
    report["written"] = written
    report["out_dir"] = str(out_dir)
    return 0


def _stabilizer_fixtures(ns):
    for idx in range(1, 4**ns.n):
        label = pauli.label_from_index(idx, 2, ns.n)
        x, z = label.x, label.z
        yield (f"stabilizer_n{ns.n}_x{''.join(map(str, x))}_z{''.join(map(str, z))}.json",
               pauli.stabilizer_measurement(x, z), 2, {"kind": "stabilizer", "x": x, "z": z})


def _far_stabilizer_fixture(ns):
    meas, scan = make_far_projective_fixture(ns.n, ns.seed)
    yield f"far_stabilizer_n{ns.n}_seed{ns.seed}.json", meas, 2, {
        "kind": "far-stabilizer",
        "certified_delta": scan.best_delta,
        "nearest_label": scan.best_label,
        "swapped_pairing_delta": scan.swapped_delta,
    }


def _klocal_fixture(ns):
    eye_rest = np.eye(2 ** (ns.n - 1))
    meas = validate_measurement([np.kron(np.diag([1.0, 0.0]).astype(complex), eye_rest),
                                 np.kron(np.diag([0.0, 1.0]).astype(complex), eye_rest)])
    yield f"local1_n{ns.n}.json", meas, 2, {"kind": "klocal", "support": {1}}


def _perminv_fixture(ns):
    basis = schur.build_schur_transform(ns.d, ns.n)
    yield (f"isotypic_d{ns.d}_n{ns.n}.json", schur.isotypic_projectors(basis), ns.d,
           {"kind": "perminv", "blocks": list(basis.shapes)})


def _compbasis_fixture(ns):
    D = ns.d**ns.n
    meas = validate_measurement([np.diag((np.arange(D) == i).astype(complex))
                                 for i in range(D)])
    yield f"compbasis_d{ns.d}_n{ns.n}.json", meas, ns.d, {"kind": "compbasis"}


def cmd_schur(ns, report) -> int:
    basis = schur.build_schur_transform(ns.d, ns.n)
    save_schur_cache(basis, ns.out)
    report["params"] = {"d": ns.d, "n": ns.n, "out": str(ns.out)}
    report["residuals"] = basis.residuals
    report["blocks"] = {
        str(shape): {"w": basis.blocks[shape][1], "v": basis.blocks[shape][2]}
        for shape in basis.shapes
    }
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Prints usage on stderr, then raises UsageError instead of exiting, so
    an argument error reaches main's report; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _positive_int(text: str) -> int:
    """An option value that must be an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    """An option value that must be an integer of at least 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    """An option value that must be a finite number of at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite non-negative number, got {text!r}")
    return value


def _leaf(sub, name: str, parent: argparse.ArgumentParser, **defaults):
    """Subcommand ``name`` with ``parent``'s arguments, setting ``defaults``."""
    p = sub.add_parser(name, parents=[parent])
    p.set_defaults(**defaults)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmtest",
        description="Simulate and property-test finite-dimensional quantum measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a measurement file's completeness")
    p.add_argument("path")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_COMPLETENESS_TOL)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("distance", help="exact distance between two measurement files")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(func=cmd_distance)

    run = _Parser(add_help=False)  # what every tester run reads
    run.add_argument("--epsilon", type=float, required=True)
    run.add_argument("--seed", type=_nonnegative_int, default=0)
    run.add_argument("--scale", type=float, default=1.0,
                     help="multiplier on the sample-size constants")
    run.add_argument("--mode", choices=["per-trial", "aggregate"], default="aggregate")

    p = sub.add_parser("test", help="run a property tester against a measurement file")
    props = p.add_subparsers(dest="property", required=True)
    tested = _Parser(add_help=False, parents=[run])
    tested.add_argument("path")
    tested.set_defaults(func=cmd_test)
    _leaf(props, "stabilizer", tested,
          tester=lambda ns, box, cfg: testers.test_stabilizer(box, cfg))
    q = _leaf(props, "klocal", tested,
              tester=lambda ns, box, cfg: testers.test_klocal(box, ns.k, cfg))
    q.add_argument("--k", type=int, required=True, help="the most sites an operator acts on")
    q = _leaf(props, "perminv", tested, tester=lambda ns, box, cfg: testers.test_perminv(box, cfg))
    q.add_argument("--schur-cache", help="accepted and ignored: perminv builds no Schur basis; "
                                         "kept because the perfbench workloads pass it")
    q = _leaf(props, "finite-set", tested, tester=lambda ns, box, cfg: testers.test_finite_set(
        box, testers.FiniteSetSpec([load_measurement(p)[0] for p in ns.set]), cfg))
    q.add_argument("--set", action="append", required=True,
                   help="family member file (repeatable)")

    p = sub.add_parser("estimate", parents=[run],
                       help="estimate the distance between two black boxes")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--identity", action="store_true",
                   help="same-or-far decision at the given epsilon")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("fixtures", help="emit canonical measurement fixtures")
    kinds = p.add_subparsers(dest="kind", required=True)
    placed = _Parser(add_help=False)
    placed.add_argument("out_dir")
    placed.add_argument("--n", type=_positive_int, default=2)
    placed.set_defaults(func=cmd_fixtures)
    _leaf(kinds, "stabilizer", placed, fixtures=_stabilizer_fixtures)
    _leaf(kinds, "far-stabilizer", placed, fixtures=_far_stabilizer_fixture).add_argument(
        "--seed", type=_nonnegative_int, default=3)
    _leaf(kinds, "klocal", placed, fixtures=_klocal_fixture)
    _leaf(kinds, "perminv", placed, fixtures=_perminv_fixture).add_argument(
        "--d", type=_positive_int, default=2)
    _leaf(kinds, "compbasis", placed, fixtures=_compbasis_fixture).add_argument(
        "--d", type=_positive_int, default=2)

    p = sub.add_parser("schur", help="build, verify, and cache a Schur transform")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("out")
    p.set_defaults(func=cmd_schur)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    report = {"command": " ".join(["qmtest"] + argv), "seed": None,
              "library_version": __version__}
    try:
        ns = build_parser().parse_args(argv)
        code = ns.func(ns, report)
    except Exception as exc:  # any failure is an error (exit 2), never a verdict
        report["error"] = f"{type(exc).__name__}: {exc}"
        code = 2
    report["wall_time"] = round(time.monotonic() - started, 6)
    print(emit_report(report), end="")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
