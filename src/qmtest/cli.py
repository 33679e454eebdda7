"""Command-line front end: file formats, fixtures, test runs, JSON reports.

Measurement files are JSON objects with the fields ``version`` (1), ``d``,
``n``, ``operators`` and ``metadata``.  ``operators`` is a non-empty list of
operators, each a list of (d**n)**2 [re, im] number pairs in row-major order.
The reader streams a file in chunks of ``CHUNK`` bytes: json's own scanner
parses every other field from small decoded windows, and numpy checks and
decodes ``operators`` a chunk at a time into one read-only array, which the
loaded measurement keeps: no buffer the size of the file is held (a pipe is
read whole), and the operators are held once.  It refuses whatever json
refuses, and also NaN, Infinity, true, false and blank entries; it reads the
spellings +1, .5, 1. and 01, which JSON forbids, as numbers.  A command reads
each distinct path once.  The writer streams too, one operator row at a time.

Reports are canonical, strict JSON (sorted keys, two-space indent, non-finite
numbers written as null) so a parse/emit round trip is byte-identical.  Exit
codes: 0 accept/success, 1 reject/violation, 2 error; any argument error or
exception a command raises is an error, reported as ``"error"``, and so is a
report that cannot be serialized.  Each command takes only the options it reads:

    validate PATH [--tol]
    distance PATH_A PATH_B
    test stabilizer|klocal|perminv|finite-set PATH --epsilon [--seed --scale --mode]
        klocal also needs --k; finite-set needs --set MEMBER, repeatable
    estimate PATH_A PATH_B --epsilon [--seed --scale --mode --identity]
    fixtures stabilizer|far-stabilizer|klocal|perminv|compbasis OUT_DIR [--n]
        far-stabilizer takes --seed; perminv and compbasis take --d >= 2, the rest d = 2
    schur D N OUT
        d >= 2 and n >= 1 with d^n <= 1024

``fixtures`` refuses a run, before it builds anything or makes OUT_DIR, when
d^n exceeds 1024 or its files x outcomes x (d^n)^2 operator entries exceed
16 x 1024^2: compbasis stops at d^n = 256 and stabilizer at n = 5.

``estimate`` takes no outcome bound: the estimator derives it as the larger
outcome count of the two files.  ``test perminv`` accepts ``--schur-cache``
and ignores it.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
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
CHUNK = 1 << 18  # bytes of a measurement file read at a time
_SCAN = json.JSONDecoder().scan_once
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_TOKEN_TAIL = re.compile(r"[\w.+\-\\]*")  # what may go on in a later read
_STRING_OR_NUMBER = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?', re.ASCII)
_WHITESPACE_RUN = re.compile(rb"[ \t\n\r]+")
_TRIPLE_CLOSE = re.compile(rb"\][ \t\n\r]*\][ \t\n\r]*\]")
_WHITESPACE_BYTES = b" \t\n\r"
_NUMBER_BYTES = b"0123456789.eE+-"
# number characters as n, brackets and commas as s
_ENTRIES = bytes.maketrans(_NUMBER_BYTES + b"[,]", b"n" * len(_NUMBER_BYTES) + b"sss")
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
SCHUR_MAGIC = b"QMSCHURB"
SCHUR_VERSION = 1
# the most operator entries one ``fixtures`` run builds: 16 operators of the largest dimension
FIXTURE_ENTRIES = 16 * schur.MAX_DIM**2


class FileFormatError(QmtestError):
    """Measurement or cache file is malformed or of an unknown version."""


class UsageError(QmtestError):
    """The command line does not parse."""


# ---------------------------------------------------------------------------
# measurement files


def save_measurement(path, meas: Measurement, d: int, n: int, metadata: dict | None = None):
    """Write a measurement file: the bytes of ``json.dumps(doc, sort_keys=True)``
    and a newline, streamed one operator row at a time, so no document is built."""
    metadata = {str(k): str(v) for k, v in (metadata or {}).items()}
    with open(path, "w", encoding="utf-8") as file:
        file.write(f'{{"d": {int(d)}, "metadata": {json.dumps(metadata, sort_keys=True)}, '
                   f'"n": {int(n)}, "operators": [')
        for i, op in enumerate(meas.operators):
            file.write(", [" if i else "[")
            for r, row in enumerate(op):
                # the row's [re, im] pairs without the list's own brackets
                pairs = json.dumps(np.stack([row.real, row.imag], axis=-1).tolist())[1:-1]
                file.write(", " + pairs if r else pairs)
            file.write("]")
        file.write(f'], "version": {FILE_VERSION}}}\n')


def _read(file, offset: int, size: int) -> bytes:
    """``size`` bytes of a file from byte ``offset`` on."""
    file.seek(offset)
    data = file.read(size)
    if len(data) != size:
        raise ValueError(f"the file ends at byte {offset + len(data)}, not {offset + size}")
    return data


def _chunks(file, start: int, stop: int):
    """The bytes ``start:stop`` of a file, ``CHUNK`` at a time."""
    for at in range(start, stop, CHUNK):
        yield _read(file, at, min(CHUNK, stop - at))


class _Window:
    """The text of a file from a byte offset on, read ``CHUNK`` bytes at a time
    and decoded as latin-1, one character per byte, so a position is a byte offset.

    Outside strings JSON text is ASCII, and no byte of a UTF-8 sequence is '"' or
    a backslash, so json's scanner finds the same tokens here as in the UTF-8
    text; ``value`` decodes a value that holds other bytes again, as UTF-8.
    Only the text from the position ``i`` on is kept, and a read asks for no
    more bytes than are left.  Whitespace between tokens is skipped, as json does.
    """

    def __init__(self, file, size: int, offset: int = 0):
        self.file, self.size = file, size
        self.seek(offset)

    def seek(self, offset: int):
        self.start, self.text, self.i = offset, "", 0  # start: the byte offset of text[0]

    def offset(self) -> int:
        """The byte offset of the position."""
        return self.start + self.i

    def more(self) -> bool:
        """Drop the text before the position and read as many bytes as are
        kept, or ``CHUNK`` if that is more; False at the end of the file."""
        end = self.start + len(self.text)
        if end == self.size:
            return False
        self.start, self.text, self.i = self.offset(), self.text[self.i:], 0
        size = min(max(CHUNK, len(self.text)), self.size - end)
        self.text += _read(self.file, end, size).decode("latin-1")
        return True

    def peek(self) -> str:
        """The character at the position, after whitespace; "" at the end of the file."""
        while True:
            self.i = _WHITESPACE.match(self.text, self.i).end()
            if self.i < len(self.text) or not self.more():
                return self.text[self.i:self.i + 1]

    def take(self, char: str):
        if self.peek() != char:
            raise ValueError(f"expected {char!r} at byte {self.offset()}")
        self.i += 1

    def cut(self, at: int) -> bool:
        """Whether the text may end inside a number, literal or escape at ``at``."""
        return _TOKEN_TAIL.match(self.text, at).end() == len(self.text)

    def value(self):
        """The JSON value at the position, read by json's scanner.  A scan that
        ends, or fails, where the text may have cut a token reads more first."""
        self.peek()
        while True:
            error = None
            try:
                value, at = _SCAN(self.text, self.i)
            except StopIteration as stop:  # no value starts at stop.value
                at, error = stop.value, f"expected a value at byte {self.offset()}"
            except json.JSONDecodeError as exc:  # an unterminated string runs to the text's end
                at = len(self.text) if exc.msg.startswith("Unterminated string") else exc.pos
                error = f"{exc.msg.removesuffix(' at')} at byte {self.start + exc.pos}"
            except ValueError as exc:  # int()'s digit limit; the advice after ';' is for code
                at = len(self.text)
                error = f"{str(exc).split(';')[0]} at byte {self.long_integer()}"
            if self.cut(at) and self.more():
                continue
            if error:
                raise ValueError(error)
            raw, self.i = self.text[self.i:at].encode("latin-1"), at  # the value's bytes
            try:
                return value if raw.isascii() else json.loads(raw.decode())
            except UnicodeDecodeError as exc:
                raise ValueError(f"invalid UTF-8 at byte {self.offset() - len(raw) + exc.start}")

    def long_integer(self) -> int:
        """The byte offset of the digits of the first integer from the position
        on, outside strings, that has more digits than int() reads."""
        limit = sys.get_int_max_str_digits()
        for token in _STRING_OR_NUMBER.finditer(self.text, self.i):
            digits = token.group().lstrip("-")
            if digits.isdigit() and len(digits) > limit:
                return self.start + token.end() - len(digits)
        return self.offset()

    def key(self) -> str:
        """An object key and its colon."""
        if self.peek() != '"':
            raise ValueError(f"expected a key at byte {self.offset()}")
        key = self.value()
        self.take(":")
        return key


def _closing(file, start: int, size: int) -> int:
    """The byte offset just past the first "]]]" from ``start`` on, whitespace
    allowed between the brackets.  A read that cuts one passes its brackets on."""
    at, carry = start, b""
    for data in _chunks(file, start, size):
        data = carry + data
        close = _TRIPLE_CLOSE.search(data)
        if close:
            return at + close.end() - len(carry)
        at += len(data) - len(carry)
        carry = b"]" * data[len(data.rstrip(b"] \t\n\r")):].count(b"]")
    raise ValueError(f"the operators value at byte {start} has no closing ']]]'")


def _fields(window: _Window) -> dict:
    """The fields of the JSON object in a file, with ``operators`` left unread.

    Keys and every other value go through json's own scanner, and the walk is as
    strict as ``json.loads``; the last of duplicate keys wins, and a value it
    replaces must still be JSON.  An ``operators`` value that opens a list maps to
    the slice of the file's bytes that holds it: the list ends at the first
    ``]]]`` (whitespace allowed between the brackets), because a valid one is
    nested exactly three deep.
    """
    fields = {}
    window.take("{")
    more = window.peek() != "}"
    while more:
        key = window.key()
        earlier = fields.get(key)
        if isinstance(earlier, slice):
            replaced = _Window(window.file, window.size, earlier.start)
            replaced.value()
            if replaced.offset() != earlier.stop:
                raise ValueError(f"the operators value at byte {earlier.start} is not JSON")
        if key == "operators" and window.peek() == "[":
            start = window.offset()
            fields[key] = slice(start, _closing(window.file, start, window.size))
            window.seek(fields[key].stop)
        else:
            fields[key] = window.value()
        more = window.peek() == ","
        window.i += more
    window.take("}")
    if window.peek():
        raise ValueError(f"extra data at byte {window.offset()}")
    return fields


def _unit(pairs: int, lo: int, hi: int) -> bytes:
    """Bytes ``lo:hi`` of one operator's skeleton and the comma after it:
    "[" + "[,],"*(pairs - 1) + "[,]]" + ","."""
    period = 4 * pairs + 2
    shift = (lo - 1) % 4
    unit = bytearray((b"[,]," * ((hi - lo) // 4 + 2))[shift:shift + hi - lo])
    for at, mark in ((0, b"["), (period - 2, b"]"), (period - 1, b",")):
        if lo <= at < hi:
            unit[at - lo:at - lo + 1] = mark
    return bytes(unit)


def _skeleton(pairs: int, start: int, length: int) -> bytes:
    """Bytes ``start:start + length`` of "[" and then operator skeletons of
    ``pairs`` [re, im] pairs each, every one followed by a comma, without end."""
    if start == 0:
        return b"[" + _skeleton(pairs, 1, length - 1) if length else b""
    period = 4 * pairs + 2
    shift = (start - 1) % period
    if period <= length:
        return (_unit(pairs, 0, period) * ((shift + length) // period + 1))[shift:shift + length]
    first = _unit(pairs, shift, min(period, shift + length))
    return first + _unit(pairs, 0, length - len(first))


def _operator_count(file, span: slice, pairs: int, path) -> int:
    """How many operators of ``pairs`` entries the operators list at ``span`` holds.

    Deleting number characters and whitespace must leave exactly the list's
    skeleton: ``[`` + k >= 1 operators ``[[,],...,[,]]`` joined by commas + ``]``.
    Each chunk is checked from the running offset on, without the list's last
    ``]``.  No entry may be blank either, because numpy's parser reads a blank
    entry between commas as -1; an entry opens where a bracket or comma meets a
    number character, in one chunk or across two.
    """
    checked = entries = 0
    last = b""  # the previous chunks' last mark
    for data in _chunks(file, span.start, span.stop - 1):
        skeleton = data.translate(None, _NUMBER_BYTES + _WHITESPACE_BYTES)
        if skeleton != _skeleton(pairs, checked, len(skeleton)):
            break
        checked += len(skeleton)
        marks = data.translate(_ENTRIES, _WHITESPACE_BYTES)
        entries += marks.count(b"sn") + (last + marks[:1] == b"sn")
        last = marks[-1:] or last
    else:
        k, rest = divmod(checked, 4 * pairs + 2)
        if k >= 1 and not rest:
            if entries != 2 * k * pairs:
                raise FileFormatError(f"{path}: an operator entry is blank")
            return k
    raise FileFormatError(
        f"{path}: operators must be a non-empty list of lists of {pairs} [re, im] pairs")


def _pieces(file, span: slice):
    """The checked operators list at ``span`` as texts of whole numbers that
    commas separate.  Each piece ends at a chunk's last comma, and the text
    after it, with each whitespace run cut to one space, opens the next."""
    carry = b""
    for data in _chunks(file, span.start, span.stop):
        text = carry + data.translate(_BRACKETS_TO_SPACES)
        comma = text.rfind(b",")
        if comma >= 0:
            yield text[:comma]
        carry = _WHITESPACE_RUN.sub(b" ", text[comma + 1:])
    yield carry


def _operators(file, span: slice, k: int, dim: int, path) -> np.ndarray:
    """The (k, dim, dim) operators of a checked operators list, each piece of it
    parsed by numpy straight into its place."""
    ops = np.empty((k, dim, dim), dtype=complex)
    values = ops.reshape(-1).view(float)
    done = 0
    with warnings.catch_warnings():
        # numpy < 2 warns where numpy 2 raises on a number it cannot read to the end
        warnings.simplefilter("error", DeprecationWarning)
        for piece in _pieces(file, span):
            try:
                read = np.fromstring(piece, sep=",")
            except (ValueError, DeprecationWarning) as exc:
                raise FileFormatError(f"{path}: operator entries must be numbers: {exc}") from exc
            values[done:done + read.size] = read  # too many numbers raise ValueError
            done += read.size
    if done != values.size:
        raise FileFormatError(f"{path}: expected {values.size} numbers, read {done}")
    return ops


def _header(fields: dict, size: int, path) -> tuple[int, int, slice]:
    """A file's d, n and operators span, checked against each other and against
    the file's ``size`` in bytes."""
    if fields.get("version") != FILE_VERSION:
        raise FileFormatError(
            f"{path}: unknown or missing file version {fields.get('version')!r}")
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
    if d == 1 and n != 0:  # 1**n is 1 for every n: the box derives n = 0
        raise FileFormatError(f"{path}: d = 1 needs n = 0, got n = {n}")
    # each of the d**(2n) [re, im] pairs takes at least 5 bytes; an n past the
    # file size's bit length cannot fit, so d**n is not formed before this holds
    if d > 1 and 5 * d ** (2 * min(n, size.bit_length())) > size:
        raise FileFormatError(f"{path}: {size} bytes cannot hold the operators "
                              f"of d = {d} and n = {n}")
    return d, n, span


def load_measurement(path, tol: float = DEFAULT_COMPLETENESS_TOL):
    """Parse and validate a measurement file; returns (measurement, d, n, metadata).

    The file is streamed ``CHUNK`` bytes at a time: json's scanner reads the
    fields from small decoded windows, and numpy parses the operators a chunk
    at a time into one (k, D, D) array, never as one Python float per entry.
    No buffer the size of the file is held, and the array is set read-only, so
    ``validate_measurement`` keeps it instead of copying it: the peak is the
    operators once and a few chunks, however large the file or its whitespace,
    or the operators and what the completeness check holds beside them (the
    D x D boolean nonzero pattern, the blocks of it that it gathers, and a few
    rows of the Gram matrix) if that is more.
    Two cases cost what a whole-file read does: a pipe, which cannot seek, is
    read whole first, and an ``operators`` value that a later one replaces is
    built by json's scanner to check it.
    """
    try:
        with open(path, "rb") as file:
            if not file.seekable():  # a pipe: the reader seeks, so hold it whole
                file = io.BytesIO(file.read())
            size = file.seek(0, os.SEEK_END)
            fields = _fields(_Window(file, size))
            d, n, span = _header(fields, size, path)
            k = _operator_count(file, span, d ** (2 * n), path)
            ops = _operators(file, span, k, d**n, path)
    except (OSError, ValueError, RecursionError) as exc:  # json recurses per nesting level
        raise FileFormatError(f"cannot parse {path}: {exc}") from exc
    ops.setflags(write=False)  # so the measurement keeps this block
    meas = validate_measurement(ops, tol)
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
    """Read a cache that ``save_schur_cache`` wrote; a malformed header or
    payload raises FileFormatError."""
    raw = Path(path).read_bytes()
    if raw[:8] != SCHUR_MAGIC:
        raise FileFormatError(f"{path}: bad magic")
    if len(raw) < 24:
        raise FileFormatError(f"{path}: {len(raw)} bytes cannot hold the 24-byte header")
    version, d, n, D = struct.unpack("<IIII", raw[8:24])
    if version != SCHUR_VERSION:
        raise FileFormatError(f"{path}: unknown cache version {version}")
    # d >= 2, so d^n = D bounds n by D's bit length, checked before d**n is formed
    if not (d >= 2 and 1 <= n <= D.bit_length() and D <= schur.MAX_DIM and d**n == D):
        raise FileFormatError(f"{path}: header d = {d}, n = {n}, D = {D} is not "
                              f"d^n = D <= {schur.MAX_DIM} with d >= 2 and n >= 1")
    if len(raw) != 24 + 16 * D * D:
        raise FileFormatError(f"{path}: payload of {len(raw) - 24} bytes, expected {16 * D * D}")
    U = np.frombuffer(raw[24:], dtype="<c16").reshape(D, D).copy()
    return schur.SchurBasis.from_unitary(d, n, U)


# ---------------------------------------------------------------------------
# reports


def _jsonable(obj):
    """A JSON-ready copy of ``obj``: dict keys as strings; tuples, sets
    (sorted) and arrays as lists; numpy numbers as Python ones; non-finite
    floats as None.  It keeps the containers still to convert on a list, so
    nesting costs no stack frames."""
    top = [obj]
    todo = [top]
    while todo:
        container = todo.pop()
        for key in list(container) if isinstance(container, dict) else range(len(container)):
            value = container[key]
            if isinstance(value, np.ndarray):
                value = value.tolist()
            if isinstance(value, dict):
                value = {str(k): v for k, v in value.items()}
                todo.append(value)
            elif isinstance(value, (list, tuple, set)):
                value = sorted(value) if isinstance(value, set) else list(value)
                todo.append(value)
            elif isinstance(value, np.integer):
                value = int(value)
            elif isinstance(value, (float, np.floating)):
                value = float(value) if math.isfinite(value) else None
            container[key] = value
    return top[0]


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
    M, N = ns.load(ns.path_a)[0], ns.load(ns.path_b)[0]
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
    meas, d, n, _ = ns.load(ns.path)
    cfg = _config_from_flags(ns, seed)
    box = BlackBox(meas, seed=seed, d=d, sampling=_sampling(ns))
    verdict = ns.tester(ns, box, cfg)
    report["verdict"] = _verdict_payload(verdict)
    return 0 if verdict.accepted else 1


def cmd_estimate(ns, report) -> int:
    seed = report["seed"] = ns.seed
    M, N = ns.load(ns.path_a)[0], ns.load(ns.path_b)[0]
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
    D = schur.checked_dimension(ns.d, ns.n)
    files, outcomes = ns.count(ns)
    if files * outcomes * D * D > FIXTURE_ENTRIES:
        raise ValueError(f"files x outcomes x (d^n)^2 = {files} x {outcomes} x {D}^2 "
                         f"must stay <= 16 x {schur.MAX_DIM}^2 = {FIXTURE_ENTRIES}")
    out_dir = Path(ns.out_dir)
    written = []
    for name, meas, d, metadata in ns.fixtures(ns):
        out_dir.mkdir(parents=True, exist_ok=True)  # only once a fixture is built
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
    yield (f"isotypic_d{ns.d}_n{ns.n}.json", schur.isotypic_projectors(ns.d, ns.n), ns.d,
           {"kind": "perminv", "blocks": schur.partitions(ns.n, ns.d)})


def _compbasis_fixture(ns):
    D = ns.d**ns.n
    ops = np.zeros((D, D, D), dtype=complex)
    ops[np.arange(D), np.arange(D), np.arange(D)] = 1
    ops.setflags(write=False)  # so the measurement keeps this block
    meas = validate_measurement(ops)
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


def _integer_at_least(low: int):
    """An option type: a decimal integer of at least ``low``."""

    def integer(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer of at least {low}, got {text!r}")
        return int(text)

    return integer


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
    run.add_argument("--seed", type=_integer_at_least(0), default=0)
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
        box, testers.FiniteSetSpec([ns.load(p)[0] for p in ns.set]), cfg))
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
    placed.add_argument("--n", type=_integer_at_least(1), default=2)
    # count: (files, outcomes) of a run, so its size is checked before anything is built
    placed.set_defaults(func=cmd_fixtures, d=2, count=lambda ns: (1, 2))
    _leaf(kinds, "stabilizer", placed, fixtures=_stabilizer_fixtures,
          count=lambda ns: (4**ns.n - 1, 2))
    _leaf(kinds, "far-stabilizer", placed, fixtures=_far_stabilizer_fixture).add_argument(
        "--seed", type=_integer_at_least(0), default=3)
    _leaf(kinds, "klocal", placed, fixtures=_klocal_fixture)
    # d = 1 admits only n = 0, which --n refuses
    _leaf(kinds, "perminv", placed, fixtures=_perminv_fixture,
          count=lambda ns: (1, len(schur.partitions(ns.n, ns.d)))).add_argument(
        "--d", type=_integer_at_least(2), default=2)
    _leaf(kinds, "compbasis", placed, fixtures=_compbasis_fixture,
          count=lambda ns: (1, ns.d**ns.n)).add_argument(
        "--d", type=_integer_at_least(2), default=2)

    p = sub.add_parser("schur", help="build, verify, and cache a Schur transform")
    p.add_argument("d", type=_integer_at_least(2))
    p.add_argument("n", type=_integer_at_least(1))
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
        ns.load = functools.cache(lambda path: load_measurement(path))  # one read per path
        code = ns.func(ns, report)
    except Exception as exc:  # any failure is an error (exit 2), never a verdict
        report["error"] = f"{type(exc).__name__}: {exc}"
        code = 2
    report["wall_time"] = round(time.monotonic() - started, 6)
    try:
        text = emit_report(report)
    except Exception as exc:  # e.g. a value json cannot write
        kept = {key: report[key] for key in ("command", "seed", "library_version", "wall_time")}
        text, code = emit_report({**kept, "error": f"{type(exc).__name__}: {exc}"}), 2
    print(text, end="")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
