import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qmtest import blackbox, cli, core, metric, pauli, schur, testers

import oracles
from conftest import comp_basis_measurement


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, strict_json(out) if out else None


@pytest.fixture
def stab_file(tmp_path):
    meas = pauli.stabilizer_measurement((0, 1), (1, 0))
    path = tmp_path / "stab.json"
    cli.save_measurement(path, meas, 2, 2, {"kind": "stabilizer"})
    return path


@pytest.fixture
def stab_file_other(tmp_path):
    meas = pauli.stabilizer_measurement((1, 0), (0, 1))
    path = tmp_path / "stab_other.json"
    cli.save_measurement(path, meas, 2, 2, {})
    return path


IDENTITY_2 = "[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]"


def document(operators: str, rest: str = ', "metadata": {}') -> str:
    """A one-qubit measurement file with the given operators text."""
    return '{"version": 1, "d": 2, "n": 1, "operators": ' + operators + rest + "}"


# each file is read as a FileFormatError, named after what is wrong with it
MALFORMED = {
    "empty operators": document("[]"),
    "missing operators": '{"version": 1, "d": 2, "n": 1, "metadata": {}}',
    "non-ASCII character": document(IDENTITY_2.replace("0.0]", "0.0\u00a0]", 1)),
    "non-UTF-8 byte": document(IDENTITY_2).encode().replace(b"0.0]", b"0.0\xff]", 1),
    "nested four deep": document("[" + IDENTITY_2 + "]"),
    "nested two deep": document("[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]"),
    "five pairs": document(IDENTITY_2.replace("]]]", "], [0.0, 0.0]]]")),
    "blank first entry": document(IDENTITY_2.replace("[0.0, 0.0]", "[ , 0.0]", 1)),
    "blank second entry": document(IDENTITY_2.replace("[0.0, 0.0]", "[0.0, ]", 1)),
    "two numbers in an entry": document(IDENTITY_2.replace("[0.0, 0.0]", "[0.0 1.0, 0.0]", 1)),
    "sign alone": document(IDENTITY_2.replace("[0.0, 0.0]", "[-, 0.0]", 1)),
    "exponent without digits": document(IDENTITY_2.replace("1.0", "1e", 1)),
    "trailing data": document(IDENTITY_2) + "{}",
    "trailing comma": document(IDENTITY_2, ', "metadata": {},'),
    "trailing comma in operators": document(IDENTITY_2[:-1] + ",]"),
    "missing comma": document(IDENTITY_2, ' "metadata": {}'),
    "missing colon": document(IDENTITY_2).replace('"d":', '"d"'),
    "unclosed operators before a closing-bracket string": document(
        IDENTITY_2[:-1], ', "metadata": {"note": "]]]"}'),
    "operators only in a metadata string": '{"version": 1, "d": 2, "n": 1, "metadata": '
                                           '{"note": "\\"operators\\": [[[1.0, 0.0]]]"}}',
    "operators only under metadata": '{"version": 1, "d": 2, "n": 1, "metadata": '
                                     '{"operators": ' + IDENTITY_2 + "}}",
    # json.loads refuses the file even though the last value is the one it keeps
    "an earlier operators value that is not JSON": document(
        "[[[1.0 0.0]]]", ', "operators": ' + IDENTITY_2 + ', "metadata": {}'),
    "d of zero": document(IDENTITY_2).replace('"d": 2', '"d": 0'),
    # d and n are JSON integers: int() once read 2.7 and "2" as 2 and true as 1
    "d of 2.7": document(IDENTITY_2).replace('"d": 2', '"d": 2.7'),
    "d as a string": document(IDENTITY_2).replace('"d": 2', '"d": "2"'),
    "d beyond a double": document(IDENTITY_2).replace('"d": 2', '"d": 1e400'),
    "n as true": document(IDENTITY_2).replace('"n": 1', '"n": true'),
    "d too large for the file": document(IDENTITY_2).replace('"d": 2', '"d": 1000000'),
}

# -0.0, the smallest subnormal, the largest finite doubles and integers, beside
# arbitrary finite floats
ENTRIES = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                            -1.7976931348623157e308, 0, 1, -7])
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.integers(-2**53, 2**53))
METADATA = st.dictionaries(
    st.sampled_from(["operators", "note", "]]]", "é"]) | st.text(max_size=4),
    st.sampled_from(["]]]", '"operators": [[[', "[[[1, 0]]]"]) | st.text(max_size=6)
    | st.integers() | st.lists(st.integers(), max_size=2),
    max_size=3)
WHITESPACE = st.text(" \t\n\r", max_size=2)


@st.composite
def measurement_documents(draw):
    """(file text or None, operators, d, n, metadata) of a well-formed file.

    The text is None when ``save_measurement`` is to write the file.  Otherwise
    it is ``json.dumps`` with indent 2, or written out by hand with whitespace
    inside the pairs, with the fields in any order either way.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 2 if d < 3 else 1))
    k = draw(st.integers(1, 3))
    pairs = [[[draw(ENTRIES), draw(ENTRIES)] for _ in range(d ** (2 * n))] for _ in range(k)]
    ops = np.array(pairs, dtype=float).view(complex).reshape(k, d**n, d**n)
    style = draw(st.sampled_from(["save", "indent", "spaced"]))
    if style == "save":
        return None, ops, d, n, {str(key): str(value) for key, value in draw(METADATA).items()}
    metadata = draw(METADATA)
    fields = {"version": 1, "d": d, "n": n, "operators": pairs, "metadata": metadata}
    order = draw(st.permutations(list(fields)))
    ascii_only = draw(st.booleans())
    if style == "indent":
        text = json.dumps({key: fields[key] for key in order}, indent=2, ensure_ascii=ascii_only)
    else:
        def pair(re, im):
            w = [draw(WHITESPACE) for _ in range(4)]
            return f"[{w[0]}{json.dumps(re)}{w[1]},{w[2]}{json.dumps(im)}{w[3]}]"

        operators = "[" + ", ".join("[" + ",".join(pair(*p) for p in op) + "]"
                                    for op in pairs) + "]"
        text = "{" + ", ".join(
            json.dumps(key) + ": " + (operators if key == "operators"
                                      else json.dumps(fields[key], ensure_ascii=ascii_only))
            for key in order) + "}\n"
    return text, ops, d, n, metadata


def unchecked_measurement(ops) -> core.Measurement:
    """The operators as a Measurement, with no completeness check."""
    return core.Measurement(tuple(core.as_operator(op) for op in ops), math.nan)


# prints how far a fresh interpreter's peak RSS, in KiB, rises across one load
PEAK_GROWTH = """
import resource, sys
from qmtest import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
cli.load_measurement(sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
LOAD_MEMORY_BOUND = 2.0  # peak growth per (file bytes + 16 k D^2 bytes of operators)


class TestMeasurementFiles:
    def test_round_trip(self, tmp_path, rng):
        meas = oracles.random_measurement(4, 3, rng)
        path = tmp_path / "m.json"
        cli.save_measurement(path, meas, 2, 2, {"note": "fixture"})
        loaded, d, n, meta = cli.load_measurement(path)
        assert (d, n) == (2, 2)
        assert meta["note"] == "fixture"
        for a, b in zip(loaded.operators, meas.operators):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "d": 2, "n": 1, "operators": []}))
        with pytest.raises(cli.FileFormatError):
            cli.load_measurement(path)

    def test_truncated_operator(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text(
            json.dumps({"version": 1, "d": 2, "n": 1, "operators": [[[1.0, 0.0]]]})
        )
        with pytest.raises(cli.FileFormatError):
            cli.load_measurement(path)

    # json.loads reads true and false as 1 and 0, so the reader it replaced did too
    @pytest.mark.parametrize("bad", ["1.0", None, [1.0, 0.0, 0.0], [1.0], {"re": 1.0},
                                     ["1.0", 0.0], [None, 0.0], [math.nan, 0.0],
                                     [0.0, math.inf], [-math.inf, 0.0], [True, 0.0],
                                     [0.0, False]])
    def test_malformed_entry(self, capsys, tmp_path, bad):
        # one bad entry among three good [re, im] pairs of a 2x2 operator
        path = tmp_path / "bad_entry.json"
        op = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], bad]
        path.write_text(json.dumps({"version": 1, "d": 2, "n": 1, "operators": [op]}))
        with pytest.raises(cli.FileFormatError):
            cli.load_measurement(path)
        code, report = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert report["error"].startswith("FileFormatError: ")

    def test_integer_entries_read_as_floats(self, tmp_path):
        path = tmp_path / "ints.json"
        op = [[1, 0], [0, 0], [0, 0], [1, 0]]
        path.write_text(json.dumps({"version": 1, "d": 2, "n": 1, "operators": [op]}))
        meas, _, _, _ = cli.load_measurement(path)
        np.testing.assert_array_equal(meas.operators[0], np.eye(2, dtype=complex))

    def test_huge_n_refused_before_d_to_the_n(self, tmp_path):
        # 2**1e9 once took 20 s and 919 MB before failing to print itself
        path = tmp_path / "huge_n.json"
        path.write_text(document("[[[1, 0]]]").replace('"n": 1', '"n": 1000000000'))
        start = time.monotonic()
        with pytest.raises(cli.FileFormatError, match="cannot hold"):
            cli.load_measurement(path)
        assert time.monotonic() - start < 1.0

    def test_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        with pytest.raises(cli.FileFormatError):
            cli.load_measurement(path)

    @pytest.mark.parametrize("text", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed_file(self, capsys, tmp_path, text):
        path = tmp_path / "malformed.json"
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        with pytest.raises(cli.FileFormatError):
            cli.load_measurement(path)
        code, report = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert report["error"].startswith("FileFormatError: ")

    @pytest.mark.parametrize("metadata", [
        '{"note": "]]]"}',
        '{"note": "\\"operators\\": [[[9.0, 9.0]]]"}',
        '{"operators": [[[9.0, 9.0]]]}',
    ], ids=["closing brackets", "operators string", "nested operators key"])
    @pytest.mark.parametrize("first", [True, False], ids=["metadata first", "operators first"])
    def test_top_level_operators_are_read(self, tmp_path, metadata, first):
        fields = [f'"metadata": {metadata}', f'"operators": {IDENTITY_2}']
        path = tmp_path / "m.json"
        path.write_text('{"version": 1, "d": 2, "n": 1, '
                        + ", ".join(fields if first else fields[::-1]) + "}")
        meas, _, _, meta = cli.load_measurement(path)
        np.testing.assert_array_equal(meas.operators[0], np.eye(2))
        assert meta == json.loads(metadata)

    @pytest.mark.parametrize("spelled,value", [("+1", 1.0), (".5", 0.5), ("1.", 1.0),
                                               ("01", 1.0), ("-.5", -0.5), ("1.e0", 1.0)])
    def test_number_spellings_json_forbids_are_read(self, tmp_path, spelled, value):
        # numpy's parser takes these and no check spends a pass over the file to
        # refuse them; json.loads, and so the reader it replaced, refuses them
        path = tmp_path / "spelled.json"
        path.write_text(document(IDENTITY_2.replace("1.0, 0.0]]]", f"{spelled}, 0.0]]]")))
        meas, _, _, _ = cli.load_measurement(path, tol=math.inf)
        assert meas.operators[0][1, 1] == value
        with pytest.raises(cli.FileFormatError):
            oracles.load_measurement_json(path, tol=math.inf)

    @settings(max_examples=80, deadline=None)
    @given(doc=measurement_documents())
    def test_reader_matches_json_oracle(self, tmp_path_factory, doc):
        text, ops, d, n, metadata = doc
        path = tmp_path_factory.mktemp("doc") / "m.json"
        if text is None:
            cli.save_measurement(path, unchecked_measurement(ops), d, n, metadata)
        else:
            path.write_text(text, encoding="utf-8")
        # the entries go up to the largest doubles, whose Gram sum overflows to a
        # NaN residual that no tolerance passes: compare the decoded operators
        with pytest.MonkeyPatch.context() as patch:
            for reader in (cli, oracles):
                patch.setattr(reader, "validate_measurement",
                              lambda ops, tol: unchecked_measurement(ops))
            got, *got_rest = cli.load_measurement(path)
            want, *want_rest = oracles.load_measurement_json(path)
        assert [op.tobytes() for op in got.operators] == [op.tobytes() for op in want.operators]
        assert got_rest == want_rest
        if text is not None:
            assert got_rest == [d, n, metadata]
            np.testing.assert_array_equal(np.array(got.operators), ops)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in Linux's KiB")
    @pytest.mark.parametrize("kind", ["one-hot", "dense"])
    def test_load_memory(self, tmp_path, rng, kind):
        # 81 one-hot operators at D = 81, or 5 dense ones at D = 256
        if kind == "one-hot":
            meas, d, n = comp_basis_measurement(81), 3, 4
        else:
            meas, d, n = oracles.random_measurement(256, 5, rng), 2, 8
        path = tmp_path / "m.json"
        cli.save_measurement(path, meas, d, n)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", PEAK_GROWTH, str(path)], env=env,
                             capture_output=True, text=True, check=True).stdout
        arrays = 16 * len(meas) * meas.dim**2
        assert int(out) * 1024 <= LOAD_MEMORY_BOUND * (path.stat().st_size + arrays)


class TestReports:
    def test_round_trip_bytes(self):
        report = {"b": [1, 2.5], "a": {"x": "y"}, "v": None}
        text = cli.emit_report(report)
        assert cli.emit_report(json.loads(text)) == text

    def test_jsonable_handles_numpy(self):
        text = cli.emit_report({"arr": np.arange(3), "num": np.float64(1.5),
                                "i": np.int64(2), "s": {3, 1}})
        parsed = json.loads(text)
        assert parsed == {"arr": [0, 1, 2], "num": 1.5, "i": 2, "s": [1, 3]}

    def test_non_finite_written_as_null(self):
        text = cli.emit_report({"a": math.inf, "b": np.float64("nan"), "c": [-math.inf, 1.0]})
        assert strict_json(text) == {"a": None, "b": None, "c": [None, 1.0]}

    def test_unexpected_exception_exits_2(self, capsys, stab_file, monkeypatch):
        def broken(box, cfg):
            raise RuntimeError("sampler broke")

        monkeypatch.setattr(testers, "test_stabilizer", broken)
        code, report = run_cli(
            capsys, "test", "stabilizer", str(stab_file), "--epsilon", "0.4", "--seed", "7"
        )
        assert code == 2
        assert report["error"] == "RuntimeError: sampler broke"
        assert report["seed"] == 7

    def test_worker_thread_error_exits_2(self, capsys, stab_file, monkeypatch):
        # a per-trial count split across threads re-raises a worker's error in
        # the command, which reports it like any other
        count_span = blackbox._count_span

        def fails_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker broke")
            return count_span(*args)

        monkeypatch.setattr(blackbox, "CHUNK", 1024)
        monkeypatch.setattr(blackbox, "_cores", lambda: 2)
        monkeypatch.setattr(blackbox, "_count_span", fails_off_main)
        code, report = run_cli(
            capsys, "test", "stabilizer", str(stab_file), "--epsilon", "0.4", "--seed", "7",
            "--mode", "per-trial"
        )
        assert code == 2
        assert report["error"] == "RuntimeError: worker broke"

    def test_wall_time_covers_the_command(self, capsys, stab_file, monkeypatch):
        def slow(box, cfg):
            time.sleep(0.05)
            return testers.Verdict(None, 0, {}, {})

        monkeypatch.setattr(testers, "test_stabilizer", slow)
        code, report = run_cli(
            capsys, "test", "stabilizer", str(stab_file), "--epsilon", "0.4"
        )
        assert code == 0
        assert report["wall_time"] >= 0.05


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
GOLDEN_FILES = sorted(str(p) for p in GOLDEN.glob("*.json"))


@st.composite
def cli_argv(draw, out_dir: Path):
    """A command line over the golden files, well formed or not, sometimes with
    noise tokens inserted at random places.

    Each command gets only the options it reads.  Runs stay in aggregate
    mode, and test and estimate get ``--scale`` at most 1e-3, so every run is
    quick; fixtures write only under out_dir.
    """
    path = st.sampled_from(GOLDEN_FILES)
    # repeated entries weigh the draws toward runs that parse and complete
    epsilon = st.sampled_from(["0.3", "0.5", "0.8", "0.3", "0.5", "0.8", "1", "-1", "abc"])
    count = st.sampled_from(["1", "2", "1", "2", "0", "-1", "abc"])
    command = draw(st.sampled_from(["validate", "distance", "test", "estimate", "fixtures"]))
    if command == "validate":
        argv = [command, draw(path)]
    elif command == "distance":
        argv = [command, draw(path), draw(path)]
    elif command == "test":
        prop = draw(st.sampled_from(["stabilizer", "klocal", "perminv", "finite-set"]))
        argv = [command, prop, draw(path), "--epsilon", draw(epsilon)]
        if prop == "klocal":
            argv += ["--k", draw(count)]
        if prop == "finite-set":
            for member in draw(st.lists(path, min_size=1, max_size=2)):
                argv += ["--set", member]
    elif command == "estimate":
        argv = [command, draw(path), draw(path), "--epsilon", draw(epsilon)]
        argv += draw(st.sampled_from([[], ["--identity"]]))
    else:
        kind = draw(st.sampled_from(["stabilizer", "far-stabilizer", "klocal", "perminv",
                                     "compbasis"]))
        argv = [command, kind, str(out_dir), "--n", draw(count)]
        if kind in ("perminv", "compbasis"):
            argv += ["--d", draw(st.sampled_from(["2", "3"]))]
        if kind == "far-stabilizer":
            argv += ["--seed", draw(st.sampled_from(["3", "4"]))]
    noise = st.sampled_from(["bogus", "--bogus", "", "-", "--epsilon", "--mode", "--k",
                             "abc", str(out_dir / "missing.json")]) | path
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        token = draw(noise)
        argv.insert(draw(st.integers(0, len(argv))), token)
    if command in ("test", "estimate"):
        argv += ["--scale", draw(st.sampled_from(["1e-3", "1e-4", "1e-6"]))]
    return argv


EPS = ("--epsilon", "0.5")
# (a command line that parses, an option its command does not read)
UNREAD_OPTIONS = [
    (("test", "stabilizer", "{a}", *EPS), ("--k", "1")),
    (("test", "stabilizer", "{a}", *EPS), ("--set", "{a}")),
    (("test", "stabilizer", "{a}", *EPS), ("--schur-cache", "{cache}")),
    (("test", "klocal", "{a}", "--k", "1", *EPS), ("--set", "{a}")),
    (("test", "klocal", "{a}", "--k", "1", *EPS), ("--schur-cache", "{cache}")),
    (("test", "perminv", "{a}", *EPS), ("--k", "1")),
    (("test", "perminv", "{a}", *EPS), ("--set", "{a}")),
    (("test", "finite-set", "{a}", "--set", "{a}", *EPS), ("--k", "1")),
    (("test", "finite-set", "{a}", "--set", "{a}", *EPS), ("--schur-cache", "{cache}")),
    (("fixtures", "stabilizer", "{out}"), ("--d", "3")),
    (("fixtures", "far-stabilizer", "{out}"), ("--d", "3")),
    (("fixtures", "klocal", "{out}"), ("--d", "3")),
    (("fixtures", "stabilizer", "{out}"), ("--seed", "5")),
    (("fixtures", "klocal", "{out}"), ("--seed", "5")),
    (("fixtures", "perminv", "{out}"), ("--seed", "5")),
    (("fixtures", "compbasis", "{out}"), ("--seed", "5")),
    # k is the larger outcome count of the two measurements
    (("estimate", "{a}", "{b}", *EPS), ("--k", "2")),
]
UNREAD_IDS = [" ".join([*(w for w in argv[:2] if "{" not in w), unread[0]])
              for argv, unread in UNREAD_OPTIONS]


class TestArguments:
    def test_argument_error_is_a_report(self, capsys, stab_file):
        code = cli.main(["test", "stabilizer", str(stab_file)])
        captured = capsys.readouterr()
        assert code == 2
        report = strict_json(captured.out)
        assert report["error"] == "UsageError: the following arguments are required: --epsilon"
        assert captured.err.startswith("usage: qmtest test")

    def test_help_exits_0_with_plain_help(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["test", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qmtest test")

    @pytest.mark.parametrize("argv,unread", UNREAD_OPTIONS, ids=UNREAD_IDS)
    def test_unread_option_is_refused(self, capsys, tmp_path, stab_file, stab_file_other,
                                      argv, unread):
        files = {"a": stab_file, "b": stab_file_other, "out": tmp_path / "out",
                 "cache": tmp_path / "cache.bin"}
        argv = [arg.format(**files) for arg in argv]
        unread = [arg.format(**files) for arg in unread]
        cli.build_parser().parse_args(argv)  # the line parses without the option
        code, report = run_cli(capsys, *argv, *unread)
        assert code == 2
        assert report["error"] == f"UsageError: unrecognized arguments: {' '.join(unread)}"
        assert not files["out"].exists()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_command_line_keeps_the_contract(self, tmp_path_factory, data):
        argv = data.draw(cli_argv(tmp_path_factory.getbasetemp() / "cli-argv"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        event(f"exit {code}")
        assert code in (0, 1, 2)
        report = strict_json(out.getvalue())
        if code == 2:
            assert "error" in report


class TestValidateCommand:
    def test_valid_file(self, capsys, stab_file):
        code, report = run_cli(capsys, "validate", str(stab_file))
        assert code == 0
        assert report["completeness_residual"] <= 1e-10

    def test_incomplete_measurement(self, capsys, tmp_path):
        path = tmp_path / "double.json"
        doc = {
            "version": 1,
            "d": 2,
            "n": 1,
            "operators": [cli._matrix_to_pairs(np.eye(2)) for _ in range(2)],
            "metadata": {},
        }
        path.write_text(json.dumps(doc))
        code, report = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "CompletenessViolation" in report["error"]

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("[1,2")
        code, report = run_cli(capsys, "validate", str(path))
        assert code == 2

    # nan and inf once passed a file with residual 1.0 (exit 0, tol null), and -1
    # failed a complete one (exit 1)
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "abc"])
    def test_tolerance_must_be_finite_and_non_negative(self, capsys, stab_file, tol):
        code, report = run_cli(capsys, "validate", str(stab_file), "--tol", tol)
        assert code == 2
        assert report["error"].startswith("UsageError: argument --tol: ")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the Gram sum
    def test_nan_residual_fails(self, capsys, tmp_path):
        # each M^dag M overflows, so the residual is NaN: it once passed as null
        path = tmp_path / "overflow.json"
        path.write_text(document("[[[1e300, 0], [-1e300, 0], [1e300, 0], [1e300, 0]]]"))
        code, report = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert report["error"].startswith("CompletenessViolation: ")
        code, report = run_cli(capsys, "test", "perminv", str(path), "--epsilon", "0.5")
        assert code == 2
        assert report["error"].startswith("CompletenessViolation: ")

    def test_zero_tolerance_is_an_option_value(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        cli.save_measurement(path, core.validate_measurement([np.eye(2) / 2], math.inf), 2, 1)
        code, report = run_cli(capsys, "validate", str(path), "--tol", "0")
        assert code == 1
        assert report["error"].startswith("CompletenessViolation: ")


class TestDistanceCommand:
    def test_same_file(self, capsys, stab_file):
        code, report = run_cli(capsys, "distance", str(stab_file), str(stab_file))
        assert code == 0
        assert report["estimate"]["delta"] == pytest.approx(0.0, abs=1e-9)

    def test_stabilizer_pair(self, capsys, stab_file, stab_file_other):
        code, report = run_cli(capsys, "distance", str(stab_file), str(stab_file_other))
        assert code == 0
        assert report["estimate"]["delta"] == pytest.approx(0.70711, abs=1e-5)
        assert report["estimate"]["cross_check_gap"] <= 1e-9

    def test_dim_mismatch(self, capsys, stab_file, tmp_path):
        other = tmp_path / "one_qubit.json"
        cli.save_measurement(other, pauli.stabilizer_measurement((1,), (0,)), 2, 1, {})
        code, report = run_cli(capsys, "distance", str(stab_file), str(other))
        assert code == 2


class TestTestCommand:
    def test_stabilizer_accepts(self, capsys, stab_file):
        code, report = run_cli(
            capsys, "test", "stabilizer", str(stab_file), "--epsilon", "0.4", "--seed", "7"
        )
        assert code == 0
        assert report["verdict"]["decision"] == "accept"

    def test_deterministic_given_seed(self, capsys, stab_file):
        _, first = run_cli(
            capsys, "test", "stabilizer", str(stab_file), "--epsilon", "0.4", "--seed", "3"
        )
        _, second = run_cli(
            capsys, "test", "stabilizer", str(stab_file), "--epsilon", "0.4", "--seed", "3"
        )
        assert first["verdict"] == second["verdict"]

    def test_env_seed_fallback(self, capsys, stab_file, monkeypatch):
        # no environment variable sets the seed: without --seed it is 0
        monkeypatch.setenv("QMTEST_SEED", "11")
        code, report = run_cli(
            capsys, "test", "stabilizer", str(stab_file), "--epsilon", "0.4"
        )
        assert report["seed"] == 0

    def test_klocal(self, capsys, tmp_path):
        rest = np.eye(4)
        meas = core.validate_measurement([
            np.kron(np.diag([1.0, 0.0]).astype(complex), rest),
            np.kron(np.diag([0.0, 1.0]).astype(complex), rest),
        ])
        path = tmp_path / "local.json"
        cli.save_measurement(path, meas, 2, 3, {})
        code, report = run_cli(
            capsys, "test", "klocal", str(path), "--k", "1", "--epsilon", "0.4"
        )
        assert code == 0

    def test_klocal_needs_k(self, capsys, stab_file):
        code, report = run_cli(
            capsys, "test", "klocal", str(stab_file), "--epsilon", "0.4"
        )
        assert code == 2
        assert report["error"] == "UsageError: the following arguments are required: --k"

    def test_finite_set_needs_a_member(self, capsys, stab_file):
        code, report = run_cli(capsys, "test", "finite-set", str(stab_file), "--epsilon", "0.4")
        assert code == 2
        assert report["error"] == "UsageError: the following arguments are required: --set"

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_klocal_nonpositive_k(self, capsys, stab_file, k):
        code, report = run_cli(
            capsys, "test", "klocal", str(stab_file), "--k", k, "--epsilon", "0.3"
        )
        assert code == 2
        assert report["error"] == f"InvalidLocality: k must be a positive integer, got {k}"

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_estimate_nonpositive_k(self, capsys, stab_file, stab_file_other, k):
        # estimate takes k from the two measurements, so any --k is a usage error
        for extra in ((), ("--identity",)):
            code, report = run_cli(
                capsys, "estimate", str(stab_file), str(stab_file_other), "--k", k,
                "--epsilon", "0.5", *extra
            )
            assert code == 2
            assert report["error"] == f"UsageError: unrecognized arguments: --k {k}"

    def test_perminv_reject(self, capsys, tmp_path):
        path = tmp_path / "comp.json"
        cli.save_measurement(path, comp_basis_measurement(4), 2, 2, {})
        code, report = run_cli(
            capsys, "test", "perminv", str(path), "--epsilon", "0.5", "--seed", "1"
        )
        assert report["verdict"]["stage_stats"]["pass_prob"] == pytest.approx(0.75)
        assert code in (0, 1)

    def test_perminv_past_the_schur_cap(self, capsys, tmp_path):
        # n = 7 exceeds the Schur basis's site cap; the twirl has none.  The
        # site-1 projector pair passes with probability (n + 1)/(2n) = 4/7
        code, report = run_cli(capsys, "fixtures", "klocal", str(tmp_path), "--n", "7")
        assert code == 0
        code, report = run_cli(capsys, "test", "perminv", str(tmp_path / "local1_n7.json"),
                               "--epsilon", "0.3", "--seed", "1")
        assert code == 1
        assert report["verdict"]["stage_stats"]["pass_prob"] == pytest.approx(4 / 7, abs=1e-12)

    def test_finite_set(self, capsys, stab_file, stab_file_other):
        code, report = run_cli(
            capsys,
            "test", "finite-set", str(stab_file),
            "--set", str(stab_file), "--set", str(stab_file_other),
            "--epsilon", "0.5", "--seed", "2",
        )
        assert code == 0
        assert report["verdict"]["decision"] == "accept"

    def test_identical_members_refused(self, capsys, stab_file, stab_file_other):
        # identical members leave the family without a separation gamma
        code, report = run_cli(
            capsys, "test", "finite-set", str(stab_file), "--set", str(stab_file_other),
            "--set", str(stab_file), "--set", str(stab_file), "--epsilon", "0.5"
        )
        assert code == 2
        assert report["error"] == "DuplicateMember: members 1 and 2 are identical (distance 0)"

    def test_single_member_set_is_strict_json(self, capsys, stab_file):
        # one member has no pairwise distance: gamma is infinite, written as null
        code, report = run_cli(
            capsys, "test", "finite-set", str(stab_file), "--set", str(stab_file),
            "--epsilon", "0.5", "--seed", "2",
        )
        assert code == 0
        assert report["verdict"]["params"]["gamma"] is None


NOT_FINITE = "ValueError: constant_scale must be positive and finite"


class TestEstimateCommand:
    def test_identical(self, capsys, stab_file):
        code, report = run_cli(
            capsys, "estimate", str(stab_file), str(stab_file), "--epsilon", "0.6",
            "--seed", "1",
        )
        assert code == 0
        assert report["estimate"]["delta_hat"] <= 0.6

    def test_pair_close_to_exact(self, capsys, stab_file, stab_file_other):
        code, report = run_cli(
            capsys, "estimate", str(stab_file), str(stab_file_other),
            "--epsilon", "0.6", "--seed", "4",
        )
        assert abs(report["estimate"]["delta_hat"] - report["estimate"]["exact_delta"]) <= 0.6

    def test_identity_mode(self, capsys, stab_file, stab_file_other):
        code, report = run_cli(
            capsys, "estimate", str(stab_file), str(stab_file_other),
            "--epsilon", "0.7", "--seed", "5", "--identity",
        )
        assert code == 1  # distinct measurements: "different"
        assert report["verdict"]["decision"] == "reject"

    def test_sample_budget_exceeded(self, capsys, stab_file, stab_file_other):
        # epsilon 0.05 asks for about 2.9e22 queries, beyond int64
        code, report = run_cli(
            capsys, "estimate", str(stab_file), str(stab_file_other), "--epsilon", "0.05",
        )
        assert code == 2
        assert report["error"].startswith("SampleBudgetExceeded: ")

    @pytest.mark.parametrize("argv,error", [
        (("test", "stabilizer", "{a}", "--epsilon", "0.3", "--scale", "nan"), NOT_FINITE),
        (("test", "stabilizer", "{a}", "--epsilon", "0.3", "--scale", "inf"), NOT_FINITE),
        # epsilon**p underflows to 0, so the count divides by zero
        (("test", "stabilizer", "{a}", "--epsilon", "1e-300"), "SampleBudgetExceeded"),
        (("test", "perminv", "{a}", "--epsilon", "1e-200"), "SampleBudgetExceeded"),
        (("estimate", "{a}", "{b}", "--epsilon", "1e-90"), "SampleBudgetExceeded"),
        # the symmetry check of [I, 0] always passes, so aggregate mode draws
        # one uniform for about 5.6e301 iterations unless the budget is checked
        (("test", "perminv", "{trivial}", "--epsilon", "0.3", "--scale", "1e300"),
         "SampleBudgetExceeded"),
    ], ids=["scale-nan", "scale-inf", "stabilizer-underflow", "perminv-underflow",
            "estimate-underflow", "perminv-budget"])
    def test_sample_sizes_that_cannot_run(self, capsys, tmp_path, stab_file, stab_file_other,
                                          argv, error):
        trivial = tmp_path / "trivial.json"
        cli.save_measurement(trivial, core.validate_measurement([np.eye(4), np.zeros((4, 4))]),
                             2, 2)
        files = {"a": stab_file, "b": stab_file_other, "trivial": trivial}
        for mode in ("aggregate", "per-trial"):
            code, report = run_cli(capsys, *(arg.format(**files) for arg in argv),
                                   "--mode", mode)
            assert code == 2
            assert report["error"].startswith(f"{error}")


class TestFixturesCommand:
    def test_stabilizer_count(self, capsys, tmp_path):
        code, report = run_cli(capsys, "fixtures", "stabilizer", str(tmp_path), "--n", "2")
        assert code == 0
        assert len(report["written"]) == 15  # 4^2 - 1 nonzero labels
        assert report["seed"] is None  # only far-stabilizer is seeded

    def test_far_fixture_has_certificate(self, capsys, tmp_path):
        code, report = run_cli(capsys, "fixtures", "far-stabilizer", str(tmp_path), "--n", "2")
        assert code == 0
        assert report["seed"] == 3
        doc = json.loads((tmp_path / report["written"][0]).read_text())
        assert float(doc["metadata"]["certified_delta"]) >= 0.4

    def test_far_fixture_past_seven_qubits(self, capsys, tmp_path):
        # the closed-form scan has no n! step, so n = 7 is certified like n = 2:
        # the certified delta is the direct distance to the reported nearest pair
        code, report = run_cli(capsys, "fixtures", "far-stabilizer", str(tmp_path), "--n", "7")
        assert code == 0
        meas, _, n, meta = cli.load_measurement(tmp_path / report["written"][0])
        assert n == 7
        nearest = pauli.stabilizer_measurement(*ast.literal_eval(meta["nearest_label"]))
        direct = metric.delta_measurement(meas, nearest).delta
        assert abs(direct - float(meta["certified_delta"])) <= 1e-12

    def test_perminv_fixture(self, capsys, tmp_path):
        code, report = run_cli(capsys, "fixtures", "perminv", str(tmp_path), "--n", "2")
        assert code == 0
        loaded, d, n, meta = cli.load_measurement(tmp_path / report["written"][0])
        assert len(loaded) == 2  # two partition blocks at (2, 2)

    def test_klocal_and_compbasis(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "fixtures", "klocal", str(tmp_path), "--n", "3")
        assert code == 0
        code, _ = run_cli(capsys, "fixtures", "compbasis", str(tmp_path), "--n", "2")
        assert code == 0

    # each once exited 0 writing nothing, or 2 with an error naming no option
    @pytest.mark.parametrize("kind,option,value", [
        ("stabilizer", "--n", "0"),
        ("stabilizer", "--n", "-1"),
        ("klocal", "--n", "0"),
        ("compbasis", "--d", "0"),
        ("far-stabilizer", "--n", "0"),
        ("perminv", "--d", "0"),
    ])
    def test_size_below_one_is_a_usage_error(self, capsys, tmp_path, kind, option, value):
        out = tmp_path / "out"
        code, report = run_cli(capsys, "fixtures", kind, str(out), option, value)
        assert code == 2
        assert report["error"].startswith(f"UsageError: argument {option}: ")
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, capsys, tmp_path, stab_file):
        # each once exited 2 with "ValueError: expected non-negative integer",
        # the fixture having made OUT first
        out = tmp_path / "out"
        for argv in (("fixtures", "far-stabilizer", str(out), "--n", "2", "--seed", "-1"),
                     ("test", "stabilizer", str(stab_file), "--epsilon", "0.5", "--seed", "-1")):
            code, report = run_cli(capsys, *argv)
            assert code == 2
            assert report["error"].startswith("UsageError: argument --seed: ")
        assert not out.exists()


class TestSchurCommand:
    def test_build_and_cache(self, capsys, tmp_path):
        out = tmp_path / "schur_2_3.bin"
        code, report = run_cli(capsys, "schur", "2", "3", str(out))
        assert code == 0
        assert report["residuals"]["unitarity"] <= 1e-10
        basis = cli.load_schur_cache(out)
        assert basis.d == 2 and basis.n == 3

    def test_verifies_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        verify = schur.verify_schur_basis

        def counted(basis, *args, **kwargs):
            calls.append(verify(basis, *args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(schur, "verify_schur_basis", counted)
        code, report = run_cli(capsys, "schur", "2", "3", str(tmp_path / "s.bin"))
        assert code == 0
        assert len(calls) == 1
        assert report["residuals"] == calls[0]

    def test_perminv_ignores_cache(self, capsys, tmp_path, monkeypatch):
        # ``--schur-cache`` is still accepted, but perminv builds, loads and
        # writes no transform
        cache = tmp_path / "schur_2_3.bin"
        path = tmp_path / "iso.json"
        cli.save_measurement(path, schur.isotypic_projectors(schur.build_schur_transform(2, 3)),
                             2, 3, {})

        def refuse(*args, **kwargs):
            raise AssertionError("test perminv must not build or load a Schur transform")

        monkeypatch.setattr(schur, "build_schur_transform", refuse)
        monkeypatch.setattr(cli, "load_schur_cache", refuse)
        code, report = run_cli(capsys, "test", "perminv", str(path), "--epsilon", "0.3",
                               "--seed", "1", "--schur-cache", str(cache))
        assert code == 0
        assert report["verdict"]["decision"] == "accept"
        assert not cache.exists()

    def test_cache_round_trip_matches(self, tmp_path):
        basis = schur.build_schur_transform(2, 2)
        path = tmp_path / "cache.bin"
        cli.save_schur_cache(basis, path)
        loaded = cli.load_schur_cache(path)
        np.testing.assert_array_equal(loaded.U, basis.U)
        assert loaded.blocks == basis.blocks

    def test_triplet_singlet_reference(self, tmp_path):
        # hand-built symmetric/antisymmetric basis spans must match
        basis = schur.build_schur_transform(2, 2)
        anti = np.array([0, 1, -1, 0]) / math.sqrt(2)
        offset, w, v = basis.blocks[(1, 1)]
        row = basis.U[offset]
        assert abs(np.vdot(row.conj(), anti)) == pytest.approx(1.0, abs=1e-10)

    def test_size_cap_refused(self, capsys, tmp_path):
        code, report = run_cli(capsys, "schur", "2", "11", str(tmp_path / "x.bin"))
        assert code == 2

    def test_corrupt_cache(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
        with pytest.raises(cli.FileFormatError):
            cli.load_schur_cache(path)


# prints the qmtest submodules, and whether numpy is loaded, after each import
IMPORTS = """
import sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("qmtest.")), "numpy" in sys.modules
import qmtest
print(loaded())
import qmtest.cli
print(loaded())
"""


def test_package_import_loads_no_submodule():
    # a fresh interpreter, since this one has imported every module already
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", IMPORTS], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout.splitlines()
    assert ast.literal_eval(out[0]) == ([], False)
    modules = ["blackbox", "cli", "core", "metric", "pauli", "schur", "testers"]
    assert ast.literal_eval(out[1]) == ([f"qmtest.{m}" for m in modules], True)
