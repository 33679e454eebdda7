"""Golden CLI reports: fixed-seed runs of every tester in both sampling modes.

Each run's report is stored under ``tests/data/golden/reports`` without its
``wall_time``.  Every other byte must stay the same as long as the random
stream is unchanged, which pins the draw order of both sampling modes.  A
change that is meant to alter the stream rewrites them with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from qmtest import cli

DATA = Path(__file__).resolve().parent / "data" / "golden"
REPORTS = DATA / "reports"
MODES = ("aggregate", "per-trial")

# run name -> CLI arguments, resolved against DATA; each runs in both modes
RUNS = {
    "stabilizer-in": ("test", "stabilizer", "stab_n2.json", "--epsilon", "0.3",
                      "--scale", "0.5", "--seed", "1"),
    "stabilizer-far": ("test", "stabilizer", "far_n3.json", "--epsilon", "0.3",
                       "--scale", "0.01", "--seed", "2"),
    "klocal-in": ("test", "klocal", "local_n3.json", "--k", "1", "--epsilon", "0.2",
                  "--scale", "15", "--seed", "3"),
    "klocal-far": ("test", "klocal", "comp_n3.json", "--k", "1", "--epsilon", "0.2",
                   "--scale", "0.05", "--seed", "4"),
    "klocal-random": ("test", "klocal", "rand_n2.json", "--k", "1", "--epsilon", "0.2",
                      "--scale", "0.0002", "--seed", "12"),
    "perminv-in": ("test", "perminv", "iso_d2_n3.json", "--epsilon", "0.1", "--seed", "5"),
    "perminv-far": ("test", "perminv", "comp_n2.json", "--epsilon", "0.3", "--seed", "6"),
    "finite-set": ("test", "finite-set", "stab1_z.json", "--set", "stab1_z.json",
                   "--set", "stab1_x.json", "--set", "stab1_y.json", "--epsilon", "0.5",
                   "--scale", "0.001", "--seed", "7"),
    "estimate": ("estimate", "stab_n2.json", "stab_n2_other.json", "--epsilon", "0.5",
                 "--scale", "1e-6", "--seed", "8"),
    "estimate-identity": ("estimate", "stab_n2.json", "stab_n2_other.json", "--identity",
                          "--epsilon", "0.8", "--scale", "1e-7", "--seed", "9"),
}
CASES = [(name, mode) for name in RUNS for mode in MODES]


def run_report(name: str, mode: str) -> str:
    """The run's canonical report with ``wall_time`` removed."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out):
            cli.main([*RUNS[name], "--mode", mode])
    finally:
        os.chdir(cwd)
    report = json.loads(out.getvalue())
    del report["wall_time"]
    return cli.emit_report(report)


@pytest.mark.parametrize("name,mode", CASES)
def test_report_unchanged(name, mode):
    expected = (REPORTS / f"{name}-{mode}.json").read_text()
    assert run_report(name, mode) == expected


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_measurement_file_rewrites_to_its_own_bytes(path, tmp_path):
    meas, d, n, metadata = cli.load_measurement(path)
    cli.save_measurement(tmp_path / path.name, meas, d, n, metadata)
    assert (tmp_path / path.name).read_bytes() == path.read_bytes()


if __name__ == "__main__":
    REPORTS.mkdir(exist_ok=True)
    for name, mode in CASES:
        (REPORTS / f"{name}-{mode}.json").write_text(run_report(name, mode))
