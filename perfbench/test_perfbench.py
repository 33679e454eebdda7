"""Tests of the benchmark's own logic: self time, the tail rule, the failure
classifier, the fixtures' known answers, and the traced child's spans.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import fixtures as fx
import spans
from run import TAIL_BEYOND, end_to_end, list_quantile, pass_rate, tail_percentile
from workloads import WORKLOADS, Operation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_nested_children_once():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_as_their_union():
    # children [1, 5] and [3, 6] cover [1, 6]; a child running past its
    # parent's end counts only up to that end
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 5.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert spans.self_times(start, end, parent)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_totals_split_wall_time_into_startup_and_self_times():
    totals = spans.LayerTotals()
    names = ["cli.main", "cli.load_measurement", "core.validate_measurement",
             "pauli.mu_vector", "pauli.mu_vector"]
    start = [1.0, 1.5, 2.0, 3.0, 5.0]
    end = [9.0, 2.5, 2.2, 4.0, 5.5]
    parent = [-1, 0, 1, 0, 0]
    amount = [0.0, 100.0, 0.0, 24.0 * 2**24, 24.0 * 2**24]
    totals.add_operation(10.0, names, start, end, parent, amount)
    m = totals.metrics(passes=1)
    assert m["process.startup_s"][0] == pytest.approx(2.0)
    assert m["pauli.mu_vector.calls"][0] == 2
    assert m["pauli.mu_vector.self_s"][0] == pytest.approx(1.5)
    assert m["pauli.mu_vector.first_s"][0] == pytest.approx(1.0)
    assert m["pauli.label_table_mb"][0] == pytest.approx(384.0)
    assert m["cli.load_measurement.self_s"][0] == pytest.approx(0.8)
    assert m["cli.load_measurement.bytes"][0] == 100.0
    assert m["cli.main.self_s"][0] == pytest.approx(8.0 - 1.0 - 1.0 - 0.5)
    # named self times (2.5) plus start-up (2.0) out of 10 s of wall time
    assert m["trace.coverage"][0] == pytest.approx(0.45)
    assert totals.dominant_layer() == "pauli"


# ---------------------------------------------------------------------------
# tail percentile


def _records(walls, ops=None, failures=()):
    return [{"op": ops[i] if ops else f"op{i}", "wall_s": w, "cpu_s": w, "rss_mb": 10.0 + i,
             "traced": False, "failure": "exit code 2, expected 0" if i in failures else None}
            for i, w in enumerate(walls)]


def test_tail_is_the_highest_rank_with_ten_samples_beyond_it():
    walls = [float(v) for v in range(30, 0, -1)]
    percentile = tail_percentile(len(walls))
    assert percentile == pytest.approx(100.0 * 20 / 30)
    value = list_quantile(_records(walls), "wall_s", percentile / 100)
    assert value == 20.0
    assert sum(1 for w in walls if w > value) == TAIL_BEYOND


def test_tail_needs_more_than_ten_samples():
    assert tail_percentile(11) == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail_percentile(TAIL_BEYOND)


def test_quantiles_weigh_each_listed_operation_once():
    # "slow" ran three times and "fast" once: one pass of the list is one
    # of each, so the median is the fast operation's time
    records = _records([1.0, 1.1, 0.9, 0.1], ops=["slow", "slow", "slow", "fast"])
    assert list_quantile(records, "wall_s", 0.5) == 0.1
    assert list_quantile(records, "wall_s", 0.75) == 1.0
    assert pass_rate(records) == pytest.approx(2 / (1.0 + 0.1))


def test_end_to_end_reports_every_contracted_metric():
    records = _records([0.1 * (i + 1) for i in range(12)], failures={0})
    detail: dict = {}
    metrics = end_to_end(records, [0.3, 0.1, 0.2], detail)
    assert metrics["setup_s"] == (0.2, "s")
    assert metrics["peak_rss_mb"] == (21.0, "MB")
    assert metrics["latency_p50_s"][0] == pytest.approx(0.6)
    assert metrics["latency_tail_s"][0] == pytest.approx(0.2)
    assert metrics["throughput_ops_per_s"][0] == pytest.approx(11 / 7.8)
    assert detail["error_rate"] == pytest.approx(1 / 12)
    assert detail["latency_tail"] == {"percentile": pytest.approx(100 * 2 / 12),
                                      "samples": 12, "beyond": TAIL_BEYOND}
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in contract["end_to_end"]} == set(metrics)
    for m in contract["end_to_end"]:
        assert metrics[m["name"]][1] == m["unit"]


def test_per_layer_metrics_match_the_contract():
    totals = spans.LayerTotals()
    totals.add_operation(1.0, ["cli.main"], [0.1], [0.9], [-1], [0.0])
    metrics = totals.metrics(passes=1)
    metrics["trace.overhead_s"] = (0.0, "s")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in contract["per_layer"]} == set(metrics)
    for m in contract["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"]
    assert {w["name"] for w in contract["workloads"]} == set(WORKLOADS)


# ---------------------------------------------------------------------------
# failure classifier


ACCEPT = Operation("accept", ("test",), 0, "accept")


def _report(decision: str) -> str:
    return json.dumps({"verdict": {"decision": decision}})


def test_classifier_passes_a_correct_report():
    assert checks.classify(ACCEPT, 0, _report("accept")) is None


@pytest.mark.parametrize("exit_code", [1, 2, -9])
def test_classifier_rejects_an_unexpected_exit_code(exit_code):
    assert "exit code" in checks.classify(ACCEPT, exit_code, _report("accept"))


@pytest.mark.parametrize("text", ['{"verdict": {"decision": "accept"}, "gamma": Infinity}',
                                  '{"x": NaN}', '{"x": -Infinity}', "Traceback", ""])
def test_classifier_requires_strict_json(text):
    assert "strict JSON" in checks.classify(ACCEPT, 0, text)


def test_classifier_rejects_a_wrong_verdict():
    assert "verdict" in checks.classify(ACCEPT, 0, _report("reject"))
    assert "verdict" in checks.classify(ACCEPT, 0, json.dumps({"error": "boom"}))


def test_classifier_runs_the_operations_own_check():
    op = Operation("estimate", ("estimate",), 0,
                   check=lambda r: None if r["estimate"]["delta_hat"] < 0.5 else "too far")
    assert checks.classify(op, 0, json.dumps({"estimate": {"delta_hat": 0.1}})) is None
    assert checks.classify(op, 0, json.dumps({"estimate": {"delta_hat": 0.9}})) == "too far"


# ---------------------------------------------------------------------------
# fixtures


def test_isotypic_projectors_are_a_permutation_invariant_measurement():
    d, n = 3, 3
    projectors = fx.isotypic_projectors(d, n)
    assert len(projectors) == 3
    assert np.allclose(sum(projectors), np.eye(d**n))
    digits = np.array(np.unravel_index(np.arange(d**n), (d,) * n))
    swap12 = np.zeros((d**n, d**n))
    swap12[np.ravel_multi_index(digits[[1, 0, 2]], (d,) * n), np.arange(d**n)] = 1.0
    for P in projectors:
        assert np.allclose(P @ P, P)
        assert np.allclose(swap12 @ P, P @ swap12)


def test_embedded_measurement_acts_only_on_its_sites():
    rng = np.random.default_rng(5)
    local = fx.random_measurement(2, 2, rng)
    full = fx.embed(local, [2], 3)
    assert np.allclose(sum(op.conj().T @ op for op in full), np.eye(8))
    assert np.allclose(full[0], np.kron(np.eye(4), local[0]))


def test_workloads_are_a_function_of_the_seed(tmp_path):
    def argv_of(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        ops = WORKLOADS["small-per-trial"](np.random.default_rng(seed), work)
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        return [tuple(a.replace(str(work), "") for a in op.argv) for op in ops], files

    first = argv_of(4, "a")
    assert first == argv_of(4, "b")
    assert first[0] != argv_of(5, "c")[0]


# ---------------------------------------------------------------------------
# traced child


def test_shim_records_nested_spans_with_amounts(tmp_path):
    rng = np.random.default_rng(1)
    paths = []
    for i in range(2):
        paths.append(tmp_path / f"m{i}.json")
        fx.write_measurement(paths[-1], fx.random_measurement(4, 2, rng), 2, 2)
    out = tmp_path / "spans.npz"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(HERE / "shim.py"), str(out), "7", "distance",
                           str(paths[0]), str(paths[1])], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "delta" in json.loads(proc.stdout)["estimate"]
    with np.load(out) as data:
        names = data["names"][data["name"]].tolist()
        parent = data["parent"].tolist()
        amount = data["amount"].tolist()
        assert int(data["op_id"]) == 7
    assert names[0] == "cli.main" and parent[0] == -1
    loads = [i for i, n in enumerate(names) if n == "cli.load_measurement"]
    assert len(loads) == 2
    assert all(parent[i] == 0 for i in loads)
    assert amount[loads[0]] == paths[0].stat().st_size
    validates = [i for i, n in enumerate(names) if n == "core.validate_measurement"]
    assert [parent[i] for i in validates] == loads
    assert "metric.delta_measurement" in names
