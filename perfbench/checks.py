"""Failure classifier: one verdict per operation, from its exit code and stdout."""

from __future__ import annotations

import json

from workloads import Operation


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def classify(op: Operation, exit_code: int, stdout: str) -> str | None:
    """None when the operation succeeded, else the first reason it failed.

    Checked in order: the exit code (0 accept or success, 1 reject), strict
    JSON on stdout, the verdict against the fixture's known answer, then the
    operation's own check of the report.
    """
    if exit_code != op.exit_code:
        return f"exit code {exit_code}, expected {op.exit_code}"
    try:
        report = strict_json(stdout)
    except ValueError as exc:
        return f"stdout is not strict JSON: {exc}"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    if op.decision is not None:
        decision = (report.get("verdict") or {}).get("decision")
        if decision != op.decision:
            return f"verdict {decision!r}, expected {op.decision!r}"
    if op.check is not None:
        return op.check(report)
    return None
