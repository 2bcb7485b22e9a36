"""Tests of the benchmark itself: smoke runs, the oracle, and seeding."""
import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
from workloads import WORKLOADS, make_op

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def _call(op, tmp_path):
    """Run one operation through mucorr.cli.main; return (exit, stderr, output)."""
    from mucorr import cli

    runner = run.Runner(cli, "", 0, tmp_path)
    argv = runner.prepare(op)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    out = runner.out_path.read_text() if runner.out_path.exists() else None
    return code, stderr.getvalue(), out


@pytest.mark.parametrize("workload, ops", [
    ("analytic-scenarios", 13), ("mc-crosscheck", 3),
])
def test_smoke_run_of_each_workload(workload, ops, tmp_path):
    result = run.measure(workload, 7, 60.0, False, tmp_path, probes=1, max_ops=ops)
    assert result["failures"] == []
    assert result["ops"] == ops
    assert result["attempted"] == ops + 2  # plus the warm-up and the set-up probe
    metrics = result["metrics"]
    assert {k: unit for k, (_, unit) in metrics.items()} == _units(SPEC["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_reports_every_layer_and_restores_mucorr(tmp_path):
    import mucorr.scenarios

    original = mucorr.scenarios.max_info_direction
    result = run.measure("analytic-scenarios", 3, 60.0, True, tmp_path, max_ops=13)
    assert result["failures"] == []
    metrics = result["metrics"]
    assert {k: unit for k, (_, unit) in metrics.items()} == _units(SPEC["per_layer"])
    assert metrics["counterfactual.max_info_direction_s"][0] > 0
    assert metrics["scenarios.errors"][0] > 0  # the invalid document
    assert metrics["montecarlo.samples_drawn"][0] == 0
    assert metrics["scenarios.grid_points"][0] > 0
    assert result["spans"]
    assert mucorr.scenarios.max_info_direction is original


def test_traced_run_keeps_spans_spread_over_the_run(tmp_path, monkeypatch):
    import tracer

    monkeypatch.setattr(tracer, "SPAN_CAP", 3000)
    result = run.measure("analytic-scenarios", 3, 60.0, True, tmp_path, max_ops=13)
    stride = result["extras"]["bench.span_stride"][0]
    kept = {span[0] for span in result["spans"]}
    assert stride > 1
    assert len(result["spans"]) < 3000
    assert kept and all(op % stride == 0 for op in kept)
    assert max(kept) > 13 // 2


@pytest.mark.parametrize("fmt_index", [0, 1, 2])
def test_oracle_flags_a_corrupted_value(fmt_index, tmp_path):
    op = make_op("analytic-scenarios", 11, fmt_index)  # chsh, formats in turn
    assert op.kind == "chsh" and op.fmt == ("table", "csv", "json")[fmt_index]
    code, stderr, out = _call(op, tmp_path)
    assert oracle.check(op, code, stderr, out).problems == []

    lines = out.split("\n")
    row = next(i for i, line in enumerate(lines) if re.search(r"\bchsh_s\b", line))
    row += op.fmt == "json"  # the analytic value follows the quantity line
    head, tail = lines[row].split("analytic" if op.fmt == "json" else "chsh_s", 1)
    # Change the first digit after a decimal point: a shift of at least 0.1.
    tail = re.sub(r"\.(\d)", lambda m: "." + str((int(m[1]) + 5) % 10), tail, count=1)
    lines[row] = head + ("analytic" if op.fmt == "json" else "chsh_s") + tail
    problems = oracle.check(op, code, stderr, "\n".join(lines)).problems
    assert any("chsh_s" in p for p in problems)

    if op.fmt != "json":
        extra_row = out + out.split("\n")[-2] + "\n"
        problems = oracle.check(op, code, stderr, extra_row).problems
        assert any("rows, want" in p for p in problems)


def test_oracle_flags_a_wrong_exit_code(tmp_path):
    valid = make_op("analytic-scenarios", 11, 4)
    code, stderr, out = _call(valid, tmp_path)
    assert oracle.check(valid, code, stderr, out).problems == []
    assert oracle.check(valid, 1, "error: x", out).problems
    assert oracle.check(valid, None, "", out).problems

    invalid = make_op("analytic-scenarios", 11, 10)
    code, stderr, out = _call(invalid, tmp_path)
    assert code == 1
    assert oracle.check(invalid, code, stderr, out).problems == []
    assert oracle.check(invalid, 0, "", out).problems
    assert oracle.check(invalid, 1, "error: something else", out).problems


@pytest.mark.parametrize("index", [10, 23, 36])
def test_each_invalid_document_is_rejected_with_its_reason(index, tmp_path):
    op = make_op("analytic-scenarios", 5, index)
    assert op.kind.startswith("invalid-")
    code, stderr, out = _call(op, tmp_path)
    assert oracle.check(op, code, stderr, out).problems == []


def test_spec_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = [make_op(workload, 42, i) for i in range(24)]
    again = [make_op(workload, 42, i) for i in range(24)]
    other = [make_op(workload, 43, i) for i in range(24)]
    assert first == again
    assert first != other
    assert [op.kind for op in first] == [op.kind for op in other]


def test_refuses_to_run_without_mucorr_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic-scenarios",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
