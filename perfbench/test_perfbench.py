"""Smoke test of the benchmark itself, at tiny sizes."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.checks import CheckFailed, PassChecks

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = ["--seed", "1", "--seconds", "0", "--size", "tiny"]


def run_benchmark(workload, trace, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--trace", str(trace), *TINY],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if workload != "tall_rotation":
        # tall_rotation's C3 verdict rests on noise-level distances (see README.md)
        assert result["failed"] == 0, done.stderr


def test_wrong_expected_exit_code_counts_as_failed(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    good = workloads.sweep_crossing(tiny=True)
    bad = dataclasses.replace(good, calls=tuple(
        dataclasses.replace(c, expect=workloads.EXIT_C2) if c.label == "pod" else c for c in good.calls
    ))
    assert run.main(["--workload", bad.name, "--trace", "0", *TINY], workload=bad) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # seconds=0 runs the minimum number of passes, each with the wrong expectation;
    # the unchanged workload fails nothing (test_every_metric_is_printed_with_its_unit)
    assert result["failed"] == run.MIN_PASSES
    assert result["correct"] is False


def test_c3_table_with_zero_min_distance_fails(tmp_path):
    """delta_min = 0 < delta_max is an infinite epsilon, whatever the program reports."""
    wl = workloads.csv_nonnested(tiny=True)
    call = next(c for c in wl.calls if c.metric == "check_c3_s")
    out = tmp_path / call.label
    out.mkdir()
    (out / "c3_table.csv").write_text("# gpm-c3-table modes=1,2,3\n0.0,0.0,1e-6\n0.0,0.0,2e-6\n1e-6,2e-6,0.0\n")
    (out / "c3_report.json").write_text(json.dumps({"c3": {"epsilon": 0.0}}))
    checks = PassChecks(wl, tmp_path, tmp_path, {call.label: 0})
    with pytest.raises(CheckFailed):
        checks.check_c3_table(call)
    checks.exits[call.label] = 12
    with pytest.raises(CheckFailed, match="reported epsilon"):
        checks.check_c3_table(call)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = run_benchmark("csv_nonnested", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
