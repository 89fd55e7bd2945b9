"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a traced run reconciles, that repeats of one seed hash every report the
same, that a corrupted input is counted as a failure, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def run(workload: str, *extra: str, cwd: Path = ROOT) -> tuple[dict, dict]:
    """Run the benchmark at tiny size; return (result line, run record)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--size", "tiny", *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    trace = extra[extra.index("--trace") + 1]
    name = f"{workload}-seed{SEED}-trace{trace}{'-corrupt' if '--corrupt' in extra else ''}.json"
    record = json.loads((cwd / "perfbench" / ".results" / name).read_text(encoding="utf-8"))
    return result, record


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics_and_repeats_its_hashes(workload):
    result, record = run(workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record["failures"]
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["report_sha256"]
    _, again = run(workload, "--trace", "0")
    assert again["report_sha256"] == record["report_sha256"]
    assert again["inputs_sha256"] == record["inputs_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics_and_reconciles(workload):
    result, record = run(workload, "--trace", "1")
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert_metrics(result, SPEC["per_layer"])
    assert record["trace_reconcile_max_err"] <= 0.01
    roots = [s for s in record["spans"] if s[3] < 0]
    assert roots and all(s[0].startswith("cli.") for s in roots)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_input_counts_as_failure(workload):
    result, record = run(workload, "--trace", "0", "--corrupt")
    assert not result["correct"]
    assert result["failed"] > 0
    assert record["quality"]["fail_ratio"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", ".results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
