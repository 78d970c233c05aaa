"""Smoke test of the benchmark: each workload at a tiny size, in both modes.

Checks that every metric BENCHMARK.json names is emitted, that every
output check of the workload ran, that no op fails and that the
long_program probes still meet their documented defect.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_emits_every_metric(workload, trace):
    lines, result = run_bench(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    assert result["attempted"] >= 1

    ran = next(line for line in lines if line.startswith("checks run: "))
    assert set(ran[len("checks run: "):].split(", ")) >= workloads.CHECKS[workload]

    assert result["failed"] == 0
    assert not any(line.startswith("  failed x") for line in lines)
    probes = [line.split(": ")[0].split()[-1] for line in lines
              if line.startswith("  probe ")]
    assert probes == (["chain600", "chain2000"] if workload == "long_program" else [])


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
