"""Smoke test of the benchmark itself.

Runs every workload once (``--smoke``) on a seed other than the default
and checks that the correctness gates pass and that the reported metrics
are exactly those BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
SEED = "7"
# Calls allowed to fail: fixed-rate N=10 finds no table today although
# one exists (a known solver defect the benchmark keeps in view).
KNOWN_FAILURES = {"solve-grid": 1, "sweep-eps": 0, "simulate-validate": 0}


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--smoke", "--seed", SEED, *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(KNOWN_FAILURES))
def test_workload_passes_its_gates(workload):
    res = result(bench("--workload", workload))
    assert res["correct"] is True
    assert 1 <= res["attempted"]
    assert res["failed"] <= KNOWN_FAILURES[workload]
    assert set(res["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    res = result(bench("--workload", "simulate-validate", "--trace", "1"))
    assert res["correct"] is True
    assert set(res["metrics"]) == declared("per_layer")
    # one traced pass: validate simulates each of the two tables once
    assert res["metrics"]["simulator.simulate.calls"]["value"] == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "simulate-validate", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
