"""The benchmark runs from the repository root, checks itself and reproduces its recorded digests."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 101


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def test_bench_selftest_passes():
    proc = _run("bench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["exchange", "attack", "cli"])
def test_bench_run_reproduces_baseline_digest(workload):
    proc = _run("bench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    digest = next(line.removeprefix("# digest sha256=") for line in lines if line.startswith("# digest sha256="))
    baseline = json.loads((ROOT / "bench" / "baseline.json").read_text())
    assert digest == baseline["workloads"][workload]["digests"][str(SEED)]
