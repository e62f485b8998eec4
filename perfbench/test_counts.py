"""Exact-count self-check of the benchmark.

Run from the root of a checkout (takes a few minutes):

    python3 -m pytest -q perfbench/test_counts.py

Each test drives ``run.py`` in a subprocess, exactly as a benchmark run
would, and reads the JSON result on its last line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
COUNT_UNITS = {"count", "calls/iter"}
# Never used while the benchmark was written or tuned.
FRESH_SEED = 4242


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}


@pytest.fixture(scope="module")
def ppr_traced_twice():
    return [bench("ppr-5k", 0, 1) for _ in range(2)]


def test_traced_counts_repeat_exactly(ppr_traced_twice):
    first, second = ppr_traced_twice
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    assert counts(first)["linalg.power_iteration.matvecs"] > 0
    assert counts(first)["problem.oracle.calls"] > 0


def test_ppr_matvecs_per_iteration(ppr_traced_twice):
    metrics = ppr_traced_twice[0]["metrics"]
    assert metrics["solvers.apdpro.oracle_calls_per_iter"]["value"] == 5.0
    assert metrics["solvers.apd.oracle_calls_per_iter"]["value"] == 3.0


def test_iters_to_tol_repeats_exactly():
    first, second = (bench("synth-10k", 0, 0) for _ in range(2))
    assert first["metrics"]["iters_to_tol"]["value"] == second["metrics"]["iters_to_tol"]["value"]


@pytest.mark.parametrize("workload", ["ppr-5k", "synth-10k", "synth-batch"])
def test_fresh_seed_passes_the_gate(workload):
    result = bench(workload, FRESH_SEED, 0)
    assert result["failed"] == 0 and result["correct"]
