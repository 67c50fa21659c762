"""Tests of the benchmark itself: self-time accounting and a tiny-n smoke
run of every workload in both modes.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, self_times  # noqa: E402

TINY = workloads.Sizes(fit_n=80, cli_n=80, setup_reps=1)
# Largest share of a traced pass outside every proxilearn span. At n=80 the
# benchmark's own file handling in the cli-fixed checks takes several ms of
# a 0.1 s pass; a layer whose spans went missing would leave far more.
COVERAGE_GAP = 0.15
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(sid, parent, start, end):
    return Span(sid, f"s{sid}", parent, None, start, end)


def test_self_times_nested_single_thread():
    spans = [span(1, None, 0, 10), span(2, 1, 1, 4), span(3, 2, 2, 3),
             span(4, 1, 5, 6)]
    own = self_times(spans)
    assert own == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_harrell_davis_quantiles():
    assert run.harrell_davis([2.5], 0.9) == pytest.approx(2.5)
    # A symmetric sample's median estimate is its centre.
    assert run.harrell_davis([1, 2, 3, 10, 17, 18, 19], 0.5) == \
        pytest.approx(10)
    values = np.random.default_rng(0).exponential(size=2001)
    for q in (0.5, 0.9):
        assert run.harrell_davis(values, q) == pytest.approx(
            np.quantile(values, q), rel=0.05)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke(workload, trace):
    import proxilearn.kernels

    gram, eigh = proxilearn.kernels.gram, np.linalg.eigh
    args = argparse.Namespace(workload=workload, seed=7, seconds=0,
                              trace=trace)
    env, lines, result = run.measure(args, TINY)
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    assert result["attempted"] >= 1
    assert env["workload"] == workload and env["seed"] == 7
    assert result["correct"] and result["failed"] == 0
    if trace:
        # Time outside every proxilearn span shows as a coverage gap.
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.self_sum_s"] == pytest.approx(
            metrics["trace.wall_s"], rel=COVERAGE_GAP)
    else:
        assert result["metrics"]["ok_frac"]["value"] == pytest.approx(
            1 - result["failed"] / result["attempted"])
    assert proxilearn.kernels.gram is gram and np.linalg.eigh is eigh


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fit-n2000",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
