"""Self-test of the benchmark: python3 -m pytest bench/tests

Runs every workload at a tiny size through the same code path as a real
run, checks that every metric BENCHMARK.json names is emitted, and that a
deliberately wrong reference is counted as a failure.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.integrate import quad

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_gates_and_emits_every_metric(name, trace):
    summary = run.run(name, seed=3, seconds=0, trace=trace, size="tiny", min_reps=1)
    assert summary["failures"] == []
    assert summary["attempted"] >= 4
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(summary["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        value = summary["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])
    if trace:
        assert summary["metrics"]["sweep.rows"]["value"] == len(workloads.WORKLOADS[name].sizes["tiny"].n)


@pytest.mark.parametrize("name", ["scheffe_gamma_large_n", "sum_mc_normal2d"])
def test_wrong_reference_is_counted_as_failure(name, monkeypatch):
    good = workloads.WORKLOADS[name]
    bad = dataclasses.replace(good, reference=lambda n, k, d: 1.05 * good.reference(n, k, d))
    monkeypatch.setitem(workloads.WORKLOADS, name, bad)
    summary = run.run(name, seed=3, seconds=0, trace=0, size="tiny", min_reps=1)
    assert len(summary["failures"]) == len(good.sizes["tiny"].n)
    assert all("reference" in f or "se of" in f for f in summary["failures"])


def test_normal_reference_matches_quadrature():
    # L1 distance of N(0, I_2) and N(0, c I_2) by radial quadrature.
    for k, n in ((10, 100), (29, 800)):
        c = 1.0 - k / n

        def gap(r):
            f1 = math.exp(-r * r / 2.0) / (2.0 * math.pi)
            f2 = math.exp(-r * r / (2.0 * c)) / (2.0 * math.pi * c)
            return abs(f1 - f2) * 2.0 * math.pi * r

        r0 = math.sqrt(2.0 * math.log(1.0 / c) / (1.0 / c - 1.0))
        value = quad(gap, 0.0, r0, epsabs=1e-14)[0] + quad(gap, r0, 40.0, epsabs=1e-14)[0]
        assert workloads.normal_scale_l1(k, n, 2) == pytest.approx(value, rel=1e-10)


def test_exits_nonzero_without_program_sources():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "validate_gamma", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
