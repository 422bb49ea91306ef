"""Smoke test for the benchmark: each workload at a tiny size, untraced and
traced, plus deliberately wrong expectations that must count as failures.

Run with `PYTHONPATH=src python -m pytest perfbench -q`.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

TINY = {
    "explore-pfab-stuck": bench.ExploreWorkload(
        {"protocol": "pfab", "f": 1, "t": 0, "values": ["A"], "max_views": 2,
         "menu": ["equivocate"]}, found=False),
    "explore-zyzzyva-exhaust": bench.ExploreWorkload(
        {"protocol": "zyzzyva", "f": 1, "requests": ["a"], "max_views": 1,
         "menu": ["equivocate", "withhold", "inject_stored"]}, found=False),
    "simulate": bench.SimulateWorkload(schedules=6),
}


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    """The benchmark re-imports bftlab; give other tests their modules back."""
    monkeypatch.setattr(bench, "OUT", tmp_path)
    ours = [k for k in sys.modules if k == "bftlab" or k.startswith("bftlab.")]
    saved = {k: sys.modules[k] for k in ours}
    yield
    for k in [k for k in sys.modules if k == "bftlab" or k.startswith("bftlab.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def test_workload_specs_match_benchmark_json():
    assert set(bench.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    assert set(TINY) == set(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_untraced_and_traced(name, tmp_path):
    out = bench.measure(TINY[name], seed=3, seconds=0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == END_TO_END
    assert out["metrics"]["ok_share"]["value"] == 1.0
    assert out["metrics"]["states"]["value"] > 0

    traced = bench.measure_traced(name, TINY[name], seed=3)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == PER_LAYER
    assert (tmp_path / f"spans-{name}.bin.gz").stat().st_size > 0


def test_pfab_stuck_search_is_found_and_replayed():
    out = bench.measure(bench.WORKLOADS["explore-pfab-stuck"], seed=0, seconds=0)
    assert out["correct"], out["detail"]["problems"]
    assert out["metrics"]["states"]["value"] == 4372


def test_wrong_expectations_count_as_failures():
    wrong = bench.ExploreWorkload(TINY["explore-zyzzyva-exhaust"].config, found=True)
    out = bench.measure(wrong, seed=0, seconds=0)
    assert not out["correct"] and out["failed"] == out["attempted"]
    assert out["metrics"]["ok_share"]["value"] == 0.0

    bad_golden = bench.SimulateWorkload(schedules=3, golden={"pfab-stuck": "not the trace\n"})
    out = bench.measure(bad_golden, seed=0, seconds=0)
    assert not out["correct"] and out["failed"] == 1
    assert 0 < out["metrics"]["ok_share"]["value"] < 1


def test_fails_without_the_library(tmp_path):
    """Given only BENCHMARK.json and perfbench/, it exits non-zero, printing nothing."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
