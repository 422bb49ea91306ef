"""Measure the committed explorer searches and the built-in replays; write
BENCH_searches.json.

Run from the repository root, on the checkout's own sources:

    python3 tools/bench_searches.py

The file has two sections. `counters` holds what each search or replay
computes: states, deduped, max_depth, transitions, transitions_reused and
the exported script's length for a search, the trace's record count for a
replay. They are deterministic, the same on every host, and every run must
reproduce them. `timings` holds the median wall time in seconds of RUNS (5)
runs of each, with the host, the Python version and the commit measured
(`src_dirty` says whether `src/` differed from that commit).
"""
from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bftlab.explorer import ExploreConfig, explore  # noqa: E402
from bftlab.netsim import run_scenario  # noqa: E402
from bftlab.scenarios import BUILTIN_NAMES, get_builtin  # noqa: E402

_ZYZZYVA = ExploreConfig(protocol="zyzzyva", requests=("a", "b"),
                         menu=("equivocate", "withhold", "inject_stored"))
SEARCHES = {  # f=1, t=0, two views and menu equivocate+withhold unless stated
    "pfab-stuck": ExploreConfig(protocol="pfab", values=("A", "B")),
    "zyzzyva-2-view-exhaustion": _ZYZZYVA,
    "zyzzyva-3-view-violation": replace(_ZYZZYVA, max_views=3),
    "pfab-1-value-exhaustion": ExploreConfig(protocol="pfab", values=("A",)),
    "fab5-1-value-exhaustion": ExploreConfig(protocol="fab5", values=("A",)),
    "fab5-2-value-exhaustion": ExploreConfig(protocol="fab5", values=("A", "B")),
}
RUNS = 5
SEARCH_COUNTERS = ("states", "deduped", "max_depth", "transitions", "transitions_reused")


def search(cfg: ExploreConfig) -> dict:
    res = explore(cfg)
    counters = {k: res.stats[k] for k in SEARCH_COUNTERS}
    ce = res.counterexample
    counters["export_length"] = None if ce is None else len(ce.scenario.script)
    return counters


def replay(name: str) -> dict:
    return {"records": len(run_scenario(get_builtin(name)).records)}


def timed(fn, arg) -> tuple:
    """fn(arg)'s counters, the same on each of RUNS runs, and the median
    time of one run."""
    counters, times = None, []
    for _ in range(RUNS):
        gc.collect()
        started = time.perf_counter()
        out = fn(arg)
        times.append(time.perf_counter() - started)
        if counters not in (None, out):
            raise SystemExit(f"error: counters changed between runs: {counters} != {out}")
        counters = out
    return counters, round(statistics.median(times), 4)


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main() -> int:
    counters, timings = {}, {}
    jobs = [(f"search/{name}", search, cfg) for name, cfg in SEARCHES.items()]
    jobs += [(f"replay/{name}", replay, name) for name in BUILTIN_NAMES]
    for key, fn, arg in jobs:
        counters[key], timings[key] = timed(fn, arg)
        print(f"{key}: {timings[key]} s {counters[key]}", file=sys.stderr)
    status = _git("status", "--porcelain", "--", "src")
    bench = {
        "counters": counters,
        "timings": {
            "median_s": timings,
            "host": {"machine": platform.machine(), "system": platform.system(),
                     "cpus": os.cpu_count()},
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "commit": _git("rev-parse", "--short", "HEAD"),
            "src_dirty": None if status is None else bool(status),
        },
    }
    (ROOT / "BENCH_searches.json").write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
