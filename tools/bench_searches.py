"""Measure the committed explorer searches and the built-in replays; write
BENCH_searches.json.

Run from the repository root:

    python3 tools/bench_searches.py              # this checkout alone
    python3 tools/bench_searches.py --base REV   # paired with commit REV

The searches are the committed ones, each with its explore config, read
from tests/searches.json. Every run of a search or a replay is its own
process. It calls its job again and again until MIN_CALLS (3) calls and
MIN_SPAN_S (1 s) have passed, and its time is the median of those calls:
one call of a 0.1 s search is too short to tell a 10% change from the
host's drift. Each search call builds its own kernel, so no call inherits
another's interned values or tables. Each call's time is scaled to the
host's nominal speed by perfbench's SpeedProbe (imported from
perfbench/run.py), which samples the host's speed during the calls and for
PROBE_ROLL_S before and after them.

The file has up to three sections. `counters` holds what each search or
replay computes: states, deduped, max_depth, transitions, transitions_reused
and the exported script's length for a search, the trace's record count for
a replay. They are deterministic, the same on every host, and every run must
reproduce them. `timings` holds the checkout's median scaled time in
seconds over RUNS (10) runs of each, the median of the runs' times, with
the host, the Python version and the commit measured (`src_dirty` says
whether `src/` differed from that commit).

The host's speed drifts between runs minutes apart, and the probe
corrects only part of that, so a lone median compares hosts as much as
code. With --base, REV's `src/` is extracted with `git archive` into a
temporary directory and the checkout's `src/` is copied beside it, so
that both sides import a fresh tree from sibling paths, and each of the
RUNS rounds runs REV and the checkout back to back on every job, the side
that goes first alternating. `paired` then records REV's commit and, per
job, REV's median, the ratio of the checkout's median to REV's (below 1:
the checkout is faster) and the number of pairs the checkout won, all on
scaled times. `counter_changes` lists every job whose counters differ
between the two, and the script names each on stderr: a change that moves
them changes behaviour, not only speed.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "perfbench"))
from run import SpeedProbe  # noqa: E402  perfbench/run.py's probe of the host's speed

SEARCHES = {name: entry["config"] for name, entry in
            json.loads((ROOT / "tests" / "searches.json").read_text()).items()}
RUNS = 10
MIN_CALLS, MIN_SPAN_S = 3, 1.0  # a run calls its job until it has made both
PROBE_ROLL_S = 0.2  # the probe samples this long before and after the timed calls
SEARCH_COUNTERS = ("states", "deduped", "max_depth", "transitions", "transitions_reused")


def _import_from(src: Path):
    """bftlab's core, explorer, netsim and scenarios modules, imported from src."""
    sys.path.insert(0, str(src))
    from bftlab import core, explorer, netsim, scenarios

    if not Path(explorer.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: bftlab imported from {explorer.__file__}, not {src}")
    return core, explorer, netsim, scenarios


def _call(job: str, core, explorer, netsim, scenarios) -> dict:
    """One call of job ("search/NAME" or "replay/NAME"): its counters."""
    kind, name = job.split("/", 1)
    if kind == "replay":
        return {"records": len(netsim.run_scenario(scenarios.get_builtin(name)).records)}
    cfg = core.read(explorer.ExploreConfig, SEARCHES[name], name, explorer.ExplorerError)
    res = explorer.explore(cfg)
    ce = res.counterexample
    return {**{k: res.stats[k] for k in SEARCH_COUNTERS},
            "export_length": None if ce is None else len(ce.scenario.script)}


def run_one(src: Path, job: str) -> dict:
    """One timed run of job on the bftlab in src: its counters, the same on
    every call, and the median wall time in seconds of its calls, each
    scaled to the host's nominal speed."""
    modules = _import_from(src)
    counters, spans = None, []
    with SpeedProbe() as probe:
        time.sleep(PROBE_ROLL_S)
        first = time.perf_counter()
        while len(spans) < MIN_CALLS or time.perf_counter() - first < MIN_SPAN_S:
            gc.collect()
            started = time.perf_counter()
            out = _call(job, *modules)
            spans.append((started, time.perf_counter()))
            if counters is None:
                counters = out
            elif out != counters:
                raise SystemExit(f"error: {job} counters changed between calls: "
                                 f"{counters} != {out}")
        time.sleep(PROBE_ROLL_S)
    seconds = [(end - start) * probe.scale(start, end) for start, end in spans]
    return {"counters": counters, "seconds": statistics.median(seconds)}


def _run_in_child(src: Path, job: str) -> dict:
    done = subprocess.run([sys.executable, __file__, "--run", job, "--src", str(src)],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {job} on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def measure(trees: dict, jobs: list) -> tuple:
    """Per side of trees (name -> src), each job's counters, the same on
    every run, and its RUNS scaled times. Each round runs every job on each
    side back to back, the first side alternating between rounds."""
    counters = {side: {} for side in trees}
    times = {side: {job: [] for job in jobs} for side in trees}
    sides = list(trees)
    for r in range(RUNS):
        for job in jobs:
            for side in sides if r % 2 == 0 else sides[::-1]:
                out = _run_in_child(trees[side], job)
                if counters[side].setdefault(job, out["counters"]) != out["counters"]:
                    raise SystemExit(f"error: {side} {job} counters changed between runs: "
                                     f"{counters[side][job]} != {out['counters']}")
                times[side][job].append(out["seconds"])
    return counters, times


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _extract_src(rev: str, into: Path) -> Path:
    """REV's src/ tree, extracted with `git archive` under into."""
    try:
        tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit(f"error: cannot archive {rev!r}: {getattr(e, 'stderr', e)}")
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(into, **safe)
    return into / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", metavar="REV", help="pair every run with one of commit REV")
    p.add_argument("--run", help=argparse.SUPPRESS)  # one timed job, in this process
    p.add_argument("--src", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.run:
        print(json.dumps(run_one(args.src, args.run)))
        return 0
    *_, scenarios = _import_from(SRC)
    jobs = [f"search/{name}" for name in SEARCHES]
    jobs += [f"replay/{name}" for name in scenarios.BUILTIN_NAMES]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"head": SRC}
        if args.base:
            trees = {"base": _extract_src(args.base, Path(tmp, "base")),
                     "head": shutil.copytree(SRC, Path(tmp, "head", "src"),
                                             ignore=shutil.ignore_patterns("__pycache__"))}
        counters, times = measure(trees, jobs)
    median = {side: {job: round(statistics.median(ts), 6) for job, ts in by_job.items()}
              for side, by_job in times.items()}
    status = _git("status", "--porcelain", "--", "src")
    bench = {
        "counters": counters["head"],
        "timings": {
            "median_s": median["head"],
            "host": {"machine": platform.machine(), "system": platform.system(),
                     "cpus": os.cpu_count()},
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "commit": _git("rev-parse", "--short", "HEAD"),
            "src_dirty": None if status is None else bool(status),
        },
    }
    for job in jobs:
        print(f"{job}: {median['head'][job]} s {counters['head'][job]}", file=sys.stderr)
    if args.base:
        ratio = {job: round(median["head"][job] / median["base"][job], 3) for job in jobs}
        won = {job: sum(h < b for h, b in zip(times["head"][job], times["base"][job]))
               for job in jobs}
        changed = {job: {"base": counters["base"][job], "head": counters["head"][job]}
                   for job in jobs if counters["base"][job] != counters["head"][job]}
        bench["paired"] = {
            "base": _git("rev-parse", "--short", args.base),
            "base_median_s": median["base"],
            "ratio": ratio,
            "pairs_won": won,
            "pairs": RUNS,
            "counter_changes": changed,
        }
        for job in jobs:
            print(f"{job}: {median['base'][job]} -> {median['head'][job]} s, "
                  f"ratio {ratio[job]}, won {won[job]} of {RUNS}", file=sys.stderr)
        for job, sides in changed.items():
            print(f"counters changed: {job}: {sides['base']} -> {sides['head']}",
                  file=sys.stderr)
    (ROOT / "BENCH_searches.json").write_text(json.dumps(bench, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
