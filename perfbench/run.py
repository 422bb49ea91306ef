"""bftlab benchmark: two explorer searches and a simulator sweep, in-process.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen):

* explore-pfab-stuck: PFaB f=1 t=0, values A/B, 2 views, menu
  equivocate+withhold. Must find the stuck state; the exported scenario is
  replayed through the simulator.
* explore-zyzzyva-exhaust: Zyzzyva f=1, requests a/b, 2 views, menu
  equivocate+withhold+inject_stored. Must exhaust without a counterexample.
* simulate: seeded random benign schedules, in equal shares for Zyzzyva
  (1, 2 and 3 clients in equal shares), FaB5 and PFaB, plus replays of
  every built-in scenario.

The explorer searches are deterministic and ignore --seed. One process runs
one workload on one thread. Work is done in rounds, each a fixed unit (one
search, or one sweep of the seeded schedules and the built-ins), repeated
until --seconds have passed; every operation's output is checked, and an
operation whose check fails counts in `failed`.

With --trace 0 the last stdout line carries the end-to-end metrics:

* setup_s: median of the set-ups (fresh import of bftlab, then loading and
  construction), spread over the run;
* wall_s: median round time; states_per_s: median of states / round time;
* op_ms_p50, op_ms_p99: latency of one search (explore-*) or one benign
  schedule (simulate), all rounds pooled;
* states: states one search explores, or simulator events in round 0;
* peak_rss_mb: the process's peak resident memory;
* ok_share: operations whose output was right / operations attempted.

Timings are scaled to the host's nominal speed (see SpeedProbe); the raw
ones, replay latencies and schedules per second go to a detail line on
stderr.

With --trace 1 the run makes one untraced round and then the same round
traced (see tracer.py), checks that both give the same states and bytes,
reports the per-layer metrics and writes the spans under .bench_out/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = ROOT / ".bench_out"
MODULES = ("core", "zyzzyva", "fab", "checkers", "scenarios", "netsim", "explorer", "cli")
PAPER_SCENARIOS = ("zyzzyva-cc-priority", "zyzzyva-longest-cc", "pfab-stuck")
SETUPS = 15  # set-ups per run; setup_s is their median


class BenchError(Exception):
    """The benchmark cannot run here (for example, no bftlab sources)."""


PROBE_EVERY_S = 0.05
PROBE_NOMINAL_S = 200e-6  # one probe at the reference host's full speed
PROBE_WINDOW_S = 0.5  # probes this close to an interval describe its speed


class SpeedProbe:
    """Samples the host's speed while an untraced run measures.

    The benchmark's reference host (2 shared vCPUs) alternates between full
    speed and a state about 1.85x slower, in phases of 10-30 s, so raw wall
    times of one build spread by more than the bounds allow. Every
    PROBE_EVERY_S a timer signal runs a fixed loop of benchmark code and
    records its duration. A duration measured over an interval is scaled by
    PROBE_NOMINAL_S / (mean probe duration within PROBE_WINDOW_S of it):
    seconds at the host's nominal speed. The program's own speed still moves
    the result one for one; the probe costs about 0.4% of the run.
    """

    def __enter__(self):
        self.samples: list[tuple] = []  # (start, duration) in seconds
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _probe(self, signum, frame):
        started = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        self.samples.append((started, time.perf_counter() - started))

    def scale(self, start: float, end: float) -> float:
        """Factor that converts a duration over [start, end] to nominal speed."""
        lo, hi = start - PROBE_WINDOW_S, end + PROBE_WINDOW_S
        near = [d for t, d in self.samples if lo <= t <= hi]
        return PROBE_NOMINAL_S / statistics.mean(near) if near else 1.0


def import_lab() -> types.SimpleNamespace:
    """Import every bftlab module afresh from this checkout's src/."""
    if not (SRC / "bftlab" / "__init__.py").is_file():
        raise BenchError(f"no bftlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "bftlab" or m.startswith("bftlab.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"bftlab.{name}") for name in MODULES}
    if not Path(mods["core"].__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"bftlab imported from {mods['core'].__file__}, not {SRC}")
    return types.SimpleNamespace(**mods, modules=tuple(mods.values()))


# --- rounds and operations ----------------------------------------------------

@dataclass
class Op:
    kind: str  # "search", "schedule" or "replay"
    seconds: float
    problems: list


@dataclass
class Round:
    states: int
    ops: list
    fingerprint: object  # equal for two rounds over the same inputs
    stats: dict = field(default_factory=dict)  # explorer statistics
    start: float = 0.0
    wall: float = 0.0


def timed(kind: str, fn, *args) -> tuple:
    """Run fn, which returns (value, problems); time it as one operation."""
    started = time.perf_counter()
    value, problems = fn(*args)
    return value, Op(kind, time.perf_counter() - started, problems)


# --- explorer workloads -------------------------------------------------------

@dataclass
class ExploreWorkload:
    config: dict  # ExploreConfig fields, as in an explore-config JSON file
    found: bool  # a counterexample must be found (True) or the space exhausted
    op_kind = "search"

    def setup(self, lab, seed):
        """Validate the config and build the search kernel and its root state."""
        data = {k: tuple(v) if isinstance(v, list) else v for k, v in self.config.items()}
        cfg = lab.explorer.validate_config(lab.explorer.ExploreConfig(**data))
        kernel_cls = (
            lab.explorer.ZyzzyvaKernel if cfg.protocol == "zyzzyva" else lab.explorer.FabKernel
        )
        kernel_cls(cfg).initial(None)
        return cfg

    def round(self, lab, cfg, index) -> Round:
        result, op = timed("search", self._search, lab, cfg)
        ce = result.counterexample
        script = None if ce is None else ce.scenario.to_json()
        fingerprint = (result.stats["states"], result.stats["deduped"], script)
        return Round(result.stats["states"], [op], fingerprint, dict(result.stats))

    def _search(self, lab, cfg):
        """One search, then an independent replay of any exported scenario."""
        result = lab.explorer.explore(cfg)
        problems = []
        if result.stats["budget_exhausted"]:
            problems.append("search hit its state budget")
        ce = result.counterexample
        if (ce is not None) != self.found:
            problems.append(f"counterexample found: {ce is not None}, expected {self.found}")
        elif ce is not None:
            target = cfg.resolved_target()
            want = "occurred" if target == "stuck" else "violated"
            scenario = lab.scenarios.loads(ce.scenario.to_json())
            trace = lab.netsim.run_scenario(scenario)
            (verdict,) = lab.checkers.run_checkers(trace.records, [target])
            if verdict.status != want or ce.verdict.status != want:
                problems.append(f"replayed {target}={verdict.status}, expected {want}")
            if trace.to_jsonl() != ce.trace.to_jsonl():
                problems.append("exported scenario replays to a different trace")
        return result, problems


# --- simulator workload -------------------------------------------------------

BENIGN_PROTOCOLS = ("zyzzyva", "fab5", "pfab")


def benign_schedule(lab, protocol: str, clients: int, rng: random.Random) -> list:
    """One random benign run, driven through the simulator's directive API.

    Zyzzyva: `clients` clients send to r0, and each client times out with
    probability 1/2 once nothing is in flight. FaB5/PFaB: r0 proposes a
    random value. Pending messages are then delivered in random order, each
    selected by its unique type/src/dst/ordinal pattern, until none is left.
    """
    core, scenarios = lab.core, lab.scenarios
    if protocol == "zyzzyva":
        ops = ["a", "b", "c"][:clients]
        scenario = scenarios.validate(scenarios.Scenario(
            name="benign", protocol=protocol, f=1, byzantine=[],
            clients=[{"id": i + 1, "op": op} for i, op in enumerate(ops)],
        ))
        sim = lab.netsim.Simulation(scenario)
        for i in range(len(ops)):
            sim.client_request(core.client(i + 1), core.replica(0))
        timeouts = [core.client(i + 1) for i in range(len(ops)) if rng.random() < 0.5]
    else:
        scenario = scenarios.validate(scenarios.Scenario(
            name="benign", protocol=protocol, f=1, t=0, byzantine=[],
            inputs={"r0": rng.choice(["A", "B"])},
        ))
        sim = lab.netsim.Simulation(scenario)
        sim.propose(core.replica(0))
        timeouts = []
    while True:
        pending = [e for e in sim.pool if e.status == "pending"]
        if not pending:
            if not timeouts:
                return sim.trace.records
            sim.timeout(timeouts.pop())
            continue
        e = rng.choice(pending)
        sim.deliver({"type": e.msg.kind, "src": str(e.src), "dst": str(e.dst),
                     "ordinal": e.ordinal})


def check_benign(lab, records: list) -> list:
    """Agreement, validity and stuck hold; Zyzzyva clients all commit fast in
    view 1, and FaB reaches a decision."""
    verdicts = lab.checkers.run_checkers(records, ["agreement", "validity", "stuck"])
    problems = [f"{v.property}: {v.status}" for v in verdicts if v.status != "holds"]
    header = records[0]
    commits = [c for rec in records[1:] for c in rec.get("commits") or []]
    if header["protocol"] == "zyzzyva":
        clients = {n for n in header["nodes"] if n.startswith("c")}
        fast = {c["by"] for c in commits if c["track"] == "fast" and c["by"] in clients}
        if fast != clients:
            problems.append(f"no fast-track commit at {sorted(clients - fast)}")
        if any(c["view"] != 1 for c in commits):
            problems.append("commit outside view 1")
    elif not commits:
        problems.append("no decision")
    return problems


@dataclass
class SimulateWorkload:
    schedules: int  # benign schedules per round, in equal shares per protocol
    golden: dict = field(default_factory=dict)  # paper scenario -> pinned trace
    op_kind = "schedule"

    def setup(self, lab, seed):
        """Load the built-ins and golden traces; build one simulator per built-in."""
        names = lab.scenarios.BUILTIN_NAMES
        for sc in lab.scenarios.builtin_scenarios():
            lab.netsim.Simulation(sc)
        golden = self.golden or {n: (GOLDEN / f"{n}.jsonl").read_text() for n in PAPER_SCENARIOS}
        return {"seed": seed, "names": names, "golden": golden}

    def round(self, lab, ctx, index) -> Round:
        ops, states, finals, texts = [], 0, [], []
        for j in range(self.schedules):
            # Fresh schedules every round, so no work repeats across rounds;
            # every round has the same mix of protocols and client counts.
            rng = random.Random(f"{ctx['seed']}:{index}:{j}")
            protocol = BENIGN_PROTOCOLS[j % 3]
            clients = 1 + j // 3 % 3
            records, op = timed("schedule", self._schedule, lab, protocol, clients, rng)
            ops.append(op)
            states += len(records) - 1
            finals.append(records[-1]["state"])
        for name in ctx["names"]:
            (text, events), op = timed("replay", self._replay, lab, name, ctx["golden"].get(name))
            ops.append(op)
            states += events
            texts.append(text)
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        return Round(states, ops, (states, tuple(finals), digest))

    @staticmethod
    def _schedule(lab, protocol, clients, rng):
        records = benign_schedule(lab, protocol, clients, rng)
        return records, check_benign(lab, records)

    @staticmethod
    def _replay(lab, name, golden):
        """Load a built-in, run it, check its verdicts and pinned bytes."""
        scenario = lab.scenarios.get_builtin(name)
        trace = lab.netsim.run_scenario(scenario)
        verdicts = lab.checkers.run_checkers(trace.records)
        text = trace.to_jsonl()
        problems = lab.checkers.expected_mismatches(scenario.expected, verdicts)
        if golden is not None and text != golden:
            problems.append(f"{name}: trace differs from the golden file")
        return (text, len(trace.records) - 1), problems


WORKLOADS = {
    "explore-pfab-stuck": ExploreWorkload(
        {"protocol": "pfab", "f": 1, "t": 0, "values": ["A", "B"], "max_views": 2,
         "menu": ["equivocate", "withhold"], "dedup": True},
        found=True,
    ),
    "explore-zyzzyva-exhaust": ExploreWorkload(
        {"protocol": "zyzzyva", "f": 1, "requests": ["a", "b"], "max_views": 2,
         "menu": ["equivocate", "withhold", "inject_stored"], "dedup": True},
        found=False,
    ),
    "simulate": SimulateWorkload(schedules=150),
}


# --- measurement ---------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q (0-100) of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_round(workload, lab, ctx, index) -> Round:
    gc.collect()  # start every round from the same heap, outside the timing
    started = time.perf_counter()
    rnd = workload.round(lab, ctx, index)
    rnd.start, rnd.wall = started, time.perf_counter() - started
    return rnd


def set_up(workload, seed: int, times: list):
    """A fresh import and workload set-up; appends (start, duration) to `times`."""
    gc.collect()
    started = time.perf_counter()
    lab = import_lab()
    ctx = workload.setup(lab, seed)
    times.append((started, time.perf_counter() - started))
    return lab, ctx


def measure(workload, seed: int, seconds: float) -> dict:
    """The untraced run: rounds until `seconds` pass; end-to-end metrics.

    The SETUPS set-ups are spread over the run, between rounds, so that
    setup_s samples the host over the same period as the rounds do. Each
    round runs on the most recent set-up. Timings are scaled to the host's
    nominal speed (SpeedProbe); the raw ones go to the detail line.
    """
    setups, rounds = [], []
    with SpeedProbe() as probe:
        started = time.perf_counter()
        deadline = started + seconds
        lab, ctx = set_up(workload, seed, setups)
        while not rounds or time.perf_counter() < deadline:
            share = (time.perf_counter() - started) / seconds if seconds else 1
            while len(setups) < min(SETUPS * share, SETUPS - 1):  # one is left for the end
                lab, ctx = set_up(workload, seed, setups)
            rounds.append(run_round(workload, lab, ctx, len(rounds)))
        while len(setups) < SETUPS:
            set_up(workload, seed, setups)
    if isinstance(workload, ExploreWorkload):
        for r in rounds[1:]:  # the same search every round: it must repeat exactly
            if r.fingerprint != rounds[0].fingerprint:
                r.ops[0].problems.append("search did not repeat the first round exactly")
    ops = [op for r in rounds for op in r.ops]
    failed = sum(1 for op in ops if op.problems)
    scales = [probe.scale(r.start, r.start + r.wall) for r in rounds]
    walls = [r.wall * k for r, k in zip(rounds, scales)]
    latencies = [op.seconds * k for r, k in zip(rounds, scales)
                 for op in r.ops if op.kind == workload.op_kind]
    replays = [op.seconds * k for r, k in zip(rounds, scales)
               for op in r.ops if op.kind == "replay"]
    metrics = {
        "setup_s": (statistics.median(d * probe.scale(t, t + d) for t, d in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": ((len(ops) - failed) / len(ops), "ratio"),
        "states": (rounds[0].states, "count"),
        "states_per_s": (statistics.median(r.states / w for r, w in zip(rounds, walls)), "1/s"),
        "op_ms_p50": (percentile(latencies, 50) * 1e3, "ms"),
        "op_ms_p99": (percentile(latencies, 99) * 1e3, "ms"),
    }
    detail = {"rounds": len(rounds), "ops": len(ops), "probes": len(probe.samples),
              "speed": statistics.median(scales),
              "raw_setup_s": statistics.median(d for _, d in setups),
              "raw_round_s": [r.wall for r in rounds]}
    if replays:
        detail["replay_ms_p50"] = percentile(replays, 50) * 1e3
        detail["replay_ms_p90"] = percentile(replays, 90) * 1e3
        detail["schedules_per_s"] = len(latencies) / sum(walls)
    return result(ops, failed, metrics, detail)


def measure_traced(name: str, workload, seed: int) -> dict:
    """One untraced round, then the same round traced: per-layer metrics."""
    lab, ctx = set_up(workload, seed, [])
    plain = run_round(workload, lab, ctx, 0)
    tracer = Tracer()
    tracer.install(lab)
    try:
        traced = run_round(workload, lab, ctx, 0)
    finally:
        tracer.remove()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{name}.bin.gz")
    if traced.fingerprint != plain.fingerprint:
        traced.ops[0].problems.append("traced round differs from the untraced round")
    ops = plain.ops + traced.ops
    failed = sum(1 for op in ops if op.problems)
    metrics = layer_metrics(tracer, traced)
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    detail = {"untraced_s": plain.wall, "traced_s": traced.wall, "spans": len(tracer.layer),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return result(ops, failed, metrics, detail)


def layer_metrics(tracer, rnd: Round) -> dict:
    m = {}
    for layer in ("core.pack", "core.log_canon", "core.canon", "core.mint", "core.token_ok",
                  "zyzzyva.handler", "zyzzyva.reconstruct_log", "zyzzyva.check_decisions",
                  "fab.handler", "fab.vouch_report", "fab.check_decision",
                  "netsim.event", "netsim.scan_quorums", "explorer.apply",
                  "explorer.store_add", "checkers.run", "scenarios.load"):
        s = tracer.layer_stats(layer)
        m[f"{layer}.calls"] = (s["calls"], "count")
        m[f"{layer}.self_s"] = (s["self_s"], "s")
    for layer in ("netsim.state_digest", "netsim.to_jsonl", "explorer.dedup",
                  "explorer.choices", "explorer.violated"):
        m[f"{layer}.self_s"] = (tracer.layer_stats(layer)["self_s"], "s")
    for layer in ("netsim.event", "explorer.apply"):
        durations = tracer.layer_stats(layer)["durations"] or [0]
        m[f"{layer}.p50_us"] = (percentile(durations, 50) / 1e3, "us")
        m[f"{layer}.p99_us"] = (percentile(durations, 99) / 1e3, "us")
    scans = tracer.layer_stats("netsim.scan_quorums")["calls"]
    decisions = sum(tracer.layer_stats(layer)["results"]
                    for layer in ("zyzzyva.check_decisions", "fab.check_decision"))
    m["netsim.scan_quorums.decisions_per_call"] = (decisions / scans if scans else 0.0, "count")
    m["netsim.msgs_sent"] = (tracer.layer_stats("netsim.send")["calls"], "count")
    states, deduped = rnd.stats.get("states", 0), rnd.stats.get("deduped", 0)
    m["explorer.dedup.hit_ratio"] = (deduped / (states + deduped) if states else 0.0, "ratio")
    m["explorer.replay_s"] = (tracer.layer_stats("explorer.replay")["total_s"], "s")
    m["explorer.max_depth"] = (rnd.stats.get("max_depth", 0), "count")
    return m


def result(ops, failed, metrics, detail) -> dict:
    problems = sorted({p for op in ops for p in op.problems})
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": dict(detail, problems=problems[:20]),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            out = measure_traced(args.workload, workload, args.seed)
        else:
            out = measure(workload, args.seed, args.seconds)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    host = {"nproc": os.cpu_count(), "python": platform.python_version()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "host": host,
                      **out.pop("detail")}), file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
