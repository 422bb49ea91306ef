"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""
import itertools
import random
import time

from bftlab.checkers import (
    check_agreement,
    check_fast_latency,
    check_stuck,
    check_validity,
    run_checkers,
)
from bftlab.core import FAB5, client, quorum_config, replica
from bftlab.fab import STUCK, ProgressCertificate, Rep, leader_choose, signed
from bftlab.netsim import Simulation, run_scenario
from bftlab.scenarios import Scenario, get_builtin, validate
from conftest import GOLDEN, SEARCHES


def _passed(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _commit_pairs(records):
    out = []
    for rec in records[1:]:
        for c in rec.get("commits") or []:
            out.append(c)
    return out


def test_criterion_1_cc_priority_replay():
    """Scenario replay: certificate priority commits b (view 2) then a (view 3)."""
    started = time.monotonic()
    trace = run_scenario(get_builtin("zyzzyva-cc-priority"))
    elapsed = time.monotonic() - started
    verdict = check_agreement(trace.records)
    assert verdict.status == "violated"
    assert verdict.details["positions"] == [1]
    (conflict,) = verdict.details["conflicts"]
    decisions = {(d["entry"], d["view"]): d for d in conflict["decisions"]}
    assert decisions[("b", 2)]["track"] == "fast"
    assert ("a", 3) in decisions
    # witness sequence numbers point at real commit records
    for seq in verdict.witnesses:
        assert trace.records[seq]["commits"]
    assert elapsed < 1.0
    _passed(1, f"b@view2/fast vs a@view3 at position 1, {elapsed:.3f}s")


def test_criterion_2_longest_cc_replay():
    """Scenario replay: longest-certificate rule resurrects a1 over committed b1."""
    started = time.monotonic()
    trace = run_scenario(get_builtin("zyzzyva-longest-cc"))
    elapsed = time.monotonic() - started
    verdict = check_agreement(trace.records)
    assert verdict.status == "violated"
    assert verdict.details["positions"] == [1]
    (conflict,) = verdict.details["conflicts"]
    decisions = {(d["entry"], d["view"]): d for d in conflict["decisions"]}
    assert decisions[("b1", 2)]["track"] == "two_phase"
    assert ("a1", 3) in decisions
    # the view-3 base log came from cert_1, the longer certificate
    new_views = [
        m for rec in trace.records[1:] for m in rec.get("emitted") or []
        if m["type"] == "new_view" and m["view"] == 3
    ]
    assert new_views and new_views[0]["body"]["log"] == ["a1", "a2"]
    certs = [vc["cert"] for vc in new_views[0]["body"]["proof"] if vc["cert"]]
    assert sorted(len(c["log"]) for c in certs) == [1, 2]
    assert elapsed < 1.0
    _passed(2, f"b1@view2/two-phase vs a1@view3 via longest cert, {elapsed:.3f}s")


def test_criterion_3_pfab_stuck_replay():
    """Scenario replay: the progress certificate vouches for nothing."""
    started = time.monotonic()
    trace = run_scenario(get_builtin("pfab-stuck"))
    elapsed = time.monotonic() - started
    verdict = check_stuck(trace.records)
    assert verdict.status == "occurred"
    pc = verdict.details["pc"]
    assert [(r["last_accepted"], r["commit_proof"] and r["commit_proof"]["value"]) for r in pc] \
        == [("B", None), ("A", "A"), ("B", None)]
    cands = {c["value"]: c for c in verdict.details["candidates"]}
    assert not cands["A"]["vouched"] and cands["A"]["blocked_prepare"] == ["B"]
    assert not cands["B"]["vouched"] and cands["B"]["blocked_proof"] == ["A"]
    assert not cands["<fresh>"]["vouched"]
    assert elapsed < 1.0
    _passed(3, f"pc {{(B,-),(A,cp(A)),(B,-)}} vouches for nothing, {elapsed:.3f}s")


def test_criterion_4_fast_path_latency():
    """Benign fast track commits in delivery-rank depth exactly 3."""
    trace = run_scenario(get_builtin("zyzzyva-benign-fast"))
    verdict = check_fast_latency(trace.records)
    assert verdict.status == "holds" and verdict.details["depths"] == [3]
    _passed(4, "request -> order-req -> spec-response, depth 3")


def test_criterion_5_fab5_never_stuck_exhaustive():
    """All well-formed FaB5 progress certificates vouch for something."""
    cfg = quorum_config(FAB5, 1)
    values = [b"v1", b"v2", b"v3", None]
    started = time.monotonic()
    checked = 0
    for senders in itertools.combinations(range(cfg.n), cfg.vc_quorum):
        for assignment in itertools.product(values, repeat=cfg.vc_quorum):
            reps = tuple(
                signed(Rep(2, replica(i), acc, None, None), replica(i))
                for i, acc in zip(senders, assignment)
            )
            pc = ProgressCertificate(2, reps)
            assert pc.well_formed(cfg)
            choice, _ = leader_choose(pc, cfg)
            assert choice is not STUCK
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == 6 * 4**5
    assert elapsed < 10.0
    _passed(5, f"{checked} certificates, all vouch, {elapsed:.1f}s")


def test_criterion_6_explorer_rediscovers_both_bugs(searched):
    """Bounded search finds the stuck state and the agreement violation."""
    done = []
    for name, verdict, bound_s in [("pfab-stuck", ("stuck", "occurred"), 60.0),
                                   ("zyzzyva-3-view-violation", ("agreement", "violated"), 600.0)]:
        res = searched(SEARCHES[name]["config"]).result  # elapsed: the search's own time
        got = res.counterexample.scenario
        assert got.to_json() == (GOLDEN / SEARCHES[name]["golden"]).read_text(), name
        replay = run_checkers(run_scenario(got).records, [verdict[0]])
        assert (replay[0].property, replay[0].status) == verdict
        assert res.stats["elapsed"] < bound_s
        done.append(f"{name} {res.stats['elapsed']:.1f}s ({res.stats['states']} states)")
    _passed(6, ", ".join(done))


def _random_benign_zyzzyva(seed: int):
    rng = random.Random(seed)
    ops = ["a", "b", "c"][: rng.randint(1, 3)]
    sc = validate(Scenario(
        name=f"benign-{seed}", protocol="zyzzyva", f=1, byzantine=[],
        clients=[{"id": i + 1, "op": op} for i, op in enumerate(ops)],
    ))
    sim = Simulation(sc)
    for i in range(len(ops)):
        sim.client_request(client(i + 1), replica(0))
    todo_timeouts = [client(i + 1) for i in range(len(ops)) if rng.random() < 0.5]
    while True:
        pending = list(sim.pending.values())
        if not pending:
            if todo_timeouts:
                sim.timeout(todo_timeouts.pop())
                continue
            break
        sim._deliver_entry(rng.choice(pending))
    return sim.trace.records


def _random_benign_fab(seed: int, protocol: str):
    rng = random.Random(seed)
    sc = validate(Scenario(
        name=f"benign-{seed}", protocol=protocol, f=1, t=0, byzantine=[],
        inputs={"r0": rng.choice(["A", "B"])},
    ))
    sim = Simulation(sc)
    sim.propose(replica(0))
    while True:
        pending = list(sim.pending.values())
        if not pending:
            break
        sim._deliver_entry(rng.choice(pending))
    return sim.trace.records


def test_criterion_7_randomized_benign_schedules_and_properties():
    """1000 random benign schedules per protocol stay safe and live."""
    runs = 1000
    for seed in range(runs):
        records = _random_benign_zyzzyva(seed)
        assert check_agreement(records).status == "holds"
        assert check_validity(records).status == "holds"
        commits = _commit_pairs(records)
        # with a correct leader there is no view change and every client
        # commits on the fast track
        assert all(c["view"] == 1 for c in commits)
        n_clients = len(records[0]["nodes"]) - records[0]["n"]
        fast_clients = {c["by"] for c in commits
                        if c["track"] == "fast" and c["by"].startswith("c")}
        assert len(fast_clients) == n_clients
    for protocol in ("fab5", "pfab"):
        for seed in range(runs):
            records = _random_benign_fab(seed, protocol)
            assert check_agreement(records).status == "holds"
            assert check_stuck(records).status == "holds"
            assert _commit_pairs(records)
    # trace determinism: double runs are byte-identical
    for name in ("zyzzyva-cc-priority", "zyzzyva-longest-cc", "pfab-stuck"):
        sc = get_builtin(name)
        assert run_scenario(sc).to_jsonl() == run_scenario(sc).to_jsonl()
    _passed(7, f"{runs} benign schedules x 3 protocols, deterministic replays")


def test_criterion_8_golden_traces_pinned():
    """The three paper scenarios replay byte-for-byte to the pinned traces."""
    for name in ("zyzzyva-cc-priority", "zyzzyva-longest-cc", "pfab-stuck"):
        want = (GOLDEN / f"{name}.jsonl").read_text()
        got = run_scenario(get_builtin(name)).to_jsonl()
        assert got == want, f"{name} trace drifted from golden file"
    _passed(8, "3 golden traces byte-identical")
