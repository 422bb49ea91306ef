import itertools
import random
import reprlib
from collections import Counter
from dataclasses import replace

import pytest

from bftlab import core, explorer, fab, zyzzyva
from bftlab.checkers import check_trace, read_trace, run_checkers
from bftlab.core import ZYZZYVA, log_ops, replica
from bftlab.explorer import _kernel_for
from bftlab.fab import check_decision
from bftlab.netsim import (
    ArtifactError,
    SimError,
    Simulation,
    _components,
    _match,
    adversary_sends,
    artifacts,
    msg_view,
    run_scenario,
)
from bftlab.scenarios import BUILTIN_NAMES, Scenario, ScenarioError, get_builtin, validate
from bftlab.zyzzyva import check_decisions
from conftest import SEARCHES


def _bare(protocol="zyzzyva", **kw):
    base = dict(name="t", protocol=protocol, f=1, t=0, byzantine=[],
                clients=[{"id": 1, "op": "a"}], inputs={}, script=[], expected=[])
    base.update(kw)
    return validate(Scenario(**base))


def test_traces_are_byte_identical_across_runs():
    sc = get_builtin("zyzzyva-cc-priority")
    a = run_scenario(sc).to_jsonl()
    b = run_scenario(sc).to_jsonl()
    assert a == b


def test_trace_round_trips_through_jsonl():
    trace = run_scenario(get_builtin("pfab-stuck"))
    assert read_trace(trace.to_jsonl().encode()) == trace.records


def test_deliver_unmatched_pattern_is_an_error():
    sc = _bare(script=[{"do": "deliver", "match": {"type": "order_req"}}])
    with pytest.raises(SimError, match="matched nothing"):
        run_scenario(sc)


def test_drop_unmatched_pattern_is_a_noop():
    sc = _bare(script=[{"do": "drop", "match": {"type": "order_req"}}])
    trace = run_scenario(sc)
    assert trace.records[-1]["kind"] == "drop" and trace.records[-1]["mids"] == []


def test_unknown_pattern_field_rejected():
    with pytest.raises(ScenarioError, match=r"script\[1\]\.match has unknown fields \['sender'\]"):
        _bare(script=[
            {"do": "client_request", "client": 1, "to": "r0"},
            {"do": "deliver", "match": {"sender": "c1"}},
        ])


def test_empty_script_produces_header_only_trace():
    trace = run_scenario(_bare())
    assert len(trace.records) == 1
    assert trace.records[0]["kind"] == "scenario"


@pytest.mark.parametrize("f", [1, 2])
def test_fab5_header_records_the_t_its_quorums_use(f):
    # FaB5 is the parameterized protocol at t=f, whatever the scenario's t
    header = run_scenario(_bare("fab5", f=f, clients=[], inputs={"r0": "A"})).records[0]
    assert (header["f"], header["t"], header["n"]) == (f, f, 5 * f + 1)


def test_adversary_requires_byzantine_actor():
    sc = _bare(script=[{"do": "adversary", "actor": 1,
                        "action": {"kind": "spec_response", "view": 1, "log": ["a"], "to": "c1"}}],
               byzantine=[0])
    with pytest.raises(SimError, match="not Byzantine"):
        run_scenario(sc)


def test_adversary_cannot_fabricate_unobserved_requests():
    # op "a" was never delivered to the byzantine node, so no stored artifact
    sc = _bare(byzantine=[0], script=[
        {"do": "adversary", "actor": 0,
         "action": {"kind": "order_req", "view": 1, "sends": [{"to": "r1", "log": ["a"]}]}},
    ])
    with pytest.raises(SimError, match="stored requests"):
        run_scenario(sc)


def test_view_change_signal_rejects_byzantine_targets():
    sc = _bare(byzantine=[0], script=[{"do": "view_change", "view": 2, "nodes": ["r0"]}])
    with pytest.raises(SimError, match="correct replicas"):
        run_scenario(sc)


def _pooled(name: str, mid: int):
    """The message sent as `mid` in the run of the built-in `name`."""
    sim = Simulation(get_builtin(name))
    sim.run_script()
    return sim.pool[mid - 1].msg


def test_artifacts_of_each_kind_in_first_seen_order():
    # a Byzantine replica learns a message, then, depth first, each value its
    # fields and tuple fields hold whose class declares a kind, once each; the
    # simulator's state digest hashes a store in this order
    order = _pooled("zyzzyva-benign-fast", 2)
    (a,) = order.log
    assert artifacts(order) == [order, a]
    spec = _pooled("zyzzyva-benign-fast", 6)
    assert artifacts(spec) == [spec, a]
    commit = _pooled("zyzzyva-benign-two-phase", 9)
    cert = commit.cert
    assert artifacts(commit) == [commit, cert, a, *cert.responses]
    vc = _pooled("zyzzyva-cc-priority", 29)  # log [b], certificate of view 1's [a]
    (b,) = vc.log
    assert vc.cert.log == (a,)
    assert artifacts(vc) == [vc, b, vc.cert, a, *vc.cert.responses]
    nv = _pooled("zyzzyva-cc-priority", 18)  # three view-change logs: [a], [b], [b]
    r1, r3, r0 = nv.proof
    assert (r1.log, r3.log, r0.log, nv.log) == ((a,), (b,), (b,), (b,))
    assert artifacts(nv) == [nv, r1, a, r3, b, r0]
    proof_msg = _pooled("pfab-benign", 21)
    proof = proof_msg.proof
    assert artifacts(proof_msg) == [proof_msg, proof, *proof.accepted]
    rep = _pooled("pfab-stuck", 21)  # r1's REP to itself, with its commit proof
    cp = rep.last_commit_proof
    assert artifacts(rep) == [rep, cp, *cp.accepted]
    # no built-in run proposes in view 2, so r1 proposes over the REPs it was
    # delivered in pfab-stuck, where it got stuck instead
    reps = (rep, _pooled("pfab-stuck", 23), _pooled("pfab-stuck", 24))
    pc = fab.ProgressCertificate(2, reps)
    propose = core.signed(fab.Propose(2, b"A", pc, None), replica(1))
    assert artifacts(propose) == [propose, pc, rep, cp, *cp.accepted, *reps[1:]]


def test_ordinals_distinguish_repeated_sends():
    sc = get_builtin("zyzzyva-longest-cc")
    trace = run_scenario(sc)
    reqs = [
        m
        for r in trace.records[1:]
        for m in r.get("emitted") or []
        if m["type"] == "order_req" and m["dst"] == "r1"
    ]
    assert [m["body"]["log"] for m in reqs] == [["a1"], ["a1", "a2"]]


def test_delivered_tokens_always_verify():
    # runtime authentication assertion: a hand-built bad message cannot pass
    sc = _bare(script=[{"do": "client_request", "client": 1, "to": "r0"}])
    sim = Simulation(sc)
    sim.run_script()
    entry = sim.pool[0]
    object.__setattr__(entry.msg.token, "value", "0" * 64)
    with pytest.raises(SimError, match="token verification"):
        sim._deliver_entry(entry)


def test_omniscient_commits_fire_on_sends_not_deliveries():
    # responses are emitted but never delivered to the client; the quorum of
    # sent prepares still commits the request
    sc = _bare(script=[
        {"do": "client_request", "client": 1, "to": "r0"},
        {"do": "deliver", "match": {"type": "request"}},
        {"do": "deliver", "match": {"type": "order_req"}},
    ])
    trace = run_scenario(sc)
    commits = [c for r in trace.records for c in r.get("commits") or []]
    assert [c["by"] for c in commits] == ["quorum"]
    verdicts = run_checkers(trace.records, ["agreement", "validity"])
    assert all(v.status == "holds" for v in verdicts)


def test_delay_all_except_freezes_everything_else():
    sc = _bare(script=[
        {"do": "client_request", "client": 1, "to": "r0"},
        {"do": "delay_all_except"},
        {"do": "drop", "match": {}},
    ])
    trace = run_scenario(sc)
    delay = [r for r in trace.records if r["kind"] == "delay"][0]
    assert delay["mids"] == [1]
    drop = [r for r in trace.records if r["kind"] == "drop"][0]
    assert drop["mids"] == []  # already delayed, nothing pending


def test_correct_replicas_prepare_once_per_view():
    # trace assertion: one accepted value per (correct replica, view)
    for name in ("pfab-benign", "pfab-stuck", "fab5-benign"):
        records = run_scenario(get_builtin(name)).records
        byz = set(records[0]["byzantine"])
        seen = {}
        for rec in records[1:]:
            for m in rec.get("emitted") or []:
                if m["type"] != "accepted" or m["src"] in byz:
                    continue
                key = (m["src"], m["view"])
                value = m["body"]["value"]
                assert seen.setdefault(key, value) == value, name


def test_agreement_witnesses_suffice_to_rederive_the_verdict():
    records = run_scenario(get_builtin("zyzzyva-cc-priority")).records
    verdict = run_checkers(records, ["agreement"])[0]
    assert verdict.status == "violated"
    witnessed = [records[0]] + [r for r in records if r["seq"] in verdict.witnesses]
    again = run_checkers(witnessed, ["agreement"])[0]
    assert again.status == "violated"
    assert again.details["positions"] == verdict.details["positions"]


def test_a_drop_with_a_source_spares_other_senders():
    sc = validate(Scenario(
        name="drop-src", protocol="zyzzyva", f=1, byzantine=[0],
        clients=[{"id": 1, "op": "a"}, {"id": 2, "op": "b"}],
        script=[
            {"do": "client_request", "client": 1, "to": "r0"},
            {"do": "deliver", "match": {"type": "request"}},
            {"do": "adversary", "actor": 0,
             "action": {"kind": "order_req", "view": 1,
                        "sends": [{"to": "r1", "log": ["a"]}, {"to": "r2", "log": ["a"]}]}},
            {"do": "client_request", "client": 2, "to": "r2"},
            {"do": "drop", "match": {"src": "r0", "dst": "r2"}},
        ],
    ))
    sim = Simulation(sc)
    sim.run_script()
    pending = [(e.msg.kind, str(e.src), str(e.dst)) for e in sim.pending.values()]
    assert pending == [("order_req", "r0", "r1"), ("request", "c2", "r2")]
    assert sim.trace.records[-1]["mids"] == [3]


def test_delay_all_except_pattern_spares_matches():
    sc = _bare(clients=[{"id": 1, "op": "a"}, {"id": 2, "op": "b"}], script=[
        {"do": "client_request", "client": 1, "to": "r0"},
        {"do": "client_request", "client": 2, "to": "r0"},
        {"do": "delay_all_except", "match": {"src": "c1"}},
        {"do": "deliver", "match": {"type": "request"}},
    ])
    trace = run_scenario(sc)
    delivered = [r for r in trace.records if r["kind"] == "deliver"]
    assert len(delivered) == 1 and delivered[0]["msg"]["src"] == "c1"


class _RescanSimulation(Simulation):
    """Reference decision accounting: rescan every sent message after each event."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.sent = []
        self.decided = set()

    def _send(self, rec, src, dst, msg, rank):
        self.sent.append(msg)
        return super()._send(rec, src, dst, msg, rank)

    def _scan_quorums(self, rec):
        if self.scenario.protocol == ZYZZYVA:
            for d in check_decisions(self.sent, self.cfg):
                key = (d.view, tuple(log_ops(d.log)), d.track)
                if key not in self.decided:
                    self.decided.add(key)
                    rec["commits"].extend(self._zyz_commits(d.view, d.log, d.track, "quorum"))
        else:
            for d in check_decision(self.sent, self.cfg):
                key = (d.view, d.value, d.track)
                if key not in self.decided:
                    self.decided.add(key)
                    rec["commits"].append(self._fab_commit(d.view, d.value, d.track, "quorum"))


def _benign_script(scenario, seed):
    """A seeded benign schedule: every pending message delivered in random
    order, with random client timeouts once nothing is in flight."""
    rng = random.Random(seed)
    sim = Simulation(scenario)
    script = []

    def do(step):
        script.append(step)
        sim._step(step)

    if scenario.protocol == ZYZZYVA:
        for c in scenario.clients:
            do({"do": "client_request", "client": c["id"], "to": "r0"})
    else:
        do({"do": "propose", "node": "r0"})
    timeouts = [f"c{c['id']}" for c in scenario.clients if rng.random() < 0.5]
    while True:
        pending = list(sim.pending.values())
        if not pending:
            if not timeouts:
                return script
            do({"do": "timeout", "node": timeouts.pop()})
            continue
        e = rng.choice(pending)
        do({"do": "deliver", "match": {"type": e.msg.kind, "src": str(e.src),
                                       "dst": str(e.dst), "ordinal": e.ordinal}})


def _explorer_walk(cfg, seed, steps=40, path=None):
    """A seeded random walk through the explorer's choices, exported in
    lockstep to a Simulation; with `path`, that sequence of choices instead.

    Yields (choice, kernel state, simulation) at the root, with choice
    None, and after every choice. The simulation's scenario holds the script
    exported so far.
    """
    kernel, rng = _kernel_for(cfg), random.Random(seed)
    sim = Simulation(Scenario(
        name="walk", protocol=cfg.protocol, f=cfg.f, t=cfg.t, byzantine=list(cfg.byzantine),
        clients=[{"id": i + 1, "op": op} for i, op in enumerate(cfg.requests)],
    ))
    state = kernel.initial(sim)
    yield None, state, sim
    for i in range(steps if path is None else len(path)):
        options = kernel.choices(state)
        if not options:
            break
        choice = rng.choice(options) if path is None else path[i]
        state = kernel.apply(state, choice)
        yield choice, state, sim


def _walk_scenario(cfg, seed):
    *_, (_, _, sim) = _explorer_walk(cfg, seed)
    return validate(sim.scenario)


_ZYZZYVA = SEARCHES["zyzzyva-3-view-violation"]["config"]
_WALK_CONFIGS = {  # the committed searches' configs, three views for Zyzzyva's
    "zyzzyva": _ZYZZYVA,
    "pfab": SEARCHES["pfab-stuck"]["config"],
    "fab5": SEARCHES["fab5-2-value-exhaustion"]["config"],
    "zyzzyva-three-requests": replace(_ZYZZYVA, requests=("a", "b", "c")),
    # its view-change slots cite no stored certificate
    "zyzzyva-no-inject": replace(_ZYZZYVA, menu=("equivocate", "withhold")),
    # the Byzantine replica leads view 2: it orders there, and no view-change
    # slot is offered in that view
    "zyzzyva-byzantine-view-2-leader": replace(_ZYZZYVA, byzantine=(1,)),
}


def _schedules():
    for name in BUILTIN_NAMES:
        yield get_builtin(name)
    for seed in range(20):
        ops = ["a", "b", "c"][: 1 + seed % 3]
        zyz = _bare(clients=[{"id": i + 1, "op": op} for i, op in enumerate(ops)])
        yield replace(zyz, script=_benign_script(zyz, seed))
        for protocol in ("fab5", "pfab"):
            fab = _bare(protocol, clients=[], inputs={"r0": "AB"[seed % 2]})
            yield replace(fab, script=_benign_script(fab, seed))
    for seed in range(20):
        for cfg in _WALK_CONFIGS.values():
            yield _walk_scenario(cfg, seed)


def _pending_in_pool(sim):
    return [e for e in sim.pool if e.status == "pending"]


def test_the_pending_index_lists_the_pending_pool_entries_in_mid_order():
    # after every directive of the schedules, and along the lockstep walks
    # that export them, the index holds exactly the entries whose status is
    # pending, keyed by their mids, in send order
    checked = 0
    for scenario in _schedules():
        sim = Simulation(scenario)
        for step in scenario.script:
            sim._step(step)
            assert list(sim.pending.values()) == _pending_in_pool(sim), scenario.name
            assert list(sim.pending) == [e.mid for e in sim.pending.values()]
            checked += 1
    for cfg in _WALK_CONFIGS.values():
        for seed in range(5):
            for _, _, sim in _explorer_walk(cfg, seed):
                assert list(sim.pending.values()) == _pending_in_pool(sim), seed
    assert checked


def _reference_match(entry, pat: dict) -> bool:
    """The field-by-field match the simulator made before it read the
    description its send built: each named field recomputed from the entry."""
    if "type" in pat and entry.msg.kind != pat["type"]:
        return False
    if "view" in pat and msg_view(entry.msg) != pat["view"]:
        return False
    if "src" in pat and str(entry.src) != pat["src"]:
        return False
    if "dst" in pat and str(entry.dst) != pat["dst"]:
        return False
    return "ordinal" not in pat or entry.ordinal == pat["ordinal"]


def _hand_built_patterns(entry):
    """Each subset of the entry's own pattern fields; its full pattern with
    a wrong ordinal; and each subset with a null view (requests)."""
    full = {"type": entry.msg.kind, "view": msg_view(entry.msg), "src": str(entry.src),
            "dst": str(entry.dst), "ordinal": entry.ordinal}
    for n in range(len(full) + 1):
        for names in itertools.combinations(full, n):
            pat = {name: full[name] for name in names}
            yield pat
            yield {**pat, "view": None}
    yield {**full, "ordinal": entry.ordinal + 1}


def test_matching_on_descriptions_agrees_with_the_field_by_field_match():
    # every entry of the pool, delivered, dropped and delayed ones too,
    # against patterns built from every pending or settled entry
    statuses = Counter()
    scenarios = [get_builtin(name) for name in BUILTIN_NAMES]
    scenarios += [_walk_scenario(cfg, seed) for cfg in _WALK_CONFIGS.values() for seed in (0, 1)]
    for scenario in scenarios:
        sim = Simulation(scenario)
        for i, step in enumerate(scenario.script):
            sim._step(step)
            if i % 4 and i != len(scenario.script) - 1:  # every fourth step, and the last
                continue
            pats = {tuple(sorted(p.items())) for e in sim.pool for p in _hand_built_patterns(e)}
            for pat in map(dict, pats):
                assert [_match(e, pat) for e in sim.pool] == \
                    [_reference_match(e, pat) for e in sim.pool], pat
                assert sim._matching(pat) == [e for e in _pending_in_pool(sim)
                                              if _reference_match(e, pat)], pat
        statuses.update(e.status for e in sim.pool)
    assert {"pending", "delivered", "dropped", "delayed"} <= set(statuses)


def test_memoized_repr_changes_no_trace_byte(monkeypatch):
    # state digests hash repr: with every repr computed afresh on each call,
    # by the dataclass's own repr, recursion guard included, the built-ins
    # and the first three seeds of each protocol's benign schedules write
    # the same traces as the memoized repr, which drops the guard
    schedules = list(itertools.islice(_schedules(), len(BUILTIN_NAMES) + 3 * 3))
    memoized = [run_scenario(sc).to_jsonl() for sc in schedules]
    classes = {obj for mod in (core, zyzzyva, fab, explorer) for obj in vars(mod).values()
               if isinstance(obj, type) and "_repr" in getattr(obj, "__slots__", ())}
    names = {cls.__name__ for cls in classes}
    assert {"QuorumConfig", "ReplicaState", "ClientState", "FabReplicaState"} <= names
    for cls in classes:
        unguarded = cls.__repr__.__wrapped__  # the repr dataclass generated
        assert not hasattr(unguarded, "__wrapped__")
        # the guard dataclass puts around it (a copy of this one before 3.13)
        monkeypatch.setattr(cls, "__repr__", reprlib.recursive_repr()(unguarded))
    assert [run_scenario(sc).to_jsonl() for sc in schedules] == memoized


def _fresh_digest(sim, node) -> str:
    """The state digest of node, computed from its state as it is now."""
    st = sim.nodes[node]
    if node in sim.byzantine:
        return core.digest(b"".join(o.canon() for o in st))[:12]
    return core.digest(repr(st).encode())[:12]


def test_every_record_digests_the_state_its_node_has_then(monkeypatch):
    # a digest is reused while its node keeps the same state object; on the
    # built-ins and along the lockstep walks, each record's state digest
    # equals one taken afresh when the record is written
    checked, reused = 0, 0
    apply = Simulation._apply

    def checked_apply(sim, rec, node, result):
        nonlocal checked, reused
        reused += sim.digested.get(node, (None,))[0] is result[0]
        apply(sim, rec, node, result)
        assert rec["state"] == _fresh_digest(sim, node), rec
        checked += 1

    monkeypatch.setattr(Simulation, "_apply", checked_apply)
    for name in BUILTIN_NAMES:
        run_scenario(get_builtin(name))
    for cfg in _WALK_CONFIGS.values():
        for seed in range(5):
            for _ in _explorer_walk(cfg, seed):
                pass
    assert 0 < reused < checked


def test_a_delivery_records_the_description_its_send_emitted():
    for name in BUILTIN_NAMES:
        emitted, delivered = {}, 0
        for rec in run_scenario(get_builtin(name)).records:
            if rec["kind"] == "deliver":
                assert rec["msg"] is emitted[rec["mid"]], (name, rec["seq"])
                delivered += 1
            for desc in rec.get("emitted") or []:
                emitted[desc["mid"]] = desc
        assert delivered, name


def test_every_trace_the_simulator_writes_has_the_shape_the_trace_reader_checks():
    # run_checkers trusts the traces the simulator writes; read_trace checks stored ones
    for scenario in _schedules():
        check_trace(run_scenario(scenario).records)


def test_incremental_commits_equal_a_full_rescan():
    for scenario in _schedules():
        got = Simulation(scenario).run_script().records
        want = _RescanSimulation(scenario).run_script().records
        assert [r.get("commits") for r in got] == [r.get("commits") for r in want]


def _commits_so_far(protocol, records):
    """The trace's commits in the kernel's form: Zyzzyva (position, op or
    "<null>", view, track), FaB (value, view, track)."""
    out = set()
    for rec in records:
        for c in rec.get("commits") or []:
            if protocol == ZYZZYVA:
                out.add((c["position"], c["entry"] or "<null>", c["view"], c["track"]))
            else:
                out.add((c["value"], c["view"], c["track"]))
    return out


def _kernel_commits(protocol, state):
    """The kernel's completed decision groups in _commits_so_far's forms."""
    out = set()
    for kind, view, *named in state.commits:
        if protocol == ZYZZYVA:
            track = (zyzzyva.FAST, zyzzyva.TWO_PHASE)[kind]
            out.update((pos, "<null>" if entry is zyzzyva.NULL_REQUEST else entry.op.decode(),
                        view, track) for pos, entry in enumerate(named[1], start=1))
        else:
            out.add((named[0].decode(), view, (fab.FAST, fab.COMMIT)[kind]))
    return out


def _kernel_stuck(state):
    """Has a correct FaB replica of the kernel state reported a stuck view?"""
    return any(getattr(r, "stuck_view", None) is not None for r in state.nodes)


def _assert_kernel_matches_simulator(cfg, state, sim):
    """The kernel's commits and stuck views are exactly what the lockstep
    simulation's trace has recorded so far, and its sent marks and nodes,
    the Byzantine replica's store in place of its None, hold what the
    simulation's do."""
    records = sim.trace.records
    assert state.sent_tab == sim.sent_tab, len(records)
    assert _kernel_commits(cfg.protocol, state) == _commits_so_far(cfg.protocol, records), \
        len(records)
    assert _kernel_stuck(state) == any(r.get("stuck") for r in records), len(records)
    assert [state.store if st is None else st for st in state.nodes] == [
        set(st) if n in sim.byzantine else st for n, st in sim.nodes.items()], len(records)


@pytest.mark.parametrize("name", _WALK_CONFIGS)
def test_kernel_and_simulator_agree_after_every_choice(name):
    cfg = _WALK_CONFIGS[name]
    for seed in range(20):
        for _, state, sim in _explorer_walk(cfg, seed):
            _assert_kernel_matches_simulator(cfg, state, sim)


@pytest.mark.parametrize("name", _WALK_CONFIGS)
def test_every_kernel_store_is_closed_under_components(name):
    # the kernel adds a message's whole artifact list to a store, or nothing
    # when the store holds the message: sound only while every store holds
    # the components of each artifact it holds
    cfg, nested = _WALK_CONFIGS[name], 0
    for seed in range(20):
        for _, state, _ in _explorer_walk(cfg, seed):
            for artifact in state.store:
                for sub in _components(artifact):
                    assert sub in state.store, seed
                    nested += 1
    assert nested


@pytest.mark.parametrize("name", _WALK_CONFIGS)
def test_slot_choices_are_exported_verbatim(name):
    # a slot choice's action is the adversary directive the export runs:
    # every action the menus offer sends something and names only
    # artifacts its store holds exactly once
    cfg = _WALK_CONFIGS[name]
    actor = cfg.byzantine[0]
    verbatim = 0
    for seed in range(20):
        length = 0
        for choice, _, sim in _explorer_walk(cfg, seed):
            new, length = sim.scenario.script[length:], len(sim.scenario.script)
            if choice is not None and choice[0] == "slot":
                assert new[0] == {"do": "adversary", "actor": actor, "action": choice[1]}
                verbatim += 1
    assert verbatim


@pytest.mark.parametrize("name", ["zyzzyva", "zyzzyva-three-requests"])
def test_the_adversary_echoes_each_correct_client_bound_response_once(name):
    # every correct replica's spec_response or local_commit to a client has
    # exactly one adversary directive sending the same (kind, view, log, to),
    # and the adversary sends those kinds as nothing but such echoes
    cfg = _WALK_CONFIGS[name]
    byz, echoed = str(replica(cfg.byzantine[0])), 0
    for seed in range(20):
        *_, (_, _, sim) = _explorer_walk(cfg, seed)
        responses = {
            (m["type"], m["view"], tuple(m["body"]["log"]), m["dst"])
            for rec in sim.trace.records for m in rec.get("emitted") or []
            if m["src"] != byz and m["dst"].startswith("c")
            and m["type"] in ("spec_response", "local_commit")
        }
        echoes = Counter(
            (a["kind"], a["view"], tuple(a["log"]), a["to"])
            for a in (step["action"] for step in sim.scenario.script if step["do"] == "adversary")
            if a["kind"] in ("spec_response", "local_commit")
        )
        assert set(echoes) == responses and set(echoes.values()) <= {1}, seed
        echoed += len(echoes)
    assert echoed


def test_adversary_sends_need_each_reference_held_exactly_once():
    a, b = (core.make_request(op, core.client(i)) for i, op in ((1, b"a"), (2, b"b")))
    certs = [zyzzyva.CommitCertificate(view, (req,), ()) for view, req in ((1, a), (1, b), (2, b))]
    proofs = [fab.CommitProof(view, value, ()) for view, value in ((1, b"A"), (2, b"B"))]
    store = frozenset([a, b, *certs, *proofs])
    lacking = frozenset([a, *certs])

    def view_change(cert, log=("b",)):
        return {"kind": "view_change", "view": 3, "log": list(log), "cert": cert, "to": "r2"}

    def rep(proof):
        return {"kind": "rep", "view": 3, "last_accepted": "A", "commit_proof": proof, "to": "r2"}

    order = {"kind": "order_req", "view": 1,
             "sends": [{"log": ["a"], "to": "r1"}, {"log": ["b", None], "to": "r2"}]}
    cases = [
        # a request the store lacks, in the action or in one of its sends
        (lacking, view_change(None), False),
        (lacking, order, False),
        (store, order, True),
        # two stored commit certificates of view 1; one of view 2
        (store, view_change({"view": 1}), False),
        (store, view_change({"view": 2}, log=()), True),
        # stored commit proofs, named by view and value
        (store, rep({"view": 1}), True),
        (store, rep({"view": 2, "value": "A"}), False),
        (store, rep(None), True),
    ]
    for held, action, resolves in cases:
        if resolves:
            assert adversary_sends(replica(0), action, held), action
        else:
            with pytest.raises(ArtifactError):
                adversary_sends(replica(0), action, held)


def test_kernel_and_simulator_agree_along_a_found_stuck_run(searched):
    # the seeded walks never get stuck; the explorer's PFaB counterexample does
    cfg = _WALK_CONFIGS["pfab"]
    stuck = []
    for _, state, sim in _explorer_walk(cfg, None, path=searched(cfg).result.counterexample.choices):
        _assert_kernel_matches_simulator(cfg, state, sim)
        stuck.append(_kernel_stuck(state))
    assert stuck[-1] and not stuck[-2]


def test_step_looks_handlers_up_at_call_time(monkeypatch):
    # a wrapped handler (a tracer's, say) is the one deliveries reach
    for module, name, scenario in (
        (zyzzyva, "on_order_req", "zyzzyva-benign-fast"),
        (zyzzyva, "on_spec_response", "zyzzyva-benign-fast"),
        (fab, "on_rep", "pfab-stuck"),
    ):
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda st, m, f=original: calls.append(m) or f(st, m))
        run_scenario(get_builtin(scenario))
        assert calls, name
