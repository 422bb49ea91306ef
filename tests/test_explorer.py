import json
import sys
from functools import partial

import pytest
from dataclasses import replace

from bftlab import zyzzyva
from bftlab.checkers import any_violation, run_checkers
from bftlab.core import FAB5, derivations, leader_of, log_ops, tally
from bftlab.explorer import (
    ExploreConfig,
    ExplorerError,
    FabKernel,
    KState,
    ZyzzyvaKernel,
    _Budget,
    _dfs,
    _Kernel,
    _kernel_for,
    explore,
    validate_config,
)
from bftlab.netsim import (
    ArtifactError,
    adversary_sends,
    artifacts,
    named_artifacts,
    run_scenario,
)
from bftlab.scenarios import loads
from conftest import GOLDEN, SEARCHES

PFAB_SMALL = SEARCHES["pfab-stuck"]["config"]
ZYZZYVA_SMALL = SEARCHES["zyzzyva-2-view-exhaustion"]["config"]
ZYZZYVA_THREE_VIEWS = SEARCHES["zyzzyva-3-view-violation"]["config"]
COUNTERS = ("states", "deduped", "max_depth", "transitions", "transitions_reused")
FAB_SEARCHES = {  # the committed FaB searches, by test id
    "pfab-stuck": SEARCHES["pfab-stuck"]["config"],
    "pfab-one-value": SEARCHES["pfab-1-value-exhaustion"]["config"],
    "fab5-one-value": SEARCHES["fab5-1-value-exhaustion"]["config"],
    "fab5-two-values": SEARCHES["fab5-2-value-exhaustion"]["config"],
}


def _counts(name, *keys):
    """The committed search's counters named by keys, from the registry."""
    return tuple(SEARCHES[name]["counters"][k] for k in keys)


def _assert_same_export(a, b):
    """Two explore results export the same run with the same trace, or none."""
    if a.counterexample is None:
        assert b.counterexample is None
    else:
        assert a.counterexample.scenario.to_json() == b.counterexample.scenario.to_json()
        assert a.counterexample.trace.to_jsonl() == b.counterexample.trace.to_jsonl()


@pytest.mark.parametrize("name", SEARCHES)
def test_committed_search(searched, name):
    """Each committed search (searches.json) ends in its outcome with its
    counters; a found one exports its golden scenario byte for byte, whose
    replay gives its verdict. CI runs this under each hash seed: stores,
    sent marks and the kernel's table keys are frozensets, and PFaB stuck
    stops at its first hit, so its counters depend on the order it visits
    states in. Zyzzyva's 3-view search runs the most view changes, whose
    base logs and spec responses each kernel derives once. With r1
    Byzantine, r1 leads view 2, where no slot is offered: a view-change
    would go to r1, and no correct replica takes an order without a
    NEW-VIEW; that also makes the f=2 search, with 4^6 - 1 orders per
    view-2 state, small enough to exhaust. FaB5
    never gets stuck: its settled leaves take no eager deliveries, and no
    `accepted` slot is offered while the Byzantine replica, its one
    recipient, leads."""
    want = SEARCHES[name]
    res, _ = searched(want["config"])
    assert [res.stats[k] for k in ("found", "budget_exhausted")] == [
        want["found"], want["budget_exhausted"]]
    assert {k: res.stats[k] for k in COUNTERS} == want["counters"]
    ce = res.counterexample
    assert (None if ce is None else len(ce.scenario.script)) == want["export_length"]
    if want["golden"] is None:
        assert ce is None
        return
    golden = (GOLDEN / want["golden"]).read_text()
    assert ce.scenario.to_json() == golden == loads(golden).to_json()
    assert ce.verdict.property == want["config"].resolved_target()
    assert any_violation([ce.verdict])
    assert run_checkers(run_scenario(loads(golden)).records, [ce.verdict.property]) == [ce.verdict]


def test_every_golden_export_is_a_committed_search():
    named = [s["golden"] for s in SEARCHES.values() if s["golden"] is not None]
    assert sorted(named) == sorted(path.name for path in GOLDEN.glob("explored-*.json"))


def test_config_validation():
    with pytest.raises(ExplorerError, match="unknown protocol"):
        validate_config(replace(PFAB_SMALL, protocol="raft"))
    with pytest.raises(ExplorerError, match="exactly one Byzantine"):
        validate_config(replace(PFAB_SMALL, byzantine=(0, 1)))
    with pytest.raises(ExplorerError, match="menu"):
        validate_config(replace(PFAB_SMALL, menu=("bribe",)))
    with pytest.raises(ExplorerError, match="value domain"):
        validate_config(replace(PFAB_SMALL, values=()))
    with pytest.raises(ExplorerError, match="client requests"):
        validate_config(ExploreConfig(protocol="zyzzyva"))
    with pytest.raises(ExplorerError, match="positive"):
        validate_config(replace(PFAB_SMALL, max_views=0))


def test_dedup_changes_statistics_not_outcomes():
    # exhaustion case
    base = FAB_SEARCHES["fab5-one-value"]
    on, off = explore(base), explore(replace(base, dedup=False))
    assert on.counterexample is None and off.counterexample is None
    assert off.stats["states"] > on.stats["states"]
    # found case
    on, off = explore(PFAB_SMALL), explore(replace(PFAB_SMALL, dedup=False))
    assert on.counterexample.scenario.script == off.counterexample.scenario.script
    # Zyzzyva 2-view exhaustion: dedup changes how many states are visited,
    # not whether a counterexample exists
    on, off = explore(ZYZZYVA_SMALL), explore(replace(ZYZZYVA_SMALL, dedup=False))
    assert (on.stats["states"], off.stats["states"]) == (
        *_counts("zyzzyva-2-view-exhaustion", "states"), 11019)
    assert on.counterexample is None and off.counterexample is None


def _unpruned(m):
    """Turn FaB's final-view pruning off: no state counts as settled, and
    prepares are fated in every view, FaB5's too."""
    init = FabKernel.__init__

    def fated_prepares(self, cfg):
        init(self, cfg)
        self.eager = ("propose", "commit_proof_msg")

    m.setattr(FabKernel, "settled", lambda self, st: False)
    m.setattr(FabKernel, "__init__", fated_prepares)


@pytest.mark.parametrize("cfg, pruned, unpruned", [
    (PFAB_SMALL, *_counts("pfab-stuck", "states"), 77326),
    (FAB_SEARCHES["fab5-one-value"], *_counts("fab5-1-value-exhaustion", "states"), 4575),
    # the view-2 leader is Byzantine: settled as soon as view 2 begins
    (replace(PFAB_SMALL, byzantine=(1,)), 33, 33),
], ids=["pfab-stuck", "fab5-one-value", "pfab-byzantine-view-2-leader"])
def test_final_view_pruning_changes_statistics_not_outcomes(monkeypatch, cfg, pruned, unpruned):
    on = explore(cfg)
    with monkeypatch.context() as m:
        _unpruned(m)
        off = explore(cfg)
    assert (on.stats["states"], off.stats["states"]) == (pruned, unpruned)
    assert not on.stats["budget_exhausted"] and not off.stats["budget_exhausted"]
    assert on.stats["found"] == off.stats["found"]
    if on.counterexample is not None:
        assert len(off.counterexample.scenario.script) == SEARCHES["pfab-stuck"]["export_length"]
        verdicts = run_checkers(run_scenario(off.counterexample.scenario).records, ["stuck"])
        assert verdicts[0].status == "occurred"


@pytest.mark.parametrize("name", FAB_SEARCHES)
def test_no_prepare_is_in_flight_in_an_unsettled_final_view(monkeypatch, name):
    # why FaB's eager classes need no rule for the final view: until its
    # leader has evaluated its certificate, which settles the state, no
    # prepare is pooled there, so none waits to be delivered or dropped
    cfg, normalize = FAB_SEARCHES[name], _Kernel.normalize
    unsettled, holding = 0, 0

    def checked(kernel, w):
        nonlocal unsettled, holding
        st = normalize(kernel, w)
        if st.view == cfg.max_views and not kernel.settled(st):
            unsettled += 1
            holding += any(sent.msg.kind == "accepted" for sent in st.pool)
        return st

    monkeypatch.setattr(_Kernel, "normalize", checked)
    assert not explore(cfg).stats["budget_exhausted"]
    assert unsettled and not holding


# the registry's Zyzzyva counters without its final-view leaf rule
_UNSETTLED_COUNTERS = {
    "zyzzyva-2-view-exhaustion": (12775, 1154, 14, 4953, 30346),
    "zyzzyva-3-view-violation": (28744, 408, 19, 6670, 82835),
    "zyzzyva-2-view-byzantine-leader": (577, 147, 9, 71, 1019),
    "zyzzyva-f2-2-view-byzantine-leader": (30751, 4247, 15, 234, 92778),
}


@pytest.mark.parametrize("name", _UNSETTLED_COUNTERS)
def test_zyzzyva_leaf_rule_changes_statistics_not_outcomes(monkeypatch, searched, name):
    cfg = SEARCHES[name]["config"]
    res, _ = searched(cfg)
    with monkeypatch.context() as m:
        m.setattr(ZyzzyvaKernel, "settled", _Kernel.settled)
        off = explore(cfg)
    assert tuple(off.stats[k] for k in COUNTERS) == _UNSETTLED_COUNTERS[name]
    same = ("found", "budget_exhausted")
    assert [res.stats[k] for k in same] == [off.stats[k] for k in same]
    _assert_same_export(res, off)


@pytest.mark.parametrize("name", [
    "zyzzyva-2-view-exhaustion", "zyzzyva-3-view-violation", "zyzzyva-2-view-byzantine-leader",
])
def test_a_settled_zyzzyva_state_commits_only_prefixes_of_its_base_log(monkeypatch, name):
    # why the rule is sound, checked with it off: at every state and every
    # draft where it holds, each choice's child and each delivery keep it,
    # and add no commit but prefixes of the final view's base log G, none
    # with a Byzantine leader; so nothing below it is violated
    rule, apply, deliver_head = ZyzzyvaKernel.settled, _Kernel.apply, _Kernel.deliver_head
    seen = {"settled": 0, "commits": 0}

    def check(kernel, before, after):
        lead = before.nodes[(before.view - 1) % kernel.qc.n]
        added = after.commits[len(before.commits):]
        assert rule(kernel, after) and not kernel.violated(after)
        assert all(lead is not None and log == lead.log[:len(log)] for *_, log in added)
        seen["settled"] += 1
        seen["commits"] += len(added)

    def holds(kernel, st):
        return rule(kernel, st) and not kernel.violated(st)  # a violation ends the search

    def checked_apply(self, st, choice):
        child = apply(self, st, choice)
        if holds(self, st):
            check(self, st, child)
        return child

    def checked_delivery(self, w):
        before = w.freeze() if holds(self, w) else None
        deliver_head(self, w)
        if before is not None:
            check(self, before, w)

    with monkeypatch.context() as m:
        m.setattr(ZyzzyvaKernel, "settled", _Kernel.settled)
        m.setattr(_Kernel, "apply", checked_apply)
        m.setattr(_Kernel, "deliver_head", checked_delivery)
        res = explore(SEARCHES[name]["config"])
    assert tuple(res.stats[k] for k in COUNTERS) == _UNSETTLED_COUNTERS[name]
    assert seen["settled"] and bool(seen["commits"]) == (name != "zyzzyva-2-view-byzantine-leader")


# the registry's counters, where they differ, when the network may also
# drop the Byzantine replica's view-changes
_DROPPING_COUNTERS = {
    "zyzzyva-2-view-exhaustion": (11142, 4026, 10, 2025, 10496),
    "zyzzyva-3-view-violation": (33324, 11419, 19, 6112, 41093),
}


@pytest.mark.parametrize("name", SEARCHES)
def test_keeping_the_byzantine_view_change_changes_statistics_not_outcomes(
        monkeypatch, searched, name):
    # a dropped Byzantine view-change leaves the slot's parent with the slot
    # used, whose subtree the parent's covers: more states, the same outcome
    cfg = SEARCHES[name]["config"]
    res, _ = searched(cfg)
    with monkeypatch.context() as m:
        m.setattr(ZyzzyvaKernel, "kept", ())
        dropping = explore(cfg)
    assert tuple(dropping.stats[k] for k in COUNTERS) == _DROPPING_COUNTERS.get(
        name, _counts(name, *COUNTERS))
    same = ("found", "budget_exhausted")
    assert [res.stats[k] for k in same] == [dropping.stats[k] for k in same]
    _assert_same_export(res, dropping)


@pytest.mark.parametrize("name", _DROPPING_COUNTERS)
def test_a_kept_message_is_the_one_send_of_its_slot(monkeypatch, name):
    # why the rule is sound, checked with it off: a slot is taken at an empty
    # pool, and one that sends a kept kind sends that message alone, which
    # is neither stored nor counted, so its drop child is the slot's parent
    # with the slot used, whose slot menu is part of the parent's
    kept, apply = ZyzzyvaKernel.kept, _Kernel.apply
    seen = []

    def checked(self, st, choice):
        child = apply(self, st, choice)
        if self.sim is None and any(  # the export takes no extra drop
                sent.src == self.byz and sent.msg.kind in kept for sent in child.pool):
            (sent,) = child.pool
            assert choice[0] == "slot" and not st.pool
            dropped = apply(self, child, ("drop",))
            assert dropped == st._replace(slots=child.slots)
            menu = self.slot_menu(st)
            assert all(c in menu for c in self.slot_menu(dropped))
            seen.append(sent.msg.kind)
        return child

    with monkeypatch.context() as m:
        m.setattr(ZyzzyvaKernel, "kept", ())
        m.setattr(_Kernel, "apply", checked)
        res = explore(SEARCHES[name]["config"])
    assert tuple(res.stats[k] for k in COUNTERS) == _DROPPING_COUNTERS[name]
    # every kept kind was checked
    assert set(seen) == set(kept)


def test_the_network_drops_every_fated_message_but_the_byzantine_view_change(monkeypatch):
    # over the 2-view exhaustion: a correct replica's view-change may still
    # be dropped, as may every fated message but the Byzantine replica's
    # view-change
    choices, heads = _Kernel.choices, set()

    def checked(self, st):
        out = choices(self, st)
        if st.pool and out:
            head = st.pool[0]
            byzantine = head.src == self.byz
            kept = byzantine and head.msg.kind == "view_change"
            assert out == ([("deliver",)] if kept else [("deliver",), ("drop",)])
            heads.add((head.msg.kind, byzantine))
        return out

    monkeypatch.setattr(_Kernel, "choices", checked)
    res = explore(ZYZZYVA_SMALL)
    assert {k: res.stats[k] for k in COUNTERS} == SEARCHES["zyzzyva-2-view-exhaustion"]["counters"]
    assert {("view_change", True), ("view_change", False)} <= heads


def test_every_state_the_rule_removes_is_a_kept_state_with_more_slots_used(monkeypatch):
    # over the whole 2-view space, with the rule and without it
    def space(cfg):
        kernel = _kernel_for(cfg)
        root = kernel.initial(None)
        seen = {root}
        assert _dfs(kernel, root, seen, {"states": 0, "deduped": 0, "max_depth": 0}, cfg) is None
        return kernel, seen

    kernel, kept = space(ZYZZYVA_SMALL)
    with monkeypatch.context() as m:
        m.setattr(ZyzzyvaKernel, "kept", ())
        _, dropping = space(ZYZZYVA_SMALL)
    assert kept < dropping
    assert (len(kept), len(dropping)) == (10138, 11143)  # the root, then each new state
    used = {}  # a kept state without its slots -> the slot sets it is kept with
    for st in kept:
        used.setdefault(st._replace(slots=()), []).append(set(st.slots))
    for st in dropping - kept:
        assert any(slots < set(st.slots) for slots in used.get(st._replace(slots=()), ()))
    # the 2-view space holds no violation, on either side
    assert not any(kernel.violated(st) for st in dropping)


def _with_noop_accepted(m):
    """Offer FaB5's `accepted` slot also when it sends nothing: its one
    recipient is the view's leader, none when the Byzantine replica leads."""
    offered = FabKernel.slot_choices

    def slot_choices(self, st):
        out = offered(self, st)
        if (self.cfg.protocol == FAB5 and leader_of(st.view, self.qc.n) == self.byz
                and st.view < self.cfg.max_views and ("accepted", st.view) not in st.slots):
            at = sum(action["kind"] == "propose" for _, action in out)  # proposals first
            out[at:at] = [("slot", {"kind": "accepted", "view": st.view, "value": v, "to": []})
                          for v in self.cfg.values]
        return out

    m.setattr(FabKernel, "slot_choices", slot_choices)


def test_a_choice_that_sends_nothing_changes_statistics_not_outcomes(monkeypatch, searched):
    # the no-op choice's child differs from its parent in its slots alone,
    # so its subtree repeats its sibling's: the same transitions, the same
    # outcome, twice the states
    cfg = FAB_SEARCHES["fab5-one-value"]
    kept, _ = searched(cfg)
    with monkeypatch.context() as m:
        _with_noop_accepted(m)
        noop = explore(cfg)
    assert tuple(kept.stats[k] for k in COUNTERS) == _counts("fab5-1-value-exhaustion", *COUNTERS)
    assert tuple(noop.stats[k] for k in COUNTERS) == (6847, 991, 9, 437, 2987)
    assert kept.counterexample is None and noop.counterexample is None
    assert not kept.stats["budget_exhausted"] and not noop.stats["budget_exhausted"]


_COMMITTED_MENUS = {ZyzzyvaKernel: ZyzzyvaKernel.slot_choices,
                    FabKernel: FabKernel.slot_choices}


def _noop_zyzzyva_menu(self, st):
    view, lead = st.view, leader_of(st.view, self.qc.n)
    out = [c for c in _COMMITTED_MENUS[ZyzzyvaKernel](self, st) if c[1]["kind"] != "view_change"]
    # view changes last
    if view >= 2 and ("view_change", view) not in st.slots and not self.started(st):
        stored = sorted(self.menu_artifacts(st), key=lambda c: c.canon())
        certs = [None, *({"view": c.view} for c in stored)]
        out += [("slot", {"kind": "view_change", "view": view, "log": log, "cert": cert,
                          "to": str(lead)}) for log in [[], *self.logs] for cert in certs]
    return out


def _noop_fab_menu(self, st):
    view, lead = st.view, leader_of(st.view, self.qc.n)
    out = _COMMITTED_MENUS[FabKernel](self, st)
    if view >= 2 and lead == self.byz and ("rep", view) not in st.slots:  # reps last
        out += [("slot", {"kind": "rep", "view": view, "last_accepted": v,
                          "commit_proof": None, "to": str(lead)})
                for v in [*self.cfg.values, None]]
    return out


_NOOP_MENUS = {ZyzzyvaKernel: _noop_zyzzyva_menu, FabKernel: _noop_fab_menu}


def _noop_act(self, w, action, key):
    at = (w.store, key)
    if at not in self._sends:
        named = named_artifacts(action, w.store)
        if (key, named) not in self._built:
            try:
                sends = self.routed(self.byz, adversary_sends(self.byz, action, named))
            except ArtifactError:
                sends = None
            self._built[key, named] = sends
        self._sends[at] = self._built[key, named]
    if self._sends[at] is not None:
        self.export("adversary", actor=self.byz.index, action=action)
        self.route(w, self._sends[at])


def _with_noop_menus(m):
    """The menus and `act` as they were before every choice had to send
    something: a `view_change` or `rep` also went to a Byzantine leader,
    which stores it at once, and a view-change cited each stored commit
    certificate by its view, also one that shares its view with another,
    which does not resolve; `act` kept such an action as sending nothing,
    not exported. A view-change is still offered only until a correct
    leader has started its view; `_with_late_menus` restores that cut."""
    for cls, menu in _NOOP_MENUS.items():
        m.setattr(cls, "slot_choices", menu)
    m.setattr(_Kernel, "act", _noop_act)


_PFAB_THREE_VIEWS = replace(PFAB_SMALL, max_views=3)
_FAB5_ONE_VALUE = FAB_SEARCHES["fab5-one-value"]


def _placed(cfg, i):
    return replace(cfg, byzantine=(i,))


# every Byzantine placement: (states, deduped) with every choice sending
# something, then with the no-op menus. Only a Byzantine leader of a later,
# unsettled view, or two stored certificates of one view, move the counters;
# with r2 or r3 Byzantine a no-op view-change is a new state, since the drop
# of a sent one, which it equals, is not offered. PFaB's three-view search
# with r0 Byzantine is left out: it does not settle within its 2M-state
# budget.
_ZYZZYVA_R0, _ZYZZYVA_R1, _PFAB_R0, _FAB5_R0 = (_counts(name, "states", "deduped") for name in (
    "zyzzyva-2-view-exhaustion", "zyzzyva-2-view-byzantine-leader", "pfab-stuck",
    "fab5-1-value-exhaustion"))
_PLACEMENTS = {
    "zyzzyva-two-views-r0": (ZYZZYVA_SMALL, _ZYZZYVA_R0, _ZYZZYVA_R0),
    "zyzzyva-two-views-r1": (_placed(ZYZZYVA_SMALL, 1), _ZYZZYVA_R1, _ZYZZYVA_R1),
    "zyzzyva-two-views-r2": (_placed(ZYZZYVA_SMALL, 2), (6679, 1167), (7132, 3432)),
    "zyzzyva-two-views-r3": (_placed(ZYZZYVA_SMALL, 3), (6679, 1167), (7132, 3432)),
    "pfab-two-views-r0": (PFAB_SMALL, _PFAB_R0, _PFAB_R0),
    "pfab-two-views-r1": (_placed(PFAB_SMALL, 1), (33, 14), (33, 14)),
    "pfab-two-views-r2": (_placed(PFAB_SMALL, 2), (114, 32), (114, 32)),
    "pfab-two-views-r3": (_placed(PFAB_SMALL, 3), (114, 32), (114, 32)),
    "pfab-three-views-r1": (_placed(_PFAB_THREE_VIEWS, 1), (375, 110), (1410, 542)),
    "pfab-three-views-r2": (_placed(_PFAB_THREE_VIEWS, 2), (80067, 40886), (80067, 40886)),
    "pfab-three-views-r3": (_placed(_PFAB_THREE_VIEWS, 3), (119514, 49652), (119514, 49652)),
    "fab5-one-value-r0": (_FAB5_ONE_VALUE, _FAB5_R0, _FAB5_R0),
    "fab5-one-value-r1": (_placed(_FAB5_ONE_VALUE, 1), (3, 0), (3, 0)),
    **{f"fab5-one-value-r{i}": (_placed(_FAB5_ONE_VALUE, i), (213, 30), (213, 30))
       for i in range(2, 6)},
}


@pytest.mark.parametrize("name", _PLACEMENTS)
def test_every_adversary_choice_sends_to_a_correct_replica(monkeypatch, searched, name):
    cfg, counts, noop_counts = _PLACEMENTS[name]
    if counts == noop_counts:
        # the no-op menus offer nothing more here: checked at every state
        # that reaches the menu, in one search rather than a second one
        slot_menu, kernels = _Kernel.slot_menu, set()

        def checked(self, st):
            assert _NOOP_MENUS[type(self)](self, st) == self.slot_choices(st)
            kernels.add(self)
            return slot_menu(self, st)

        with monkeypatch.context() as m:
            m.setattr(_Kernel, "slot_menu", checked)
            res = explore(cfg)
        (kernel,) = kernels
    else:
        res, kernel = searched(cfg)
    assert not res.stats["budget_exhausted"]
    assert (res.stats["states"], res.stats["deduped"]) == counts
    assert kernel._sends
    for sends in kernel._sends.values():
        assert type(sends) is tuple and sends
        assert all(sent.dst != kernel.byz for sent, _ in sends)
    if counts == noop_counts:
        return
    # the no-op choices change statistics, not outcomes: a no-op child
    # repeats its parent's subtree, with the same transitions
    with monkeypatch.context() as m:
        _with_noop_menus(m)
        noop = explore(cfg)
    assert (noop.stats["states"], noop.stats["deduped"]) == noop_counts
    same = ("found", "budget_exhausted", "transitions")
    assert [res.stats[k] for k in same] == [noop.stats[k] for k in same]
    _assert_same_export(res, noop)


def _late_zyzzyva_menu(self, st):
    view, lead = st.view, leader_of(st.view, self.qc.n)
    out = []
    if lead == self.byz and ("order_req", view) not in st.slots:
        out += [{"kind": "order_req", "view": view, "sends": s}
                for s in self.per_replica_sends("log", self.logs)]
    if view >= 2 and lead != self.byz and ("view_change", view) not in st.slots:
        views = [c.view for c in sorted(self.menu_artifacts(st), key=lambda c: c.canon())]
        certs = [None, *({"view": v} for v in views if views.count(v) == 1)]
        out += [{"kind": "view_change", "view": view, "log": log, "cert": cert, "to": str(lead)}
                for log in [[], *self.logs] for cert in certs]
    return [("slot", action) for action in out]


def _late_fab_menu(self, st):
    view, lead = st.view, leader_of(st.view, self.qc.n)
    out = []
    if lead == self.byz and ("propose", view) not in st.slots:
        out += [{"kind": "propose", "view": view, "sends": s}
                for s in self.per_replica_sends("value", self.cfg.values)]
    if ("accepted", view) not in st.slots and view < self.cfg.max_views:
        dsts = [lead] if self.cfg.protocol == FAB5 else self.correct
        to = [str(d) for d in dsts if d != self.byz]
        if to:
            out += [{"kind": "accepted", "view": view, "value": v, "to": to}
                    for v in self.cfg.values]
    if view >= 2 and lead != self.byz and ("rep", view) not in st.slots:
        out += [{"kind": "rep", "view": view, "last_accepted": v, "commit_proof": None,
                 "to": str(lead)} for v in [*self.cfg.values, None]]
    return [("slot", action) for action in out]


def _with_late_menus(m):
    """The menus as they were before a choice had to be one that some
    correct recipient can accept: a `view_change` or `rep` was offered also
    after the view's correct leader had started its view, and a Byzantine
    leader's `order_req` or `propose` in every view it leads, not in view 1
    alone."""
    m.setattr(ZyzzyvaKernel, "slot_choices", _late_zyzzyva_menu)
    m.setattr(FabKernel, "slot_choices", _late_fab_menu)


# the registry's counters under the late menus, where they differ: in the
# 2-view searches every state the late menus would add is a settled leaf
_LATE_COUNTERS = {"zyzzyva-3-view-violation": (28724, 557, 19, 6208, 35384)}


@pytest.mark.parametrize("name", SEARCHES)
def test_a_choice_every_correct_replica_rejects_changes_statistics_not_outcomes(
        monkeypatch, searched, name):
    # a rejected choice's child repeats its parent's subtree, so the late
    # menus search more states with the same outcome and export
    res, _ = searched(SEARCHES[name]["config"])
    with monkeypatch.context() as m:
        _with_late_menus(m)
        late = explore(SEARCHES[name]["config"])
    assert tuple(late.stats[k] for k in COUNTERS) == _LATE_COUNTERS.get(
        name, _counts(name, *COUNTERS))
    same = ("found", "budget_exhausted")
    assert [res.stats[k] for k in same] == [late.stats[k] for k in same]
    _assert_same_export(res, late)


_LATE_KINDS = {  # searches where the late menus offer each removed kind, by test id
    "zyzzyva-three-views-r0": (ZYZZYVA_THREE_VIEWS, "view_change"),
    "zyzzyva-three-views-r1": (_placed(ZYZZYVA_THREE_VIEWS, 1), "order_req"),
    "pfab-three-views-r1": (_placed(_PFAB_THREE_VIEWS, 1), "propose"),
    "fab5-three-views-r2": (_placed(replace(_FAB5_ONE_VALUE, max_views=3), 2), "rep"),
}


@pytest.mark.parametrize("name", _LATE_KINDS)
def test_every_removed_choice_is_rejected_by_every_correct_recipient(monkeypatch, name):
    # at every state where the late menus offer a choice the current ones do
    # not: a view-change or REP comes back from its leader unchanged with
    # nothing sent, and a later view's order or proposal, eager, leaves the
    # child its parent with the slot used
    cfg, kind = _LATE_KINDS[name]
    slot_menu, removed = _Kernel.slot_menu, []

    def checked(self, st):
        offered = _COMMITTED_MENUS[type(self)](self, st)
        late = self.slot_choices(st)
        assert [c for c in late if c in offered] == offered
        for _, action in (c for c in late if c not in offered):
            removed.append(action["kind"])
            if action["kind"] in ("view_change", "rep"):
                (lead, msg), = adversary_sends(self.byz, action,
                                               named_artifacts(action, st.store))
                assert lead == leader_of(st.view, self.qc.n)
                node = st.nodes[lead.index]
                ns, sends, _ = self.proto.step(node, msg)
                assert ns is node and sends == ()
            else:
                child = self.apply(st, ("slot", action, json.dumps(action, sort_keys=True)))
                slots = tuple(sorted(st.slots + ((action["kind"], st.view),)))
                assert child == st._replace(slots=slots)
        return slot_menu(self, st)

    with monkeypatch.context() as m:
        _with_late_menus(m)
        m.setattr(_Kernel, "slot_menu", checked)
        assert not explore(cfg).stats["budget_exhausted"]
    assert removed and set(removed) == {kind}


@pytest.mark.parametrize("name", SEARCHES)
def test_every_cached_slot_menu_is_what_a_fresh_call_computes(monkeypatch, name):
    # on every state that reaches the menu: a key that left out something
    # slot_choices reads, such as whether the leader has started its view,
    # would serve one state's menu to another
    slot_menu, states = _Kernel.slot_menu, []

    def checked(self, st):
        menu = slot_menu(self, st)
        assert menu == [(kind, action, json.dumps(action, sort_keys=True))
                        for kind, action in self.slot_choices(st)]
        states.append(st)
        return menu

    monkeypatch.setattr(_Kernel, "slot_menu", checked)
    cfg = SEARCHES[name]["config"]
    res = explore(cfg)
    assert {k: res.stats[k] for k in COUNTERS} == SEARCHES[name]["counters"]
    # r1 leads view 2; a final view that the Byzantine replica leads is
    # settled as it begins, so no state after view 1 reaches the menu
    byzantine_last = cfg.max_views == 2 and cfg.byzantine == (1,)
    assert any(st.view > 1 for st in states) != byzantine_last


def test_exploration_is_deterministic():
    # the second search in the process starts from its own empty intern table
    a, b = explore(PFAB_SMALL), explore(PFAB_SMALL)
    a.stats.pop("elapsed"), b.stats.pop("elapsed")
    assert a.stats == b.stats
    assert tuple(a.stats[k] for k in COUNTERS) == _counts("pfab-stuck", *COUNTERS)
    assert a.counterexample.scenario.to_json() == b.counterexample.scenario.to_json()


def test_each_choice_builds_one_state(monkeypatch):
    # a choice writes into one draft and freezes it once: no intermediate
    # KState per sent message, node update or pool change
    calls = {"KState": 0, "apply": 0, "initial": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    # a named tuple is built by its __new__; a class attribute replaces it
    monkeypatch.setattr(KState, "__new__", counted("KState", KState.__new__))
    monkeypatch.setattr(_Kernel, "apply", counted("apply", _Kernel.apply))
    monkeypatch.setattr(FabKernel, "initial", counted("initial", FabKernel.initial))
    assert explore(PFAB_SMALL).stats["found"]
    states, deduped = _counts("pfab-stuck", "states", "deduped")
    # the search and the export of its 16-choice run
    assert (calls["apply"], calls["initial"]) == (states + deduped + 16, 2)
    assert calls["KState"] == calls["apply"] + calls["initial"]


def test_explore_leaves_the_recursion_limit_alone():
    before = sys.getrecursionlimit()
    explore(replace(PFAB_SMALL, max_states=200))
    assert sys.getrecursionlimit() == before


def _messages_in_flight(kernel, depth):
    """Every pooled message of the states within `depth` choices of the root."""
    frontier, msgs = [kernel.initial(None)], []
    for _ in range(depth):
        frontier = [kernel.apply(s, c) for s in frontier for c in kernel.choices(s)]
        msgs.extend(k.msg for s in frontier for k in s.pool)
    return msgs


def test_one_search_shares_one_instance_per_sent_value():
    msgs = _messages_in_flight(_kernel_for(PFAB_SMALL), 3)
    assert len({id(m) for m in msgs}) == len(set(msgs))
    # without interning or the transition table, paths that send equal
    # messages hold separate copies
    plain = _kernel_for(PFAB_SMALL)
    plain.intern = lambda obj: obj
    plain.transition = partial(_direct_transition, plain)
    copies = _messages_in_flight(plain, 3)
    assert set(copies) == set(msgs)
    assert len({id(m) for m in copies}) > len(set(copies))


def test_intern_table_belongs_to_its_kernel():
    first, second = _kernel_for(PFAB_SMALL), _kernel_for(PFAB_SMALL)
    value = first.initial(None).nodes[1]
    copy = replace(value)
    assert first.intern(value) is value and first.intern(copy) is value
    assert second.intern(copy) is copy


def test_budget_exhaustion_reports_no_counterexample():
    # a deduped child costs a transition and a hash too: the budget counts it
    for cfg, budget in [(PFAB_SMALL, 50), (ZYZZYVA_SMALL, 1500)]:
        res = explore(replace(cfg, max_states=budget))
        assert res.counterexample is None and res.stats["budget_exhausted"]
        assert res.stats["states"] + res.stats["deduped"] <= budget + 1


def _direct_transition(kernel, src, hook, state, *args):
    """A kernel's transition without its table: the hook runs and its sends
    are routed on every call."""
    ns, sends, _ = hook(state, *args)
    return ns, kernel.routed(src, sends)


def _pruned_store_add(kernel, w, msg):
    """The store update without the artifact table: msg's artifact walk,
    pruned at every artifact the store already holds, on every call."""
    new = artifacts(msg, w.store)
    if new:
        w.store = w.store.union(new)


def _uncached(cfg, monkeypatch):
    """explore(cfg) with neither the transition table nor the artifact table."""
    with monkeypatch.context() as m:
        m.setattr(_Kernel, "transition", _direct_transition)
        m.setattr(_Kernel, "_store_add", _pruned_store_add)
        return explore(cfg)


@pytest.mark.parametrize("name", [
    "pfab-stuck", "zyzzyva-2-view-exhaustion", "zyzzyva-3-view-violation",
], ids=["pfab-stuck", "zyzzyva-two-views", "zyzzyva-three-views"])
def test_transition_table_changes_work_not_outcomes(monkeypatch, searched, name):
    # the committed side's counters and export are the registry test's
    cfg = SEARCHES[name]["config"]
    (cached, _), direct = searched(cfg), _uncached(cfg, monkeypatch)
    outcome = ("states", "deduped", "max_depth", "budget_exhausted", "found")
    assert [cached.stats[k] for k in outcome] == [direct.stats[k] for k in outcome]
    assert cached.stats["transitions_reused"] > cached.stats["transitions"]
    assert direct.stats["transitions"] == direct.stats["transitions_reused"] == 0
    _assert_same_export(cached, direct)


@pytest.mark.parametrize("cfg, transitions", [
    (PFAB_SMALL, (*_counts("pfab-stuck", "transitions"), 2379)),
    (FAB_SEARCHES["pfab-one-value"], (*_counts("pfab-1-value-exhaustion", "transitions"), 3085)),
    (FAB_SEARCHES["fab5-one-value"], (*_counts("fab5-1-value-exhaustion", "transitions"), 2165)),
    (replace(PFAB_SMALL, dedup=False), (465, 2379)),
    # the view-2 leader is Byzantine: its replicas' REPs go to its store,
    # so a settled state has no eager delivery left to skip
    (replace(PFAB_SMALL, byzantine=(1,)), (15, 15)),
    # a final-view state is settled once its leader adopts its own NEW-VIEW:
    # the other replicas' NEW-VIEWs and spec responses are left untaken
    (ZYZZYVA_SMALL, (*_counts("zyzzyva-2-view-exhaustion", "transitions"), 4657)),
], ids=["pfab-stuck", "pfab-one-value", "fab5-one-value", "pfab-stuck-no-dedup",
        "pfab-byzantine-view-2-leader", "zyzzyva-two-views"])
def test_leaf_rule_changes_work_not_outcomes(monkeypatch, searched, cascading_normalize,
                                            cfg, transitions):
    leaf, _ = searched(cfg)
    with monkeypatch.context() as m:
        m.setattr(_Kernel, "normalize", cascading_normalize)
        full = explore(cfg)
    outcome = ("states", "deduped", "max_depth", "found", "budget_exhausted")
    assert [leaf.stats[k] for k in outcome] == [full.stats[k] for k in outcome]
    assert (leaf.stats["transitions"], full.stats["transitions"]) == transitions
    _assert_same_export(leaf, full)


@pytest.mark.parametrize("cfg", [PFAB_SMALL, ZYZZYVA_SMALL], ids=["pfab", "zyzzyva"])
def test_cached_results_are_what_a_fresh_call_computes(cfg):
    kernel = _kernel_for(cfg)
    root = kernel.initial(None)
    stats = {"states": 0, "deduped": 0, "max_depth": 0}
    with pytest.raises(_Budget):
        _dfs(kernel, root, {root}, stats, replace(cfg, max_states=1500))
    assert kernel._transitions and kernel._sends
    groups = set()

    def assert_routed(routed, src, fresh):
        # each routed send is the fresh (destination, message) from src with
        # the message's decision group
        assert [(k.src, k.dst, k.msg) for k, _ in routed] == [(src, d, m) for d, m in fresh]
        assert [g for _, g in routed] == [kernel.proto.decision_group(m, kernel.qc)
                                          for _, m in fresh]
        groups.update(g for _, g in routed)

    for (hook, node, *args), (ns, sends) in kernel._transitions.items():
        fresh_ns, fresh_sends, _ = hook(node, *args)
        assert ns == fresh_ns
        assert_routed(sends, getattr(node, "cid", None) or node.rid, fresh_sends)
    for (store, action), sends in kernel._sends.items():
        assert_routed(sends, kernel.byz, adversary_sends(kernel.byz, json.loads(action), store))
    # the tables hold messages that count toward a decision
    assert groups - {None}
    # each distinct message's decision group is what a fresh call computes
    assert kernel._groups
    for msg, decides in kernel._groups.items():
        assert decides == kernel.proto.decision_group(msg, kernel.qc)
    # so are each message's artifacts and each tally of a sent message
    assert kernel._artifacts and kernel._tallies
    for msg, learned in kernel._artifacts.items():
        assert learned == tuple(artifacts(msg))
    for (marks, msg), counted in kernel._tallies.items():
        group, _, quorum = kernel.proto.decision_group(msg, kernel.qc)
        assert counted == tally(marks, group, msg.replica, quorum)
    # an action's sends, built from the artifacts it names, are what a fresh
    # call computes from them; each store's entry is its named artifacts' one
    assert kernel._built
    for (action, named), sends in kernel._built.items():
        assert_routed(sends, kernel.byz, adversary_sends(kernel.byz, json.loads(action), named))
    for (store, action), sends in kernel._sends.items():
        assert sends is kernel._built[action, named_artifacts(json.loads(action), store)]
    # each slot menu is slot_choices of a state with its key, each choice
    # carrying its action's JSON
    assert kernel._menus
    for (view, slots, stored, started), menu in kernel._menus.items():
        kernel.started = lambda st, started=started: started  # what the key's nodes give
        fresh = kernel.slot_choices(KState((), view=view, slots=slots, store=stored))
        assert [choice[:2] for choice in menu] == fresh
        assert [key for _, action, key in menu] == [
            json.dumps(action, sort_keys=True) for _, action in fresh]
    del kernel.started
    # each planned echo (Zyzzyva's alone) is its response's action, and its JSON
    echoes = getattr(kernel, "_echoes", {})
    assert bool(echoes) == (cfg.protocol == "zyzzyva")
    for sent, (action, key) in echoes.items():
        msg = sent.msg
        assert action == {"kind": msg.kind, "view": msg.view, "log": log_ops(msg.log),
                          "to": str(sent.dst)}
        assert key == json.dumps(action, sort_keys=True)
    # each derived result (Zyzzyva's alone) is what a fresh call, made
    # outside any table, computes
    assert derivations.get() is None
    assert bool(kernel._derived) == (cfg.protocol == "zyzzyva")
    for (fn, *args), out in kernel._derived.items():
        assert out == fn(*args)


def _derived_responses(kernel):
    """The (args, result) pairs of kernel's table for zyzzyva._responses
    that sent something."""
    return [(key[1:], out) for key, out in kernel._derived.items()
            if key[0] is zyzzyva._responses.__wrapped__ and out]


def test_derivation_tables_are_installed_only_while_a_kernel_computes():
    # however explore ends, it leaves no table installed
    for cfg, ends in [(PFAB_SMALL, "found"),
                      (replace(ZYZZYVA_SMALL, requests=("a",)), "exhausted"),
                      (replace(ZYZZYVA_SMALL, max_states=300), "budget_exhausted")]:
        res = explore(cfg)
        assert (res.stats["found"], res.stats["budget_exhausted"]) == (
            ends == "found", ends == "budget_exhausted")
        assert derivations.get() is None
    # nor does a hook that raises
    kernel = _kernel_for(ZYZZYVA_SMALL)

    def failing(state):
        assert derivations.get() is kernel._derived
        raise RuntimeError(state)

    with pytest.raises(RuntimeError):
        kernel.transition(kernel.byz, failing, None)
    assert derivations.get() is None
    # two kernels share no entries: each search derives and signs its own
    first, second = _kernel_for(ZYZZYVA_SMALL), _kernel_for(ZYZZYVA_SMALL)
    for k in (first, second):
        root = k.initial(None)
        with pytest.raises(_Budget):
            _dfs(k, root, {root}, {"states": 0, "deduped": 0, "max_depth": 0},
                 replace(ZYZZYVA_SMALL, max_states=1500))
    assert first._derived is not second._derived
    ours, theirs = dict(_derived_responses(first)), dict(_derived_responses(second))
    assert ours and ours.keys() == theirs.keys()
    for args, out in ours.items():
        assert out == theirs[args] and out[0][1] is not theirs[args][0][1]
    # outside a search, a derived function computes on every call
    args, out = next(iter(ours.items()))
    again, more = zyzzyva._responses(*args), zyzzyva._responses(*args)
    assert again == more == out
    assert again[0][1] is not more[0][1] and again[0][1] is not out[0][1]
