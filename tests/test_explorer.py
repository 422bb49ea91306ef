import json
import sys
from functools import partial
from typing import NamedTuple

import pytest
from dataclasses import replace

from bftlab import explorer
from bftlab.checkers import any_violation, run_checkers
from bftlab.core import FAB5, leader_of, log_ops, tally
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
from conftest import GOLDEN, OBSERVERS, SEARCHES, VISITED, cascading_normalize

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


def _five(res):
    """An explore result's five counters, in COUNTERS order."""
    return tuple(res.stats[k] for k in COUNTERS)


def _placed(cfg, i):
    return replace(cfg, byzantine=(i,))


_PFAB_THREE_VIEWS = replace(PFAB_SMALL, max_views=3)
_FAB5_ONE_VALUE = FAB_SEARCHES["fab5-one-value"]
# the Byzantine placements that the registry does not hold, each with its
# five counters: of the Zyzzyva 2-view exhaustion, of PFaB stuck at two and
# three views and of FaB5 1-value. PFaB's three-view search with r0
# Byzantine is left out: it does not settle within its 2M-state budget.
_PLACED = {
    "zyzzyva-two-views-r2": (_placed(ZYZZYVA_SMALL, 2), (4045, 267, 13, 273, 2777)),
    "zyzzyva-two-views-r3": (_placed(ZYZZYVA_SMALL, 3), (4045, 267, 13, 273, 2777)),
    "pfab-two-views-r1": (_placed(PFAB_SMALL, 1), (33, 14, 5, 15, 50)),
    "pfab-two-views-r2": (_placed(PFAB_SMALL, 2), (114, 32, 9, 28, 90)),
    "pfab-two-views-r3": (_placed(PFAB_SMALL, 3), (114, 32, 9, 28, 90)),
    "pfab-three-views-r1": (_placed(_PFAB_THREE_VIEWS, 1), (375, 110, 14, 43, 376)),
    "pfab-three-views-r2": (_placed(_PFAB_THREE_VIEWS, 2), (80067, 40886, 20, 1490, 251690)),
    "pfab-three-views-r3": (_placed(_PFAB_THREE_VIEWS, 3), (119514, 49652, 24, 2071, 308088)),
    "fab5-one-value-r1": (_placed(_FAB5_ONE_VALUE, 1), (3, 0, 2, 6, 5)),
    **{f"fab5-one-value-r{i}": (_placed(_FAB5_ONE_VALUE, i), (213, 30, 8, 52, 51))
       for i in range(2, 6)},
}
# every search the tests below name: its config and its five counters
_SEARCHES = {
    **{name: (s["config"], _counts(name, *COUNTERS)) for name, s in SEARCHES.items()},
    **_PLACED,
    "pfab-stuck-no-dedup": (replace(PFAB_SMALL, dedup=False), (39138, 0, 16, 465, 19342)),
}


@pytest.mark.parametrize("name", SEARCHES)
def test_committed_search(searched, name):
    """Each committed search (searches.json) ends in its outcome with its
    counters; a found one exports its golden scenario byte for byte, whose
    replay gives its verdict. CI runs this under each hash seed: stores,
    sent marks and the kernel's table keys are frozensets, and PFaB stuck
    stops at its first hit, so its counters depend on the order it visits
    states in. Zyzzyva's 3-view search runs the most view changes. With r1
    Byzantine, r1 leads view 2, where no slot is offered: a view-change
    would go to r1, and no correct replica takes an order without a
    NEW-VIEW; that also makes the f=2 search, with 4^6 - 1 orders per
    view-2 state, small enough to exhaust. FaB5
    never gets stuck: its settled leaves take no eager deliveries, and no
    `accepted` slot is offered while the Byzantine replica, its one
    recipient, leads."""
    want = SEARCHES[name]
    res = searched(want["config"]).result
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


# --- the search reductions, each switched off -----------------------------------

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


_COMMITTED_MENUS = {ZyzzyvaKernel: ZyzzyvaKernel.slot_choices,
                    FabKernel: FabKernel.slot_choices}
_COMMITTED_FAB_INIT = FabKernel.__init__


def _fated_prepares(self, cfg):
    """FabKernel's __init__ with prepares fated in every view, FaB5's too."""
    _COMMITTED_FAB_INIT(self, cfg)
    self.eager = ("propose", "commit_proof_msg")


def _noop_accepted_menu(self, view, slots, started, stored):
    """FaB's menu with FaB5's `accepted` slot also when it sends nothing: its
    one recipient is the view's leader, none when the Byzantine replica leads."""
    out = _COMMITTED_MENUS[FabKernel](self, view, slots, started, stored)
    if (self.cfg.protocol == FAB5 and leader_of(view, self.qc.n) == self.byz
            and view < self.cfg.max_views and ("accepted", view) not in slots):
        at = sum(action["kind"] == "propose" for action in out)  # proposals first
        out[at:at] = [{"kind": "accepted", "view": view, "value": v, "to": []}
                      for v in self.cfg.values]
    return out


def _noop_zyzzyva_menu(self, view, slots, started, stored):
    lead = leader_of(view, self.qc.n)
    out = [a for a in _COMMITTED_MENUS[ZyzzyvaKernel](self, view, slots, started, stored)
           if a["kind"] != "view_change"]
    # view changes last
    if view >= 2 and ("view_change", view) not in slots and not started:
        certs = [None, *({"view": c.view} for c in sorted(stored, key=lambda c: c.canon()))]
        out += [{"kind": "view_change", "view": view, "log": log, "cert": cert, "to": str(lead)}
                for log in [[], *self.logs] for cert in certs]
    return out


def _noop_fab_menu(self, view, slots, started, stored):
    lead = leader_of(view, self.qc.n)
    out = _COMMITTED_MENUS[FabKernel](self, view, slots, started, stored)
    if view >= 2 and lead == self.byz and ("rep", view) not in slots:  # reps last
        out += [{"kind": "rep", "view": view, "last_accepted": v, "commit_proof": None,
                 "to": str(lead)} for v in [*self.cfg.values, None]]
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


def _late_zyzzyva_menu(self, view, slots, started, stored):
    lead = leader_of(view, self.qc.n)
    out = []
    if lead == self.byz and ("order_req", view) not in slots:
        out += [{"kind": "order_req", "view": view, "sends": s}
                for s in self.per_replica_sends("log", self.logs)]
    if view >= 2 and lead != self.byz and ("view_change", view) not in slots:
        views = [c.view for c in sorted(stored, key=lambda c: c.canon())]
        certs = [None, *({"view": v} for v in views if views.count(v) == 1)]
        out += [{"kind": "view_change", "view": view, "log": log, "cert": cert, "to": str(lead)}
                for log in [[], *self.logs] for cert in certs]
    return out


def _late_fab_menu(self, view, slots, started, stored):
    lead = leader_of(view, self.qc.n)
    out = []
    if lead == self.byz and ("propose", view) not in slots:
        out += [{"kind": "propose", "view": view, "sends": s}
                for s in self.per_replica_sends("value", self.cfg.values)]
    if ("accepted", view) not in slots and view < self.cfg.max_views:
        dsts = [lead] if self.cfg.protocol == FAB5 else self.correct
        to = [str(d) for d in dsts if d != self.byz]
        if to:
            out += [{"kind": "accepted", "view": view, "value": v, "to": to}
                    for v in self.cfg.values]
    if view >= 2 and lead != self.byz and ("rep", view) not in slots:
        out += [{"kind": "rep", "view": view, "last_accepted": v, "commit_proof": None,
                 "to": str(lead)} for v in [*self.cfg.values, None]]
    return out


def _settled_case(kernel, st):
    """The case of Zyzzyva's leaf rule that st's final view is in, and its
    leader's state: the leader is Byzantine, or is correct and has not sent
    its NEW-VIEW ("quorum"), has sent it ("sent") or has adopted it."""
    lead = st.nodes[(st.view - 1) % kernel.qc.n]
    if lead is None:
        return "byzantine", lead
    if st.view not in lead.nv_done:
        return "quorum", lead
    return ("sent" if lead.awaiting_new_view else "adopted"), lead


def _settled_commits_prefixes(m, saw):
    """Why Zyzzyva's leaf rule is sound, checked with it off: at every state
    and every draft where it holds, each choice's child and each delivery
    keep it and add no violation. A view led by the Byzantine replica, or by
    a correct one short of a view-change quorum, stays unstarted and gets no
    commit. Once the leader has sent its NEW-VIEW, the one it sent itself is
    in flight until it adopts it, nothing commits before it does, and every
    commit added is a prefix of the base log G. Records each case checked,
    and "commit" once a step adds a commit."""
    rule, apply, deliver_head = ZyzzyvaKernel.settled, _Kernel.apply, _Kernel.deliver_head

    def check(kernel, before, after):
        case, lead = _settled_case(kernel, before)
        added = after.commits[len(before.commits):]
        assert rule(kernel, after) and not kernel.violated(after)
        if case in ("byzantine", "quorum"):
            assert _settled_case(kernel, after)[0] == case and not added
        elif case == "sent":
            (g,) = [s.msg.log for s in before.pool
                    if s.src == s.dst == lead.rid and s.msg.kind == "new_view"]
            assert _settled_case(kernel, after)[0] == "adopted" or not added
        else:
            g = lead.log
        assert all(log == g[:len(log)] for *_, log in added)
        saw.update({case, "commit"} if added else {case})

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

    m.setattr(_Kernel, "apply", checked_apply)
    m.setattr(_Kernel, "deliver_head", checked_delivery)


def _kept_send_is_alone(m, saw):
    """Why a kept kind is never dropped, checked with the rule off: a slot
    is taken at an empty pool, and one that sends a kept kind sends that
    message alone, which is neither stored nor counted, so its drop child
    is the slot's parent with the slot used, whose slot menu is part of the
    parent's. Records each kept kind checked."""
    kept, apply = ZyzzyvaKernel.kept, _Kernel.apply

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
            saw.add(sent.msg.kind)
        return child

    m.setattr(_Kernel, "apply", checked)


def _removed_choices_are_rejected(m, saw):
    """At every state where the late menus offer a choice the current ones
    do not: a view-change or REP comes back from its leader unchanged with
    nothing sent, and a later view's order or proposal, eager, leaves the
    child its parent with the slot used. Records each removed kind."""
    slot_menu = _Kernel.slot_menu

    def checked(self, st):
        at = (st.view, st.slots, self.started(st), self.menu_artifacts(st))
        offered = _COMMITTED_MENUS[type(self)](self, *at)
        late = self.slot_choices(*at)
        assert [a for a in late if a in offered] == offered
        for action in (a for a in late if a not in offered):
            saw.add(action["kind"])
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

    m.setattr(_Kernel, "slot_menu", checked)


class Reduction(NamedTuple):
    """A search reduction switched off, and the counters each search it is
    tested on gives then."""
    off: dict  # search name -> its five counters with the reduction off
    config: dict = {}  # the ExploreConfig fields that switch it off
    patch: tuple = ()  # or these (kernel class, attribute, value) patches
    check: object = None  # check(m, saw): its soundness check, in the same search


# Every search reduction, tested both ways: switched off, each search it
# lists gives the same found, budget_exhausted, export and trace, and the
# counters pinned here. A patch of one kernel class lists only that
# kernel's searches.
REDUCTIONS = {
    # visited states are deduplicated structurally
    "dedup": Reduction(config={"dedup": False}, off={
        "pfab-stuck": _SEARCHES["pfab-stuck-no-dedup"][1],
        "zyzzyva-2-view-exhaustion": (7329, 0, 10, 1091, 4202),
        "fab5-1-value-exhaustion": (3903, 0, 8, 437, 1275),
    }),
    # each transition and each message's artifact list is computed once per
    # search; without the tables every hook runs, and its sends are routed,
    # on every call, and each delivery walks its message's artifacts afresh
    "tables": Reduction(patch=((_Kernel, "transition", _direct_transition),
                               (_Kernel, "_store_add", _pruned_store_add)), off={
        "pfab-stuck": (4372, 1502, 16, 0, 0),
        "zyzzyva-2-view-exhaustion": (6965, 28, 10, 0, 0),
        "zyzzyva-3-view-violation": (19697, 65, 19, 0, 0),
    }),
    # a settled state is frozen without its pending eager deliveries: the same
    # states, fewer transitions
    "normalize": Reduction(patch=((_Kernel, "normalize", cascading_normalize),), off={
        "pfab-stuck": (4372, 1502, 16, 2379, 17491),
        "pfab-1-value-exhaustion": (6622, 2365, 16, 3085, 27111),
        "fab5-1-value-exhaustion": (3423, 480, 8, 2165, 2427),
        "pfab-stuck-no-dedup": (39138, 0, 16, 2379, 177763),
        # the view-2 leader is Byzantine: its replicas' REPs go to its store,
        # so a settled state has no eager delivery left to skip
        "pfab-two-views-r1": _SEARCHES["pfab-two-views-r1"][1],
        # settled once its leader has sent its NEW-VIEW: the NEW-VIEWs, its
        # own among them, and the spec responses are left untaken
        "zyzzyva-2-view-exhaustion": (6965, 28, 10, 4496, 19120),
    }),
    # FaB's final view settles once its leader has evaluated its certificate;
    # off, no state settles and prepares are fated there too
    "fab-leaf": Reduction(patch=((FabKernel, "settled", _Kernel.settled),
                                 (FabKernel, "__init__", _fated_prepares)), off={
        "pfab-stuck": (77326, 1502, 22, 3708, 167860),
        "fab5-1-value-exhaustion": (4575, 1632, 12, 2165, 2427),
        # the view-2 leader is Byzantine: settled as soon as view 2 begins
        "pfab-two-views-r1": _SEARCHES["pfab-two-views-r1"][1],
    }),
    # Zyzzyva's final view settles once its base log agrees with every commit
    "zyzzyva-leaf": Reduction(patch=((ZyzzyvaKernel, "settled", _Kernel.settled),),
                              check=_settled_commits_prefixes, off={
        "zyzzyva-2-view-exhaustion": (12775, 1154, 14, 4953, 30346),
        "zyzzyva-3-view-violation": (28744, 408, 19, 6670, 82835),
        "zyzzyva-2-view-byzantine-leader": (577, 147, 9, 71, 1019),
        "zyzzyva-f2-2-view-byzantine-leader": (30751, 4247, 15, 234, 92778),
    }),
    # the network never drops the Byzantine replica's own view-change; with
    # r1 Byzantine, r1 leads view 2, where no view-change slot is offered
    "kept": Reduction(patch=((ZyzzyvaKernel, "kept", ()),), check=_kept_send_is_alone, off={
        "zyzzyva-2-view-exhaustion": (7439, 2236, 10, 1091, 4006),
        "zyzzyva-3-view-violation": (23737, 7275, 19, 1162, 16438),
        "zyzzyva-2-view-byzantine-leader": _SEARCHES["zyzzyva-2-view-byzantine-leader"][1],
        "zyzzyva-f2-2-view-byzantine-leader": _SEARCHES["zyzzyva-f2-2-view-byzantine-leader"][1],
    }),
    # no FaB5 `accepted` slot while the Byzantine replica, its one recipient,
    # leads: the no-op choice's child repeats its sibling's subtree
    "noop-accepted": Reduction(patch=((FabKernel, "slot_choices", _noop_accepted_menu),), off={
        "fab5-1-value-exhaustion": (6847, 991, 9, 437, 2987),
    }),
    # every choice sends something. The no-op menus and `act`, as they were
    # before: a `view_change` or `rep` also went to a Byzantine leader, which
    # stores it at once, and a view-change cited each stored commit
    # certificate by its view, also one that shares its view with another,
    # which does not resolve; `act` kept such an action as sending nothing,
    # not exported. The no-op menus take the slot-menu key's certificates,
    # which are none under a Byzantine leader: there they once cited every
    # stored one, and the pins held when that reading went. Listed are the
    # placements where they add states (a no-op view-change with r2 or r3
    # Byzantine is a new state: the drop of a sent one, which it equals, is
    # not offered); elsewhere the menus are equal
    # (test_every_adversary_choice_sends_to_a_correct_replica)
    "noop-menus": Reduction(patch=((ZyzzyvaKernel, "slot_choices", _noop_zyzzyva_menu),
                                   (FabKernel, "slot_choices", _noop_fab_menu),
                                   (_Kernel, "act", _noop_act)), off={
        "zyzzyva-two-views-r2": (4347, 1777, 13, 273, 2777),
        "zyzzyva-two-views-r3": (4347, 1777, 13, 273, 2777),
        "pfab-three-views-r1": (1410, 542, 15, 43, 1438),
    }),
    # no choice that every correct recipient rejects. The late menus, as they
    # were before: a `view_change` or `rep` also after the view's correct
    # leader had started its view, and a Byzantine leader's `order_req` or
    # `propose` in every view it leads. In the 2-view searches every state
    # they would add is a settled leaf
    "late-menus": Reduction(patch=((ZyzzyvaKernel, "slot_choices", _late_zyzzyva_menu),
                                   (FabKernel, "slot_choices", _late_fab_menu)),
                            check=_removed_choices_are_rejected, off={
        **{name: _SEARCHES[name][1] for name in SEARCHES},
        "zyzzyva-3-view-violation": (20782, 189, 19, 1258, 15341),
    }),
}


def _switched_off(searched, reduction, cfg):
    """The `searched` run of cfg with the reduction off."""
    r = REDUCTIONS[reduction]
    return searched(replace(cfg, **r.config), r.patch, r.check)


@pytest.mark.parametrize("reduction, name", [
    pytest.param(reduction, name, id=f"{reduction}-{name}")
    for reduction, r in REDUCTIONS.items() for name in r.off])
def test_a_reduction_changes_statistics_not_outcomes(searched, reduction, name):
    cfg, counts = _SEARCHES[name]
    on, off = searched(cfg).result, _switched_off(searched, reduction, cfg).result
    assert (_five(on), _five(off)) == (counts, REDUCTIONS[reduction].off[name])
    same = ("found", "budget_exhausted")
    assert [on.stats[k] for k in same] == [off.stats[k] for k in same]
    if on.counterexample is None:
        assert off.counterexample is None
    else:
        assert on.counterexample.scenario.to_json() == off.counterexample.scenario.to_json()
        assert on.counterexample.trace.to_jsonl() == off.counterexample.trace.to_jsonl()


@pytest.mark.parametrize("reduction", REDUCTIONS)
def test_every_reduction_reaches_the_kernel_of_each_search_it_lists(searched, reduction):
    # a switch that no kernel reads would let the test above pass checking
    # nothing: each one changes the config or patches a class of every
    # listed search's kernel, and moves a counter on one of them
    r = REDUCTIONS[reduction]
    for name in r.off:
        kernel = type(_kernel_for(_SEARCHES[name][0]))
        assert r.config or {cls for cls, *_ in r.patch} & set(kernel.__mro__), name
    assert any(_five(searched(cfg).result) != _five(_switched_off(searched, reduction, cfg).result)
               for cfg, _ in map(_SEARCHES.get, r.off))


@pytest.mark.parametrize("name", REDUCTIONS["zyzzyva-leaf"].off)
def test_a_settled_zyzzyva_state_commits_only_prefixes_of_its_base_log(searched, name):
    # the check runs in the rule's off search; with r1 Byzantine the final
    # view settles as it begins, before any commit
    saw = _switched_off(searched, "zyzzyva-leaf", _SEARCHES[name][0]).seen["check"]
    assert saw == ({"byzantine"} if "byzantine-leader" in name
                   else {"quorum", "sent", "adopted", "commit"})


@pytest.mark.parametrize("name", REDUCTIONS["kept"].off)
def test_a_kept_message_is_the_one_send_of_its_slot(searched, name):
    # the check runs in the rule's off search: every kept kind is checked
    # where a view-change slot is offered
    saw = _switched_off(searched, "kept", _SEARCHES[name][0]).seen["check"]
    assert saw == (set() if "byzantine-leader" in name else set(ZyzzyvaKernel.kept))


@pytest.mark.parametrize("name", [n for n in SEARCHES if n not in REDUCTIONS["kept"].off])
def test_keeping_the_byzantine_view_change_changes_statistics_not_outcomes(searched, name):
    # the rule is Zyzzyva's alone: FaB keeps no kind, so switching the rule
    # off leaves each FaB search as committed, its statistics too
    assert FabKernel.kept == ()
    cfg, counts = _SEARCHES[name]
    on, off = searched(cfg).result, searched(cfg, REDUCTIONS["kept"].patch).result
    assert (_five(on), _five(off)) == (counts, counts)
    same = ("found", "budget_exhausted")
    assert [on.stats[k] for k in same] == [off.stats[k] for k in same]
    if on.counterexample is None:
        assert off.counterexample is None
    else:
        assert on.counterexample.scenario.to_json() == off.counterexample.scenario.to_json()
        assert on.counterexample.trace.to_jsonl() == off.counterexample.trace.to_jsonl()


VISITED.add(ZYZZYVA_SMALL)


def test_every_state_the_rule_removes_is_a_kept_state_with_more_slots_used(searched):
    # over the whole 2-view space, with the rule and without it
    on = searched(ZYZZYVA_SMALL)
    kept, dropping = on.visited, _switched_off(searched, "kept", ZYZZYVA_SMALL).visited
    assert kept < dropping
    assert (len(kept), len(dropping)) == (6966, 7440)  # the root, then each new state
    used = {}  # a kept state without its slots -> the slot sets it is kept with
    for st in kept:
        used.setdefault(st._replace(slots=()), []).append(set(st.slots))
    for st in dropping - kept:
        assert any(slots < set(st.slots) for slots in used.get(st._replace(slots=()), ()))
    # the 2-view space holds no violation, on either side
    assert not any(on.kernel.violated(st) for st in dropping)


_LATE_KINDS = {  # searches where the late menus offer each removed kind, by test id
    "zyzzyva-three-views-r0": (ZYZZYVA_THREE_VIEWS, "view_change"),
    "zyzzyva-three-views-r1": (_placed(ZYZZYVA_THREE_VIEWS, 1), "order_req"),
    "pfab-three-views-r1": (_placed(_PFAB_THREE_VIEWS, 1), "propose"),
    "fab5-three-views-r2": (_placed(replace(_FAB5_ONE_VALUE, max_views=3), 2), "rep"),
}


@pytest.mark.parametrize("name", _LATE_KINDS)
def test_every_removed_choice_is_rejected_by_every_correct_recipient(searched, name):
    # the check runs in the late menus' search; r0's is their off search of
    # the 3-view violation
    cfg, kind = _LATE_KINDS[name]
    res, _, seen, _ = _switched_off(searched, "late-menus", cfg)
    assert not res.stats["budget_exhausted"]
    assert seen["check"] == {kind}


# --- what watches every unpatched search -------------------------------------------

def _observe_menus(m, saw):
    """At every slot-menu key: its view, and whether the no-op menus offer
    the same choices. A menu is built once per key, from the key alone, so
    each key is seen once, when its menu is built."""
    for cls, noop in _NOOP_MENUS.items():
        def observed(self, *at, menu=_COMMITTED_MENUS[cls], noop=noop):
            out = menu(self, *at)
            saw.add((at[0], noop(self, *at) == out))
            return out

        m.setattr(cls, "slot_choices", observed)


def _observe_certificate_scans(m, saw):
    """Every scan of a store for its commit certificates that the explorer
    makes, numbered from 0, so that the set's size counts them."""
    find = explorer.find_artifacts

    def observed(items, kind, /, **fields):
        if kind == "commit_certificate":
            saw.add(len(saw))
        return find(items, kind, **fields)

    m.setattr(explorer, "find_artifacts", observed)


def _observe_prepares(m, saw):
    """On every unsettled state of the final view: whether a prepare is in
    flight."""
    normalize = _Kernel.normalize

    def observed(kernel, w):
        st = normalize(kernel, w)
        if st.view == kernel.cfg.max_views and not kernel.settled(st):
            saw.add(any(sent.msg.kind == "accepted" for sent in st.pool))
        return st

    m.setattr(_Kernel, "normalize", observed)


def _observe_heads(m, saw):
    """At every state with a message in flight that offers choices: the
    head's kind, whether the Byzantine replica sent it, and the choices."""
    choices = _Kernel.choices

    def observed(self, st):
        out = choices(self, st)
        if st.pool and out:
            head = st.pool[0]
            saw.add((head.msg.kind, head.src == self.byz, tuple(out)))
        return out

    m.setattr(_Kernel, "choices", observed)


_ZYZZYVA_SEARCHES = [name for name, s in SEARCHES.items() if s["config"].protocol == "zyzzyva"]
# each watches the searches its test reads: the menus every committed search
# and Byzantine placement, the prepares the FaB searches, the heads the
# Zyzzyva 2-view exhaustion, the certificate scans the Zyzzyva searches
OBSERVERS.update(
    menus=(_observe_menus, {s["config"] for s in SEARCHES.values()}
           | {cfg for cfg, _ in _PLACED.values()}),
    prepares=(_observe_prepares, set(FAB_SEARCHES.values())),
    heads=(_observe_heads, {ZYZZYVA_SMALL}),
    certificate_scans=(_observe_certificate_scans,
                       {SEARCHES[name]["config"] for name in _ZYZZYVA_SEARCHES}))


@pytest.mark.parametrize("name", FAB_SEARCHES)
def test_no_prepare_is_in_flight_in_an_unsettled_final_view(searched, name):
    # why FaB's eager classes need no rule for the final view: until its
    # leader has evaluated its certificate, which settles the state, no
    # prepare is pooled there, so none waits to be delivered or dropped
    assert searched(FAB_SEARCHES[name]).seen["prepares"] == {False}


def test_the_network_drops_every_fated_message_but_the_byzantine_view_change(searched):
    # over the 2-view exhaustion: a correct replica's view-change may still
    # be dropped, as may every fated message but the Byzantine replica's
    # view-change
    heads = searched(ZYZZYVA_SMALL).seen["heads"]
    for kind, byzantine, out in heads:
        kept = byzantine and kind == "view_change"
        assert out == ((("deliver",),) if kept else (("deliver",), ("drop",)))
    assert {("view_change", True), ("view_change", False)} <= {head[:2] for head in heads}


@pytest.mark.parametrize("name", SEARCHES)
def test_a_later_view_reaches_the_slot_menu(searched, name):
    # r1 leads view 2; a final view that the Byzantine replica leads is
    # settled as it begins, so no state after view 1 reaches the menu
    cfg = SEARCHES[name]["config"]
    byzantine_last = cfg.max_views == 2 and cfg.byzantine == (1,)
    assert any(view > 1 for view, _ in searched(cfg).seen["menus"]) != byzantine_last


@pytest.mark.parametrize("name", _ZYZZYVA_SEARCHES)
def test_certificates_are_read_only_where_a_view_change_slot_is_open(searched, name):
    # with r1 Byzantine, r1 leads the final view 2, so no slot is open: the
    # f=2 search makes 7,592 slot-menu calls and no scan
    scans = searched(SEARCHES[name]["config"]).seen["certificate_scans"]
    assert bool(scans) != ("byzantine-leader" in name)


_PLACEMENTS = {  # every Byzantine placement, by test id: the search's name
    "zyzzyva-two-views-r0": "zyzzyva-2-view-exhaustion",
    "zyzzyva-two-views-r1": "zyzzyva-2-view-byzantine-leader",
    "pfab-two-views-r0": "pfab-stuck",
    "fab5-one-value-r0": "fab5-1-value-exhaustion",
    **{name: name for name in _PLACED},
}


@pytest.mark.parametrize("name", _PLACEMENTS)
def test_every_adversary_choice_sends_to_a_correct_replica(searched, name):
    cfg, counts = _SEARCHES[_PLACEMENTS[name]]
    res, kernel, seen, _ = searched(cfg)
    assert not res.stats["budget_exhausted"]
    assert _five(res) == counts
    assert kernel._sends
    for sends in kernel._sends.values():
        assert type(sends) is tuple and sends
        assert all(sent.dst != kernel.byz for sent, _ in sends)
    # the no-op menus offer more where a Byzantine leader of a later,
    # unsettled view, or two stored certificates of one view, meet the menu:
    # the reduction table lists those placements
    listed = _PLACEMENTS[name] in REDUCTIONS["noop-menus"].off
    assert {same for _, same in seen["menus"]} == ({True, False} if listed else {True})


def test_exploration_is_deterministic(searched):
    # a later search in the process starts from its own empty intern table
    a, b = searched(PFAB_SMALL).result, explore(PFAB_SMALL)
    assert {**a.stats, "elapsed": None} == {**b.stats, "elapsed": None}
    assert _five(b) == _counts("pfab-stuck", *COUNTERS)
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


@pytest.mark.parametrize("cfg, depth", [(PFAB_SMALL, 3), (ZYZZYVA_SMALL, 4)],
                         ids=["pfab", "zyzzyva"])
def test_one_search_shares_one_instance_per_sent_value(cfg, depth):
    # at depth 4, Zyzzyva NEW-VIEWs are among the pooled messages
    msgs = _messages_in_flight(_kernel_for(cfg), depth)
    assert len({id(m) for m in msgs}) == len(set(msgs))
    # without interning or the transition table, paths that send equal
    # messages hold separate copies
    plain = _kernel_for(cfg)
    plain.intern = lambda obj: obj
    plain.transition = partial(_direct_transition, plain)
    copies = _messages_in_flight(plain, depth)
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
    # each message's artifacts and each tally of a sent message are what a
    # fresh call computes
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
    # each slot menu is slot_choices of its key, each action with its JSON;
    # certificates are read only where a view-change slot is open
    assert kernel._menus
    for key, menu in kernel._menus.items():
        assert menu == [("slot", action, json.dumps(action, sort_keys=True))
                        for action in kernel.slot_choices(*key)]
        view, slots, _, stored = key
        assert not stored or (view >= 2 and leader_of(view, kernel.qc.n) != kernel.byz
                              and ("view_change", view) not in slots)
    assert any(stored for *_, stored in kernel._menus) == (cfg.protocol == "zyzzyva")
    # each planned echo (Zyzzyva's alone) is its response's action, and its JSON
    echoes = getattr(kernel, "_echoes", {})
    assert bool(echoes) == (cfg.protocol == "zyzzyva")
    for sent, (action, key) in echoes.items():
        msg = sent.msg
        assert action == {"kind": msg.kind, "view": msg.view, "log": log_ops(msg.log),
                          "to": str(sent.dst)}
        assert key == json.dumps(action, sort_keys=True)
