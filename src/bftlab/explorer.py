"""Bounded exhaustive search over schedules and adversary actions.

The explorer drives the simulator's rules over a lightweight immutable world
state: deliveries go through the protocols' `step`, commit quorums through
their `decision_group`, and the adversary's messages through
`netsim.adversary_sends`. It enumerates choice points depth-first in a fixed
canonical order:

  * while messages are in flight, the lowest-sequence pending message is
    processed next: "eager" classes always deliver, "fated" classes branch
    between deliver and drop (the schedule's freedom to delay). The eager
    classes are fixed per protocol: Zyzzyva's requests, orders, responses
    and NEW-VIEWs; FaB's proposals and commit proofs, and FaB5's prepares,
    which are receipt no-ops there. The network never drops a fated
    message of a "kept" kind that the Byzantine replica sent: Zyzzyva's
    view-change. Its slot is taken at an empty pool and sends that one
    message, which is neither stored nor counted, so its drop would be the
    slot's parent with one more used slot, which offers at most what the
    parent offers: a repeat of part of the parent's subtree;
  * at an empty pool: eligible client timeouts, then advancing every correct
    replica to the next view, then adversary actions.

Adversary behavior is a finite template menu. Each adversary choice is the
scenario-JSON action it exports, at most one per (kind, view); a composite
action assigns one option or silence to each correct replica, so one choice
point covers a whole equivocation. An action is offered only if some
correct recipient can accept it and every artifact it names is stored
exactly once: a FaB5 prepare, a view-change and a REP go to the view's
leader alone, so none is offered while the Byzantine replica leads, and a
view-change or REP only until that leader has started its view (`started`);
a Byzantine leader's order or proposal is offered in view 1 alone, since a
later view's needs a NEW-VIEW or a progress certificate, which the menu
cannot build; a commit certificate is named by its view, so a view with two
stored certificates offers neither, and a negative result does not cover
injecting those. The adversary also supportively echoes correct replicas'
client-bound responses, once per decision group, which only ever adds
commit evidence.
Actions resolve against the state's artifact store, a set of values;
messages addressed to Byzantine nodes deliver immediately into it.
Commits are decision groups: `core.tally` counts each sent message's
(group, sender) mark, as the simulator does, and a group whose quorum
fills joins the state's commits. A state is a named tuple: C
builds, hashes and compares it, reading the hashes its values keep.
The search starts from the simulator's initial node table. Each
protocol transition and adversary action is computed once per search, its
sends kept in routed form (message and decision group), and looked up by
its interned inputs afterwards. Each distinct message's artifact list is
computed once, and so is each tally of a message against a set of sent
marks.
Every store is closed under its artifacts' components, so a store that
holds a message holds everything it carries.
Each adversary move is built once as well: the slot-menu table keeps the
slot choices per view, used slots, whether the view's leader has started
it and the stored certificates the menu names, read only where a
view-change slot is open; the menu is a function of that key alone, each
choice with its action's JSON key; the echo table keeps the supportive echo of each routed client-bound
response; and the named-artifact table keeps an action's routed sends per
action key and the stored artifacts the action names, so each distinct
resolved action is built and signed once however many stores hold those
artifacts.
A settled state is a leaf (`_Kernel.settled`): no step below it can reach
the target. FaB's final view settles once its leader has evaluated its
progress certificate or is the Byzantine replica; Zyzzyva's final view, if
not the first, once its start is decided: its leader is the Byzantine
replica, or has sent its NEW-VIEW, whose base log agrees with every commit,
or can no longer gather a quorum of view-change messages. A settled state
offers no choices and is frozen as soon as it is settled, without its
pending eager deliveries. The rule never changes an outcome; the frozen
deliveries can at most count separately two leaves they would have made
equal.
The budget, `max_states`, bounds the search's work: every child built
counts against it, a new state or a deduped one.
A found run is exported by taking its choices again with a `Simulation`
attached, which executes each directive as the kernel takes it: message ids
and ordinals are the simulator's alone, and its trace is the run's trace.
"""
from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from typing import NamedTuple

from . import fab, zyzzyva
from .checkers import AGREEMENT, OCCURRED, STUCK, VIOLATED, run_checkers
from .core import (
    FAB5,
    PROTOCOLS,
    ZYZZYVA,
    NodeId,
    immutable,
    leader_of,
    log_ops,
    parse_json,
    quorum_config,
    read,
    replica,
    tally,
)
from .netsim import (
    Simulation,
    adversary_sends,
    artifacts,
    find_artifacts,
    named_artifacts,
)
from .scenarios import Scenario, validate

MENU_KINDS = ("equivocate", "withhold", "inject_stored")


class ExplorerError(Exception):
    pass


@dataclass(frozen=True)
class ExploreConfig:
    protocol: str
    f: int = 1
    t: int = 0
    byzantine: tuple[int, ...] = (0,)
    max_views: int = 2
    requests: tuple[str, ...] = ()  # zyzzyva: ops, one client per op
    values: tuple[str, ...] = ()  # fab: proposal value domain
    menu: tuple[str, ...] = ("equivocate", "withhold")
    dedup: bool = True
    max_states: int = 2_000_000

    def resolved_target(self) -> str:
        """The property the search tries to break: the protocol's known bug."""
        return AGREEMENT if self.protocol == ZYZZYVA else STUCK


def validate_config(cfg: ExploreConfig) -> ExploreConfig:
    """cfg, if the kernels can search it; else ExplorerError or ScenarioError."""
    if cfg.protocol not in PROTOCOLS:
        raise ExplorerError(f"unknown protocol {cfg.protocol!r}")
    if len(cfg.byzantine) != 1:
        raise ExplorerError("the explorer drives exactly one Byzantine replica")
    for kind in cfg.menu:
        if kind not in MENU_KINDS:
            raise ExplorerError(f"unknown adversary menu kind {kind!r}")
    if cfg.max_views < 1 or cfg.max_states < 1:
        raise ExplorerError("bounds must be positive")
    if cfg.protocol == ZYZZYVA and not cfg.requests:
        raise ExplorerError("zyzzyva exploration needs client requests")
    if cfg.protocol != ZYZZYVA and not cfg.values:
        raise ExplorerError("fab exploration needs a value domain")
    other = "values" if cfg.protocol == ZYZZYVA else "requests"
    if getattr(cfg, other):
        raise ExplorerError(f"{cfg.protocol} exploration takes no {other}")
    if cfg.protocol != ZYZZYVA and "inject_stored" in cfg.menu:
        raise ExplorerError(f"{cfg.protocol} exploration takes no inject_stored")
    for name in ("requests", "values"):
        items = getattr(cfg, name)
        if len(set(items)) != len(items):
            raise ExplorerError(f"{name} must be distinct strings, got {list(items)!r}")
    validate(_skeleton(cfg))
    return cfg


def load_config(path) -> ExploreConfig:
    """The explore config in the JSON file at path; `explore` validates it."""
    with open(path, "rb") as fh:
        data = parse_json(fh.read(), ExplorerError)
    return read(ExploreConfig, data, "explore config", ExplorerError)


@dataclass
class Counterexample:
    scenario: Scenario
    verdict: object
    trace: object
    choices: tuple


@dataclass
class ExploreResult:
    counterexample: Counterexample | None
    stats: dict


# --- kernel world state -----------------------------------------------------

@immutable
class KMsg:
    src: NodeId
    dst: NodeId
    msg: object


class KState(NamedTuple):
    nodes: tuple  # replicas by index (None at the Byzantine one), then clients
    pool: tuple = ()
    view: int = 1
    slots: tuple = ()  # (kind, view) of the adversary actions already chosen
    store: frozenset = frozenset()  # artifacts observed by the Byzantine replica
    sent_tab: frozenset = frozenset()  # (decision group, sender) marks, core.tally
    commits: tuple = ()  # the completed decision groups, in completion order
    __hash__, __eq__ = tuple.__hash__, tuple.__eq__  # tuple's C slots, named for tracers


class _Draft:
    """A state under construction: KState's fields, each assignable.

    A choice unpacks its parent's field objects into one draft, the kernel
    writes new values into it, and `freeze` builds the one KState of the
    choice positionally, sharing every field the choice left unchanged.
    """

    __slots__ = KState._fields

    def __init__(self, st: KState):
        self.nodes, self.pool, self.view, self.slots, self.store, self.sent_tab, self.commits = st

    def freeze(self) -> KState:
        return KState(self.nodes, self.pool, self.view, self.slots, self.store,
                      self.sent_tab, self.commits)


_BLANK = KState(())  # every field at its default: the draft of a root state


# --- kernels ------------------------------------------------------------------

class _Kernel:
    """Shared search mechanics; protocol specifics live in the subclasses."""

    proto = None  # the protocol module: step, decision_group, on_view_change_signal
    eager: tuple = ()  # the message kinds delivered at once: fixed per protocol
    kept: tuple = ()  # the fated kinds never dropped when the Byzantine replica sent them
    started_views = ""  # the leader state's field that lists the views it started

    def __init__(self, cfg: ExploreConfig):
        self.cfg = cfg
        self.qc = quorum_config(cfg.protocol, cfg.f, cfg.t)
        self.byz = replica(cfg.byzantine[0])
        self.correct = tuple(replica(i) for i in range(self.qc.n) if replica(i) != self.byz)
        self._interned: dict = {}
        self._transitions: dict = {}  # (hook, state, *args) -> (state', routed sends)
        self._sends: dict = {}  # (store, action key) -> routed adversary sends
        self._built: dict = {}  # (action key, named artifacts) -> the same, built once
        self._menus: dict = {}  # (view, slots, started, menu artifacts) -> keyed slot choices
        self._artifacts: dict = {}  # interned message -> tuple(artifacts(message))
        self._tallies: dict = {}  # (sent marks, interned message) -> core.tally's result
        self.reused = 0  # transitions answered from the table
        self.sim: Simulation | None = None  # the export target, set by initial

    def intern(self, obj):
        """The search's one canonical instance of obj's value.

        Equal values reached along different paths then share one object, so
        its memoized canonical bytes, verification and hash are computed once
        per distinct value and the search keeps no duplicate copies.
        """
        return self._interned.setdefault(obj, obj)

    def transition(self, src: NodeId, hook, state, *args):
        """hook(state, *args), the protocol transition of node src: its new
        state and routed sends, computed once per search.

        The table is keyed by the hook and its inputs, so only pure hooks may
        come here: a result must follow from the node state and arguments
        alone. The state names its node, so src adds nothing to the key. The
        hook's notes are dropped: `route` counts every decision.
        """
        key = (hook, state, *args)
        out = self._transitions.get(key)
        if out is not None:
            self.reused += 1
            return out
        ns, sends, _ = hook(state, *args)
        out = (self.intern(ns), self.routed(src, sends))
        self._transitions[key] = out
        return out

    def routed(self, src: NodeId, sends) -> tuple:
        """src's (destination, message) sends in the form `route` takes: one
        interned tuple of (interned KMsg, decision group or None)."""
        out = []
        for dst, m in sends:
            m = self.intern(m)
            out.append((self.intern(KMsg(src, dst, m)), self.proto.decision_group(m, self.qc)))
        return self.intern(tuple(out))

    # protocol hooks -----------------------------------------------------------
    def after_send(self, w: _Draft, sent: KMsg, decides) -> None:
        """React to a routed send to a correct node, after its decision
        group (or None) has counted it."""

    def slot_choices(self, view: int, slots: tuple, started: bool, stored: frozenset) -> list:
        """The adversary's slot actions at an empty pool (menu "equivocate"),
        each the scenario-JSON dict exported, in the view, with the used
        slots, whether the view's leader has `started` it and the stored
        artifacts the menu names (`menu_artifacts`). It reads nothing else."""
        raise NotImplementedError

    def menu_artifacts(self, st: KState) -> frozenset:
        """The stored artifacts that slot_choices names in st: none."""
        return frozenset()

    def violated(self, st: KState) -> bool:
        raise NotImplementedError

    def started(self, st: KState) -> bool:
        """Whether the view's leader is correct and has started the view: sent
        its NEW-VIEW (Zyzzyva) or evaluated its progress certificate (FaB).
        It then rejects every view-change message or REP of the view. False
        in view 1, which starts without either. Reads only `view` and
        `nodes`."""
        if st.view == 1:
            return False
        node = st.nodes[(st.view - 1) % self.qc.n]  # leader_of's; None if Byzantine
        return node is not None and st.view in getattr(node, self.started_views)

    # shared mechanics ------------------------------------------------------------
    def initial(self, sim: Simulation | None = None) -> KState:
        """The root state: the nodes of sim, or of a fresh simulation of the
        export skeleton, with each client's request sent to the view-1
        leader. With sim, every later directive is exported to it."""
        self.sim = sim
        world = sim or Simulation(_skeleton(self.cfg))
        w = _Draft(_BLANK)
        w.nodes = tuple(None if n == self.byz else st for n, st in world.nodes.items())
        lead = leader_of(1, self.qc.n)
        for cl in w.nodes[self.qc.n:]:
            self.export("client_request", client=cl.cid.index, to=str(lead))
            self.route(w, self.routed(cl.cid, ((lead, cl.request),)))
        return self.normalize(w)

    def _store_add(self, w: _Draft, msg) -> None:
        """Add what the Byzantine replica learns from msg to the store.

        Every store is closed under `netsim._components`: it grows only by a
        message's whole artifact list, computed once per message. A store
        that holds msg therefore holds all of msg's artifacts already.
        """
        if msg not in w.store:
            learned = self._artifacts.get(msg)
            if learned is None:
                learned = self._artifacts[msg] = tuple(artifacts(msg))
            w.store = w.store.union(learned)

    def export(self, do: str, head: KMsg | None = None, **fields):
        """Take directive `do` on the export simulation, if any. A deliver or
        drop of `head` matches the simulation's oldest pending message of its
        (type, src, dst): both pools are FIFO per that key."""
        if self.sim is None:
            return
        if head is not None:
            fields["match"] = self.sim.pattern(head.msg.kind, head.src, head.dst)
        self.sim.run_step({"do": do, **fields})

    def route(self, w: _Draft, sends) -> None:
        """Send routed messages: count each toward its decision group, then
        pool it for a correct target or store it at once for a Byzantine one."""
        for sent, decides in sends:
            if decides is not None:
                # the message fixes its group and its sender, so a tally is
                # computed once per marks and message
                key = (w.sent_tab, sent.msg)
                counted = self._tallies.get(key)
                if counted is None:
                    group, _, quorum = decides
                    marks, done = tally(w.sent_tab, group, sent.msg.replica, quorum)
                    counted = self._tallies[key] = (self.intern(marks), done)
                w.sent_tab, done = counted
                if done:
                    w.commits += (decides[0],)
            if sent.dst == self.byz:
                self._store_add(w, sent.msg)
                self.export("deliver", sent)
            else:
                w.pool += (sent,)
                self.after_send(w, sent, decides)

    def run(self, w: _Draft, node: NodeId, hook, *args) -> None:
        """Run hook at node with *args: store the node's new state, route the
        sends."""
        i = node.index if node.kind == "r" else self.qc.n + node.index - 1
        nodes = list(w.nodes)
        nodes[i], sends = self.transition(node, hook, nodes[i], *args)
        w.nodes = tuple(nodes)
        self.route(w, sends)

    def act(self, w: _Draft, action: dict, key: str) -> None:
        """Perform an adversary action, `key` its JSON (`_keyed`); exported
        as the directive replay runs.

        The kernel offers only actions whose every named artifact the store
        holds exactly once; one that does not resolve is an internal fault,
        and its ArtifactError propagates. The artifacts an action names are
        looked up once per distinct store and action, and its sends are
        built once per distinct action and named artifacts: resolving
        against those is resolving against the store.
        """
        at = (w.store, key)
        if at not in self._sends:
            named = named_artifacts(action, w.store)
            if (key, named) not in self._built:
                self._built[key, named] = self.routed(
                    self.byz, adversary_sends(self.byz, action, named))
            self._sends[at] = self._built[key, named]
        self.export("adversary", actor=self.byz.index, action=action)
        self.route(w, self._sends[at])

    def per_replica_sends(self, name: str, options) -> list:
        """The `sends` lists of a composite action: each correct replica gets
        {"to": it, name: option} or silence, lexicographic with silence last,
        all-silent excluded."""
        picks = itertools.product([*options, None], repeat=len(self.correct))
        sends = ([{"to": str(r), name: v} for r, v in zip(self.correct, p) if v is not None]
                 for p in picks)
        return [s for s in sends if s]

    def deliver_head(self, w: _Draft) -> None:
        head = w.pool[0]
        w.pool = w.pool[1:]
        self.export("deliver", head)
        self.run(w, head.dst, self.proto.step, head.msg)

    def normalize(self, w: _Draft) -> KState:
        """Deliver the eager messages at the pool's head until w is
        `settled`, a leaf, then freeze w."""
        # self-addressed messages are local and always processed immediately
        while w.pool and (
            w.pool[0].msg.kind in self.eager or w.pool[0].src == w.pool[0].dst
        ) and not self.settled(w):
            self.deliver_head(w)
        # states holding one store, or one set of sent marks, share one set
        w.store, w.sent_tab = self.intern(w.store), self.intern(w.sent_tab)
        return w.freeze()

    def signal_order(self, view: int) -> tuple:
        """New leader first, so it processes its own state message immediately."""
        lead = leader_of(view, self.qc.n)
        return tuple(r for r in self.correct if r == lead) + tuple(
            r for r in self.correct if r != lead
        )

    def settled(self, st: KState) -> bool:
        """True when no remaining step can still reach the search target.

        A settled state is a leaf: it offers no choices, and `normalize`
        takes none of its pending eager deliveries. It may read only
        `view`, `nodes`, `pool`, `slots` and `commits`, all of which a
        `_Draft` holds, so that a draft can be asked, and must stay True
        as further steps are taken.
        """
        return False

    def eligible_timeouts(self, st: KState) -> list:
        """The clients whose timeout sends something; a client that timed out
        holds a commit certificate."""
        return [cs.cid for cs in st.nodes[self.qc.n:]
                if cs.cert is None and self.transition(cs.cid, zyzzyva.on_timeout, cs)[1]]

    def choices(self, st: KState) -> list:
        if self.settled(st):
            return []
        if st.pool:
            head = st.pool[0]
            if "withhold" in self.cfg.menu and not (
                    head.msg.kind in self.kept and head.src == self.byz):
                return [("deliver",), ("drop",)]
            return [("deliver",)]
        out = [("timeout", c) for c in self.eligible_timeouts(st)]
        if st.view < self.cfg.max_views:
            out.append(("advance", st.view + 1))
        if "equivocate" in self.cfg.menu:
            out.extend(self.slot_menu(st))
        return out

    def slot_menu(self, st: KState) -> list:
        """st's slot choices, each ("slot", action, key) with its action's
        key: slot_choices of st's view, used slots, leader's start and menu
        artifacts, built once per such key, which is all the menu reads."""
        at = (st.view, st.slots, self.started(st), self.menu_artifacts(st))
        menu = self._menus.get(at)
        if menu is None:
            menu = self._menus[at] = [("slot", *_keyed(action))
                                      for action in self.slot_choices(*at)]
        return menu

    def apply(self, st: KState, choice) -> KState:
        """The successor of st under choice, built in one draft."""
        w = _Draft(st)
        kind = choice[0]
        if kind == "deliver":
            self.deliver_head(w)
        elif kind == "drop":
            head = w.pool[0]
            w.pool = w.pool[1:]
            self.export("drop", head)
        elif kind == "timeout":
            self.export("timeout", node=str(choice[1]))
            self.run(w, choice[1], zyzzyva.on_timeout)
        elif kind == "advance":
            w.view = view = choice[1]
            order = self.signal_order(view)
            self.export("view_change", view=view, nodes=[str(r) for r in order])
            for rid in order:
                self.run(w, rid, self.proto.on_view_change_signal, view)
        else:
            _, action, key = choice
            w.slots = tuple(sorted(w.slots + ((action["kind"], action["view"]),)))
            self.act(w, action, key)
        return self.normalize(w)


class ZyzzyvaKernel(_Kernel):
    proto = zyzzyva
    eager = ("request", "order_req", "spec_response", "local_commit", "new_view")
    kept = ("view_change",)
    started_views = "nv_done"

    def __init__(self, cfg):
        super().__init__(cfg)
        # adversary log templates: single-request logs (plus the empty log in
        # view-change messages); multi-entry fabrications are out of bounds
        self.logs = [[op] for op in cfg.requests]
        self._echoes: dict = {}  # routed client-bound response -> its echo, keyed

    def after_send(self, w, sent, decides):
        """Supportive echo: the adversary matches a correct replica's
        client-bound response once per decision group.

        The Byzantine replica's mark in the group therefore means it has
        echoed that response, because of two invariants:
        it sends `spec_response` and `local_commit` only as echoes, and a
        response's (kind, view, log) fixes its client, so the group names
        the echo's destination. Each response's echo is planned once.
        """
        if sent.src == self.byz or sent.dst.kind != "c" or decides is None:
            return
        if (decides[0], self.byz) in w.sent_tab:
            return
        echo = self._echoes.get(sent)
        if echo is None:
            msg = sent.msg
            echo = self._echoes[sent] = _keyed({
                "kind": msg.kind, "view": msg.view, "log": log_ops(msg.log),
                "to": str(sent.dst)})
        self.act(w, *echo)

    def settled(self, st):
        """A final view v, if not the first, is decided once its start is.

        One that the Byzantine replica leads never starts. A correct leader
        L that has not sent its NEW-VIEW never will once the view-change
        messages that can still reach it, those it has seen, those in
        flight and the Byzantine replica's unused slot, are fewer than a
        quorum: that count only falls, correct replicas await a NEW-VIEW
        and the adversary only echoes, so no commit is added. Once L has
        sent it, its base log G is fixed: L.log after L adopts it, before
        that the log of the NEW-VIEW in flight from L to itself, which is
        eager and never dropped. Correct replicas then commit only prefixes
        of G, and an earlier view's certificate gets no local commit: while
        G agrees with every commit, no later commit can conflict with one."""
        view = st.view
        if view < 2 or view != self.cfg.max_views:
            return False
        lead = st.nodes[(view - 1) % self.qc.n]  # leader_of's; None if Byzantine
        if lead is None:
            return True
        if view not in lead.nv_done:
            reach = (sum(vc.new_view == view for vc in lead.vc_seen)
                     + sum(s.msg.kind == "view_change" and s.msg.new_view == view
                           for s in st.pool)
                     + (("view_change", view) not in st.slots))
            return reach < self.qc.vc_quorum
        g = lead.log
        if lead.awaiting_new_view:  # G is in flight from L to itself
            g = next(s.msg.log for s in st.pool
                     if s.dst == lead.rid and s.msg.kind == "new_view")
        return all(log[:len(g)] == g[:len(log)] for *_, log in st.commits)

    def menu_artifacts(self, st):
        """The stored commit certificates where an inject_stored menu's
        view-change slot is open: in a view after the first, led by a
        correct replica, whose view-change slot is unused. Elsewhere none,
        since no choice there names one."""
        view = st.view
        if ("inject_stored" not in self.cfg.menu or view < 2
                or leader_of(view, self.qc.n) == self.byz or ("view_change", view) in st.slots):
            return frozenset()
        return frozenset(find_artifacts(st.store, "commit_certificate"))

    def slot_choices(self, view, slots, started, stored):
        lead = leader_of(view, self.qc.n)
        out = []
        if view == 1 and lead == self.byz and ("order_req", view) not in slots:
            out += [{"kind": "order_req", "view": view, "sends": s}
                    for s in self.per_replica_sends("log", self.logs)]
        if view >= 2 and lead != self.byz and ("view_change", view) not in slots and not started:
            # a certificate is named by its view: one that shares it has no name
            views = [c.view for c in sorted(stored, key=lambda c: c.canon())]
            certs = [None, *({"view": v} for v in views if views.count(v) == 1)]
            out += [{"kind": "view_change", "view": view, "log": log, "cert": cert, "to": str(lead)}
                    for log in [[], *self.logs] for cert in certs]
        return out

    def violated(self, st):
        """Two committed logs hold different entries at one position."""
        seen = {}
        for _, _, _, log in st.commits:
            for pos, entry in enumerate(log, start=1):
                if seen.setdefault(pos, entry) != entry:
                    return True
        return False


class FabKernel(_Kernel):
    proto = fab
    kept = ()
    started_views = "chosen_done"

    def __init__(self, cfg):
        super().__init__(cfg)
        # FaB5 has no commit-proof track, so its prepares are receipt no-ops
        self.eager = (("propose", "commit_proof_msg", "accepted") if cfg.protocol == FAB5
                      else ("propose", "commit_proof_msg"))

    def settled(self, st):
        """After the last view's leader evaluated its certificate, stuck-ness
        is decided; nothing later can trigger another evaluation. So the
        state's eager cascade (the proposal, the prepares, the commit
        proofs) is left untaken."""
        if st.view != self.cfg.max_views:
            return False
        return self.started(st) or leader_of(st.view, self.qc.n) == self.byz

    def slot_choices(self, view, slots, started, stored):
        lead = leader_of(view, self.qc.n)
        out = []
        if view == 1 and lead == self.byz and ("propose", view) not in slots:
            out += [{"kind": "propose", "view": view, "sends": s}
                    for s in self.per_replica_sends("value", self.cfg.values)]
        if ("accepted", view) not in slots and view < self.cfg.max_views:
            dsts = [lead] if self.cfg.protocol == FAB5 else self.correct
            to = [str(d) for d in dsts if d != self.byz]
            if to:  # a FaB5 prepare goes to the leader alone: none if it is Byzantine
                out += [{"kind": "accepted", "view": view, "value": v, "to": to}
                        for v in self.cfg.values]
        if view >= 2 and lead != self.byz and ("rep", view) not in slots and not started:
            out += [{"kind": "rep", "view": view, "last_accepted": v, "commit_proof": None,
                     "to": str(lead)} for v in [*self.cfg.values, None]]
        return out

    def violated(self, st):
        # on_rep sets stuck_view in the transition that reports the stuck view
        return any(r is not None and r.stuck_view is not None for r in st.nodes)


def _keyed(action: dict) -> tuple:
    """(action, key): the key is the action's JSON with sorted keys, which
    the kernel's adversary tables are keyed by."""
    return action, json.dumps(action, sort_keys=True)


def _kernel_for(cfg: ExploreConfig) -> _Kernel:
    return ZyzzyvaKernel(cfg) if cfg.protocol == ZYZZYVA else FabKernel(cfg)


# --- the search -------------------------------------------------------------------

class _Budget(Exception):
    pass


def _dfs(kernel, st, seen, stats, cfg):
    """Depth-first search below st; the choices to the first violation, or None.

    The stack holds one iterator over the remaining choices of each state on
    the current path, so the search depth is not bounded by Python's
    recursion limit. It raises _Budget rather than build a child past
    cfg.max_states, counting new and deduped children alike.
    """
    path: list = []  # the choices that lead from st to the top of the stack
    stack = [(st, iter(kernel.choices(st)))]
    while stack:
        state, todo = stack[-1]
        choice = next(todo, None)
        if choice is None:
            stack.pop()
            if path:
                path.pop()
            continue
        if stats["states"] + stats["deduped"] >= cfg.max_states:
            raise _Budget()
        child = kernel.apply(state, choice)
        if seen is not None:
            known = len(seen)
            seen.add(child)  # hashed once: a tuple keeps no hash
            if len(seen) == known:
                stats["deduped"] += 1
                continue
        stats["states"] += 1
        if kernel.violated(child):
            return tuple(path) + (choice,)
        path.append(choice)
        stack.append((child, iter(kernel.choices(child))))
        stats["max_depth"] = max(stats["max_depth"], len(path))
    return None


def _search(cfg: ExploreConfig) -> tuple:
    kernel = _kernel_for(cfg)
    root = kernel.initial(None)
    stats = {"states": 0, "deduped": 0, "max_depth": 0, "budget_exhausted": False}
    seen = {root} if cfg.dedup else None
    found = None
    try:
        if kernel.violated(root):
            found = ()
        else:
            found = _dfs(kernel, root, seen, stats, cfg)
    except _Budget:
        stats["budget_exhausted"] = True
    stats["transitions"] = len(kernel._transitions)
    stats["transitions_reused"] = kernel.reused
    return found, stats


def _skeleton(cfg: ExploreConfig) -> Scenario:
    """The scenario a found run of cfg is exported to, before its script."""
    target = cfg.resolved_target()
    want = VIOLATED if target == AGREEMENT else OCCURRED
    return Scenario(
        name=f"explored-{cfg.protocol}-{target}",
        protocol=cfg.protocol,
        f=cfg.f,
        t=cfg.t,
        byzantine=list(cfg.byzantine),
        clients=[{"id": i + 1, "op": op} for i, op in enumerate(cfg.requests)],
        inputs={},
        description=(
            f"Machine-found {target} counterexample for {cfg.protocol} "
            f"(f={cfg.f}, t={cfg.t}, {cfg.max_views} views)."
        ),
        expected=[{"property": target, "status": want}],
    )


def _build_counterexample(cfg: ExploreConfig, choices: tuple) -> Counterexample:
    """Take the found choices again, exporting them to a Simulation."""
    scenario = _skeleton(cfg)
    target, want = scenario.expected[0]["property"], scenario.expected[0]["status"]
    sim = Simulation(scenario)
    kernel = _kernel_for(cfg)
    st = kernel.initial(sim)
    for choice in choices:
        st = kernel.apply(st, choice)
    if not kernel.violated(st):
        raise ExplorerError("internal: choice replay lost the violation")
    validate(scenario)
    verdicts = run_checkers(sim.trace.records, [target])
    if verdicts[0].status != want:
        raise ExplorerError(
            f"replay mismatch: expected {target}={want}, got {verdicts[0].status}"
        )
    return Counterexample(scenario, verdicts[0], sim.trace, choices)


def explore(cfg: ExploreConfig) -> ExploreResult:
    """Depth-first search; stops at the first counterexample or exhaustion."""
    cfg = validate_config(cfg)
    started = time.monotonic()
    found, stats = _search(cfg)
    stats["elapsed"] = round(time.monotonic() - started, 3)
    stats["found"] = found is not None
    if found is None:
        return ExploreResult(None, stats)
    return ExploreResult(_build_counterexample(cfg, found), stats)
