"""Bounded exhaustive search over schedules and adversary actions.

The explorer drives the same pure transition functions as the simulator over
a lightweight immutable world state, enumerating choice points depth-first
in a fixed canonical order:

  * while messages are in flight, the lowest-sequence pending message is
    processed next: "eager" classes always deliver, "fated" classes branch
    between deliver and drop (the schedule's freedom to delay);
  * at an empty pool: eligible client timeouts, then advancing every correct
    replica to the next view, then adversary actions.

Adversary behavior is a finite template menu. Actions are composite
per-recipient assignments (one choice point covers a whole equivocation),
and the adversary supportively echoes correct replicas' client-bound
responses, which only ever adds commit evidence. Messages addressed to
Byzantine nodes deliver immediately into the adversary's artifact store.
Found runs are exported as ordinary scenarios and replayed through the real
simulator before being reported.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

from . import fab, zyzzyva
from .checkers import AGREEMENT, OCCURRED, STUCK, VIOLATED, run_checkers
from .core import (
    FAB5,
    PROTOCOLS,
    ZYZZYVA,
    NodeId,
    client,
    exec_result,
    immutable,
    leader_of,
    log_key,
    log_ops,
    quorum_config,
    replica,
)
from .netsim import _components, msg_view, run_scenario
from .scenarios import Scenario, validate

MENU_KINDS = ("equivocate", "withhold", "inject_stored")


class ExplorerError(Exception):
    pass


@dataclass(frozen=True)
class ExploreConfig:
    protocol: str
    f: int = 1
    t: int = 0
    byzantine: tuple = (0,)
    max_views: int = 2
    requests: tuple = ()  # zyzzyva: ops, one client per op
    values: tuple = ()  # fab: proposal value domain
    menu: tuple = ("equivocate", "withhold")
    dedup: bool = True
    max_states: int = 2_000_000
    target: str = "auto"  # agreement | stuck

    def resolved_target(self) -> str:
        if self.target != "auto":
            return self.target
        return AGREEMENT if self.protocol == ZYZZYVA else STUCK


def validate_config(cfg: ExploreConfig) -> ExploreConfig:
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
    if cfg.resolved_target() not in (AGREEMENT, STUCK):
        raise ExplorerError(f"unknown target {cfg.target!r}")
    quorum_config(cfg.protocol, cfg.f, cfg.t)
    return cfg


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
    mid: int
    src: NodeId
    dst: NodeId
    msg: object


@immutable
class KState:
    replicas: tuple
    clients: tuple
    pool: tuple
    next_mid: int
    view: int
    slots: tuple  # adversary action slots already used
    store: tuple  # artifacts observed by the Byzantine replica
    sent_tab: tuple  # ((tag, view, key), frozenset of senders) sorted
    echoed: tuple  # client-bound messages the adversary already echoed
    commits: tuple  # zyzzyva (position, entry, view, track); fab (value, view, track)
    timeouts: tuple
    stuck: bool = False


def _tab_add(tab: tuple, key, sender) -> tuple:
    items = dict(tab)
    items[key] = items.get(key, frozenset()) | {sender}
    return tuple(sorted(items.items()))


def _tab_get(tab: tuple, key) -> frozenset:
    return dict(tab).get(key, frozenset())


class _Sink:
    """Directive collector for exporting a found run as a scenario."""

    def __init__(self):
        self.directives: list[dict] = []
        self._counters: dict[tuple, int] = {}
        self.mid_ordinals: dict[int, int] = {}

    def note_send(self, kmsg: KMsg):
        key = (kmsg.msg.kind, str(kmsg.src), str(kmsg.dst))
        n = self._counters.get(key, 0)
        self._counters[key] = n + 1
        self.mid_ordinals[kmsg.mid] = n

    def pattern(self, kmsg: KMsg) -> dict:
        pat = {
            "type": kmsg.msg.kind,
            "src": str(kmsg.src),
            "dst": str(kmsg.dst),
            "ordinal": self.mid_ordinals[kmsg.mid],
        }
        view = msg_view(kmsg.msg)
        if view is not None:
            pat["view"] = view
        return pat

    def add(self, directive: dict):
        self.directives.append(directive)


# --- kernels ------------------------------------------------------------------

class _Kernel:
    """Shared search mechanics; protocol specifics live in the subclasses."""

    eager: tuple = ()

    def __init__(self, cfg: ExploreConfig):
        self.cfg = cfg
        self.qc = quorum_config(cfg.protocol, cfg.f, cfg.t)
        self.byz = replica(cfg.byzantine[0])
        self.correct = tuple(replica(i) for i in range(self.qc.n) if replica(i) != self.byz)
        self._interned: dict = {}

    def intern(self, obj):
        """The search's one canonical instance of obj's value.

        Equal values reached along different paths then share one object, so
        its memoized canonical bytes, verification and hash are computed once
        per distinct value and the search keeps no duplicate copies.
        """
        return self._interned.setdefault(obj, obj)

    # protocol hooks -----------------------------------------------------------
    def initial(self, sink) -> KState:
        raise NotImplementedError

    def handle_delivery(self, st: KState, kmsg: KMsg, sink) -> KState:
        raise NotImplementedError

    def note_sent(self, st: KState, src: NodeId, msg) -> KState:
        return st

    def after_send(self, st: KState, src, dst, msg, sink) -> KState:
        return st

    def signal_view(self, st: KState, rid: NodeId, view: int, sink) -> KState:
        raise NotImplementedError

    def slot_choices(self, st: KState) -> list:
        raise NotImplementedError

    def apply_slot(self, st: KState, choice, sink) -> KState:
        raise NotImplementedError

    def eligible_timeouts(self, st: KState):
        return ()

    def apply_timeout(self, st: KState, cname: str, sink) -> KState:
        raise NotImplementedError

    def violated(self, st: KState) -> bool:
        raise NotImplementedError

    # shared mechanics ------------------------------------------------------------
    def _set_replica(self, st: KState, rid: NodeId, rs) -> KState:
        reps = list(st.replicas)
        reps[rid.index] = self.intern(rs)
        return replace(st, replicas=tuple(reps))

    def _store_add(self, st: KState, msg) -> KState:
        items = {a.canon(): a for a in st.store}
        queue = [msg]
        while queue:
            obj = queue.pop()
            if obj.canon() in items:
                continue
            items[obj.canon()] = obj
            queue.extend(_components(obj))
        return replace(st, store=tuple(v for _, v in sorted(items.items())))

    def route(self, st: KState, src: NodeId, sends, sink) -> KState:
        """Send messages: pool for correct targets, instant store for Byzantine."""
        for dst, msg in sends:
            msg = self.intern(msg)
            st = self.note_sent(st, src, msg)
            kmsg = self.intern(KMsg(st.next_mid, src, dst, msg))
            st = replace(st, next_mid=st.next_mid + 1)
            if sink is not None:
                sink.note_send(kmsg)
            if dst == self.byz:
                st = self._store_add(st, msg)
                if sink is not None:
                    sink.add({"do": "deliver", "match": sink.pattern(kmsg)})
            else:
                st = replace(st, pool=st.pool + (kmsg,))
                st = self.after_send(st, src, dst, msg, sink)
        return st

    def deliver_head(self, st: KState, sink) -> KState:
        head = st.pool[0]
        st = replace(st, pool=st.pool[1:])
        if sink is not None:
            sink.add({"do": "deliver", "match": sink.pattern(head)})
        return self.handle_delivery(st, head, sink)

    def eager_kinds(self, st: KState) -> tuple:
        return self.eager

    def normalize(self, st: KState, sink) -> KState:
        # self-addressed messages are local and always processed immediately
        while st.pool and (
            st.pool[0].msg.kind in self.eager_kinds(st) or st.pool[0].src == st.pool[0].dst
        ):
            st = self.deliver_head(st, sink)
        return st

    def signal_order(self, view: int) -> tuple:
        """New leader first, so it processes its own state message immediately."""
        lead = leader_of(view, self.qc.n)
        return tuple(r for r in self.correct if r == lead) + tuple(
            r for r in self.correct if r != lead
        )

    def settled(self, st: KState) -> bool:
        """True when no remaining step can still reach the search target."""
        return False

    def choices(self, st: KState) -> list:
        if self.settled(st):
            return []
        if st.pool:
            if "withhold" in self.cfg.menu:
                return [("deliver",), ("drop",)]
            return [("deliver",)]
        out = [("timeout", str(c)) for c in self.eligible_timeouts(st)]
        if st.view < self.cfg.max_views:
            out.append(("advance", st.view + 1))
        out.extend(self.slot_choices(st))
        return out

    def apply(self, st: KState, choice, sink=None) -> KState:
        kind = choice[0]
        if kind == "deliver":
            st = self.deliver_head(st, sink)
        elif kind == "drop":
            head = st.pool[0]
            st = replace(st, pool=st.pool[1:])
            if sink is not None:
                sink.add({"do": "drop", "match": sink.pattern(head)})
        elif kind == "timeout":
            st = self.apply_timeout(st, choice[1], sink)
        elif kind == "advance":
            view = choice[1]
            order = self.signal_order(view)
            if sink is not None:
                sink.add({"do": "view_change", "view": view, "nodes": [str(r) for r in order]})
            st = replace(st, view=view)
            for rid in order:
                st = self.signal_view(st, rid, view, sink)
        else:
            st = self.apply_slot(st, choice, sink)
        return self.normalize(st, sink)


class ZyzzyvaKernel(_Kernel):
    eager = ("request", "order_req", "spec_response", "local_commit", "new_view")

    def __init__(self, cfg):
        super().__init__(cfg)
        self.clients0 = tuple(
            zyzzyva.make_client(client(i + 1), self.qc, op.encode())
            for i, op in enumerate(cfg.requests)
        )
        # adversary log templates: single-request logs (plus the empty log in
        # view-change messages); multi-entry fabrications are out of bounds
        self.single_logs = tuple((c.request,) for c in self.clients0)
        self.vc_logs = ((),) + self.single_logs

    def initial(self, sink) -> KState:
        st = KState(
            replicas=tuple(
                None if replica(i) == self.byz else zyzzyva.ReplicaState(replica(i), self.qc)
                for i in range(self.qc.n)
            ),
            clients=self.clients0,
            pool=(),
            next_mid=1,
            view=1,
            slots=(),
            store=(),
            sent_tab=(),
            echoed=(),
            commits=(),
            timeouts=(),
        )
        lead = leader_of(1, self.qc.n)
        for cl in st.clients:
            if sink is not None:
                sink.add({"do": "client_request", "client": cl.cid.index, "to": str(lead)})
            st = self.route(st, cl.cid, ((lead, cl.request),), sink)
        return self.normalize(st, sink)

    def _set_client(self, st, cid, cs):
        cls = list(st.clients)
        cls[cid.index - 1] = self.intern(cs)
        return replace(st, clients=tuple(cls))

    def note_sent(self, st, src, msg):
        tag = msg.kind
        if tag not in ("spec_response", "local_commit"):
            return st
        key = (tag, msg.view, log_key(msg.log))
        senders = _tab_get(st.sent_tab, key)
        if str(src) in senders:
            return st
        st = replace(st, sent_tab=_tab_add(st.sent_tab, key, str(src)))
        quorum = self.qc.fast_quorum if tag == "spec_response" else self.qc.commit_quorum
        if len(senders) + 1 == quorum:
            track = zyzzyva.FAST if tag == "spec_response" else zyzzyva.TWO_PHASE
            st = self._commit(st, msg.view, msg.log, track)
        return st

    def _commit(self, st, view, log, track):
        new = tuple(
            (pos, "<null>" if e is zyzzyva.NULL_REQUEST else e.op.decode(), view, track)
            for pos, e in enumerate(log, start=1)
        )
        return replace(st, commits=st.commits + new)

    def after_send(self, st, src, dst, msg, sink):
        """Supportive echo: the adversary matches correct client-bound messages."""
        if src == self.byz or dst.kind != "c" or msg.kind not in ("spec_response", "local_commit"):
            return st
        mark = (msg.kind, msg.view, log_key(msg.log), str(dst))
        if mark in st.echoed:
            return st
        st = replace(st, echoed=st.echoed + (mark,))
        ops = log_ops(msg.log)
        if msg.kind == "spec_response":
            echo = zyzzyva.signed(
                zyzzyva.SpecResponse(msg.view, msg.log, self.byz, exec_result(msg.log), None),
                self.byz,
            )
            action = {"kind": "spec_response", "view": msg.view, "log": ops, "to": str(dst)}
        else:
            echo = zyzzyva.signed(zyzzyva.LocalCommit(msg.view, msg.log, self.byz, None), self.byz)
            action = {"kind": "local_commit", "view": msg.view, "log": ops, "to": str(dst)}
        if sink is not None:
            sink.add({"do": "adversary", "actor": self.byz.index, "action": action})
        return self.route(st, self.byz, ((dst, echo),), sink)

    def handle_delivery(self, st, kmsg, sink):
        msg, dst = kmsg.msg, kmsg.dst
        if dst.kind == "c":
            handler = {
                "spec_response": zyzzyva.on_spec_response,
                "local_commit": zyzzyva.on_local_commit,
            }.get(msg.kind)
            if handler is None:
                return st
            cs, _, notes = handler(st.clients[dst.index - 1], msg)
            st = self._set_client(st, dst, cs)
            for note in notes:
                st = self._commit(st, note.view, note.log, note.track)
            return st
        handler = {
            "request": zyzzyva.on_request,
            "order_req": zyzzyva.on_order_req,
            "commit_request": zyzzyva.on_commit_request,
            "view_change": zyzzyva.on_view_change_msg,
            "new_view": zyzzyva.on_new_view,
        }[msg.kind]
        rs, sends, _ = handler(st.replicas[dst.index], msg)
        st = self._set_replica(st, dst, rs)
        return self.route(st, dst, sends, sink)

    def eligible_timeouts(self, st):
        out = []
        for cs in st.clients:
            if str(cs.cid) in st.timeouts or cs.cert is not None:
                continue
            _, sends, _ = zyzzyva.on_timeout(cs)
            if sends:
                out.append(cs.cid)
        return out

    def apply_timeout(self, st, cname, sink):
        cid = NodeId("c", int(cname[1:]))
        st = replace(st, timeouts=st.timeouts + (cname,))
        cs, sends, _ = zyzzyva.on_timeout(st.clients[cid.index - 1])
        st = self._set_client(st, cid, cs)
        if sink is not None:
            sink.add({"do": "timeout", "node": cname})
        return self.route(st, cid, sends, sink)

    def signal_view(self, st, rid, view, sink):
        rs, sends, _ = zyzzyva.on_view_change_signal(st.replicas[rid.index], view)
        st = self._set_replica(st, rid, rs)
        return self.route(st, rid, sends, sink)

    def slot_choices(self, st):
        out = []
        if "equivocate" not in self.cfg.menu:
            return out
        if leader_of(st.view, self.qc.n) == self.byz:
            slot = ("order", st.view)
            if slot not in st.slots:
                out.extend(("slot", slot, a) for a in self._order_assignments())
        if st.view >= 2:
            slot = ("vc", st.view)
            if slot not in st.slots:
                for log_idx in range(len(self.vc_logs)):
                    for cert_view in self._cert_views(st):
                        out.append(("slot", slot, (log_idx, cert_view)))
        return out

    def _order_assignments(self):
        options = list(range(len(self.single_logs))) + [None]  # logs first, silence last
        out = []

        def rec(i, acc):
            if i == len(self.correct):
                if any(v is not None for v in acc):
                    out.append(tuple(acc))
                return
            for o in options:
                rec(i + 1, acc + [o])

        rec(0, [])
        return out

    def _cert_views(self, st):
        views = [None]
        if "inject_stored" in self.cfg.menu:
            for art in st.store:
                if getattr(art, "kind", None) == "commit_certificate":
                    views.append(art.view)
        return views

    def apply_slot(self, st, choice, sink):
        _, slot, payload = choice
        st = replace(st, slots=tuple(sorted(st.slots + (slot,))))
        view = slot[1]
        if slot[0] == "order":
            sends, send_json = [], []
            for rid, opt in zip(self.correct, payload):
                if opt is None:
                    continue
                log = self.single_logs[opt]
                sends.append((rid, zyzzyva.signed(zyzzyva.OrderReq(view, log, None), self.byz)))
                send_json.append({"to": str(rid), "log": log_ops(log)})
            if sink is not None:
                sink.add(
                    {
                        "do": "adversary",
                        "actor": self.byz.index,
                        "action": {"kind": "order_req", "view": view, "sends": send_json},
                    }
                )
            return self.route(st, self.byz, tuple(sends), sink)
        log_idx, cert_view = payload
        log = self.vc_logs[log_idx]
        cert = None
        if cert_view is not None:
            certs = [
                a
                for a in st.store
                if getattr(a, "kind", None) == "commit_certificate" and a.view == cert_view
            ]
            if len(certs) != 1:
                return st
            cert = certs[0]
        lead = leader_of(view, self.qc.n)
        msg = zyzzyva.signed(zyzzyva.ViewChangeMessage(view, self.byz, log, cert, None), self.byz)
        if sink is not None:
            sink.add(
                {
                    "do": "adversary",
                    "actor": self.byz.index,
                    "action": {
                        "kind": "view_change",
                        "view": view,
                        "log": log_ops(log),
                        "cert": None if cert_view is None else {"view": cert_view},
                        "to": str(lead),
                    },
                }
            )
        return self.route(st, self.byz, ((lead, msg),), sink)

    def violated(self, st):
        seen = {}
        for pos, entry, _, _ in st.commits:
            if pos in seen and seen[pos] != entry:
                return True
            seen.setdefault(pos, entry)
        return False


class FabKernel(_Kernel):
    def __init__(self, cfg):
        super().__init__(cfg)
        self.values = tuple(v.encode() for v in cfg.values)
        # FaB5 has no commit-proof track: prepares are receipt no-ops
        self.eager = (
            ("propose", "commit_proof_msg", "accepted")
            if cfg.protocol == FAB5
            else ("propose", "commit_proof_msg")
        )

    def initial(self, sink) -> KState:
        return KState(
            replicas=tuple(
                None if replica(i) == self.byz else fab.FabReplicaState(replica(i), self.qc)
                for i in range(self.qc.n)
            ),
            clients=(),
            pool=(),
            next_mid=1,
            view=1,
            slots=(),
            store=(),
            sent_tab=(),
            echoed=(),
            commits=(),
            timeouts=(),
        )

    def note_sent(self, st, src, msg):
        if msg.kind == "accepted":
            key = ("accepted", msg.view, msg.value)
            quorum, track = self.qc.fast_quorum, fab.FAST
        elif msg.kind == "commit_proof_msg":
            key = ("commit_proof_msg", msg.proof.view, msg.proof.value)
            quorum, track = self.qc.commit_quorum, fab.COMMIT
        else:
            return st
        senders = _tab_get(st.sent_tab, key)
        if str(src) in senders:
            return st
        st = replace(st, sent_tab=_tab_add(st.sent_tab, key, str(src)))
        if len(senders) + 1 == quorum:
            st = replace(st, commits=st.commits + ((key[2].decode(), key[1], track),))
        return st

    def handle_delivery(self, st, kmsg, sink):
        msg, dst = kmsg.msg, kmsg.dst
        handler = {
            "propose": fab.on_propose,
            "accepted": fab.on_accepted,
            "commit_proof_msg": fab.on_commit_proof_msg,
            "rep": fab.on_rep,
        }[msg.kind]
        rs, sends, notes = handler(st.replicas[dst.index], msg)
        st = self._set_replica(st, dst, rs)
        if any(isinstance(n, fab.StuckReport) for n in notes):
            st = replace(st, stuck=True)
        return self.route(st, dst, sends, sink)

    def signal_view(self, st, rid, view, sink):
        rs, sends, _ = fab.on_view_change_signal(st.replicas[rid.index], view)
        st = self._set_replica(st, rid, rs)
        return self.route(st, rid, sends, sink)

    def _final_stuck_view(self, st) -> bool:
        return self.cfg.resolved_target() == STUCK and st.view == self.cfg.max_views

    def eager_kinds(self, st):
        # in the last view of a stuck search only REP handling can matter:
        # prepares cannot feed any further progress certificate
        if self._final_stuck_view(st):
            return self.eager + ("accepted",)
        return self.eager

    def settled(self, st):
        """After the last view's leader evaluated its certificate, stuck-ness
        is decided; nothing later can trigger another evaluation."""
        if not self._final_stuck_view(st):
            return False
        lead = leader_of(st.view, self.qc.n)
        if lead == self.byz:
            return True
        return st.view in st.replicas[lead.index].chosen_done

    def slot_choices(self, st):
        out = []
        if "equivocate" not in self.cfg.menu:
            return out
        if leader_of(st.view, self.qc.n) == self.byz:
            slot = ("propose", st.view)
            if slot not in st.slots:
                out.extend(("slot", slot, a) for a in self._value_assignments())
        slot = ("prepare", st.view)
        if slot not in st.slots and not self._final_stuck_view(st):
            out.extend(("slot", slot, v) for v in range(len(self.values)))
        if st.view >= 2:
            slot = ("rep", st.view)
            if slot not in st.slots:
                out.extend(("slot", slot, v) for v in list(range(len(self.values))) + [None])
        return out

    def _value_assignments(self):
        options = list(range(len(self.values))) + [None]
        out = []

        def rec(i, acc):
            if i == len(self.correct):
                if any(v is not None for v in acc):
                    out.append(tuple(acc))
                return
            for o in options:
                rec(i + 1, acc + [o])

        rec(0, [])
        return out

    def apply_slot(self, st, choice, sink):
        _, slot, payload = choice
        st = replace(st, slots=tuple(sorted(st.slots + (slot,))))
        kind, view = slot
        if kind == "propose":
            sends, send_json = [], []
            for rid, opt in zip(self.correct, payload):
                if opt is None:
                    continue
                msg = fab.signed(fab.Propose(view, self.values[opt], None, None), self.byz)
                sends.append((rid, msg))
                send_json.append({"to": str(rid), "value": self.values[opt].decode()})
            action = {"kind": "propose", "view": view, "sends": send_json}
            targets = tuple(sends)
        elif kind == "prepare":
            value = self.values[payload]
            msg = fab.signed(fab.Accepted(view, value, self.byz, None), self.byz)
            dsts = [leader_of(view, self.qc.n)] if self.cfg.protocol == FAB5 else list(self.correct)
            targets = tuple((d, msg) for d in dsts if d != self.byz)
            action = {
                "kind": "accepted",
                "view": view,
                "value": value.decode(),
                "to": [str(d) for d, _ in targets],
            }
        else:
            acc = None if payload is None else self.values[payload]
            lead = leader_of(view, self.qc.n)
            msg = fab.signed(fab.Rep(view, self.byz, acc, None, None), self.byz)
            targets = ((lead, msg),)
            action = {
                "kind": "rep",
                "view": view,
                "last_accepted": None if acc is None else acc.decode(),
                "commit_proof": None,
                "to": str(lead),
            }
        if sink is not None:
            sink.add({"do": "adversary", "actor": self.byz.index, "action": action})
        return self.route(st, self.byz, targets, sink)

    def violated(self, st):
        if self.cfg.resolved_target() == STUCK:
            return st.stuck
        return len({v for v, _, _ in st.commits}) > 1


def _kernel_for(cfg: ExploreConfig) -> _Kernel:
    return ZyzzyvaKernel(cfg) if cfg.protocol == ZYZZYVA else FabKernel(cfg)


# --- the search -------------------------------------------------------------------

class _Budget(Exception):
    pass


def _dfs(kernel, st, seen, stats, cfg, depth):
    """Depth-first search below st; the choices to the first violation, or None.

    The stack holds one iterator over the remaining choices of each state on
    the current path, so the search depth is not bounded by Python's
    recursion limit.
    """
    stats["max_depth"] = max(stats["max_depth"], depth)
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
        child = kernel.apply(state, choice)
        if seen is not None:
            if child in seen:
                stats["deduped"] += 1
                continue
            seen.add(child)
        stats["states"] += 1
        if stats["states"] > cfg.max_states:
            raise _Budget()
        if kernel.violated(child):
            return tuple(path) + (choice,)
        path.append(choice)
        stack.append((child, iter(kernel.choices(child))))
        stats["max_depth"] = max(stats["max_depth"], depth + len(path))
    return None


def _new_stats() -> dict:
    return {"states": 0, "deduped": 0, "max_depth": 0, "budget_exhausted": False}


def _search(cfg: ExploreConfig) -> tuple:
    kernel = _kernel_for(cfg)
    root = kernel.initial(None)
    stats = _new_stats()
    seen = {root} if cfg.dedup else None
    found = None
    try:
        if kernel.violated(root):
            found = ()
        else:
            found = _dfs(kernel, root, seen, stats, cfg, 0)
    except _Budget:
        stats["budget_exhausted"] = True
    return found, stats


def _search_branch(args) -> tuple:
    cfg, index = args
    kernel = _kernel_for(cfg)
    root = kernel.initial(None)
    stats = _new_stats()
    choice = kernel.choices(root)[index]
    child = kernel.apply(root, choice)
    seen = {root, child} if cfg.dedup else None
    stats["states"] = 1
    found = None
    try:
        if kernel.violated(child):
            found = ()
        else:
            found = _dfs(kernel, child, seen, stats, cfg, 1)
    except _Budget:
        stats["budget_exhausted"] = True
    return (None if found is None else (choice,) + found), stats


def export_counterexample(ce: Counterexample) -> Scenario:
    """The scenario whose replay reproduces the counterexample's verdict."""
    return ce.scenario


def _build_counterexample(cfg: ExploreConfig, choices: tuple) -> Counterexample:
    kernel = _kernel_for(cfg)
    sink = _Sink()
    st = kernel.initial(sink)
    for choice in choices:
        st = kernel.apply(st, choice, sink)
    if not kernel.violated(st):
        raise ExplorerError("internal: choice replay lost the violation")
    target = cfg.resolved_target()
    want = VIOLATED if target == AGREEMENT else OCCURRED
    scenario = validate(
        Scenario(
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
            script=sink.directives,
            expected=[{"property": target, "status": want}],
        )
    )
    trace = run_scenario(scenario)
    verdicts = run_checkers(trace.records, [target])
    if verdicts[0].status != want:
        raise ExplorerError(
            f"replay mismatch: expected {target}={want}, got {verdicts[0].status}"
        )
    return Counterexample(scenario, verdicts[0], trace, choices)


def explore(cfg: ExploreConfig, parallel: int = 1) -> ExploreResult:
    """Depth-first search; stops at the first counterexample or exhaustion.

    With parallel > 1 the top-level branches are searched to completion in a
    process pool and merged in canonical order, so the outcome is identical
    to the sequential search (statistics count all branch work performed).
    """
    cfg = validate_config(cfg)
    started = time.monotonic()
    if parallel <= 1:
        found, stats = _search(cfg)
    else:
        import multiprocessing as mp

        kernel = _kernel_for(cfg)
        root = kernel.initial(None)
        branches = list(range(len(kernel.choices(root))))
        stats = _new_stats()
        found = None
        with mp.Pool(parallel) as pool:
            results = pool.map(_search_branch, [(cfg, i) for i in branches])
        for branch_found, branch_stats in results:
            stats["states"] += branch_stats["states"]
            stats["deduped"] += branch_stats["deduped"]
            stats["max_depth"] = max(stats["max_depth"], branch_stats["max_depth"])
            stats["budget_exhausted"] |= branch_stats["budget_exhausted"]
            if found is None and branch_found is not None:
                found = branch_found
    stats["elapsed"] = round(time.monotonic() - started, 3)
    stats["found"] = found is not None
    if found is None:
        return ExploreResult(None, stats)
    return ExploreResult(_build_counterexample(cfg, found), stats)
