"""Deterministic discrete-event scheduler with scripted adversary control.

Every run is driven entirely by an ordered directive list: message delivery,
drops and delays, client timeouts, view-change signals, and Byzantine
actions. The scheduler keeps one node table (`nodes`), applies each event at
a node as a transition (state', sends, notes), a Byzantine replica's too,
keeps an append-only trace of every step, and records commits omnisciently
the moment a quorum of sent messages exists. Re-running a scenario
reproduces the trace byte for byte.

The simulator and the explorer's kernels are two drivers of one rulebook.
The protocol modules own delivery dispatch (`step`) and decision groups
(`decision_group`); `core.tally` counts a sent message's (group, sender)
mark for both, and the simulator renders each completed group as commit
records. This module owns the adversary: `artifacts` is what a Byzantine
node learns from a message it receives, read off its fields and told apart
by value, so both drivers keep a node's store as a set of artifacts;
`adversary_sends` builds the signed messages of a scenario-JSON adversary
action. The explorer emits its adversary moves as those actions, and
exports a found run by executing its directives on a `Simulation` in
lockstep with the search (`run_step`, `pattern`). Message ids and
per-(type, src, dst) ordinals are therefore assigned here and nowhere else.
Each protocol's directives, match patterns and adversary actions included,
have their shapes here; a scenario's script is checked against its
protocol's when it is read.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from . import fab, zyzzyva
from .core import (
    NULL_REQUEST,
    ZYZZYVA,
    NodeId,
    Obj,
    OneOf,
    client,
    digest,
    exec_result,
    is_null,
    log_ops,
    parse_node,
    quorum_config,
    replica,
    signed,
    tally,
)


class SimError(Exception):
    """Scenario validation or execution failure."""


class ArtifactError(SimError):
    """An adversary action names an artifact its actor holds none or several of."""


# --- trace -------------------------------------------------------------------

class Trace:
    """Append-only run record; serializes to stable JSON Lines."""

    def __init__(self):
        self.records: list[dict] = []

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in self.records)


# --- message descriptors -----------------------------------------------------

def msg_view(msg):
    if msg.kind == "request":
        return None
    if msg.kind == "commit_request":
        return msg.cert.view
    if msg.kind == "commit_proof_msg":
        return msg.proof.view
    if msg.kind in ("view_change", "new_view", "rep"):
        return msg.new_view
    return msg.view


def _cert_desc(cert):
    if cert is None:
        return None
    return {
        "view": cert.view,
        "log": log_ops(cert.log),
        "senders": [str(s) for s in cert.senders()],
    }


def _proof_desc(proof):
    if proof is None:
        return None
    return {
        "view": proof.view,
        "value": proof.value.decode(),
        "senders": sorted(str(a.replica) for a in proof.accepted),
    }


def _pc_desc(pc):
    if pc is None:
        return None
    return {
        "view": pc.new_view,
        "reps": [
            {
                "replica": str(r.replica),
                "last_accepted": None if r.last_accepted is None else r.last_accepted.decode(),
                "commit_proof": _proof_desc(r.last_commit_proof),
            }
            for r in sorted(pc.reps, key=lambda r: r.replica)
        ],
    }


def _body(msg) -> dict:
    kind = msg.kind
    if kind == "request":
        return {"op": msg.op.decode(), "client": str(msg.client)}
    if kind in ("order_req", "local_commit"):
        return {"log": log_ops(msg.log)}
    if kind == "spec_response":
        return {"log": log_ops(msg.log), "result": msg.result}
    if kind == "commit_request":
        return {"cert": _cert_desc(msg.cert)}
    if kind == "view_change":
        return {"log": log_ops(msg.log), "cert": _cert_desc(msg.cert)}
    if kind == "new_view":
        return {
            "log": log_ops(msg.log),
            "proof": [
                {"replica": str(v.replica), "log": log_ops(v.log), "cert": _cert_desc(v.cert)}
                for v in msg.proof
            ],
        }
    if kind == "propose":
        return {"value": msg.value.decode(), "pc": _pc_desc(msg.pc)}
    if kind == "accepted":
        return {"value": msg.value.decode()}
    if kind == "commit_proof_msg":
        return {"proof": _proof_desc(msg.proof)}
    if kind == "rep":
        return {
            "last_accepted": None if msg.last_accepted is None else msg.last_accepted.decode(),
            "commit_proof": _proof_desc(msg.last_commit_proof),
        }
    raise SimError(f"cannot describe message kind {kind!r}")


# --- in-flight pool ------------------------------------------------------------

@dataclass
class PoolEntry:
    mid: int
    src: NodeId
    dst: NodeId
    msg: object
    ordinal: int
    rank: int
    description: dict  # built at send, shared with the deliver record
    status: str = "pending"


# --- match patterns ------------------------------------------------------------

# the shape of a directive's match pattern: `_match` selects the pending
# messages whose named fields have the pattern's values (a null view: requests)
PATTERN = Obj({}, {"type": str, "src": str, "dst": str, "view": int | None, "ordinal": int})
# a pattern that may be null, where a directive's pattern is optional
PATTERN_OR_NULL = Obj({}, PATTERN.shapes, null=True)


def _match(entry: PoolEntry, pat: dict) -> bool:
    """Does pat, a PATTERN, match the entry? Its type, view, src and dst are
    compared with the description the send built, its ordinal with the entry's."""
    desc = entry.description
    for name in ("type", "view", "src", "dst"):
        if name in pat and desc[name] != pat[name]:
            return False
    return "ordinal" not in pat or entry.ordinal == pat["ordinal"]


# a directive's or an adversary send's node name; a bad one is a SimError
_node = partial(parse_node, error=SimError)


# --- adversary store ------------------------------------------------------------

def artifacts(obj, known=()) -> list:
    """obj and the signed artifacts nested in it, depth first, each once, and
    none already in `known`: what a Byzantine node learns from receiving obj.

    Artifacts are equal exactly when their canonical bytes are, so a store is
    a set of them: the simulator's a dict in first-seen order (its state
    digest hashes them in that order), a search state's a frozenset.
    """
    out, seen = [], set()

    def visit(o):
        if o in known or o in seen:
            return
        seen.add(o)
        out.append(o)
        for sub in _components(o):
            visit(sub)

    visit(obj)
    return out


def find_artifacts(items, kind: str, /, **fields) -> list:
    """The artifacts of `kind` among items whose fields match `fields`."""
    return [
        obj
        for obj in items
        if getattr(obj, "kind", None) == kind
        and all(getattr(obj, k, None) == (v if k == "view" else v.encode())
                for k, v in fields.items())
    ]


def _components(obj):
    """The artifacts among obj's fields and the entries of its tuple fields,
    in field order: the values whose class declares a string `kind`."""
    for name in getattr(obj, "__match_args__", ()):
        value = getattr(obj, name)
        for v in value if type(value) is tuple else (value,):
            if isinstance(getattr(type(v), "kind", None), str):
                yield v


# --- adversary actions ----------------------------------------------------------
#
# An action is the "action" object of an adversary directive. Requests,
# certificates and commit proofs are named by content and resolved against
# the actor's store; each builder yields (destination name, signed message).

def _stored(actor, store, kind: str, ref: dict | None):
    """The one artifact of `kind` in the actor's store whose fields have
    ref's values; None for no ref."""
    if ref is None:
        return None
    found = find_artifacts(store, kind, **ref)
    if len(found) != 1:
        raise ArtifactError(f"adversary {actor} has {len(found)} stored {kind}s matching {ref}")
    return found[0]


def _stored_log(actor, ops, store) -> tuple:
    return tuple(NULL_REQUEST if op is None else _stored(actor, store, "request", {"op": op})
                 for op in ops)


def _order_req(actor, action, store):
    for send in action["sends"]:
        log = _stored_log(actor, send["log"], store)
        yield send["to"], signed(zyzzyva.OrderReq(action["view"], log, None), actor)


def _spec_response(actor, action, store):
    log = _stored_log(actor, action["log"], store)
    msg = zyzzyva.SpecResponse(action["view"], log, actor, exec_result(log), None)
    yield action["to"], signed(msg, actor)


def _local_commit(actor, action, store):
    log = _stored_log(actor, action["log"], store)
    yield action["to"], signed(zyzzyva.LocalCommit(action["view"], log, actor, None), actor)


def _view_change(actor, action, store):
    cert = _stored(actor, store, "commit_certificate", action.get("cert"))
    log = _stored_log(actor, action["log"], store)
    msg = zyzzyva.ViewChangeMessage(action["view"], actor, log, cert, None)
    yield action["to"], signed(msg, actor)


def _propose(actor, action, store):
    for send in action["sends"]:
        msg = fab.Propose(action["view"], send["value"].encode(), None, None)
        yield send["to"], signed(msg, actor)


def _accepted(actor, action, store):
    value = action["value"].encode()
    msg = signed(fab.Accepted(action["view"], value, actor, None), actor)
    for to in action["to"]:
        yield to, msg


def _rep(actor, action, store):
    cp = _stored(actor, store, "commit_proof", action.get("commit_proof"))
    acc = action.get("last_accepted")
    acc = None if acc is None else acc.encode()
    yield action["to"], signed(fab.Rep(action["view"], actor, acc, cp, None), actor)


_BUILDERS = {
    "order_req": _order_req,
    "spec_response": _spec_response,
    "local_commit": _local_commit,
    "view_change": _view_change,
    "propose": _propose,
    "accepted": _accepted,
    "rep": _rep,
}

# the action fields that name stored artifacts, and the kind each names: a
# log's ops name requests (None is the null request, never stored), in the
# action or in each of its sends; a cert or commit proof is named by its fields
_NAMED = {"log": "request", "cert": "commit_certificate", "commit_proof": "commit_proof"}


def named_artifacts(action: dict, store) -> frozenset:
    """The artifacts in `store` that the action's references match, every
    match kept: `adversary_sends` resolves the action against them exactly
    as against the whole store, a missing or ambiguous reference included."""
    refs = []
    for part in (action, *action.get("sends", ())):
        for field, kind in _NAMED.items():
            value = part.get(field)
            if field == "log":
                refs += [(kind, {"op": op}) for op in value or () if op is not None]
            elif value is not None:
                refs.append((kind, value))
    return frozenset(a for kind, ref in refs for a in find_artifacts(store, kind, **ref))


# the shape of each protocol's actions: the fields their builders read; other
# fields are ignored. A stored artifact is named by its fields.
_LOG = list[str | None]
_REF = Obj({}, {"view": int, "value": str}, null=True)
ZYZZYVA_ACTIONS = OneOf("kind", "zyzzyva action", {
    "order_req": Obj({"view": int, "sends": list[Obj({"log": _LOG, "to": str}, open=True)]}),
    "spec_response": Obj({"view": int, "log": _LOG, "to": str}),
    "local_commit": Obj({"view": int, "log": _LOG, "to": str}),
    "view_change": Obj({"view": int, "log": _LOG, "to": str}, {"cert": _REF}),
}, open=True)
FAB_ACTIONS = OneOf("kind", "fab action", {
    "propose": Obj({"view": int, "sends": list[Obj({"value": str, "to": str}, open=True)]}),
    "accepted": Obj({"view": int, "value": str, "to": list}),
    "rep": Obj({"view": int, "to": str}, {"commit_proof": _REF, "last_accepted": str | None}),
}, open=True)


def adversary_sends(actor: NodeId, action: dict, store) -> list:
    """The (destination, signed message) pairs of a Byzantine actor's action,
    one of its protocol's shape (a scenario's are checked when it is read;
    the explorer builds only such actions).

    `store` holds the actor's artifacts: the simulator's store, or a search
    state's. A reference to an artifact the store holds none or several of
    raises ArtifactError, a SimError.
    """
    return [(_node(to), msg) for to, msg in _BUILDERS[action["kind"]](actor, action, store)]


# --- the simulator ---------------------------------------------------------------

class Simulation:
    def __init__(self, scenario):
        self.scenario = scenario
        self.cfg = quorum_config(scenario.protocol, scenario.f, scenario.t)
        self.byzantine = frozenset(replica(i) for i in scenario.byzantine)
        self.trace = Trace()
        self.pool: list[PoolEntry] = []  # every send, in send order: mid i at i - 1
        self.pending: dict[int, PoolEntry] = {}  # the pool's pending entries by mid
        self.ordinals: dict[tuple, int] = {}
        self.proto = zyzzyva if scenario.protocol == ZYZZYVA else fab
        self.node_rank: dict[NodeId, int] = {}
        self.delivered_rank: dict[tuple, int] = {}  # (client, message) -> its send's rank
        # incremental decision accounting, as in the explorer: the
        # (decision group, sender) marks of the sent messages (core.tally),
        # and the (group, track) of each group completed since the last scan
        self.sent_tab: frozenset = frozenset()
        self.ripe: list = []

        # each node's state; a Byzantine replica's is its store, in first-seen order
        self.nodes: dict[NodeId, object] = {}
        self.digested: dict = {}  # node -> (state, its digest): states are replaced, never mutated
        for i in range(self.cfg.n):
            rid = replica(i)
            if rid in self.byzantine:
                self.nodes[rid] = {}
            elif scenario.protocol == ZYZZYVA:
                self.nodes[rid] = zyzzyva.ReplicaState(rid, self.cfg)
            else:
                value = scenario.inputs.get(str(rid))
                self.nodes[rid] = fab.FabReplicaState(
                    rid, self.cfg, input_value=None if value is None else value.encode()
                )
        for spec in scenario.clients:
            cid = client(spec["id"])
            self.nodes[cid] = zyzzyva.make_client(cid, self.cfg, spec["op"].encode())

        self.trace.records.append(
            {
                "seq": 0,
                "kind": "scenario",
                "name": scenario.name,
                "protocol": scenario.protocol,
                "f": scenario.f,
                "t": self.cfg.t,
                "n": self.cfg.n,
                "byzantine": sorted(str(b) for b in self.byzantine),
                "nodes": [str(replica(i)) for i in range(self.cfg.n)]
                + sorted(str(c) for c in self.nodes if c.kind == "c"),
            }
        )

    # -- plumbing --------------------------------------------------------------

    def _record(self, kind: str, node: NodeId | None, **fields) -> dict:
        rec = {"seq": len(self.trace.records), "kind": kind,
               "node": None if node is None else str(node)}
        rec.update(fields)
        rec.update(emitted=[], commits=[], stuck=None, state=None)
        self.trace.records.append(rec)
        return rec

    def _state_digest(self, node: NodeId) -> str:
        st, last = self.nodes[node], self.digested.get(node)
        if last is None or last[0] is not st:
            blob = b"".join(o.canon() for o in st) if isinstance(st, dict) else repr(st).encode()
            last = self.digested[node] = (st, digest(blob)[:12])
        return last[1]

    def _send(self, rec: dict, src: NodeId, dst: NodeId, msg, rank: int):
        if dst not in self.nodes:
            raise SimError(f"no node {dst} in this scenario")
        src_name, dst_name = str(src), str(dst)
        key = (msg.kind, src_name, dst_name)
        ordinal = self.ordinals.get(key, 0)
        self.ordinals[key] = ordinal + 1
        mid = len(self.pool) + 1
        desc = {"mid": mid, "type": msg.kind, "view": msg_view(msg), "src": src_name,
                "dst": dst_name, "body": _body(msg)}
        entry = PoolEntry(mid, src, dst, msg, ordinal, rank, desc)
        self.pool.append(entry)
        self.pending[mid] = entry
        rec["emitted"].append(desc)
        decides = self.proto.decision_group(msg, self.cfg)
        if decides is not None:  # count the send toward its decision group
            group, track, quorum = decides
            self.sent_tab, done = tally(self.sent_tab, group, msg.replica, quorum)
            if done:
                self.ripe.append((group, track))
        return entry

    def _apply(self, rec: dict, node: NodeId, result):
        """Commit a transition result: new state, sends, notes."""
        state, sends, notes = result
        self.nodes[node] = state
        rank = self.node_rank.get(node, 0) + 1
        for dst, msg in sends:
            self._send(rec, node, dst, msg, rank)
        for note in notes:
            self._note(rec, node, note)
        self._scan_quorums(rec)
        rec["state"] = self._state_digest(node)

    def _note(self, rec: dict, node: NodeId, note):
        if isinstance(note, zyzzyva.Decision):
            depth = None
            if note.track == zyzzyva.FAST:
                ranks = [self.delivered_rank.get((node, m), 0) for m in note.quorum]
                depth = max(ranks) if ranks else None
            rec["commits"].extend(
                self._zyz_commits(note.view, note.log, note.track, str(node), depth)
            )
        elif isinstance(note, fab.StuckReport):
            rec["stuck"] = {
                "view": note.view,
                "leader": str(note.leader),
                "pc": _pc_desc(note.pc)["reps"],
                "candidates": [
                    {
                        "value": "<fresh>" if r["fresh"] else r["value"].decode(),
                        "vouched": r["vouched"],
                        "blocked_prepare": [v.decode() for v in r["blocked_prepare"]],
                        "blocked_proof": [v.decode() for v in r["blocked_proof"]],
                    }
                    for r in note.reports
                ],
            }

    def _zyz_commits(self, view, log, track, by, depth=None):
        out = []
        for pos, e in enumerate(log, start=1):
            null = is_null(e)
            out.append(
                {
                    "position": pos,
                    "entry": None if null else e.op.decode(),
                    "client": None if null else str(e.client),
                    "token": None if null else e.token.value,
                    "view": view,
                    "track": track,
                    "by": by,
                    "log": log_ops(log),
                    "depth": depth,
                }
            )
        return out

    def _fab_commit(self, view, value: bytes, track, by: str) -> dict:
        return {"value": value.decode(), "view": view, "track": track, "by": by}

    def _scan_quorums(self, rec: dict):
        """Omniscient commits: a decision exists once a quorum has been sent.

        Only groups that reached quorum since the last scan can add a
        decision. They are reported in the order a rescan of every sent
        message (zyzzyva.check_decisions, fab.check_decision) lists them.
        """
        ripe, self.ripe = sorted(self.ripe), []
        for group, track in ripe:
            if self.scenario.protocol == ZYZZYVA:
                rec["commits"].extend(self._zyz_commits(group[1], group[3], track, "quorum"))
            else:
                rec["commits"].append(self._fab_commit(group[1], group[2], track, "quorum"))

    # -- pattern matching ---------------------------------------------------------

    def _matching(self, pat: dict) -> list:
        """The pending entries that pat, a PATTERN, matches, in send order."""
        return [e for e in self.pending.values() if _match(e, pat)]

    # -- event primitives -----------------------------------------------------------

    def client_request(self, cid: NodeId, to: NodeId):
        if cid not in self.nodes:
            raise SimError(f"unknown client {cid}")
        rec = self._record("client_request", cid, to=str(to))
        self._apply(rec, cid, zyzzyva.send_request(self.nodes[cid], to))

    def deliver(self, pattern: dict):
        matches = self._matching(pattern)
        if not matches:
            raise SimError(f"deliver pattern matched nothing: {pattern}")
        for entry in matches:
            self._deliver_entry(entry)

    def _deliver_entry(self, entry: PoolEntry):
        self.pending.pop(entry.mid).status = "delivered"
        msg, dst = entry.msg, entry.dst
        if not msg.verify():
            raise SimError(f"delivered message fails token verification: {msg.kind}")
        rec = self._record("deliver", dst, mid=entry.mid, msg=entry.description)
        self.node_rank[dst] = max(self.node_rank.get(dst, 0), entry.rank)
        if dst.kind == "c":  # only a client's fast decision reads it (`_note`)
            self.delivered_rank[(dst, msg)] = entry.rank
        st = self.nodes[dst]
        if dst in self.byzantine:  # a Byzantine replica learns the message's artifacts
            result = st | dict.fromkeys(artifacts(msg, st)), (), ()
        else:
            result = self.proto.step(st, msg)
        if result is None:
            raise SimError(f"{dst} cannot handle {msg.kind}")
        self._apply(rec, dst, result)

    def drop(self, pattern: dict):
        mids = [e.mid for e in self._matching(pattern)]
        for mid in mids:
            self.pending.pop(mid).status = "dropped"
        self._record("drop", None, mids=mids)

    def delay_all_except(self, pattern: dict | None):
        spared = set() if pattern is None else {e.mid for e in self._matching(pattern)}
        mids = [mid for mid in self.pending if mid not in spared]
        for mid in mids:
            self.pending.pop(mid).status = "delayed"
        self._record("delay", None, mids=mids)

    def timeout(self, node: NodeId):
        if node.kind != "c" or node not in self.nodes:
            raise SimError(f"timeout target must be a client, got {node}")
        rec = self._record("timeout", node)
        self._apply(rec, node, zyzzyva.on_timeout(self.nodes[node]))

    def _correct_replica(self, node: NodeId, what: str):
        if node.kind != "r" or node not in self.nodes or node in self.byzantine:
            raise SimError(f"{what} target correct replicas, not {node}")
        return self.nodes[node]

    def view_change(self, view: int, nodes):
        for node in nodes:
            st = self._correct_replica(node, "view-change signals")
            rec = self._record("view_change", node, view=view)
            self._apply(rec, node, self.proto.on_view_change_signal(st, view))

    def propose(self, node: NodeId):
        st = self._correct_replica(node, "propose directives")
        rec = self._record("propose", node)
        self._apply(rec, node, fab.leader_propose(st))

    # -- adversary actions ------------------------------------------------------------

    def adversary(self, actor: NodeId, action: dict):
        if actor not in self.byzantine:
            raise SimError(f"adversary actor {actor} is not Byzantine")
        rec = self._record("adversary", actor, action=action["kind"])
        store = self.nodes[actor]
        self._apply(rec, actor, (store, adversary_sends(actor, action, store), ()))

    # -- script execution --------------------------------------------------------------

    def pattern(self, kind: str, src: NodeId, dst: NodeId) -> dict:
        """The match pattern of the oldest pending message of (kind, src, dst)."""
        entry = next(e for e in self.pending.values()
                     if (e.msg.kind, e.src, e.dst) == (kind, src, dst))
        pat = {"type": kind, "src": str(src), "dst": str(dst), "ordinal": entry.ordinal}
        view = entry.description["view"]
        if view is not None:
            pat["view"] = view
        return pat

    def run_step(self, step: dict):
        """Append step to the scenario's script and execute it."""
        self.scenario.script.append(step)
        self._step(step)

    def run_script(self) -> Trace:
        for i, step in enumerate(self.scenario.script):
            try:
                self._step(step)
            except SimError as e:
                raise SimError(f"directive {i} {step.get('do')!r}: {e}") from None
        return self.trace

    def _step(self, step: dict):
        do = step["do"]
        if do == "client_request":
            self.client_request(client(step["client"]), _node(step["to"]))
        elif do == "deliver":
            self.deliver(step["match"])
        elif do == "drop":
            self.drop(step["match"])
        elif do == "delay_all_except":
            self.delay_all_except(step.get("match"))
        elif do == "timeout":
            self.timeout(_node(step["node"]))
        elif do == "view_change":
            self.view_change(step["view"], [_node(n) for n in step["nodes"]])
        elif do == "propose":
            self.propose(_node(step["node"]))
        else:  # adversary
            self.adversary(replica(step["actor"]), step["action"])


# the directives `_step` runs, for each protocol; a scenario's script is
# checked against its protocol's when it is read (`scenarios.from_dict`)
_SHARED = {
    "deliver": Obj({"match": PATTERN}),
    "drop": Obj({"match": PATTERN}),
    "delay_all_except": Obj({}, {"match": PATTERN_OR_NULL}),  # none: delay everything
    "view_change": Obj({"view": int, "nodes": list}),
}
ZYZZYVA_DIRECTIVES = OneOf("do", "zyzzyva directive", {
    **_SHARED,
    "client_request": Obj({"client": int, "to": str}),
    "timeout": Obj({"node": str}),
    "adversary": Obj({"actor": int, "action": ZYZZYVA_ACTIONS}),
})
FAB_DIRECTIVES = OneOf("do", "fab directive", {
    **_SHARED,
    "propose": Obj({"node": str}),
    "adversary": Obj({"actor": int, "action": FAB_ACTIONS}),
})


def run_scenario(scenario) -> Trace:
    """Execute a validated scenario and return its complete trace."""
    return Simulation(scenario).run_script()
