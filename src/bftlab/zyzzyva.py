"""Skeletal Zyzzyva: fast track, two-phase track, and the view-change rules.

All state machines are pure: a transition takes (state, input) and returns
(state', sends, notes). Sends are (destination, message) pairs; notes carry
decisions for the trace layer. Sequencing, delivery and adversary behavior
live in the simulator.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    NULL_REQUEST,
    Log,
    NodeId,
    QuorumConfig,
    Request,
    SignatureToken,
    Signed,
    broadcast,
    distinct_quorum,
    exec_result,
    immutable,
    is_null,
    is_prefix,
    leader_of,
    log_canon,
    log_key,
    make_request,
    pack,
    replace,
    signed,
    token_ok,
)

FAST = "fast"
TWO_PHASE = "two_phase"


# --- messages ---------------------------------------------------------------

@immutable
class OrderReq(Signed):
    """Leader pre-prepare carrying its full request log."""

    view: int
    log: Log
    token: SignatureToken

    kind = "order_req"

    def payload(self) -> bytes:
        return pack(b"order_req", str(self.view).encode(), log_canon(self.log))

    def verify(self) -> bool:
        return token_ok(self.token, self.token.signer, self.payload()) and all(
            is_null(e) or e.verify() for e in self.log
        )


@immutable
class SpecResponse(Signed):
    """Replica prepare: speculative result for a log it adopted."""

    view: int
    log: Log
    replica: NodeId
    result: str
    token: SignatureToken

    kind = "spec_response"

    def payload(self) -> bytes:
        return pack(
            b"spec_response",
            str(self.view).encode(),
            log_canon(self.log),
            self.replica.canon(),
            self.result.encode(),
        )

    def verify(self) -> bool:
        return Signed.verify(self) and self.result == exec_result(self.log)


@immutable
class CommitCertificate:
    """2f+1 matching SpecResponses for one (view, log)."""

    view: int
    log: Log
    responses: tuple

    kind = "commit_certificate"

    def canon(self) -> bytes:
        return pack(
            b"commit_certificate",
            str(self.view).encode(),
            log_canon(self.log),
            *[r.canon() for r in self.responses],
        )

    def senders(self) -> tuple:
        return tuple(r.replica for r in self.responses)

    def well_formed(self, cfg: QuorumConfig) -> bool:
        return distinct_quorum(self.responses, cfg.cc_quorum) and all(
            r.view == self.view and r.log == self.log and r.verify() for r in self.responses
        )


def make_certificate(responses) -> CommitCertificate:
    rs = tuple(sorted(responses, key=lambda r: r.replica))
    return CommitCertificate(rs[0].view, rs[0].log, rs)


@immutable
class CommitRequest(Signed):
    """Client message carrying a commit certificate."""

    client: NodeId
    cert: CommitCertificate
    token: SignatureToken

    kind = "commit_request"

    def payload(self) -> bytes:
        return pack(b"commit_request", self.client.canon(), self.cert.canon())

    def verify(self) -> bool:
        return token_ok(self.token, self.client, self.payload())


@immutable
class LocalCommit(Signed):
    """Replica commit response for a certified (view, log)."""

    view: int
    log: Log
    replica: NodeId
    token: SignatureToken

    kind = "local_commit"

    def payload(self) -> bytes:
        return pack(
            b"local_commit",
            str(self.view).encode(),
            log_canon(self.log),
            self.replica.canon(),
        )


@immutable
class ViewChangeMessage(Signed):
    """A replica's local state shipped to the new leader."""

    new_view: int
    replica: NodeId
    log: Log
    cert: CommitCertificate | None
    token: SignatureToken

    kind = "view_change"

    def payload(self) -> bytes:
        cert = self.cert.canon() if self.cert is not None else pack(b"nocert")
        return pack(
            b"view_change",
            str(self.new_view).encode(),
            self.replica.canon(),
            log_canon(self.log),
            cert,
        )


@immutable
class NewViewMessage(Signed):
    """New leader's proof set P plus the reconstructed base log G."""

    new_view: int
    proof: tuple
    log: Log
    token: SignatureToken

    kind = "new_view"

    def payload(self) -> bytes:
        return pack(
            b"new_view",
            str(self.new_view).encode(),
            *[vc.canon() for vc in self.proof],
            log_canon(self.log),
        )

    def verify(self) -> bool:
        return token_ok(self.token, self.token.signer, self.payload()) and all(
            vc.verify() for vc in self.proof
        )


# --- view-change log reconstruction ------------------------------------------

def valid_cert(vc: ViewChangeMessage, cfg: QuorumConfig) -> CommitCertificate | None:
    """The certificate carried by a view-change message, if well formed."""
    if vc.cert is not None and vc.cert.well_formed(cfg):
        return vc.cert
    return None


def reconstruct_log(proof, cfg: QuorumConfig) -> Log:
    """The new leader's base-log rules, bugs included.

    1. Start from an empty log G.
    2. If any message carries a valid certificate, copy the log of the one
       with the longest log into G (ties: higher view, then smallest
       canonical bytes).
    3. If f+1 messages carry the same log, append its entries past |G|
       (among several supported logs the smallest canonical bytes wins;
       applied at most once).
    4. Pad G with null requests up to the longest log in the proof set.

    Rule 2 deliberately outranks rule 3, and rule 2 prefers length over view:
    both orderings are exactly what breaks agreement.
    """
    g: Log = ()
    certs = [c for vc in proof if (c := valid_cert(vc, cfg)) is not None]
    if certs:
        best = min(certs, key=lambda c: (-len(c.log), -c.view, c.canon()))
        g = best.log
    # logs are equal exactly when their canonical bytes are: count by value,
    # encode the supported logs only to order two or more of them
    seen: dict[Log, int] = {}
    for vc in proof:
        seen[vc.log] = seen.get(vc.log, 0) + 1
    supported = [log for log, c in seen.items() if c >= cfg.f + 1]
    if supported:
        tail = supported[0] if len(supported) == 1 else min(supported, key=log_canon)
        if len(tail) > len(g):
            g = g + tuple(tail[len(g):])
    longest = max((len(vc.log) for vc in proof), default=0)
    if longest > len(g):
        g = g + (NULL_REQUEST,) * (longest - len(g))
    return g


# --- replica state machine ----------------------------------------------------

@immutable
class ReplicaState:
    rid: NodeId
    cfg: QuorumConfig
    view: int = 1
    log: Log = ()
    executed: int = 0  # speculative-execution watermark into log
    highest_cc: CommitCertificate | None = None
    awaiting_new_view: bool = False
    vc_seen: tuple = ()
    nv_done: tuple = ()

    def is_leader(self) -> bool:
        return leader_of(self.view, self.cfg.n) == self.rid


def _responses(st: ReplicaState, lo: int, hi: int):
    """SpecResponses for positions lo..hi (1-based), sent to each entry's client."""
    sends = []
    for pos in range(lo, hi + 1):
        entry = st.log[pos - 1]
        if is_null(entry):
            continue
        prefix = st.log[:pos]
        resp = signed(SpecResponse(st.view, prefix, st.rid, exec_result(prefix), None), st.rid)
        sends.append((entry.client, resp))
    return tuple(sends)


def on_request(st: ReplicaState, req: Request):
    """Leader extends its log and orders the request; non-leaders ignore."""
    if not st.is_leader() or st.awaiting_new_view or not req.verify():
        return st, (), ()
    st = replace(st, log=st.log + (req,))
    msg = signed(OrderReq(st.view, st.log, None), st.rid)
    return st, broadcast(msg, st.cfg), ()


def on_order_req(st: ReplicaState, msg: OrderReq):
    ok = (
        msg.view == st.view
        and not st.awaiting_new_view
        and msg.token.signer == leader_of(msg.view, st.cfg.n)
        and msg.verify()
        and is_prefix(st.log, msg.log)
    )
    if not ok:
        return st, (), ()
    start = st.executed
    st = replace(st, log=msg.log, executed=len(msg.log))
    return st, _responses(st, start + 1, len(st.log)), ()


def on_commit_request(st: ReplicaState, msg: CommitRequest):
    cert = msg.cert
    if not msg.verify() or not cert.well_formed(st.cfg):
        return st, (), ()
    # Retain the highest-view certificate ever validly received, even when it
    # is not for the current view; only matching-view certificates get a
    # commit response.
    if st.highest_cc is None or cert.view > st.highest_cc.view:
        st = replace(st, highest_cc=cert)
    if cert.view != st.view or st.awaiting_new_view:
        return st, (), ()
    lc = signed(LocalCommit(cert.view, cert.log, st.rid, None), st.rid)
    return st, ((msg.client, lc),), ()


def on_view_change_signal(st: ReplicaState, new_view: int):
    """Move to new_view and ship local state to its leader."""
    if new_view <= st.view:
        return st, (), ()
    vc = signed(ViewChangeMessage(new_view, st.rid, st.log, st.highest_cc, None), st.rid)
    st = replace(st, view=new_view, awaiting_new_view=True)
    return st, ((leader_of(new_view, st.cfg.n), vc),), ()


def on_view_change_msg(st: ReplicaState, msg: ViewChangeMessage):
    """New leader collecting view-change messages; emits NEW-VIEW at quorum."""
    if not msg.verify():
        return st, (), ()
    if leader_of(msg.new_view, st.cfg.n) != st.rid or msg.new_view in st.nv_done:
        return st, (), ()
    if any(v.new_view == msg.new_view and v.replica == msg.replica for v in st.vc_seen):
        return st, (), ()
    st = replace(st, vc_seen=st.vc_seen + (msg,))
    proof = tuple(v for v in st.vc_seen if v.new_view == msg.new_view)
    if len(proof) < st.cfg.vc_quorum:
        return st, (), ()
    g = reconstruct_log(proof, st.cfg)
    nv = signed(NewViewMessage(msg.new_view, proof, g, None), st.rid)
    st = replace(st, nv_done=st.nv_done + (msg.new_view,))
    return st, broadcast(nv, st.cfg), ()


def on_new_view(st: ReplicaState, msg: NewViewMessage):
    """Adopt the leader log after re-deriving G; rolls back speculation."""
    ok = (
        msg.new_view >= st.view
        and msg.token.signer == leader_of(msg.new_view, st.cfg.n)
        and msg.verify()
        and len(msg.proof) == st.cfg.vc_quorum
        and len({vc.replica for vc in msg.proof}) == st.cfg.vc_quorum
        and all(vc.new_view == msg.new_view for vc in msg.proof)
        and msg.log == reconstruct_log(msg.proof, st.cfg)
    )
    if not ok:
        return st, (), ()
    # zero the log first: speculation up to here is rolled back and redone
    st = replace(
        st, view=msg.new_view, log=msg.log, executed=len(msg.log), awaiting_new_view=False
    )
    return st, _responses(st, 1, len(st.log)), ()


# --- client state machine ----------------------------------------------------

@dataclass(frozen=True)
class Decision:
    view: int
    log: Log
    track: str
    quorum: tuple


@immutable
class ClientState:
    cid: NodeId
    cfg: QuorumConfig
    request: Request
    responses: tuple = ()
    local_commits: tuple = ()
    cert: CommitCertificate | None = None
    decided: tuple = ()  # (view, log_key, track) markers


def make_client(cid: NodeId, cfg: QuorumConfig, op: bytes) -> ClientState:
    return ClientState(cid, cfg, make_request(op, cid))


def send_request(st: ClientState, to: NodeId):
    return st, ((to, st.request),), ()


def _groups(msgs):
    """msgs grouped by (view, log), in first-seen order. Logs are equal
    exactly when their canonical bytes are, so they group by value."""
    by_key: dict[tuple, list] = {}
    for m in msgs:
        by_key.setdefault((m.view, m.log), []).append(m)
    return by_key


def _collect(st: ClientState, msg, field: str, quorum: int, track: str):
    """Add msg to the client's `field` collection; decide each new (view, log)
    group that `quorum` distinct replicas now match."""
    held = getattr(st, field)
    if any(m.replica == msg.replica and m.view == msg.view and m.log == msg.log for m in held):
        return st, (), ()
    st = replace(st, **{field: held + (msg,)})
    notes = []
    for (view, _), group in _groups(getattr(st, field)).items():
        if len({m.replica for m in group}) < quorum:
            continue
        key = (view, log_key(group[0].log), track)
        if key in st.decided:
            continue
        st = replace(st, decided=st.decided + (key,))
        notes.append(Decision(view, group[0].log, track, tuple(group)))
    return st, (), tuple(notes)


def on_spec_response(st: ClientState, msg: SpecResponse):
    """Collect a prepare; fast-commit once fast_quorum match."""
    if not msg.verify() or not msg.log or msg.log[-1] != st.request:
        return st, (), ()
    return _collect(st, msg, "responses", st.cfg.fast_quorum, FAST)


def on_timeout(st: ClientState):
    """Fast path expired: form a commit certificate and request commits."""
    if st.cert is not None:
        return st, (), ()
    best = None
    for group in _groups(st.responses).values():
        by_rep = {}
        for m in sorted(group, key=lambda m: m.replica):
            by_rep.setdefault(m.replica, m)
        if len(by_rep) < st.cfg.cc_quorum:
            continue
        cand = make_certificate(tuple(by_rep.values())[: st.cfg.cc_quorum])
        if best is None or (cand.view, len(cand.log)) > (best.view, len(best.log)):
            best = cand
    if best is None:
        return st, (), ()
    st = replace(st, cert=best)
    cr = signed(CommitRequest(st.cid, best, None), st.cid)
    return st, broadcast(cr, st.cfg), ()


def on_local_commit(st: ClientState, msg: LocalCommit):
    """Collect commit responses; two-phase commit at commit_quorum."""
    if not msg.verify():
        return st, (), ()
    return _collect(st, msg, "local_commits", st.cfg.commit_quorum, TWO_PHASE)


# --- delivery dispatch --------------------------------------------------------

# message kind -> handler name, per node role. Handlers are looked up in the
# module's globals on every delivery, so a wrapped handler is the one called.
_CLIENT_HANDLERS = {"spec_response": "on_spec_response", "local_commit": "on_local_commit"}
_REPLICA_HANDLERS = {
    "request": "on_request",
    "order_req": "on_order_req",
    "commit_request": "on_commit_request",
    "view_change": "on_view_change_msg",
    "new_view": "on_new_view",
}


def step(st, msg):
    """Deliver msg to the node in state st: (state', sends, notes), or None
    when a node of its role has no handler for the message kind."""
    handlers = _CLIENT_HANDLERS if isinstance(st, ClientState) else _REPLICA_HANDLERS
    name = handlers.get(msg.kind)
    return None if name is None else globals()[name](st, msg)


# --- omniscient decision rule --------------------------------------------------

def decision_group(msg, cfg: QuorumConfig):
    """(group, track, quorum) for a sent message that counts toward a
    decision, else None: the decision exists once `quorum` distinct replicas
    sent a message of the group (`core.tally`). A group, (0 fast | 1 two-phase,
    view, log_canon(log), log), names the log it commits; groups sort in the
    order check_decisions lists their decisions."""
    if msg.kind == "spec_response":
        return (0, msg.view, log_canon(msg.log), msg.log), FAST, cfg.fast_quorum
    if msg.kind == "local_commit":
        return (1, msg.view, log_canon(msg.log), msg.log), TWO_PHASE, cfg.commit_quorum
    return None


def check_decisions(sent_messages, cfg: QuorumConfig):
    """Decisions implied by a slice of sent messages, per the quorum rules.

    Fast: fast_quorum distinct replicas sent matching SpecResponses.
    Two-phase: commit_quorum distinct replicas sent matching LocalCommits.
    """
    decisions = []
    for kind, quorum, track in (
        (SpecResponse, cfg.fast_quorum, FAST),
        (LocalCommit, cfg.commit_quorum, TWO_PHASE),
    ):
        groups: dict[tuple, dict] = {}
        for m in sent_messages:
            if isinstance(m, kind):
                groups.setdefault((m.view, log_canon(m.log)), {})[m.replica] = m
        for (view, _), by_rep in sorted(groups.items(), key=lambda kv: kv[0]):
            if len(by_rep) >= quorum:
                msgs = tuple(by_rep[r] for r in sorted(by_rep))
                decisions.append(Decision(view, msgs[0].log, track, msgs))
    return decisions
