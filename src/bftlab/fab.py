"""FaB5 and Parameterized FaB single-shot consensus state machines.

Covers the fast track, the PFaB commit-proof track, REP/progress-certificate
view changes, and the vouches-for predicate whose emptiness leaves a new
leader stuck. Transitions follow the same pure (state, input) -> (state',
sends, notes) contract as the Zyzzyva module.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FAB5,
    NodeId,
    QuorumConfig,
    SignatureToken,
    Signed,
    broadcast,
    distinct_quorum,
    immutable,
    leader_of,
    pack,
    replace,
    signed,
    token_ok,
)

FAST = "fast"
COMMIT = "commit"


# --- messages ---------------------------------------------------------------

@immutable
class Propose(Signed):
    """Leader pre-proposal; carries the justifying progress certificate in views > 1."""

    view: int
    value: bytes
    pc: "ProgressCertificate | None"
    token: SignatureToken

    kind = "propose"

    def payload(self) -> bytes:
        pc = self.pc.canon() if self.pc is not None else pack(b"nopc")
        return pack(b"propose", str(self.view).encode(), self.value, pc)

    def verify(self) -> bool:
        return token_ok(self.token, self.token.signer, self.payload())


@immutable
class Accepted(Signed):
    """Replica prepare message for one value per view."""

    view: int
    value: bytes
    replica: NodeId
    token: SignatureToken

    kind = "accepted"

    def payload(self) -> bytes:
        return pack(b"accepted", str(self.view).encode(), self.value, self.replica.canon())


@immutable
class CommitProof:
    """n-f-t matching prepares for one (view, value): PFaB's commit-certificate."""

    view: int
    value: bytes
    accepted: tuple

    kind = "commit_proof"

    def canon(self) -> bytes:
        return pack(
            b"commit_proof",
            str(self.view).encode(),
            self.value,
            *[a.canon() for a in self.accepted],
        )

    def well_formed(self, cfg: QuorumConfig) -> bool:
        return distinct_quorum(self.accepted, cfg.cc_quorum) and all(
            a.view == self.view and a.value == self.value and a.verify() for a in self.accepted
        )


@immutable
class CommitProofMsg(Signed):
    """A replica's commit message broadcasting its proof."""

    proof: CommitProof
    replica: NodeId
    token: SignatureToken

    kind = "commit_proof_msg"

    def payload(self) -> bytes:
        return pack(b"commit_proof_msg", self.proof.canon(), self.replica.canon())


@immutable
class Rep(Signed):
    """New-view message: last prepared value and last commit-proof sent."""

    new_view: int
    replica: NodeId
    last_accepted: bytes | None
    last_commit_proof: CommitProof | None
    token: SignatureToken

    kind = "rep"

    def payload(self) -> bytes:
        acc = (
            pack(b"acc", self.last_accepted)
            if self.last_accepted is not None
            else pack(b"noacc")
        )
        cp = (
            self.last_commit_proof.canon()
            if self.last_commit_proof is not None
            else pack(b"nocp")
        )
        return pack(b"rep", str(self.new_view).encode(), self.replica.canon(), acc, cp)


@immutable
class ProgressCertificate:
    """Quorum of REP messages gathered by a new leader."""

    new_view: int
    reps: tuple

    kind = "progress_certificate"

    def canon(self) -> bytes:
        return pack(
            b"progress_certificate",
            str(self.new_view).encode(),
            *[r.canon() for r in self.reps],
        )

    def well_formed(self, cfg: QuorumConfig) -> bool:
        return distinct_quorum(self.reps, cfg.vc_quorum) and all(
            r.new_view == self.new_view and r.verify() for r in self.reps
        )


# --- vouching ----------------------------------------------------------------

def _proofs_in(pc: ProgressCertificate, cfg: QuorumConfig):
    """Valid commit proofs embedded in a progress certificate (malformed ones ignored)."""
    out = []
    for r in pc.reps:
        cp = r.last_commit_proof
        if cp is not None and cp.well_formed(cfg):
            out.append(cp)
    return out


def vouch_report(pc: ProgressCertificate, value: bytes, cfg: QuorumConfig) -> dict:
    """Evaluate the vouches-for clauses for one candidate, with reasons.

    FaB5: blocked iff 2f+1 reps share a last_accepted different from value.
    PFaB: blocked iff f+t+1 reps share a conflicting last_accepted, or any
    embedded valid commit proof carries a conflicting value.
    """
    threshold = cfg.prepare_conflict_quorum
    counts: dict[bytes, int] = {}
    for r in pc.reps:
        if r.last_accepted is not None and r.last_accepted != value:
            counts[r.last_accepted] = counts.get(r.last_accepted, 0) + 1
    blocked_prepare = sorted(v for v, c in counts.items() if c >= threshold)
    blocked_proof = []
    if cfg.protocol != FAB5:
        blocked_proof = sorted(
            {cp.value for cp in _proofs_in(pc, cfg) if cp.value != value}
        )
    return {
        "vouched": not blocked_prepare and not blocked_proof,
        "blocked_prepare": blocked_prepare,
        "blocked_proof": blocked_proof,
    }


def vouches_for(pc: ProgressCertificate, value: bytes, cfg: QuorumConfig) -> bool:
    return vouch_report(pc, value, cfg)["vouched"]


def fresh_probe(pc: ProgressCertificate) -> bytes:
    """A representative value not occurring anywhere in the certificate.

    Both blocking clauses only mention values inside pc, so every outside
    value has the same vouching status; one probe decides them all.
    """
    present = {r.last_accepted for r in pc.reps if r.last_accepted is not None}
    present |= {
        r.last_commit_proof.value for r in pc.reps if r.last_commit_proof is not None
    }
    i = 0
    while b"#%d" % i in present:
        i += 1
    return b"#%d" % i


STUCK = object()


def leader_choose(pc: ProgressCertificate, cfg: QuorumConfig, preferred: bytes | None = None):
    """Pick a vouched value to propose, or STUCK if nothing is vouched.

    Candidates are every value occurring in the certificate plus one fresh
    value (the leader's own input when it is fresh). Preference order:
    a vouched commit-proof value, then the most supported prepared value,
    then the fresh value.
    """
    proof_values = sorted({cp.value for cp in _proofs_in(pc, cfg)})
    support: dict[bytes, int] = {}
    for r in pc.reps:
        if r.last_accepted is not None:
            support[r.last_accepted] = support.get(r.last_accepted, 0) + 1
    accepted_values = sorted(support, key=lambda v: (-support[v], v))
    inside = set(proof_values) | set(support)
    fresh = preferred if preferred is not None and preferred not in inside else fresh_probe(pc)
    candidates = []
    for v in proof_values + accepted_values + [fresh]:
        if v not in [c for c, _ in candidates]:
            candidates.append((v, vouch_report(pc, v, cfg)))
    reports = [
        {"value": v, "fresh": v == fresh and v not in inside, **rep}
        for v, rep in candidates
    ]
    for v, rep in candidates:
        if rep["vouched"]:
            return v, reports
    return STUCK, reports


# --- replica state machine ----------------------------------------------------

@immutable
class FabReplicaState:
    rid: NodeId
    cfg: QuorumConfig
    input_value: bytes | None = None
    view: int = 1
    accepted_view: int | None = None
    last_accepted: bytes | None = None
    last_commit_proof: CommitProof | None = None
    prepared_pool: tuple = ()
    proof_done: tuple = ()
    reps_seen: tuple = ()
    chosen_done: tuple = ()
    stuck_view: int | None = None

    def is_leader(self) -> bool:
        return leader_of(self.view, self.cfg.n) == self.rid


@dataclass(frozen=True)
class StuckReport:
    view: int
    leader: NodeId
    pc: ProgressCertificate
    reports: tuple


@dataclass(frozen=True)
class FabDecision:
    view: int
    value: bytes
    track: str
    senders: tuple


def _accept(st: FabReplicaState, value: bytes):
    st = replace(st, accepted_view=st.view, last_accepted=value)
    acc = signed(Accepted(st.view, value, st.rid, None), st.rid)
    if st.cfg.protocol == FAB5:
        # FaB5 prepares go to the leader; PFaB replicas also prepare to each other.
        sends = ((leader_of(st.view, st.cfg.n), acc),)
    else:
        sends = broadcast(acc, st.cfg)
    return st, sends


def leader_propose(st: FabReplicaState):
    """View-1 kickoff: a correct leader pre-proposes its input value."""
    if not st.is_leader() or st.view != 1 or st.input_value is None:
        return st, (), ()
    if st.accepted_view == st.view:
        return st, (), ()
    msg = signed(Propose(st.view, st.input_value, None, None), st.rid)
    return st, broadcast(msg, st.cfg), ()


def on_propose(st: FabReplicaState, msg: Propose):
    ok = (
        msg.view == st.view
        and msg.token.signer == leader_of(msg.view, st.cfg.n)
        and msg.verify()
        and st.accepted_view != st.view
    )
    if ok and msg.view > 1:
        ok = (
            msg.pc is not None
            and msg.pc.new_view == msg.view
            and msg.pc.well_formed(st.cfg)
            and vouches_for(msg.pc, msg.value, st.cfg)
        )
    if not ok:
        return st, (), ()
    st, sends = _accept(st, msg.value)
    return st, sends, ()


def on_accepted(st: FabReplicaState, msg: Accepted):
    """Collect prepares; PFaB forms and broadcasts a commit proof at quorum."""
    if st.cfg.protocol == FAB5 or not msg.verify() or msg.view != st.view:
        return st, (), ()
    if any(a.replica == msg.replica and a.view == msg.view for a in st.prepared_pool):
        return st, (), ()
    st = replace(st, prepared_pool=st.prepared_pool + (msg,))
    if st.view in st.proof_done:
        return st, (), ()
    matching = sorted(
        (a for a in st.prepared_pool if a.view == st.view and a.value == msg.value),
        key=lambda a: a.replica,
    )
    if len(matching) < st.cfg.cc_quorum:
        return st, (), ()
    proof = CommitProof(st.view, msg.value, tuple(matching[: st.cfg.cc_quorum]))
    st = replace(st, last_commit_proof=proof, proof_done=st.proof_done + (st.view,))
    out = signed(CommitProofMsg(proof, st.rid, None), st.rid)
    return st, broadcast(out, st.cfg), ()


def on_commit_proof_msg(st: FabReplicaState, msg: CommitProofMsg):
    # Decisions are counted over sent commit messages; nothing to update here.
    return st, (), ()


def on_view_change_signal(st: FabReplicaState, new_view: int):
    if new_view <= st.view:
        return st, (), ()
    st = replace(st, view=new_view, prepared_pool=())
    cp = st.last_commit_proof if st.cfg.protocol != FAB5 else None
    rep = signed(Rep(new_view, st.rid, st.last_accepted, cp, None), st.rid)
    return st, ((leader_of(new_view, st.cfg.n), rep),), ()


def on_rep(st: FabReplicaState, msg: Rep):
    """New leader gathers REPs; at quorum it proposes a vouched value or is stuck."""
    if not msg.verify():
        return st, (), ()
    if leader_of(msg.new_view, st.cfg.n) != st.rid or msg.new_view in st.chosen_done:
        return st, (), ()
    if any(r.new_view == msg.new_view and r.replica == msg.replica for r in st.reps_seen):
        return st, (), ()
    st = replace(st, reps_seen=st.reps_seen + (msg,))
    reps = tuple(r for r in st.reps_seen if r.new_view == msg.new_view)
    if len(reps) < st.cfg.vc_quorum:
        return st, (), ()
    pc = ProgressCertificate(msg.new_view, reps)
    st = replace(st, chosen_done=st.chosen_done + (msg.new_view,))
    choice, reports = leader_choose(pc, st.cfg, preferred=st.input_value)
    if choice is STUCK:
        st = replace(st, stuck_view=msg.new_view)
        return st, (), (StuckReport(msg.new_view, st.rid, pc, tuple(reports)),)
    out = signed(Propose(msg.new_view, choice, pc, None), st.rid)
    return st, broadcast(out, st.cfg), ()


# --- delivery dispatch --------------------------------------------------------

# message kind -> handler name, looked up at call time as in zyzzyva.step
_HANDLERS = {
    "propose": "on_propose",
    "accepted": "on_accepted",
    "commit_proof_msg": "on_commit_proof_msg",
    "rep": "on_rep",
}


def step(st: FabReplicaState, msg):
    """Deliver msg to the replica in state st: (state', sends, notes), or
    None when replicas have no handler for the message kind."""
    name = _HANDLERS.get(msg.kind)
    return None if name is None else globals()[name](st, msg)


# --- omniscient decision rule --------------------------------------------------

def decision_group(msg, cfg: QuorumConfig):
    """As zyzzyva.decision_group: a group, (0 fast | 1 commit, view, value),
    names the value it decides; groups sort as check_decision lists them."""
    if msg.kind == "accepted":
        return (0, msg.view, msg.value), FAST, cfg.fast_quorum
    if msg.kind == "commit_proof_msg":
        return (1, msg.proof.view, msg.proof.value), COMMIT, cfg.commit_quorum
    return None


def check_decision(sent_messages, cfg: QuorumConfig):
    """Decisions implied by sent messages: n-t matching prepares (fast) or
    n-f-t matching commit messages."""
    decisions = []
    prepares: dict[tuple, dict] = {}
    commits: dict[tuple, dict] = {}
    for m in sent_messages:
        if isinstance(m, Accepted):
            prepares.setdefault((m.view, m.value), {})[m.replica] = m
        elif isinstance(m, CommitProofMsg):
            commits.setdefault((m.proof.view, m.proof.value), {})[m.replica] = m
    for (view, value), by_rep in sorted(prepares.items()):
        if len(by_rep) >= cfg.fast_quorum:
            decisions.append(FabDecision(view, value, FAST, tuple(sorted(by_rep))))
    for (view, value), by_rep in sorted(commits.items()):
        if len(by_rep) >= cfg.commit_quorum:
            decisions.append(FabDecision(view, value, COMMIT, tuple(sorted(by_rep))))
    return decisions
