"""Shared identities, request logs, signature tokens, and quorum arithmetic."""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, replace

ZYZZYVA = "zyzzyva"
FAB5 = "fab5"
PFAB = "pfab"
PROTOCOLS = (ZYZZYVA, FAB5, PFAB)


def pack(*parts: bytes) -> bytes:
    """Length-prefixed concatenation: the canonical byte form used everywhere.

    Canonical bytes are the basis for token payloads, state digests and all
    deterministic tie-breaks, so they must be stable across runs and platforms.
    """
    return b"".join(b"%d:%s" % (len(p), p) for p in parts)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- immutable values -------------------------------------------------------

def _memoized(fn, slot: str):
    @functools.wraps(fn)
    def cached(self):
        value = getattr(self, slot, None)
        if value is None:
            value = fn(self)
            object.__setattr__(self, slot, value)
        return value

    return cached


def immutable(cls=None, /, **options):
    """A frozen, slotted dataclass that computes canon, payload, verify and
    hash once per instance; `options` pass through to `dataclass`.

    Each result is kept in a slot declared `field(init=False, repr=False,
    compare=False)`, so repr, eq and hash are those of the plain dataclass
    (trace state digests hash repr) and `dataclasses.replace` starts the new
    instance with empty caches. Mutating an instance through
    `object.__setattr__` is unsupported: cached results would go stale.
    """

    def wrap(cls):
        methods = [m for m in ("canon", "payload", "verify") if hasattr(cls, m)]
        for name in methods + ["hash"]:
            cls.__annotations__[f"_{name}"] = "object"
            setattr(cls, f"_{name}", field(init=False, repr=False, compare=False))
        cls = dataclass(frozen=True, slots=True, **options)(cls)
        for name in methods:
            setattr(cls, name, _memoized(getattr(cls, name), f"_{name}"))
        cls.__hash__ = _memoized(cls.__hash__, "_hash")
        return cls

    return wrap if cls is None else wrap(cls)


@immutable(order=True)
class NodeId:
    """A replica ("r") or client ("c") identity."""

    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"

    def canon(self) -> bytes:
        return pack(b"node", self.kind.encode(), str(self.index).encode())


def replica(i: int) -> NodeId:
    return NodeId("r", i)


def client(i: int) -> NodeId:
    return NodeId("c", i)


def parse_node(name: str, error=ValueError) -> NodeId:
    if not isinstance(name, str) or name[:1] not in ("r", "c") or not name[1:].isdigit():
        raise error(f"bad node name: {name!r}")
    return NodeId(name[0], int(name[1:]))


# --- signature tokens -------------------------------------------------------
#
# Signatures are modeled as unforgeable simulation tokens: the mint is a
# deterministic digest over (signer, payload), so a token can be re-verified
# from serialized trace data, and copying an observed signed message into a
# new message keeps its token valid.

def mint(signer: NodeId, payload: bytes) -> "SignatureToken":
    return SignatureToken(signer, digest(pack(b"mint", signer.canon(), payload)))


def token_ok(token: "SignatureToken", signer: NodeId, payload: bytes) -> bool:
    return token.signer == signer and token == mint(signer, payload)


def signed(msg, signer: NodeId):
    """Fill in the token field by minting over the message payload."""
    return replace(msg, token=mint(signer, msg.payload()))


@immutable
class SignatureToken:
    signer: NodeId
    value: str

    def canon(self) -> bytes:
        return pack(b"tok", self.signer.canon(), self.value.encode())


class Signed:
    """Base of the signed messages: `token` signs `payload()`, and the
    canonical bytes are the payload followed by the token. By default the
    signer is the replica named in the message's `replica` field."""

    __slots__ = ()

    def canon(self) -> bytes:
        return pack(self.payload(), self.token.canon())

    def verify(self) -> bool:
        return self.token.signer == self.replica and token_ok(
            self.token, self.replica, self.payload()
        )


# --- requests and logs ------------------------------------------------------

@immutable
class Request:
    """A signed client operation; op semantics are opaque."""

    op: bytes
    client: NodeId
    token: SignatureToken

    kind = "request"

    def payload(self) -> bytes:
        return pack(b"request", self.op, self.client.canon())

    def canon(self) -> bytes:
        return pack(b"request", self.op, self.client.canon(), self.token.canon())

    def verify(self) -> bool:
        return token_ok(self.token, self.client, self.payload())


class NullRequest:
    """Sentinel log entry used to pad reconstructed logs; never client-signed."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL_REQUEST"

    def canon(self) -> bytes:
        return pack(b"null")


NULL_REQUEST = NullRequest()

# A request log is a tuple of entries; positions are 1-based.
Log = tuple


def make_request(op: bytes, cid: NodeId) -> Request:
    body = pack(b"request", op, cid.canon())
    return Request(op, cid, mint(cid, body))


def is_null(entry) -> bool:
    return entry is NULL_REQUEST


def is_prefix(a: Log, b: Log) -> bool:
    """True iff a's entries equal b's first len(a) entries."""
    return len(a) <= len(b) and tuple(a) == tuple(b[: len(a)])


def log_canon(log: Log) -> bytes:
    return pack(b"log", *[e.canon() for e in log])


def log_key(log: Log) -> str:
    return digest(log_canon(log))[:16]


def log_ops(log: Log):
    """JSON-friendly view of a log: op strings, None for null entries."""
    return [None if is_null(e) else e.op.decode() for e in log]


def exec_result(log: Log) -> str:
    """Speculative execution result: a digest of the executed log prefix."""
    return digest(pack(b"exec", log_canon(log)))[:16]


# --- quorum arithmetic ------------------------------------------------------

@immutable
class QuorumConfig:
    protocol: str
    f: int
    t: int
    n: int
    fast_quorum: int
    cc_quorum: int
    commit_quorum: int
    vc_quorum: int

    @property
    def prepare_conflict_quorum(self) -> int:
        # FaB vouching clause threshold; FaB5 stores t=f so f+t+1 == 2f+1.
        return self.f + self.t + 1


def quorum_config(protocol: str, f: int, t: int = 0) -> QuorumConfig:
    """Derive all thresholds for the minimal n of the given protocol."""
    if f < 1:
        raise ValueError(f"f must be >= 1, got {f}")
    if protocol == ZYZZYVA:
        n = 3 * f + 1
        return QuorumConfig(protocol, f, 0, n, n, 2 * f + 1, 2 * f + 1, 2 * f + 1)
    if protocol == FAB5:
        # FaB5 is the parameterized protocol at t=f: n=5f+1, fast=n-t=4f+1.
        t = f
        n = 5 * f + 1
        return QuorumConfig(protocol, f, t, n, n - t, n - f - t, n - f - t, n - f)
    if protocol == PFAB:
        if not 0 <= t <= f:
            raise ValueError(f"pfab requires 0 <= t <= f, got t={t} f={f}")
        n = 3 * f + 2 * t + 1
        return QuorumConfig(protocol, f, t, n, n - t, n - f - t, n - f - t, n - f)
    raise ValueError(f"unknown protocol: {protocol!r}")


def distinct_quorum(msgs, size: int) -> bool:
    """Exactly `size` messages, from `size` distinct replicas."""
    return len(msgs) == size and len({m.replica for m in msgs}) == size


def tally(marks: frozenset, group, sender: NodeId, quorum: int) -> tuple:
    """marks with the mark (group, sender) added, and whether that mark
    completed the group: made `quorum` distinct senders of it."""
    if (group, sender) in marks:
        return marks, False
    marks = marks.union(((group, sender),))
    return marks, sum(g == group for g, _ in marks) == quorum


def leader_of(view: int, n: int) -> NodeId:
    """Leader rotation: view v is led by replica (v-1) mod n."""
    return replica((view - 1) % n)


def broadcast(msg, cfg: QuorumConfig) -> tuple:
    """Sends of msg to every replica, the sender included."""
    return tuple((replica(i), msg) for i in range(cfg.n))
