"""Shared identities, request logs, signature tokens, and quorum arithmetic."""
from __future__ import annotations

import functools
import hashlib
import json
import re
import types
import typing
from dataclasses import MISSING, dataclass, field, fields

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
    """A frozen, slotted dataclass that computes canon, payload, verify, hash
    and repr once per instance; `options` pass through to `dataclass`.

    Each result is kept in a slot declared `field(init=False, repr=False,
    compare=False)`, so repr, eq and hash are those of the plain dataclass
    and `replace` starts the new instance with empty caches. The cached
    repr is the plain dataclass repr without its recursion guard (values
    are acyclic), so trace state digests (`sha256(repr(state))`) keep their
    bytes, and a state's repr reuses the strings of the values it holds.
    Mutating an instance through `object.__setattr__` is unsupported:
    cached results would go stale.
    """

    def wrap(cls):
        methods = [m for m in ("canon", "payload", "verify") if hasattr(cls, m)]
        for name in methods + ["hash", "repr"]:
            cls.__annotations__[f"_{name}"] = "object"
            setattr(cls, f"_{name}", field(init=False, repr=False, compare=False))
        cls = dataclass(frozen=True, slots=True, **options)(cls)
        for name in methods:
            setattr(cls, name, _memoized(getattr(cls, name), f"_{name}"))
        cls.__hash__ = _memoized(cls.__hash__, "_hash")
        cls.__repr__ = _memoized(cls.__repr__.__wrapped__, "_repr")
        return cls

    return wrap if cls is None else wrap(cls)


def replace(value, /, **changes):
    """`dataclasses.replace` for an immutable value: a new instance, built
    positionally, with `changes` to its fields and empty caches."""
    return type(value)(*[changes.get(name, getattr(value, name))
                         for name in value.__match_args__])


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


def parse_node(name: str, error) -> NodeId:
    if isinstance(name, str) and re.fullmatch("[rc][0-9]+", name):
        try:
            return NodeId(name[0], int(name[1:]))
        except ValueError:  # more digits than int() converts
            pass
    raise error(f"bad node name: {name!r}")


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
    """Fill in the token field by minting over the message payload. The
    token is not part of the payload, so the signed message keeps the one
    minted over: verifying it mints again, over the same bytes."""
    payload = msg.payload()
    msg = replace(msg, token=mint(signer, payload))
    object.__setattr__(msg, "_payload", payload)
    return msg


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


def quorum_config(protocol: str, f: int, t: int = 0, error=ValueError) -> QuorumConfig:
    """Derive all thresholds for the minimal n of the given protocol; a
    parameter it has none for raises error."""
    if f < 1:
        raise error(f"f must be >= 1, got {f}")
    if protocol == ZYZZYVA:
        if t != 0:
            raise error(f"zyzzyva requires t=0, got t={t}")
        n = 3 * f + 1
        return QuorumConfig(protocol, f, 0, n, n, 2 * f + 1, 2 * f + 1, 2 * f + 1)
    if protocol == FAB5:
        # FaB5 is the parameterized protocol at t=f: n=5f+1, fast=n-t=4f+1.
        t = f
        n = 5 * f + 1
        return QuorumConfig(protocol, f, t, n, n - t, n - f - t, n - f - t, n - f)
    if protocol == PFAB:
        if not 0 <= t <= f:
            raise error(f"pfab requires 0 <= t <= f, got t={t} f={f}")
        n = 3 * f + 2 * t + 1
        return QuorumConfig(protocol, f, t, n, n - t, n - f - t, n - f - t, n - f)
    raise error(f"unknown protocol: {protocol!r}")


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


# --- JSON input shapes --------------------------------------------------------

_JSON_TYPES = {bool: "a boolean", int: "an integer", str: "a string", list: "a list",
               dict: "an object"}


class Obj:
    """The shape of a JSON object whose `fields` must be present and whose
    `optional` fields may be missing; any other field is an error unless the
    object is `open`, and a `null` one may be null instead."""

    def __init__(self, fields: dict, optional: dict | None = None, open=False, null=False):
        self.fields, self.open, self.null = fields, open, null
        self.shapes = {**fields, **(optional or {})}


class OneOf:
    """The shape of a JSON object whose string field `tag` names its shape in
    `shapes`, Obj that need not declare the tag; `what` is what it is. An
    `open` one lets each of them ignore unknown fields."""

    def __init__(self, tag: str, what: str, shapes: dict, open=False):
        self.tag, self.what = tag, what
        self.shapes = {name: Obj({tag: str, **s.fields}, s.shapes, open or s.open)
                       for name, s in shapes.items()}


class _Misfit(Exception):
    """args: what is wrong with a value, then the steps that lead to it from
    the checked value, innermost first."""


def parse_json(data, error):
    """The JSON value in data, UTF-8 bytes or text. Malformed JSON, and a
    string that UTF-8 cannot encode (a lone surrogate escape), raise error,
    as does nesting too deep to decode."""
    try:
        value = json.loads(data.decode() if isinstance(data, bytes) else data)
        json.dumps(value, ensure_ascii=False).encode()
    except UnicodeEncodeError as e:
        raise error(f"invalid string {e.object[e.start:e.end]!r}: {e.reason}") from None
    except (ValueError, RecursionError) as e:
        raise error(f"invalid JSON: {e}") from None
    return value


def check_type(value, shape, where: str, error):
    """Raise error unless value has the JSON shape, which is one of:
      * bool, int, str, list or dict: a value of that JSON type (a boolean
        is no integer);
      * list[S] or tuple[S, ...]: a list of values of shape S; dict[str, S]:
        an object whose values have shape S;
      * S | None: a value of shape S, or null;
      * an Obj or a OneOf.
    The message names `where`, what the value is, then the path to the
    misfit in it, as `scenario: clients[0].id` or `trace[3].commits`."""
    try:
        _fit(value, shape)
    except _Misfit as e:
        problem, *steps = e.args
        path = "".join(reversed(steps))
        where += f": {path[1:]}" if path.startswith(".") else path
        raise error(f"{where} {problem}") from None


def _fit(value, shape):
    """Raise _Misfit unless value fits shape. The steps to a misfit are
    added as it propagates, so a value that fits formats no string."""
    kind = type(shape)
    if value is None and (kind is types.UnionType or getattr(shape, "null", False)):
        return
    if kind is types.UnionType:  # S | None
        shape = shape.__args__[0]
        kind = type(shape)
    if kind is type:
        if not isinstance(value, shape) or (shape is int and isinstance(value, bool)):
            raise _Misfit(f"must be {_JSON_TYPES[shape]}, got {value!r}")
        return
    if kind is OneOf:
        tag = value.get(shape.tag) if isinstance(value, dict) else None
        if not isinstance(tag, str) or tag not in shape.shapes:
            raise _Misfit(f"is an unknown {shape.what} {tag!r}")
        shape, kind = shape.shapes[tag], Obj
    mapping = kind is Obj or shape.__origin__ is dict
    _fit(value, dict if mapping else list)
    if kind is Obj:
        if not shape.open and not value.keys() <= shape.shapes.keys():
            raise _Misfit(f"has unknown fields {sorted(value.keys() - shape.shapes.keys())}")
        if not value.keys() >= shape.fields.keys():
            raise _Misfit(f"is missing fields {[n for n in shape.fields if n not in value]}")
    for key, item in value.items() if mapping else enumerate(value):
        inner = shape.shapes.get(key) if kind is Obj else shape.__args__[1 if mapping else 0]
        if inner is None:  # a field an open object ignores
            continue
        try:
            _fit(item, inner)
        except _Misfit as e:
            e.args += (f".{key}" if kind is Obj else f"[{key!r}]",)
            raise


@functools.cache
def shape_of(cls) -> Obj:
    """The shape of the JSON object that builds the dataclass cls: each
    field's annotation is its shape, and a field with a default may be
    missing."""
    hints = typing.get_type_hints(cls)
    required = {f.name: hints[f.name] for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    return Obj(required, hints)


def read(cls, data, what: str, error):
    """The dataclass cls built from data, the JSON object of a `what` (see
    `shape_of`); a misfit raises error. A list becomes a tuple where the
    class declares a tuple."""
    shapes = shape_of(cls).shapes
    check_type(data, shape_of(cls), what, error)
    return cls(**{k: tuple(v) if typing.get_origin(shapes[k]) is tuple else v
                  for k, v in data.items()})
