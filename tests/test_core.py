import functools
import itertools
import random
import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from bftlab import core
from bftlab.core import (
    FAB5,
    PFAB,
    ZYZZYVA,
    NodeId,
    SignatureToken,
    client,
    is_prefix,
    leader_of,
    make_request,
    mint,
    quorum_config,
    replica,
    signed,
    token_ok,
)
from bftlab.explorer import KState, _Draft, _kernel_for
from conftest import SEARCHES


def test_zyzzyva_thresholds():
    cfg = quorum_config(ZYZZYVA, 1)
    assert (cfg.n, cfg.fast_quorum, cfg.cc_quorum) == (4, 4, 3)
    assert cfg.commit_quorum == 3 and cfg.vc_quorum == 3


def test_pfab_thresholds():
    cfg = quorum_config(PFAB, 1, 0)
    assert (cfg.n, cfg.cc_quorum, cfg.vc_quorum) == (4, 3, 3)
    assert cfg.fast_quorum == 4


def test_fab5_thresholds():
    cfg = quorum_config(FAB5, 1)
    assert (cfg.n, cfg.fast_quorum, cfg.vc_quorum) == (6, 5, 5)
    # FaB5 conflict clause is 2f+1, which equals f+t+1 at t=f
    assert cfg.prepare_conflict_quorum == 3


def test_quorum_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        quorum_config(ZYZZYVA, 0)
    with pytest.raises(ValueError):
        quorum_config(PFAB, 1, 2)
    with pytest.raises(ValueError):
        quorum_config(PFAB, 2, -1)
    with pytest.raises(ValueError):
        quorum_config("paxos", 1)


def test_quorum_config_raises_its_readers_error():
    # as parse_node and parse_json do: a reader gets its own class, no
    # conversion, and the message is the one ValueError carries
    class ReaderError(Exception):
        pass

    for args, message in [((ZYZZYVA, 0), "f must be >= 1, got 0"),
                          ((PFAB, 1, 2), "pfab requires 0 <= t <= f, got t=2 f=1"),
                          (("paxos", 1), "unknown protocol: 'paxos'")]:
        with pytest.raises(ReaderError) as raised:
            quorum_config(*args, error=ReaderError)
        assert str(raised.value) == message
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quorum_config(*args)


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("t_frac", [0, 1, 2])
def test_quorum_intersection(f, t_frac):
    t = min(t_frac, f)
    pfab = quorum_config(PFAB, f, t)
    # two fast quorums of size n-t intersect in >= n-2t replicas
    assert 2 * pfab.fast_quorum - pfab.n >= pfab.n - 2 * t
    zyz = quorum_config(ZYZZYVA, f)
    # a fast quorum and a view-change quorum intersect in >= 2f+1 replicas
    assert zyz.fast_quorum + zyz.vc_quorum - zyz.n >= 2 * f + 1


def test_leader_rotation():
    assert leader_of(1, 4) == replica(0)
    assert leader_of(2, 4) == replica(1)
    assert leader_of(3, 4) == replica(2)
    assert leader_of(5, 4) == replica(0)


def _req(op, cid=1):
    return make_request(op.encode(), client(cid))


def test_is_prefix_examples():
    a, b = _req("a"), _req("b", 2)
    assert is_prefix((), (a,))
    assert is_prefix((a,), (a, b))
    assert not is_prefix((a,), (b,))
    assert not is_prefix((a, b), (a,))


logs = st.lists(st.sampled_from([_req("a"), _req("b", 2), _req("c", 3)]), max_size=4).map(tuple)


@given(logs, logs, logs)
def test_is_prefix_partial_order(a, b, c):
    assert is_prefix(a, a)
    if is_prefix(a, b) and is_prefix(b, a):
        assert a == b
    if is_prefix(a, b) and is_prefix(b, c):
        assert is_prefix(a, c)


def test_tokens_verify_and_reject_tampering():
    req = _req("a")
    assert req.verify()
    assert token_ok(req.token, req.client, req.payload())
    # altered payload no longer matches the minted digest
    other = _req("b")
    assert not token_ok(req.token, req.client, other.payload())
    # a token minted for one signer never verifies for another
    assert not token_ok(mint(replica(0), b"x"), replica(1), b"x")


def test_embedded_tokens_stay_valid():
    # embedding an observed signed message in a new context keeps it verifiable
    req = _req("a")
    copied = (req,)
    assert copied[0].verify()


IMMUTABLE_TYPES = (
    "NodeId", "SignatureToken", "Request", "QuorumConfig",
    "OrderReq", "SpecResponse", "CommitCertificate", "CommitRequest", "LocalCommit",
    "ViewChangeMessage", "NewViewMessage", "ReplicaState", "ClientState",
    "Propose", "Accepted", "CommitProof", "CommitProofMsg", "Rep", "ProgressCertificate",
    "FabReplicaState", "KState", "KMsg",
)
SIGNED_TYPES = (
    "Request", "OrderReq", "SpecResponse", "CommitRequest", "LocalCommit",
    "ViewChangeMessage", "NewViewMessage", "Propose", "Accepted", "CommitProofMsg", "Rep",
)


@functools.cache
def _immutable_samples(cascading_normalize) -> dict:
    """The first value of each immutable type met on seeded random walks
    through both explorer kernels. Their states hold every message,
    certificate and state type: the Byzantine replica's store keeps what it
    was sent, such as the correct leaders' OrderReq and NEW-VIEW. The walks
    take every eager delivery (`cascading_normalize`): a kernel's own
    normalize leaves a settled PFaB state's commit proofs unbuilt."""
    samples, seen = {}, set()

    def visit(obj):
        if isinstance(obj, KState):
            samples.setdefault("KState", obj)
        if isinstance(obj, tuple):
            for item in obj:
                visit(item)
        elif isinstance(obj, frozenset):  # a store or the sent marks, in a seed-free order
            for item in sorted(obj, key=repr):
                visit(item)
        elif "_hash" in getattr(type(obj), "__slots__", ()) and obj not in seen:
            seen.add(obj)
            samples.setdefault(type(obj).__name__, obj)
            for f in fields(obj):
                if f.init:
                    visit(getattr(obj, f.name))

    for cfg in (SEARCHES["pfab-stuck"]["config"],
                replace(SEARCHES["zyzzyva-2-view-exhaustion"]["config"], byzantine=(3,))):
        kernel, rng = _kernel_for(cfg), random.Random(1)
        kernel.normalize = functools.partial(cascading_normalize, kernel)
        for _ in range(5):
            state = kernel.initial(None)
            for _ in range(30):
                options = kernel.choices(state)
                if not options:
                    break
                state = kernel.apply(state, rng.choice(options))
                visit(state)
    return samples


def test_the_samples_cover_every_immutable_type(cascading_normalize):
    assert set(IMMUTABLE_TYPES) <= set(_immutable_samples(cascading_normalize))
    assert set(SIGNED_TYPES) <= set(IMMUTABLE_TYPES)


@pytest.mark.parametrize("name", IMMUTABLE_TYPES)
def test_memoized_results_stay_out_of_repr_eq_and_hash(name, cascading_normalize):
    sample = _immutable_samples(cascading_normalize)[name]
    if name == "KState":
        # a named tuple has no instance storage to memoize a result in: its
        # repr, equality and hash are those of its seven field values
        assert KState.__slots__ == () and not hasattr(sample, "__dict__")
        value, twin = sample._replace(), KState(*sample)
        assert value is not sample and twin is not sample
        before = (repr(value), value == twin, hash(twin))
        hash(value)
        assert (repr(value), value == twin, hash(value)) == before
        assert twin == value == sample and hash(value) == hash(sample)
        assert repr(value) == repr(sample) == repr(tuple.__new__(KState, tuple(sample)))
        return
    repr(sample)  # the sample's repr is cached; its replaced twins start without it
    value, twin = replace(sample), replace(sample)  # equal, with empty caches
    plain = type(value).__repr__.__wrapped__  # the plain dataclass repr
    assert getattr(value, "_repr", None) is None and getattr(twin, "_repr", None) is None
    assert repr(value) == plain(value)  # computed: the cache was empty
    before = (repr(value), value == twin, hash(twin))
    for method in ("canon", "payload", "verify"):
        if hasattr(value, method):
            assert getattr(value, method)() == getattr(replace(sample), method)()
    hash(value)
    assert (repr(value), value == twin, hash(value)) == before
    assert twin == value and value == sample and repr(value) == repr(sample)
    assert value._repr == repr(value) == plain(value)  # served from the filled cache


def _twin_states(cascading_normalize):
    """Two distinct KState objects of one value, reached along two choice
    paths of the PFaB search, and every state met on the way. Every eager
    delivery is taken, so settled states hold their commits."""
    kernel = _kernel_for(SEARCHES["pfab-stuck"]["config"])
    kernel.normalize = functools.partial(cascading_normalize, kernel)
    frontier, first = [kernel.initial(None)], {}
    while frontier:
        state = frontier.pop(0)
        for choice in kernel.choices(state):
            child = kernel.apply(state, choice)
            twin = first.setdefault(child, child)
            if twin is not child:
                return twin, child, list(first)
            frontier.append(child)
    raise AssertionError("the search reached no state twice")


def test_kstates_compare_and_hash_by_value(cascading_normalize):
    # KState is a named tuple: the search's seen set compares states by
    # the values of their seven fields, whatever path built them
    a, b, met = _twin_states(cascading_normalize)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for name in KState._fields:
        other = next(getattr(s, name) for s in met if getattr(s, name) != getattr(a, name))
        changed = a._replace(**{name: other})
        assert changed != a and changed != b and len({a, changed}) == 2, name
    # a draft freezes to an equal state that shares every field object
    frozen = _Draft(a).freeze()
    assert type(frozen) is KState and frozen == a and frozen is not a
    assert all(x is y for x, y in zip(frozen, a))


def test_values_are_equal_exactly_when_their_canonical_bytes_are(cascading_normalize):
    # the adversary's stores are sets of artifacts: equal values must be
    # the same artifact, and distinct ones distinct artifacts
    samples = _immutable_samples(cascading_normalize)
    values = [v for v in samples.values() if hasattr(v, "canon")]
    values += [replace(v) for v in values]  # equal twins, with empty caches
    values += [replace(v, token=SignatureToken(v.token.signer, "0" * 64))
               for v in values if hasattr(v, "token")]
    for a, b in itertools.product(values, repeat=2):
        assert (a == b) == (a.canon() == b.canon()), (a, b)


@pytest.mark.parametrize("name", SIGNED_TYPES)
def test_a_replaced_token_is_verified_afresh(name, cascading_normalize):
    msg = _immutable_samples(cascading_normalize)[name]
    assert msg.verify()
    forged = replace(msg, token=SignatureToken(msg.token.signer, "0" * 64))
    assert not forged.verify()


_CACHES = ("_canon", "_payload", "_verify", "_hash", "_repr")


def _fill_caches(value):
    for method in ("canon", "payload", "verify", "__hash__", "__repr__"):
        if hasattr(value, method):
            getattr(value, method)()


@pytest.mark.parametrize("name", IMMUTABLE_TYPES)
def test_positional_replace_equals_dataclasses_replace(name, cascading_normalize):
    # the protocols' replace builds a value positionally; each field lands
    # where dataclasses.replace puts it, and the new value starts with no
    # cached result, even when the one it replaces has them all
    sample = _immutable_samples(cascading_normalize)[name]
    _fill_caches(sample)
    if name == "KState":  # a named tuple: its own _replace is the reference
        names, reference = sample._fields, sample._replace
    else:
        names = [f.name for f in fields(sample) if f.init]
        reference = functools.partial(replace, sample)
    changes = [{}] + [{name: None} for name in names]
    for change in changes:
        got, want = core.replace(sample, **change), reference(**change)
        assert type(got) is type(want) and got == want and repr(got) == repr(want), change
        fresh = core.replace(sample, **change)
        assert all(getattr(fresh, slot, None) is None for slot in _CACHES), change


@pytest.mark.parametrize("name", SIGNED_TYPES)
def test_the_payload_a_signed_message_keeps_equals_a_fresh_one(name, cascading_normalize):
    sample = _immutable_samples(cascading_normalize)[name]
    msg = signed(replace(sample, token=None), sample.token.signer)
    assert msg == sample and msg.verify()
    assert msg._payload is not None and msg._payload == replace(msg).payload()


def _altered(value):
    """A different value of value's type, or None for a type left alone."""
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, bytes):
        return value + b"x"
    if isinstance(value, NodeId):
        return NodeId(value.kind, value.index + 1)
    if isinstance(value, tuple) and value:
        return value[:-1]
    return None


@pytest.mark.parametrize("name", SIGNED_TYPES)
def test_a_token_copied_onto_a_message_with_another_field_fails_verify(name, cascading_normalize):
    # signed messages keep the payload they were minted over, but a message
    # built with another field value computes its own, and the copied token
    # does not sign it
    sample = _immutable_samples(cascading_normalize)[name]
    msg = signed(replace(sample, token=None), sample.token.signer)
    assert msg.verify()
    altered = 0
    for f in fields(msg):
        new = _altered(getattr(msg, f.name)) if f.init and f.name != "token" else None
        if new is not None:
            forged = core.replace(msg, **{f.name: new})
            assert forged.token == msg.token and not forged.verify(), f.name
            altered += 1
    assert altered
