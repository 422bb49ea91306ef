import itertools

from hypothesis import given, strategies as st

from bftlab.core import (
    NULL_REQUEST,
    ZYZZYVA,
    client,
    exec_result,
    is_null,
    log_canon,
    make_request,
    quorum_config,
    replica,
)
from bftlab.zyzzyva import (
    FAST,
    TWO_PHASE,
    CommitRequest,
    NewViewMessage,
    OrderReq,
    ReplicaState,
    SpecResponse,
    ViewChangeMessage,
    check_decisions,
    make_certificate,
    make_client,
    on_commit_request,
    on_local_commit,
    on_new_view,
    on_order_req,
    on_request,
    on_spec_response,
    on_timeout,
    on_view_change_msg,
    on_view_change_signal,
    reconstruct_log,
    signed,
    valid_cert,
)
from conftest import SEARCHES

CFG = quorum_config(ZYZZYVA, 1)

A = make_request(b"a", client(1))
B = make_request(b"b", client(2))
A1 = make_request(b"a1", client(1))
A2 = make_request(b"a2", client(2))
B1 = make_request(b"b1", client(3))
B2 = make_request(b"b2", client(4))


def resp(view, log, i):
    return signed(SpecResponse(view, log, replica(i), exec_result(log), None), replica(i))


def cert(view, log, senders):
    return make_certificate(tuple(resp(view, log, i) for i in senders))


def vc(view, i, log, cc=None):
    return signed(ViewChangeMessage(view, replica(i), log, cc, None), replica(i))


def commit_req(cc, cid=1):
    return signed(CommitRequest(client(cid), cc, None), client(cid))


# --- leader ordering ---------------------------------------------------------

def test_leader_extends_empty_log():
    st = ReplicaState(replica(0), CFG)
    st, sends, _ = on_request(st, A)
    assert st.log == (A,)
    assert len(sends) == 4 and all(isinstance(m, OrderReq) for _, m in sends)
    assert sends[0][1].log == (A,) and sends[0][1].view == 1


def test_leader_extends_existing_log():
    st = ReplicaState(replica(0), CFG, log=(A1,))
    st, sends, _ = on_request(st, A2)
    assert sends[0][1].log == (A1, A2)


def test_leader_orders_duplicates_without_dedup():
    st = ReplicaState(replica(0), CFG, log=(A,))
    st, sends, _ = on_request(st, A)
    assert sends[0][1].log == (A, A)


def test_non_leader_ignores_requests():
    st = ReplicaState(replica(1), CFG)
    st, sends, _ = on_request(st, A)
    assert st.log == () and sends == ()


# --- replica acceptance ------------------------------------------------------

def _order(view, log, signer=0):
    return signed(OrderReq(view, log, None), replica(signer))


def test_replica_accepts_extension():
    st = ReplicaState(replica(1), CFG)
    st, sends, _ = on_order_req(st, _order(1, (A,)))
    assert st.log == (A,)
    assert len(sends) == 1
    dst, m = sends[0]
    assert dst == client(1) and m.log == (A,) and m.result == exec_result((A,))


def test_replica_rejects_conflicting_log():
    st = ReplicaState(replica(1), CFG, log=(A,), executed=1)
    st2, sends, _ = on_order_req(st, _order(1, (B,)))
    assert st2.log == (A,) and sends == ()


def test_replica_accepts_two_position_extension():
    st = ReplicaState(replica(1), CFG, log=(A1,), executed=1)
    st, sends, _ = on_order_req(st, _order(1, (A1, A2)))
    assert st.log == (A1, A2)
    assert [d for d, _ in sends] == [client(2)]


def test_replica_rejects_wrong_view_and_wrong_leader():
    st = ReplicaState(replica(1), CFG)
    _, sends, _ = on_order_req(st, _order(2, (A,)))
    assert sends == ()
    _, sends, _ = on_order_req(st, _order(1, (A,), signer=2))
    assert sends == ()


# --- client fast track -------------------------------------------------------

def test_client_fast_commit_at_full_quorum():
    cl = make_client(client(2), CFG, b"b")
    log = (cl.request,)
    notes = ()
    for i in range(4):
        cl, _, notes = on_spec_response(cl, resp(2, log, i))
    assert len(notes) == 1
    d = notes[0]
    assert (d.view, d.track, d.log) == (2, FAST, log)


def test_client_no_fast_commit_below_quorum():
    cl = make_client(client(1), CFG, b"a")
    log = (cl.request,)
    for i in range(3):
        cl, _, notes = on_spec_response(cl, resp(1, log, i))
        assert notes == ()


def test_client_fast_commit_requires_matching_views():
    cl = make_client(client(1), CFG, b"a")
    log = (cl.request,)
    for i in range(3):
        cl, _, _ = on_spec_response(cl, resp(1, log, i))
    cl, _, notes = on_spec_response(cl, resp(2, log, 3))
    assert notes == ()


# --- client certificate formation ---------------------------------------------

def test_client_forms_certificate_on_timeout():
    cl = make_client(client(1), CFG, b"a")
    log = (cl.request,)
    for i in (0, 1, 2):
        cl, _, _ = on_spec_response(cl, resp(1, log, i))
    cl, sends, _ = on_timeout(cl)
    assert cl.cert is not None and cl.cert.log == log and cl.cert.view == 1
    assert cl.cert.well_formed(CFG)
    assert len(sends) == 4 and all(m.cert == cl.cert for _, m in sends)


def test_client_forms_certificate_for_longer_log():
    cl = make_client(client(2), CFG, b"a2")
    log = (A1, cl.request)
    for i in (0, 1, 2):
        cl, _, _ = on_spec_response(cl, resp(1, log, i))
    cl, _, _ = on_timeout(cl)
    assert cl.cert.log == log


def test_client_cannot_form_certificate_below_quorum():
    cl = make_client(client(1), CFG, b"a")
    log = (cl.request,)
    for i in (0, 1):
        cl, _, _ = on_spec_response(cl, resp(1, log, i))
    cl, sends, _ = on_timeout(cl)
    assert cl.cert is None and sends == ()


# --- replica commit responses --------------------------------------------------

def test_replica_commits_on_valid_certificate():
    cc = cert(2, (B1,), (0, 1, 3))
    st = ReplicaState(replica(1), CFG, view=2, log=(B1,))
    st, sends, _ = on_commit_request(st, commit_req(cc, 3))
    assert st.highest_cc == cc
    assert len(sends) == 1
    dst, lc = sends[0]
    assert dst == client(3) and lc.view == 2 and lc.log == (B1,)


def test_replica_rejects_undersized_certificate():
    small = make_certificate((resp(1, (A,), 0), resp(1, (A,), 1)))
    st = ReplicaState(replica(1), CFG)
    st, sends, _ = on_commit_request(st, commit_req(small))
    assert sends == () and st.highest_cc is None


def test_replica_retains_but_does_not_answer_old_view_certificate():
    cc = cert(1, (A,), (0, 1, 2))
    st = ReplicaState(replica(1), CFG, view=3)
    st, sends, _ = on_commit_request(st, commit_req(cc))
    assert sends == ()
    assert st.highest_cc == cc  # kept for view-change reporting


# --- client two-phase track ------------------------------------------------------

def _local_commit(view, log, i):
    from bftlab.zyzzyva import LocalCommit

    return signed(LocalCommit(view, log, replica(i), None), replica(i))


def test_client_two_phase_commit():
    cl = make_client(client(3), CFG, b"b1")
    log = (cl.request,)
    cl, _, notes = on_local_commit(cl, _local_commit(2, log, 0))
    assert notes == ()
    cl, _, notes = on_local_commit(cl, _local_commit(2, log, 1))
    assert notes == ()
    cl, _, notes = on_local_commit(cl, _local_commit(2, log, 3))
    assert len(notes) == 1 and notes[0].track == TWO_PHASE and notes[0].view == 2


def test_client_two_phase_requires_matching_views():
    cl = make_client(client(3), CFG, b"b1")
    log = (cl.request,)
    for view, i in ((1, 0), (1, 1), (2, 3)):
        cl, _, notes = on_local_commit(cl, _local_commit(view, log, i))
    assert notes == ()


# --- view change ------------------------------------------------------------

def test_view_change_message_carries_state():
    st = ReplicaState(replica(1), CFG, log=(A,))
    st, sends, _ = on_view_change_signal(st, 2)
    assert st.view == 2 and st.awaiting_new_view
    (dst, m), = sends
    assert dst == replica(1)  # leader of view 2
    assert m.log == (A,) and m.cert is None


def test_view_change_message_includes_highest_certificate():
    cc = cert(1, (A1, A2), (0, 1, 2))
    st = ReplicaState(replica(2), CFG, log=(A1, A2), highest_cc=cc)
    _, sends, _ = on_view_change_signal(st, 3)
    (_, m), = sends
    assert m.cert == cc and m.log == (A1, A2)


def test_fresh_replica_sends_empty_view_change():
    st = ReplicaState(replica(3), CFG)
    _, sends, _ = on_view_change_signal(st, 2)
    (_, m), = sends
    assert m.log == () and m.cert is None


# --- log reconstruction (the bug surface) ----------------------------------------

def test_reconstruct_rule3_majority_log():
    proof = (vc(2, 1, (A,)), vc(2, 3, (B,)), vc(2, 0, (B,)))
    assert reconstruct_log(proof, CFG) == (B,)


def test_reconstruct_certificate_outranks_majority():
    # scenario-1 view 3: one certificate for (a) beats two (even three) (b) logs
    cc = cert(1, (A,), (0, 1, 2))
    proof = (vc(3, 0, (B,), cc), vc(3, 2, (B,)), vc(3, 3, (B,)))
    assert reconstruct_log(proof, CFG) == (A,)


def test_reconstruct_prefers_longest_certificate():
    cc1 = cert(1, (A1, A2), (0, 1, 2))
    cc2 = cert(2, (B1,), (0, 1, 3))
    proof = (vc(3, 2, (A1, A2), cc1), vc(3, 3, (B1, B2), cc2), vc(3, 0, ()))
    assert reconstruct_log(proof, CFG) == (A1, A2)


def test_reconstruct_empty_proof_set():
    proof = (vc(2, 1, ()), vc(2, 2, ()), vc(2, 3, ()))
    assert reconstruct_log(proof, CFG) == ()


def test_reconstruct_pads_with_nulls():
    proof = (vc(2, 1, (A, B)), vc(2, 2, ()), vc(2, 3, ()))
    g = reconstruct_log(proof, CFG)
    assert len(g) == 2 and all(is_null(e) for e in g)


def test_reconstruct_rule3_extends_certificate_tail():
    cc = cert(1, (A,), (0, 1, 2))
    proof = (vc(2, 1, (A, B), cc), vc(2, 2, (A, B)), vc(2, 3, ()))
    assert reconstruct_log(proof, CFG) == (A, B)


@given(st.permutations([0, 1, 2]))
def test_reconstruct_is_permutation_invariant(order):
    cc = cert(1, (A,), (0, 1, 2))
    msgs = [vc(3, 0, (B,), cc), vc(3, 2, (B,)), vc(3, 3, (B,))]
    proof = tuple(msgs[i] for i in order)
    assert reconstruct_log(proof, CFG) == (A,)


def test_reconstruct_is_deterministic_on_certificate_ties():
    cc_a = cert(1, (A,), (0, 1, 2))
    cc_b = cert(1, (B,), (0, 1, 3))
    results = set()
    for p in itertools.permutations((vc(2, 1, (), cc_a), vc(2, 2, (), cc_b), vc(2, 3, ()))):
        results.add(reconstruct_log(p, CFG))
    assert len(results) == 1


def _reconstruct_by_bytes(proof, cfg):
    """reconstruct_log with its view-change logs grouped by canonical bytes:
    the reference for grouping them by value."""
    g = ()
    certs = [c for vc in proof if (c := valid_cert(vc, cfg)) is not None]
    if certs:
        g = min(certs, key=lambda c: (-len(c.log), -c.view, c.canon())).log
    counts, seen = {}, {}
    for vc in proof:
        key = log_canon(vc.log)
        counts[key] = vc.log
        seen[key] = seen.get(key, 0) + 1
    supported = sorted(k for k, c in seen.items() if c >= cfg.f + 1)
    if supported:
        tail = counts[supported[0]]
        if len(tail) > len(g):
            g = g + tuple(tail[len(g):])
    longest = max((len(vc.log) for vc in proof), default=0)
    if longest > len(g):
        g = g + (NULL_REQUEST,) * (longest - len(g))
    return g


def test_reconstruct_orders_two_supported_logs_by_canonical_bytes():
    # 2f+2 view-change messages: two logs with f+1 supporters each, the one
    # case where the supported logs' order decides
    msgs = (vc(2, 0, (A,)), vc(2, 1, (B, A)), vc(2, 2, (A,)), vc(2, 3, (B, A)))
    first = min([(A,), (B, A)], key=log_canon)
    for proof in itertools.permutations(msgs):
        assert reconstruct_log(proof, CFG) == _reconstruct_by_bytes(proof, CFG)
        assert reconstruct_log(proof, CFG)[:len(first)] == first


def test_reconstruct_keeps_its_rule_on_every_searched_new_view(searched):
    # the 3-view search's transition table, shared with the explorer tests
    kernel = searched(SEARCHES["zyzzyva-3-view-violation"]["config"]).kernel
    proofs = {args[0].proof for _, _, *args in kernel._transitions
              if args and isinstance(args[0], NewViewMessage)}
    assert len(proofs) > 10
    for proof in proofs:
        assert reconstruct_log(proof, kernel.qc) == _reconstruct_by_bytes(proof, kernel.qc)


# --- new-view adoption ------------------------------------------------------

def _new_view_msg(view, proof, leader, g=None):
    g = reconstruct_log(proof, CFG) if g is None else g
    return signed(NewViewMessage(view, proof, g, None), replica(leader))


def test_new_view_rolls_back_and_re_executes():
    cc = cert(1, (A,), (0, 1, 2))
    proof = (vc(3, 0, (B,), cc), vc(3, 2, (B,)), vc(3, 3, (B,)))
    st = ReplicaState(replica(3), CFG, view=3, log=(B,), executed=1, awaiting_new_view=True)
    st, sends, _ = on_new_view(st, _new_view_msg(3, proof, leader=2))
    assert st.log == (A,) and not st.awaiting_new_view
    (dst, m), = sends
    assert dst == client(1) and m.view == 3 and m.log == (A,)


def test_new_view_rejects_mismatched_base_log():
    proof = (vc(2, 1, (A,)), vc(2, 2, (A,)), vc(2, 3, ()))
    st = ReplicaState(replica(3), CFG, view=2, awaiting_new_view=True)
    st2, sends, _ = on_new_view(st, _new_view_msg(2, proof, leader=1, g=(B,)))
    assert sends == () and st2.log == ()


def test_new_view_rejects_stale_view():
    proof = (vc(2, 1, (A,)), vc(2, 2, (A,)), vc(2, 3, ()))
    st = ReplicaState(replica(3), CFG, view=3)
    _, sends, _ = on_new_view(st, _new_view_msg(2, proof, leader=1))
    assert sends == ()


def test_leader_forms_new_view_at_quorum():
    st = ReplicaState(replica(1), CFG, view=2, awaiting_new_view=True)
    st, sends, _ = on_view_change_msg(st, vc(2, 1, (A,)))
    assert sends == ()
    st, sends, _ = on_view_change_msg(st, vc(2, 0, (B,)))
    assert sends == ()
    st, sends, _ = on_view_change_msg(st, vc(2, 3, (B,)))
    assert len(sends) == 4
    nv = sends[0][1]
    assert nv.log == (B,) and nv.new_view == 2
    # later view-change messages for the same view are ignored
    st, sends, _ = on_view_change_msg(st, vc(2, 2, (A,)))
    assert sends == ()


# --- omniscient decisions ------------------------------------------------------

def test_check_decisions_counts_sent_messages():
    sent = [resp(2, (B,), i) for i in range(4)]
    (d,) = check_decisions(sent, CFG)
    assert (d.view, d.track) == (2, FAST)
    sent = sent[:3]
    assert check_decisions(sent, CFG) == []


def test_reconstruct_ignores_malformed_certificates():
    # an embedded certificate that fails its invariants counts as absent
    small = make_certificate((resp(1, (A,), 0), resp(1, (A,), 1)))
    proof = (vc(2, 0, (B,), small), vc(2, 2, (B,)), vc(2, 3, (B,)))
    assert reconstruct_log(proof, CFG) == (B,)


@given(st.lists(st.sampled_from([(A,), (A, B), (A, B, A1), (B,)]), min_size=1, max_size=5))
def test_prefix_growth_within_a_view(logs):
    # whatever order-reqs arrive, an accepted log only ever grows by extension
    st_r = ReplicaState(replica(1), CFG)
    adopted = [st_r.log]
    for log in logs:
        st_r, _, _ = on_order_req(st_r, _order(1, tuple(log)))
        adopted.append(st_r.log)
    for earlier, later in zip(adopted, adopted[1:]):
        from bftlab.core import is_prefix

        assert is_prefix(earlier, later)
