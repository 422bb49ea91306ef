from hypothesis import given, strategies as st

from bftlab.core import FAB5, PFAB, quorum_config, replica
from bftlab.fab import (
    COMMIT,
    FAST,
    STUCK,
    Accepted,
    CommitProof,
    CommitProofMsg,
    FabReplicaState,
    ProgressCertificate,
    Propose,
    Rep,
    check_decision,
    fresh_probe,
    leader_choose,
    leader_propose,
    on_accepted,
    on_propose,
    on_rep,
    on_view_change_signal,
    signed,
    vouches_for,
)

PCFG = quorum_config(PFAB, 1, 0)
FCFG = quorum_config(FAB5, 1)


def propose(view, value, signer=0, pc=None):
    return signed(Propose(view, value, pc, None), replica(signer))


def accepted(view, value, i):
    return signed(Accepted(view, value, replica(i), None), replica(i))


def rep(view, i, acc, cp=None, cfg=PCFG):
    return signed(Rep(view, replica(i), acc, cp, None), replica(i))


def proof(view, value, senders, cfg=PCFG):
    accs = tuple(accepted(view, value, i) for i in senders)
    return CommitProof(view, value, accs)


def pc_of(view, reps):
    return ProgressCertificate(view, tuple(reps))


def stuck_pc(cfg=PCFG):
    """The getting-stuck certificate: two conflicting prepares plus a proof."""
    cp = proof(1, b"A", (0, 1, 2))
    return pc_of(2, [rep(2, 0, b"B"), rep(2, 1, b"A", cp), rep(2, 3, b"B")])


# --- accepting proposals -----------------------------------------------------

def test_replica_accepts_first_proposal():
    st = FabReplicaState(replica(1), PCFG)
    st, sends, _ = on_propose(st, propose(1, b"A"))
    assert st.last_accepted == b"A" and st.accepted_view == 1
    assert len(sends) == 4  # PFaB prepares are broadcast
    assert all(m.value == b"A" for _, m in sends)


def test_replica_accepts_equivocating_value_when_unaware():
    st = FabReplicaState(replica(3), PCFG)
    st, sends, _ = on_propose(st, propose(1, b"B"))
    assert st.last_accepted == b"B" and sends


def test_replica_accepts_once_per_view():
    st = FabReplicaState(replica(1), PCFG)
    st, _, _ = on_propose(st, propose(1, b"A"))
    st2, sends, _ = on_propose(st, propose(1, b"B"))
    assert sends == () and st2.last_accepted == b"A"


def test_fab5_prepares_go_to_leader_only():
    st = FabReplicaState(replica(1), FCFG)
    _, sends, _ = on_propose(st, propose(1, b"A"))
    assert [d for d, _ in sends] == [replica(0)]


def test_unvouched_proposal_rejected_in_later_view():
    pc = stuck_pc()
    st = FabReplicaState(replica(3), PCFG, view=2)
    _, sends, _ = on_propose(st, propose(2, b"A", signer=1, pc=pc))
    assert sends == ()


# --- commit proofs -----------------------------------------------------------

def test_commit_proof_forms_at_quorum():
    st = FabReplicaState(replica(1), PCFG)
    st, _, _ = on_accepted(st, accepted(1, b"A", 0))
    st, sends, _ = on_accepted(st, accepted(1, b"A", 1))
    assert sends == ()
    st, sends, _ = on_accepted(st, accepted(1, b"A", 2))
    assert st.last_commit_proof is not None
    assert st.last_commit_proof.value == b"A"
    assert st.last_commit_proof.well_formed(PCFG)
    assert len(sends) == 4 and all(isinstance(m, CommitProofMsg) for _, m in sends)


def test_no_commit_proof_from_mixed_values():
    st = FabReplicaState(replica(1), PCFG)
    for m in (accepted(1, b"A", 0), accepted(1, b"B", 2), accepted(1, b"A", 3)):
        st, sends, _ = on_accepted(st, m)
    assert st.last_commit_proof is None and sends == ()


# --- decision rule -----------------------------------------------------------

def test_fab5_fast_decision_at_4f_plus_1():
    sent = [accepted(1, b"A", i) for i in range(5)]
    (d,) = check_decision(sent, FCFG)
    assert (d.view, d.value, d.track) == (1, b"A", FAST)
    assert check_decision(sent[:4], FCFG) == []


def test_pfab_commit_decision_at_n_f_t():
    cp = proof(1, b"A", (0, 1, 2))
    sent = [signed(CommitProofMsg(cp, replica(i), None), replica(i)) for i in (0, 1, 2)]
    (d,) = check_decision(sent, PCFG)
    assert (d.value, d.track) == (b"A", COMMIT)


def test_no_decision_when_prepares_do_not_spread():
    # prepares reached one replica only; nothing crosses either threshold
    sent = [accepted(1, b"A", i) for i in (0, 1, 2)]
    assert check_decision(sent, PCFG) == []


# --- REP messages -------------------------------------------------------------

def test_rep_carries_last_accepted_and_proof():
    cp = proof(1, b"A", (0, 1, 2))
    st = FabReplicaState(replica(1), PCFG, accepted_view=1, last_accepted=b"A", last_commit_proof=cp)
    st, sends, _ = on_view_change_signal(st, 2)
    (dst, m), = sends
    assert dst == replica(1)  # leader of view 2
    assert m.last_accepted == b"A" and m.last_commit_proof == cp


def test_rep_of_fresh_replica_is_empty():
    st = FabReplicaState(replica(2), PCFG)
    _, sends, _ = on_view_change_signal(st, 2)
    (_, m), = sends
    assert m.last_accepted is None and m.last_commit_proof is None


def test_fab5_rep_never_carries_proofs():
    cp = proof(1, b"A", (0, 1, 2), cfg=FCFG)
    st = FabReplicaState(replica(1), FCFG, last_accepted=b"A", last_commit_proof=cp)
    _, sends, _ = on_view_change_signal(st, 2)
    (_, m), = sends
    assert m.last_commit_proof is None


# --- vouching ----------------------------------------------------------------

def test_stuck_certificate_vouches_for_nothing():
    pc = stuck_pc()
    assert not vouches_for(pc, b"A", PCFG)  # two B prepares >= f+t+1
    assert not vouches_for(pc, b"B", PCFG)  # commit proof for A
    assert not vouches_for(pc, fresh_probe(pc), PCFG)


def test_fab5_unanimous_certificate_vouches_only_for_that_value():
    reps = [rep(2, i, b"A", cfg=FCFG) for i in range(5)]
    pc = pc_of(2, reps)
    assert vouches_for(pc, b"A", FCFG)
    assert not vouches_for(pc, b"B", FCFG)


def test_empty_certificate_vouches_for_everything():
    pc = pc_of(2, [rep(2, 0, None), rep(2, 1, None), rep(2, 3, None)])
    for v in (b"A", b"B", fresh_probe(pc)):
        assert vouches_for(pc, v, PCFG)


@given(st.permutations(range(3)))
def test_vouching_is_permutation_invariant(order):
    reps = list(stuck_pc().reps)
    pc = pc_of(2, [reps[i] for i in order])
    assert [vouches_for(pc, v, PCFG) for v in (b"A", b"B", b"#0")] == [False] * 3


# --- leader choice -----------------------------------------------------------

def test_leader_gets_stuck_on_paper_certificate():
    choice, reports = leader_choose(stuck_pc(), PCFG)
    assert choice is STUCK
    assert [r["vouched"] for r in reports] == [False, False, False]
    values = [r["value"] for r in reports]
    assert b"A" in values and b"B" in values


def test_leader_prefers_commit_proof_value():
    cp = proof(1, b"A", (0, 1, 2))
    pc = pc_of(2, [rep(2, 0, b"A", cp), rep(2, 1, b"A", cp), rep(2, 3, b"A")])
    choice, _ = leader_choose(pc, PCFG)
    assert choice == b"A"


def test_leader_breaks_ties_deterministically():
    pc = pc_of(2, [rep(2, 0, b"A"), rep(2, 1, b"B"), rep(2, 3, b"C")])
    choice, _ = leader_choose(pc, PCFG)
    # every candidate is vouched (no f+t+1 agreement, no proofs); plurality
    # ties resolve to the smallest value
    assert choice == b"A"
    assert leader_choose(pc, PCFG)[0] == choice


def test_leader_proposes_own_input_when_nothing_constrains():
    pc = pc_of(2, [rep(2, 0, None), rep(2, 1, None), rep(2, 3, None)])
    choice, _ = leader_choose(pc, PCFG, preferred=b"Z")
    assert choice == b"Z"


def test_new_leader_proposes_or_sticks_via_on_rep():
    st = FabReplicaState(replica(1), PCFG, view=2)
    for m in stuck_pc().reps[:2]:
        st, sends, notes = on_rep(st, m)
        assert sends == () and notes == ()
    st, sends, notes = on_rep(st, stuck_pc().reps[2])
    assert sends == () and st.stuck_view == 2
    (note,) = notes
    assert note.view == 2 and len(note.pc.reps) == 3


def test_view1_leader_proposes_input():
    st = FabReplicaState(replica(0), PCFG, input_value=b"A")
    st, sends, _ = leader_propose(st)
    assert len(sends) == 4 and sends[0][1].value == b"A"


# --- PFaB can get stuck (FaB5's exhaustive check: acceptance criterion 5) ----

def test_pfab_stuck_certificate_exists():
    # the operational negation of FaB's Lemma 7 for the parameterized variant
    pc = stuck_pc()
    assert pc.well_formed(PCFG)
    choice, _ = leader_choose(pc, PCFG)
    assert choice is STUCK
