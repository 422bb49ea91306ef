import copy
from dataclasses import asdict

import pytest

from bftlab.checkers import (
    TraceError,
    check_agreement,
    check_fast_latency,
    check_stuck,
    check_validity,
    expected_mismatches,
    run_checkers,
)
from bftlab.netsim import run_scenario
from bftlab.scenarios import Scenario, get_builtin, validate

# A benign schedule where view-change rule 4 pads the base log with a null
# request, and the padded position later commits underneath a real request.
NULL_PAD = validate(Scenario(
    name="null-padding",
    protocol="zyzzyva",
    f=1,
    byzantine=[],
    clients=[{"id": 1, "op": "a"}, {"id": 2, "op": "b"}],
    script=[
        {"do": "client_request", "client": 1, "to": "r0"},
        {"do": "deliver", "match": {"type": "request", "dst": "r0"}},
        {"do": "deliver", "match": {"type": "order_req", "dst": "r1"}},
        {"do": "drop", "match": {"type": "order_req"}},
        {"do": "drop", "match": {"type": "spec_response"}},
        {"do": "view_change", "view": 2, "nodes": ["r1", "r2", "r3"]},
        {"do": "deliver", "match": {"type": "view_change"}},
        {"do": "deliver", "match": {"type": "new_view"}},
        {"do": "client_request", "client": 2, "to": "r1"},
        {"do": "deliver", "match": {"type": "request", "dst": "r1"}},
        {"do": "deliver", "match": {"type": "order_req", "view": 2}},
        {"do": "deliver", "match": {"type": "spec_response", "view": 2}},
    ],
    expected=[
        {"property": "agreement", "status": "holds"},
        {"property": "validity", "status": "holds"},
    ],
))


def test_rule4_padding_commits_null_and_stays_valid():
    trace = run_scenario(NULL_PAD)
    commits = [c for r in trace.records for c in r.get("commits") or []]
    nulls = [c for c in commits if c["entry"] is None]
    assert nulls and all(c["position"] == 1 for c in nulls)
    assert any(c["entry"] == "b" and c["position"] == 2 for c in commits)
    verdicts = run_checkers(trace.records, ["agreement", "validity"])
    assert [v.status for v in verdicts] == ["holds", "holds"]


def test_null_conflicts_with_real_requests():
    # a null decision and a real decision at one position disagree
    trace = run_scenario(NULL_PAD)
    records = copy.deepcopy(trace.records)
    records[-1]["commits"] = [
        {"position": 1, "entry": "a", "client": "c1", "token": "x", "view": 3,
         "track": "fast", "by": "quorum", "log": ["a"], "depth": None}
    ]
    v = check_agreement(records)
    assert v.status == "violated" and v.details["positions"] == [1]


def test_byzantine_commits_are_excluded():
    trace = run_scenario(get_builtin("zyzzyva-cc-priority"))
    records = copy.deepcopy(trace.records)
    base = check_agreement(records)
    # a fabricated commit recorded by the Byzantine node must not add conflicts
    records[-1]["commits"].append(
        {"position": 2, "entry": "z", "client": "c1", "token": "x", "view": 3,
         "track": "fast", "by": "r0", "log": ["z"], "depth": None}
    )
    again = check_agreement(records)
    assert again.details["positions"] == base.details["positions"] == [1]


def test_validity_catches_tampered_tokens():
    trace = run_scenario(get_builtin("zyzzyva-benign-fast"))
    records = copy.deepcopy(trace.records)
    assert check_validity(records).status == "holds"
    for rec in records:
        for c in rec.get("commits") or []:
            c["token"] = "f" * 64
    v = check_validity(records)
    assert v.status == "violated" and v.witnesses


def test_stuck_holds_on_benign_fab_traces():
    for name in ("fab5-benign", "pfab-benign"):
        records = run_scenario(get_builtin(name)).records
        assert check_stuck(records).status == "holds"


def test_stuck_witness_points_at_the_certificate():
    records = run_scenario(get_builtin("pfab-stuck")).records
    v = check_stuck(records)
    assert v.status == "occurred"
    (seq,) = v.witnesses
    assert records[seq]["stuck"]["view"] == 2
    reps = [(r["last_accepted"], bool(r["commit_proof"])) for r in v.details["pc"]]
    assert reps == [("B", False), ("A", True), ("B", False)]


def test_fast_latency_is_three_on_the_benign_run():
    records = run_scenario(get_builtin("zyzzyva-benign-fast")).records
    v = check_fast_latency(records)
    assert v.status == "holds" and v.details["depths"] == [3]


def test_fast_latency_not_applicable_without_fast_commit():
    records = run_scenario(get_builtin("zyzzyva-benign-two-phase")).records
    assert check_fast_latency(records).status == "not_applicable"


def test_fast_latency_not_applicable_under_byzantine_nodes():
    records = run_scenario(get_builtin("zyzzyva-cc-priority")).records
    assert check_fast_latency(records).status == "not_applicable"


def test_checkers_are_pure():
    records = run_scenario(get_builtin("zyzzyva-cc-priority")).records
    first = [asdict(v) for v in run_checkers(records)]
    second = [asdict(v) for v in run_checkers(records)]
    assert first == second


def test_unknown_property_raises_trace_error():
    records = run_scenario(get_builtin("zyzzyva-benign-fast")).records
    with pytest.raises(TraceError, match="unknown property 'agreemnt'"):
        run_checkers(records, ["agreement", "agreemnt"])


def test_expected_mismatch_reporting():
    records = run_scenario(get_builtin("zyzzyva-benign-fast")).records
    verdicts = run_checkers(records)
    assert expected_mismatches(
        [{"property": "agreement", "status": "violated"}], verdicts
    ) == ["agreement: expected violated, got holds"]
    assert expected_mismatches(
        [{"property": "stuck", "status": "holds"}], verdicts
    ) == ["stuck: not checked"]
