import json
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bftlab.cli import main
from bftlab.checkers import read_trace
from bftlab.scenarios import BUILTIN_NAMES, get_builtin
from conftest import GOLDEN, SEARCHES


def test_list_prints_builtins(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "zyzzyva-cc-priority" in out and "pfab-stuck" in out


def test_run_benign_exits_zero(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "--builtin", "zyzzyva-benign-fast", "-o", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "fast_latency: HOLDS" in out
    assert trace.read_text().startswith('{"seq":0,"kind":"scenario"')


def test_run_violation_exits_two_and_tables_commits(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    assert main(["run", "--builtin", "zyzzyva-cc-priority", "-o", str(trace)]) == 2
    out = capsys.readouterr().out
    assert "agreement: VIOLATED at position(s) [1]" in out
    lines = [l.split() for l in out.splitlines() if l.strip().startswith(("2", "3"))]
    assert ["2", "1", "b", "fast", "quorum"] in lines
    assert ["3", "1", "a", "fast", "quorum"] in lines


def test_run_then_check_agrees(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    main(["run", "--builtin", "zyzzyva-longest-cc", "-o", str(trace)])
    run_err = capsys.readouterr().err
    assert main(["check", str(trace)]) == 2
    check_err = capsys.readouterr().err
    assert run_err == check_err  # identical verdicts with identical witnesses


def test_check_honours_property_selection(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    main(["run", "--builtin", "pfab-stuck", "-o", str(trace)])
    capsys.readouterr()
    assert main(["check", str(trace), "--properties", "agreement"]) == 0
    err = capsys.readouterr().err
    verdicts = [json.loads(l) for l in err.splitlines()]
    assert [v["property"] for v in verdicts] == ["agreement"]


def test_stuck_run_prints_certificate(capsys):
    assert main(["run", "--builtin", "pfab-stuck"]) == 2
    out = capsys.readouterr().out
    assert "stuck: view 2 leader r1" in out
    assert "candidate A: blocked" in out
    assert "candidate <fresh>: blocked" in out


def test_expected_mismatch_forces_exit_two(capsys, tmp_path):
    sc = get_builtin("zyzzyva-benign-fast")
    sc.expected = [{"property": "agreement", "status": "violated"}]
    path = tmp_path / "s.json"
    path.write_text(sc.to_json())
    assert main(["run", "--scenario", str(path)]) == 2
    assert "expected-verdict mismatch" in capsys.readouterr().out


def test_missing_file_exits_one(capsys):
    assert main(["run", "--scenario", "/nonexistent.json"]) == 1
    assert main(["check", "/nonexistent.jsonl"]) == 1


def test_invalid_scenario_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "protocol": "raft", "f": 1}')
    assert main(["run", "--scenario", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_explore_cli_roundtrip(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    stuck = SEARCHES["pfab-stuck"]
    cfg.write_text(json.dumps(asdict(stuck["config"])))
    out_path = tmp_path / "found.json"
    assert main(["explore", "--explore-config", str(cfg), "--out", str(out_path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("explored {states} states (deduped {deduped}, depth {max_depth}) in "
                          .format(**stuck["counters"]))
    assert "s; {transitions} transitions computed, {transitions_reused} reused\n".format(
        **stuck["counters"]) in out
    assert "counterexample found: stuck occurred" in out
    assert main(["run", "--scenario", str(out_path)]) == 2
    assert "stuck: OCCURRED" in capsys.readouterr().out


def test_explore_cli_exhaustion_exits_zero(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(asdict(SEARCHES["pfab-1-value-exhaustion"]["config"])))
    assert main(["explore", "--explore-config", str(cfg)]) == 0
    assert "no counterexample" in capsys.readouterr().out


def test_run_then_check_matches_for_every_builtin(capsys, tmp_path):
    from bftlab.scenarios import BUILTIN_NAMES

    for name in BUILTIN_NAMES:
        trace = tmp_path / f"{name}.jsonl"
        run_code = main(["run", "--builtin", name, "-o", str(trace)])
        run_err = capsys.readouterr().err
        check_code = main(["check", str(trace)])
        check_err = capsys.readouterr().err
        assert run_err == check_err, name
        assert (run_code == 2) == (check_code == 2), name


def test_list_flag_alias(capsys):
    assert main(["--list"]) == 0
    assert "pfab-stuck" in capsys.readouterr().out
    assert main([]) == 1


@pytest.mark.parametrize("argv", [
    ["run"],
    ["explore", "--explore-config", "cfg.json", "--parallel", "2"],
    ["frobnicate"],
])
def test_usage_errors_exit_one(capsys, argv):
    # exit code 2 is reserved for violations
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


_ZYZZYVA = {"name": "bad", "protocol": "zyzzyva", "f": 1, "byzantine": [0],
            "clients": [{"id": 1, "op": "a"}]}
_PFAB = {"name": "bad", "protocol": "pfab", "f": 1, "byzantine": [0], "inputs": {"r1": "A"}}


@pytest.mark.parametrize("scenario", [
    dict(_ZYZZYVA, script=[{"do": "adversary", "actor": 0, "action": {}}]),
    dict(_ZYZZYVA, script=[{"do": "adversary", "actor": 0,
                            "action": {"kind": "order_req", "view": 1}}]),
    dict(_ZYZZYVA, script=[{"do": "view_change", "view": 2, "nodes": ["c1"]}]),
    dict(_PFAB, script=[{"do": "propose", "node": "r0"}]),
    dict(_ZYZZYVA, script=[{"do": "adversary", "actor": 0, "action": {
        "kind": "propose", "view": 1, "sends": [{"to": "r1", "value": "A"}]}}]),
    dict(_ZYZZYVA, script=[{"do": "client_request", "client": 1, "to": "r9"}]),
    dict(_ZYZZYVA, script=[{"do": "client_request", "client": 1, "to": ""}]),
    dict(_ZYZZYVA, script=[
        {"do": "adversary", "actor": 0, "action": {
            "kind": "view_change", "view": 2, "log": [], "cert": None, "to": "c1"}},
        {"do": "deliver", "match": {"type": "view_change"}},
    ]),
], ids=["action-without-kind", "order-req-without-sends", "view-change-to-client",
        "propose-at-byzantine-replica", "fab-action-in-zyzzyva", "request-to-r9",
        "empty-node-name", "view-change-action-delivered-to-client"])
def test_malformed_actions_and_node_names_exit_one(capsys, tmp_path, scenario):
    _assert_one_error_line(capsys, tmp_path, scenario)


def _assert_one_error_line(capsys, tmp_path, doc, command=("run", "--scenario")):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([*command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


def _view_change_citing(cert, actor):
    return {"do": "adversary", "actor": actor, "action": {
        "kind": "view_change", "view": 2, "log": [], "cert": cert, "to": "r1"}}


# with r3 Byzantine: c1's commit certificate reaches r3's store
_STORE_A_CERTIFICATE = [
    {"do": "client_request", "client": 1, "to": "r0"},
    {"do": "deliver", "match": {"type": "request"}},
    {"do": "deliver", "match": {"type": "order_req"}},
    {"do": "deliver", "match": {"type": "spec_response"}},
    {"do": "timeout", "node": "c1"},
    {"do": "deliver", "match": {"type": "commit_request", "dst": "r3"}},
]


def _order_req_script(view):
    """r0 stores c1's request, then sends r1 an order_req of it in `view`."""
    return [
        {"do": "client_request", "client": 1, "to": "r0"},
        {"do": "deliver", "match": {"type": "request"}},
        {"do": "adversary", "actor": 0, "action": {
            "kind": "order_req", "view": view, "sends": [{"to": "r1", "log": ["a"]}]}},
        {"do": "deliver", "match": {"type": "order_req"}},
    ]


@pytest.mark.parametrize("scenario, says", [
    (dict(_ZYZZYVA, clients=[{"id": 1}]), "scenario: clients[0] is missing fields ['op']"),
    (dict(_ZYZZYVA, clients=[1]), "clients[0] must be an object"),
    (dict(_ZYZZYVA, expected=[1]), "expected[0] must be an object"),
    (dict(_PFAB, inputs=[1]), "inputs must be an object"),
    ([1, 2], "scenario must be an object, got [1, 2]"),
    (dict(_ZYZZYVA, script=[{"do": "client_request", "client": "1", "to": "r0"}]),
     "client must be an integer"),
    (dict(_ZYZZYVA, script=[{"do": "adversary", "actor": "0", "action": {}}]),
     "actor must be an integer"),
    (dict(_ZYZZYVA, script=[{"do": "view_change", "view": 2, "nodes": "r1"}]),
     "nodes must be a list"),
    (dict(_ZYZZYVA, script=_order_req_script("1")),
     "scenario: script[2].action.view must be an integer, got '1'"),
    (dict(_ZYZZYVA, script=_order_req_script([1])),
     "scenario: script[2].action.view must be an integer, got [1]"),
    # directive 1 would fail when run: nothing of its pattern is pending
    (dict(_ZYZZYVA, script=[
        {"do": "client_request", "client": 1, "to": "r0"},
        {"do": "deliver", "match": {"type": "order_req"}},
        {"do": "timeout", "node": "c1"},
        {"do": "adversary", "actor": 0, "action": {
            "kind": "spec_response", "view": "2", "log": ["a"], "to": "c1"}}]),
     "error: scenario: script[3].action.view must be an integer, got '2'"),
    (dict(_ZYZZYVA, expected=[{"property": "agreement", "status": "violated", "positions": 3}]),
     "expected[0].positions must be a list"),
    (dict(_ZYZZYVA, script=[_view_change_citing({"kind": "x"}, actor=0)]),
     "scenario: script[0].action.cert has unknown fields ['kind']"),
    (dict(_ZYZZYVA, script=[{"do": "adversary", "actor": 0,
                             "action": {"kind": "withhold", "match": [1]}}]),
     "scenario: script[0].action is an unknown zyzzyva action 'withhold'"),
    (dict(_ZYZZYVA, byzantine=[3], script=[*_STORE_A_CERTIFICATE,
                                           _view_change_citing({"kind": "x"}, actor=3)]),
     "scenario: script[6].action.cert has unknown fields ['kind']"),
    (dict(_ZYZZYVA, script=[{"do": "delay_all_except", "mtach": {"src": "c1"}}]),
     "scenario: script[0] has unknown fields ['mtach']"),
    (dict(_ZYZZYVA, script=[{"do": "client_request", "client": 1, "to": "r0"},
                            {"do": "deliver", "match": {"type": "request"}, "ordinal": 0}]),
     "scenario: script[1] has unknown fields ['ordinal']"),
    (dict(_ZYZZYVA, expected=[{"property": "agreement", "status": "violated",
                               "positons": [2]}]),
     "scenario: expected[0] has unknown fields ['positons']"),
    (dict(_ZYZZYVA, script=[{"do": "drop", "match": {"tpye": "request"}}]),
     "scenario: script[0].match has unknown fields ['tpye']"),
    (dict(_ZYZZYVA, script=[{"do": "delay_all_except", "match": {"tpye": "request"}}]),
     "scenario: script[0].match has unknown fields ['tpye']"),
    (dict(_ZYZZYVA, script=[{"do": "adversary", "actor": 0, "action": {
        "kind": "withhold", "match": {"tpye": "order_req"}}}]),
     "scenario: script[0].action is an unknown zyzzyva action 'withhold'"),
    (dict(_PFAB, inputs={"r9": "A"}), "inputs['r9'] names no correct replica"),
    (dict(_PFAB, inputs={"r1": "A", "c1": "B"}), "inputs['c1'] names no correct replica"),
    (dict(_PFAB, inputs={"r0": "A"}), "inputs['r0'] names no correct replica"),
    (dict(_ZYZZYVA, inputs={"r1": "A"}), "zyzzyva replicas take no inputs, got ['r1']"),
    (dict(_PFAB, clients=[{"id": 1, "op": "a"}]), "pfab scenarios take no clients"),
    (dict(_PFAB, protocol="fab5", byzantine=[], inputs={"r0": "A"},
          clients=[{"id": 1, "op": "a"}], script=[
              {"do": "client_request", "client": 1, "to": "r0"},
              {"do": "deliver", "match": {"type": "request"}}]),
     "fab5 scenarios take no clients"),
    (dict(_ZYZZYVA, f=2, byzantine=[0, 0]), "duplicate byzantine ids in [0, 0]"),
    (dict(_ZYZZYVA, clients=[{"id": -1, "op": "a"}]), "clients[0].id must be at least 1, got -1"),
    (dict(_ZYZZYVA, clients=[{"id": 0, "op": "a"}]), "clients[0].id must be at least 1, got 0"),
    (dict(_ZYZZYVA, script=[{"do": "client_request", "client": 1, "to": "x9"}]),
     "directive 0 'client_request': bad node name: 'x9'"),
    (dict(_ZYZZYVA, script=[{"do": "view_change", "view": 2, "nodes": ["r1", "x1"]}]),
     "directive 0 'view_change': bad node name: 'x1'"),
    (dict(_ZYZZYVA, script=[{"do": "timeout", "node": "c"}]),
     "directive 0 'timeout': bad node name: 'c'"),
    (dict(_ZYZZYVA, script=[{"do": "client_request", "client": 1, "to": "r\u00b2"}]),
     "directive 0 'client_request': bad node name: 'r\u00b2'"),
    (dict(_ZYZZYVA, script=[{"do": "client_request", "client": 1, "to": "r\u0663"}]),
     "directive 0 'client_request': bad node name: 'r\u0663'"),
    (dict(_ZYZZYVA, script=[{"do": "client_request", "client": 1, "to": "r" + "1" * 5000}]),
     "directive 0 'client_request': bad node name: 'r111"),
    (dict(_ZYZZYVA, clients=[{"id": 1, "op": "\ud800"}]),
     "invalid string '\\ud800': surrogates not allowed"),
    (dict(_PFAB, inputs={"r1": "\ud800"}), "invalid string '\\ud800': surrogates not allowed"),
    (dict(_PFAB, script=[{"do": "adversary", "actor": 0, "action": {
        "kind": "accepted", "view": 1, "value": "\ud800", "to": ["r1"]}}]),
     "invalid string '\\ud800': surrogates not allowed"),
    (dict(_PFAB, script=[{"do": "propose", "node": "1"}]),
     "directive 0 'propose': bad node name: '1'"),
    (dict(_ZYZZYVA, script=[{"do": "adversary", "actor": 0, "action": {
        "kind": "view_change", "view": 2, "log": [], "cert": None, "to": "q1"}}]),
     "directive 0 'adversary': bad node name: 'q1'"),
    ({"protocol": "zyzzyva", "f": 1}, "scenario is missing fields ['name']"),
    ({"description": "x"}, "scenario is missing fields ['name', 'protocol', 'f']"),
    (dict(_ZYZZYVA, clients=[{"id": 1, "op": "a"}, {"id": 1, "op": "b"}]),
     "duplicate client ids"),
    (dict(_ZYZZYVA, expected=[{"property": "agreement", "status": "broken"}]),
     "unknown expected status 'broken'"),
    (dict(_PFAB, t=2), "pfab requires 0 <= t <= f, got t=2 f=1"),
    (dict(_PFAB, f=0, byzantine=[]), "f must be >= 1, got 0"),
    (dict(_ZYZZYVA, script=[{"do": "propose", "node": "r1"}]),
     "scenario: script[0] is an unknown zyzzyva directive 'propose'"),
    # the other protocol's directive is named when read, before an earlier
    # directive fails when run
    (dict(_ZYZZYVA, script=[{"do": "deliver", "match": {"type": "order_req"}},
                            {"do": "propose", "node": "r1"}]),
     "error: scenario: script[1] is an unknown zyzzyva directive 'propose'\n"),
    (dict(_PFAB, script=[{"do": "view_change", "view": 2, "nodes": ["r0"]},
                         {"do": "client_request", "client": 1, "to": "r1"}]),
     "error: scenario: script[1] is an unknown fab directive 'client_request'\n"),
    # `drop` with the actor as "src" says what a withhold action said
    (dict(_ZYZZYVA, script=[{"do": "client_request", "client": 1, "to": "r0"},
                            {"do": "adversary", "actor": 0, "action": {"kind": "withhold"}}]),
     "error: scenario: script[1].action is an unknown zyzzyva action 'withhold'\n"),
    (dict(_ZYZZYVA, script=[{"do": "timeout", "node": "r1"}]),
     "directive 0 'timeout': timeout target must be a client, got r1"),
    # each directive that targets a node checks its kind in the one node table
    (dict(_ZYZZYVA, script=[{"do": "view_change", "view": 2, "nodes": ["c1"]}]),
     "directive 0 'view_change': view-change signals target correct replicas, not c1"),
    (dict(_ZYZZYVA, script=[{"do": "view_change", "view": 2, "nodes": ["r9"]}]),
     "directive 0 'view_change': view-change signals target correct replicas, not r9"),
    (dict(_PFAB, script=[{"do": "propose", "node": "r9"}]),
     "directive 0 'propose': propose directives target correct replicas, not r9"),
    (dict(_PFAB, script=[{"do": "propose", "node": "r0"}]),
     "directive 0 'propose': propose directives target correct replicas, not r0"),
    (dict(_PFAB, script=[{"do": "propose", "node": "c1"}]),
     "directive 0 'propose': propose directives target correct replicas, not c1"),
    (dict(_ZYZZYVA, script=[{"do": "client_request", "client": 2, "to": "r0"}]),
     "directive 0 'client_request': unknown client c2"),
    (dict(_ZYZZYVA, script=[{"do": "client_request", "client": 1, "to": "r9"}]),
     "directive 0 'client_request': no node r9 in this scenario"),
    (dict(_ZYZZYVA, script=[{"do": "timeout", "node": "c2"}]),
     "directive 0 'timeout': timeout target must be a client, got c2"),
    (dict(_ZYZZYVA, script=[{"do": "adversary", "actor": 0, "action": {
        "kind": "view_change", "view": 2, "log": [], "to": "c9"}}]),
     "directive 0 'adversary': no node c9 in this scenario"),
    (dict(_ZYZZYVA, script=[{"do": "adversary", "actor": 1, "action": {
        "kind": "view_change", "view": 2, "log": [], "to": "r2"}}]),
     "directive 0 'adversary': adversary actor r1 is not Byzantine"),
], ids=["client-without-op", "client-not-an-object", "expected-not-an-object",
        "inputs-not-an-object", "top-level-array", "client-id-as-string",
        "actor-as-string", "nodes-as-string", "action-view-as-string", "action-view-as-list",
        "action-checked-before-an-earlier-directive-fails",
        "positions-as-integer", "artifact-reference-named-kind", "withhold-match-as-list",
        "artifact-reference-named-kind-beside-a-stored-certificate",
        "misspelled-directive-field", "ordinal-beside-match", "misspelled-expected-field",
        "misspelled-pattern-field-drop-empty-pool",
        "misspelled-pattern-field-delay-all-except-empty-pool",
        "misspelled-pattern-field-withhold-empty-pool", "input-at-r9", "input-at-a-client",
        "input-at-a-byzantine-replica", "zyzzyva-with-inputs", "pfab-with-clients",
        "fab5-with-a-client-request", "duplicate-byzantine-id", "negative-client-id",
        "client-id-zero", "request-to-x9", "view-change-at-x1", "timeout-at-c",
        "request-to-superscript-two", "request-to-arabic-indic-three",
        "request-to-a-node-of-5000-digits", "client-op-a-lone-surrogate",
        "input-a-lone-surrogate", "adversary-value-a-lone-surrogate",
        "propose-at-1", "adversary-send-to-q1", "without-name", "without-required-fields",
        "duplicate-client-ids", "unknown-expected-status", "pfab-t-above-f", "f-zero",
        "propose-in-zyzzyva", "propose-in-zyzzyva-after-a-failing-deliver",
        "client-request-in-pfab-after-a-failing-view-change", "withhold-action",
        "timeout-at-a-replica", "view-change-at-c1", "view-change-at-r9", "propose-at-r9",
        "propose-at-the-byzantine-r0", "propose-at-c1", "request-by-an-unknown-client",
        "request-to-r9-says-so", "timeout-at-an-unknown-client", "adversary-send-to-c9",
        "adversary-actor-not-byzantine"])
def test_malformed_scenario_shapes_exit_one(capsys, tmp_path, scenario, says):
    assert says in _assert_one_error_line(capsys, tmp_path, scenario)


@pytest.mark.parametrize("field, value", [("view", "1"), ("ordinal", "0")])
@pytest.mark.parametrize("do", ["deliver", "drop", "delay_all_except"])
def test_mistyped_pattern_values_exit_one(capsys, tmp_path, do, field, value):
    # a pattern value of the wrong type would match nothing, silently
    step = {"do": do, "match": {"type": "order_req", field: value}}
    err = _assert_one_error_line(capsys, tmp_path, dict(_ZYZZYVA, script=[
        {"do": "client_request", "client": 1, "to": "r0"},
        {"do": "deliver", "match": {"type": "request"}},
        step,
    ]))
    assert f"match.{field} must be an integer, got {value!r}" in err


@pytest.mark.parametrize("do", ["deliver", "drop", "delay_all_except"])
def test_a_null_pattern_view_is_accepted(capsys, tmp_path, do):
    # the deliver exits 0 only if the null view matches the pending request
    path = tmp_path / "s.json"
    path.write_text(json.dumps(dict(_ZYZZYVA, script=[
        {"do": "client_request", "client": 1, "to": "r1"},
        {"do": do, "match": {"view": None}},
    ])))
    assert main(["run", "--scenario", str(path)]) == 0
    assert capsys.readouterr().err.startswith('{"property"')


_HEADER = {"seq": 0, "kind": "scenario", "name": "t", "protocol": "pfab", "f": 1, "t": 0,
           "n": 4, "byzantine": ["r0"], "nodes": ["r0", "r1", "r2", "r3"]}
_RECORD = {"seq": 1, "kind": "deliver", "commits": []}
# the shape of a stuck report as the simulator writes it
_STUCK = {"view": 2, "leader": "r1",
          "pc": [{"replica": "r1", "last_accepted": "A",
                  "commit_proof": {"view": 1, "value": "A", "senders": ["r0", "r1", "r2"]}}],
          "candidates": [{"value": "B", "vouched": False, "blocked_prepare": [],
                          "blocked_proof": ["A"]}]}


@pytest.mark.parametrize("records, args, says", [
    ([{k: v for k, v in _HEADER.items() if k != "protocol"}, _RECORD], [],
     "trace header is missing fields ['protocol']"),
    ([_HEADER, dict(_RECORD, commits=[1])], [], "trace[1].commits[0] must be an object, got 1"),
    ([_HEADER, dict(_RECORD, commits=[1])], ["--properties", "stuck"],
     "trace[1].commits[0] must be an object, got 1"),
    ([_HEADER, dict(_RECORD, commits=[{"value": "A", "view": 1, "track": "fast"}])], [],
     "trace[1].commits[0] is missing fields ['by']"),
    ([_HEADER, 1], [], "trace[1] must be an object, got 1"),
    ([_HEADER, dict(_RECORD, stuck=1)], [], "trace[1].stuck must be an object, got 1"),
    ([_HEADER, dict(_RECORD, stuck=dict(_STUCK, candidates=None))], [],
     "trace[1].stuck.candidates must be a list, got None"),
    ([_HEADER, dict(_RECORD, stuck=dict(_STUCK, pc=[{"replica": "r1"}]))],
     ["--properties", "agreement"],
     "trace[1].stuck.pc[0] is missing fields ['last_accepted', 'commit_proof']"),
    ([_HEADER, dict(_RECORD, stuck=dict(_STUCK, candidates=[
        dict(_STUCK["candidates"][0], blocked_prepare=[1])]))], [],
     "trace[1].stuck.candidates[0].blocked_prepare[0] must be a string, got 1"),
    ([_HEADER, _RECORD], ["--properties", "bogus"], "unknown property 'bogus'"),
    ([dict(_HEADER, byzantine=[0]), _RECORD], [],
     "trace header: byzantine[0] must be a string, got 0"),
    ([dict(_HEADER, protocol="zyzzyva", byzantine=[]),
      dict(_RECORD, commits=[{"value": "A", "view": 1, "track": "fast", "by": "c1"}])], [],
     "trace[1].commits[0] is missing fields ['position', 'entry', 'client', 'token', "
     "'depth']"),
    ([dict(_HEADER, protocol="zyzzyva", byzantine=[]),
      dict(_RECORD, commits=[{"position": 1, "entry": "\ud800", "client": "c1", "token": "x",
                              "depth": 3, "view": 1, "track": "fast", "by": "c1"}])], [],
     "invalid string '\\ud800': surrogates not allowed"),
], ids=["header-without-protocol", "commit-not-an-object", "commit-not-an-object-stuck-only",
        "commit-without-by", "record-not-an-object", "stuck-report-not-an-object",
        "stuck-report-without-candidates", "stuck-pc-entry-without-last-accepted",
        "stuck-candidate-blocked-by-a-number", "unknown-property",
        "byzantine-as-a-number", "fab-commit-in-a-zyzzyva-trace",
        "commit-entry-a-lone-surrogate"])
def test_malformed_traces_exit_one(capsys, tmp_path, records, args, says):
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["check", str(path), *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert says in captured.err


def test_check_prints_a_well_shaped_stuck_report(capsys, tmp_path):
    path = tmp_path / "stuck.jsonl"
    records = [_HEADER, dict(_RECORD, stuck=_STUCK)]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr().out
    assert "stuck: view 2 leader r1\n  rep r1: accepted=A proof(A)\n" in out
    assert "candidate B: blocked: commit proof for A" in out


def test_unknown_property_is_rejected_before_the_run(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    argv = ["run", "--builtin", "zyzzyva-benign-fast", "-o", str(trace), "--properties", "bogus"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: unknown property 'bogus'\n"
    assert not trace.exists()


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"a": ', b'{"f": 1' + b"0" * 5000 + b"}",
                                     b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf-8", "truncated", "integer-of-5001-digits",
                              "lists-nested-100000-deep"])
@pytest.mark.parametrize("command", [("run", "--scenario"), ("check",),
                                     ("explore", "--explore-config")],
                         ids=["run", "check", "explore"])
def test_undecodable_input_exits_one(capsys, tmp_path, command, content):
    path = tmp_path / "bad"
    path.write_bytes(content)
    assert main([*command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_check_reads_raw_unicode_line_separators(capsys, tmp_path):
    """Only newlines end a trace line; U+2028 and U+0085 inside a string do not."""
    records = [dict(_HEADER, name="a\u2028b\u0085c"), _RECORD]
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                    encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert "scenario: a\u2028b\u0085c  protocol: pfab" in capsys.readouterr().out


@pytest.mark.parametrize("where", ["trace-header", "trace-record", "adversary-action"])
def test_extra_fields_are_ignored_where_the_format_allows(capsys, tmp_path, where):
    if where == "adversary-action":
        doc = json.loads(get_builtin("pfab-stuck").to_json())
        for step in doc["script"]:
            if step["do"] == "adversary":
                step["action"]["note"] = "x"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--scenario", str(path)]) == 2
        assert "stuck: OCCURRED" in capsys.readouterr().out
    else:
        records = [_HEADER, dict(_RECORD, stuck=_STUCK)]
        i = 0 if where == "trace-header" else 1
        records[i] = dict(records[i], note="x")
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["check", str(path)]) == 2
        assert "stuck: view 2 leader r1" in capsys.readouterr().out


# st.text draws no surrogates, so a lone one is sampled by hand
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.text(max_size=3)
    | st.sampled_from(["r0", "r1", "c1", "a", "A", "B", "view_change", "order_req", "stuck",
                       "\ud800"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "view", "to", "log", "type", "id", "op"])
                      | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_in_a_builtin_exits_zero_one_or_two(tmp_path, data):
    # one top-level field, one directive, or one directive or action field of
    # a built-in scenario replaced by arbitrary JSON
    doc = json.loads(get_builtin(data.draw(st.sampled_from(BUILTIN_NAMES))).to_json())
    where = data.draw(st.sampled_from(["field", "directive", "directive field"]))
    value = data.draw(_JSON)
    if where == "field":
        doc[data.draw(st.sampled_from(sorted(doc)))] = value
    else:
        i = data.draw(st.integers(0, len(doc["script"]) - 1))
        if where == "directive":
            doc["script"][i] = value
        else:
            target = doc["script"][i]
            if "action" in target and data.draw(st.booleans()):
                target = target["action"]
            target[data.draw(st.sampled_from(sorted(target)))] = value
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(path)]) in (0, 1, 2)


def _field_paths(value, path):
    """The path of every object field inside value, nested ones included."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield path + (key,)
            yield from _field_paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _field_paths(item, path + (i,))


def _trace_places(records) -> dict:
    """(record index, field path) of each top-level record field, each field
    nested in a commit and each field nested in a stuck report."""
    places = {"record": [(i, (key,)) for i, rec in enumerate(records) for key in rec]}
    for name in ("commits", "stuck"):
        places[name] = [(i, path) for i, rec in enumerate(records)
                        for path in _field_paths(rec.get(name), (name,))]
    return {where: found for where, found in places.items() if found}


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_in_a_golden_trace_exits_zero_one_or_two(tmp_path, data):
    golden = data.draw(st.sampled_from(sorted(GOLDEN.glob("*.jsonl"))))
    records = read_trace(golden.read_bytes())
    places = _trace_places(records)
    i, path = data.draw(st.sampled_from(places[data.draw(st.sampled_from(sorted(places)))]))
    target = records[i]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(_JSON)
    mutated = tmp_path / "mutated.jsonl"
    mutated.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main(["check", str(mutated)]) in (0, 1, 2)


_PFAB_STUCK = asdict(SEARCHES["pfab-stuck"]["config"]) | {"max_states": 300}  # every field


@pytest.mark.parametrize("config, says", [
    ({"protocol": "pfab", "values": ["A", "B"], "byzantine": [7]}, "byzantine id 7 outside"),
    ({"protocol": "pfab", "values": ["A", "B"], "byzantine": ["0"]},
     "byzantine[0] must be an integer"),
    ({"protocol": "zyzzyva", "requests": [1]},
     "explore config: requests[0] must be a string, got 1"),
    ({"protocol": "zyzzyva", "requests": ["a", "a"]}, "requests must be distinct strings"),
    ({"protocol": "pfab", "values": ["A", 1]},
     "explore config: values[1] must be a string, got 1"),
    (dict(_PFAB_STUCK, target="stuck"), "explore config has unknown fields ['target']"),
    (dict(_PFAB_STUCK, values="AB"), "values must be a list"),
    (dict(_PFAB_STUCK, dedup=1), "dedup must be a boolean"),
    (dict(_PFAB_STUCK, max_views="2"), "max_views must be an integer"),
    ([_PFAB_STUCK], "explore config must be an object, got [{"),
    ({"protocol": "pfab", "values": ["A", "B"], "requests": ["x"]},
     "pfab exploration takes no requests"),
    ({"protocol": "zyzzyva", "requests": ["a"], "values": ["A"]},
     "zyzzyva exploration takes no values"),
    (dict(_PFAB_STUCK, menu=["equivocate", "inject_stored"]),
     "pfab exploration takes no inject_stored"),
    ({"protocol": "fab5", "values": ["A"], "menu": ["inject_stored"]},
     "fab5 exploration takes no inject_stored"),
    ({"values": ["A", "B"]}, "explore config is missing fields ['protocol']"),
    ({"protocol": "zyzzyva", "requests": ["\ud800"]},
     "invalid string '\\ud800': surrogates not allowed"),
], ids=["byzantine-out-of-range", "byzantine-as-string", "request-as-integer",
        "duplicate-requests", "value-as-integer", "target", "values-as-string",
        "dedup-as-integer", "max-views-as-string", "top-level-array", "pfab-with-requests",
        "zyzzyva-with-values", "pfab-with-inject-stored", "fab5-with-inject-stored",
        "without-protocol", "request-a-lone-surrogate"])
def test_malformed_explore_configs_exit_one(capsys, tmp_path, config, says):
    assert says in _assert_one_error_line(capsys, tmp_path, config, ("explore", "--explore-config"))


_CONFIG_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.text(max_size=3)
    | st.sampled_from(["pfab", "fab5", "zyzzyva", "A", "B", "a", "equivocate", "withhold",
                       "inject_stored", "\ud800"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_json_in_an_explore_config_exits_zero_one_or_two(tmp_path, data):
    # one field of the PFaB stuck config replaced by arbitrary JSON. f, t and
    # max_states stay: the search's memory grows exponentially in n = 3f+2t+1
    # and linearly in its state budget
    doc = dict(_PFAB_STUCK)
    name = data.draw(st.sampled_from(sorted(set(doc) - {"f", "t", "max_states"})))
    doc[name] = data.draw(_CONFIG_JSON)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    assert main(["explore", "--explore-config", str(path)]) in (0, 1, 2)
