from dataclasses import replace

import pytest

from bftlab.checkers import expected_mismatches, run_checkers
from bftlab.netsim import run_scenario
from bftlab.scenarios import (
    BUILTIN_NAMES,
    ScenarioError,
    builtin_scenarios,
    from_dict,
    get_builtin,
    load_scenario,
    loads,
    validate,
)


def test_builtin_list_is_complete():
    names = [sc.name for sc in builtin_scenarios()]
    assert names == list(BUILTIN_NAMES)
    assert {"zyzzyva-benign-fast", "zyzzyva-benign-two-phase", "zyzzyva-cc-priority",
            "zyzzyva-longest-cc", "fab5-benign", "pfab-benign", "pfab-stuck"} <= set(names)


def test_cc_priority_shape():
    sc = get_builtin("zyzzyva-cc-priority")
    assert sc.protocol == "zyzzyva" and sc.f == 1
    assert sc.byzantine == [0]
    views = {d["view"] for d in sc.script if d["do"] == "view_change"}
    assert views == {2, 3}  # three views total


def test_unknown_builtin():
    with pytest.raises(ScenarioError):
        get_builtin("zyzzyva-missing")


def test_every_builtin_matches_its_expected_verdicts():
    for sc in builtin_scenarios():
        trace = run_scenario(sc)
        verdicts = run_checkers(trace.records)
        assert expected_mismatches(sc.expected, verdicts) == [], sc.name


def test_round_trip_is_canonical():
    for sc in builtin_scenarios():
        text = sc.to_json()
        again = loads(text)
        assert again.to_json() == text


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(get_builtin("pfab-stuck").to_json())
    sc = load_scenario(path)
    assert sc.name == "pfab-stuck"


def _base(**kw):
    data = dict(name="x", protocol="zyzzyva", f=1, t=0, byzantine=[], clients=[],
                inputs={}, description="", script=[], expected=[])
    data.update(kw)
    return data


def test_too_many_byzantine_rejected():
    with pytest.raises(ScenarioError, match="exceeds f"):
        from_dict(_base(byzantine=[0, 1]))


def test_byzantine_id_out_of_range():
    with pytest.raises(ScenarioError, match="outside"):
        from_dict(_base(byzantine=[7]))


def test_unknown_directive_rejected():
    with pytest.raises(ScenarioError, match=r"script\[0\] is an unknown zyzzyva directive "
                                            r"'teleport'$"):
        from_dict(_base(script=[{"do": "teleport"}]))


def test_missing_directive_fields_rejected():
    with pytest.raises(ScenarioError, match="missing fields"):
        from_dict(_base(script=[{"do": "view_change", "view": 2}]))


def test_duplicate_client_ops_rejected():
    with pytest.raises(ScenarioError, match="distinct"):
        from_dict(_base(clients=[{"id": 1, "op": "a"}, {"id": 2, "op": "a"}]))


def test_unknown_protocol_rejected():
    with pytest.raises(ScenarioError, match="unknown protocol"):
        from_dict(_base(protocol="raft"))


def test_unknown_expected_property_rejected():
    with pytest.raises(ScenarioError, match="expected property"):
        from_dict(_base(expected=[{"property": "consensus", "status": "holds"}]))


def test_unknown_fields_rejected():
    with pytest.raises(ScenarioError, match=r"scenario has unknown fields \['extra'\]"):
        from_dict(_base(extra=1))


def test_bad_json_reported():
    with pytest.raises(ScenarioError, match="invalid JSON"):
        loads("{nope")


def test_empty_script_is_valid():
    sc = from_dict(_base())
    assert run_scenario(sc).records[0]["kind"] == "scenario"


def test_deliver_without_match_rejected():
    with pytest.raises(ScenarioError, match="missing fields"):
        from_dict(_base(script=[{"do": "deliver"}]))


def test_validate_checks_the_actions_of_a_scenario_built_in_code():
    sc = replace(get_builtin("pfab-stuck"), script=[
        {"do": "adversary", "actor": 0, "action": {"kind": "rep", "view": 2}}])
    with pytest.raises(ScenarioError, match=r"^scenario: script\[0\]\.action is missing "
                                            r"fields \['to'\]$"):
        validate(sc)
