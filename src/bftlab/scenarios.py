"""Scenario file format, loader/validator, and the built-in library.

A scenario is a declarative JSON document: protocol parameters, the
Byzantine set, client requests (or FaB leader inputs), an ordered script of
its protocol's directives (declared in `netsim`), and the verdicts the run
is expected to produce. Directives execute in array order as the global
event sequence.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from importlib import resources

from .core import ZYZZYVA, Obj, check_type, parse_json, quorum_config, read, replica
from .checkers import PROPERTIES
from .netsim import FAB_DIRECTIVES, ZYZZYVA_DIRECTIVES

STATUSES = ("holds", "violated", "occurred", "not_applicable")

_CLIENT = Obj({"id": int, "op": str})
_EXPECTED = Obj({"property": str, "status": str}, {"positions": list[int]})


class ScenarioError(ValueError):
    """Scenario fails to parse or violates a structural invariant."""


@dataclass
class Scenario:
    name: str
    protocol: str
    f: int
    t: int = 0
    byzantine: list[int] = field(default_factory=list)
    clients: list[_CLIENT] = field(default_factory=list)
    inputs: dict[str, str] = field(default_factory=dict)
    description: str = ""
    script: list[dict] = field(default_factory=list)
    expected: list[_EXPECTED] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def validate(sc: Scenario) -> Scenario:
    """sc, if `from_dict` accepts its fields; else ScenarioError."""
    from_dict(vars(sc))
    return sc


def from_dict(data: dict) -> Scenario:
    """The scenario of a JSON object, if it is one; else ScenarioError."""
    sc = read(Scenario, data, "scenario", ScenarioError)
    for i, c in enumerate(sc.clients):
        if c["id"] < 1:
            raise ScenarioError(f"clients[{i}].id must be at least 1, got {c['id']}")
    cfg = quorum_config(sc.protocol, sc.f, sc.t, ScenarioError)
    if len(sc.byzantine) > sc.f:
        raise ScenarioError(f"{len(sc.byzantine)} byzantine replicas exceeds f={sc.f}")
    for b in sc.byzantine:
        if not 0 <= b < cfg.n:
            raise ScenarioError(f"byzantine id {b!r} outside 0..{cfg.n - 1}")
    if len(set(sc.byzantine)) != len(sc.byzantine):
        raise ScenarioError(f"duplicate byzantine ids in {sc.byzantine!r}")
    if sc.protocol == ZYZZYVA and sc.inputs:
        raise ScenarioError(f"zyzzyva replicas take no inputs, got {sorted(sc.inputs)}")
    if sc.protocol != ZYZZYVA and sc.clients:
        raise ScenarioError(f"{sc.protocol} scenarios take no clients, got {sc.clients!r}")
    correct = {str(replica(i)) for i in range(cfg.n) if i not in sc.byzantine}
    for key in sc.inputs:
        if key not in correct:
            raise ScenarioError(f"inputs[{key!r}] names no correct replica")
    ids = [c["id"] for c in sc.clients]
    if len(set(ids)) != len(ids):
        raise ScenarioError("duplicate client ids")
    ops = [c["op"] for c in sc.clients]
    if len(set(ops)) != len(ops):
        raise ScenarioError("client ops must be distinct")
    for e in sc.expected:
        if e["property"] not in PROPERTIES:
            raise ScenarioError(f"unknown expected property {e['property']!r}")
        if e["status"] not in STATUSES:
            raise ScenarioError(f"unknown expected status {e['status']!r}")
    directives = ZYZZYVA_DIRECTIVES if sc.protocol == ZYZZYVA else FAB_DIRECTIVES
    check_type(sc.script, list[directives], "scenario: script", ScenarioError)
    return sc


def loads(text: str | bytes) -> Scenario:
    return from_dict(parse_json(text, ScenarioError))


def load_scenario(path) -> Scenario:
    with open(path, "rb") as fh:
        return loads(fh.read())


BUILTIN_NAMES = (
    "zyzzyva-benign-fast",
    "zyzzyva-benign-two-phase",
    "zyzzyva-cc-priority",
    "zyzzyva-longest-cc",
    "fab5-benign",
    "pfab-benign",
    "pfab-stuck",
)


def get_builtin(name: str) -> Scenario:
    if name not in BUILTIN_NAMES:
        raise ScenarioError(f"no builtin scenario named {name!r}")
    text = resources.files("bftlab.builtins").joinpath(f"{name}.json").read_text()
    return loads(text)


def builtin_scenarios() -> list:
    return [get_builtin(n) for n in BUILTIN_NAMES]
