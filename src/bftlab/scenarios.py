"""Scenario file format, loader/validator, and the built-in library.

A scenario is a declarative JSON document: protocol parameters, the
Byzantine set, client requests (or FaB leader inputs), an ordered directive
script, and the verdicts the run is expected to produce. Directives execute
in array order as the global event sequence.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .core import PROTOCOLS, quorum_config
from .checkers import PROPERTIES

STATUSES = ("holds", "violated", "occurred", "not_applicable")

# directive -> its fields and their JSON types
_DIRECTIVES = {
    "client_request": {"client": int, "to": str},
    "deliver": {"match": dict},
    "drop": {"match": dict},
    "delay_all_except": {"match": dict},
    "timeout": {"node": str},
    "view_change": {"view": int, "nodes": list},
    "propose": {"node": str},
    "adversary": {"actor": int, "action": dict},
}

# scenario field -> its JSON type
_FIELDS = {
    "name": str,
    "protocol": str,
    "f": int,
    "t": int,
    "byzantine": list,
    "clients": list,
    "inputs": dict,
    "description": str,
    "script": list,
    "expected": list,
}

_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


class ScenarioError(ValueError):
    """Scenario fails to parse or violates a structural invariant."""


def _check(value, kind: type, where: str):
    """Raise unless value has JSON type kind (a boolean is no integer)."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ScenarioError(f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")


@dataclass
class Scenario:
    name: str
    protocol: str
    f: int
    t: int = 0
    byzantine: list = field(default_factory=list)
    clients: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)
    description: str = ""
    script: list = field(default_factory=list)
    expected: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "protocol": self.protocol,
            "f": self.f,
            "t": self.t,
            "byzantine": self.byzantine,
            "clients": self.clients,
            "inputs": self.inputs,
            "description": self.description,
            "script": self.script,
            "expected": self.expected,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def validate(sc: Scenario) -> Scenario:
    for name, kind in _FIELDS.items():
        _check(getattr(sc, name), kind, name)
    for i, b in enumerate(sc.byzantine):
        _check(b, int, f"byzantine[{i}]")
    for i, c in enumerate(sc.clients):
        _check(c, dict, f"clients[{i}]")
        if set(c) != {"id", "op"}:
            raise ScenarioError(f"clients[{i}] must have the fields id and op, got {c!r}")
        _check(c["id"], int, f"clients[{i}].id")
        _check(c["op"], str, f"clients[{i}].op")
    for key, value in sc.inputs.items():
        _check(value, str, f"inputs[{key!r}]")
    for i, e in enumerate(sc.expected):
        _check(e, dict, f"expected[{i}]")
    if sc.protocol not in PROTOCOLS:
        raise ScenarioError(f"unknown protocol {sc.protocol!r}")
    try:
        cfg = quorum_config(sc.protocol, sc.f, sc.t)
    except ValueError as e:
        raise ScenarioError(str(e)) from None
    if len(sc.byzantine) > sc.f:
        raise ScenarioError(f"{len(sc.byzantine)} byzantine replicas exceeds f={sc.f}")
    for b in sc.byzantine:
        if not 0 <= b < cfg.n:
            raise ScenarioError(f"byzantine id {b!r} outside 0..{cfg.n - 1}")
    ids = [c["id"] for c in sc.clients]
    if len(set(ids)) != len(ids):
        raise ScenarioError("duplicate client ids")
    ops = [c["op"] for c in sc.clients]
    if len(set(ops)) != len(ops):
        raise ScenarioError("client ops must be distinct")
    for i, step in enumerate(sc.script):
        _check(step, dict, f"script[{i}]")
        do = step.get("do")
        _check(do, str, f"script[{i}].do")
        if do not in _DIRECTIVES:
            raise ScenarioError(f"script[{i}]: unknown directive {do!r}")
        missing = set(_DIRECTIVES[do]) - set(step)
        if do == "delay_all_except":  # its match is optional (null = everything)
            missing -= {"match"}
        if missing:
            raise ScenarioError(f"script[{i}] ({do}): missing fields {sorted(missing)}")
        for name, kind in _DIRECTIVES[do].items():
            if name in step and not (do == "delay_all_except" and step[name] is None):
                _check(step[name], kind, f"script[{i}] ({do}) {name}")
    for e in sc.expected:
        if e.get("property") not in PROPERTIES:
            raise ScenarioError(f"unknown expected property {e.get('property')!r}")
        if e.get("status") not in STATUSES:
            raise ScenarioError(f"unknown expected status {e.get('status')!r}")
    return sc


def from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError(f"a scenario is a JSON object, got {data!r}")
    known = {f for f in Scenario.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
    try:
        sc = Scenario(**data)
    except TypeError as e:
        raise ScenarioError(str(e)) from None
    return validate(sc)


def loads(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON: {e}") from None
    return from_dict(data)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
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
