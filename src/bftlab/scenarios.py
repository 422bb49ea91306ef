"""Scenario file format, loader/validator, and the built-in library.

A scenario is a declarative JSON document: protocol parameters, the
Byzantine set, client requests (or FaB leader inputs), an ordered directive
script, and the verdicts the run is expected to produce. Directives execute
in array order as the global event sequence.
"""
from __future__ import annotations

import functools
import json
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields
from importlib import resources

from .core import PROTOCOLS, ZYZZYVA, quorum_config, replica
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

_JSON_TYPES = {bool: "a boolean", int: "an integer", str: "a string", list: "a list",
               tuple: "a list", dict: "an object"}


class ScenarioError(ValueError):
    """Scenario fails to parse or violates a structural invariant."""


def check_type(value, kind: type, where: str, error=ScenarioError):
    """Raise error unless value has JSON type kind (a boolean is no integer,
    a tuple is a JSON list)."""
    if not isinstance(value, list if kind is tuple else kind) or (
        kind is int and isinstance(value, bool)
    ):
        raise error(f"{where} must be {_JSON_TYPES[kind]}, got {value!r}")


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def read(cls, data, what: str, error):
    """The dataclass cls built from the JSON object data, a `what` document.

    Every field's value must have the JSON type the class declares for it;
    unknown fields, wrong types and missing required fields raise error. A
    list becomes a tuple where the class declares a tuple.
    """
    if not isinstance(data, dict):
        article = "an" if what[0] in "aeiou" else "a"
        raise error(f"{article} {what} is a JSON object, got {data!r}")
    types = _field_types(cls)
    unknown = set(data) - set(types)
    if unknown:
        raise error(f"unknown {what} fields: {sorted(unknown)}")
    for name, value in data.items():
        check_type(value, types[name], name, error)
    missing = [f.name for f in fields(cls) if f.default is MISSING
               and f.default_factory is MISSING and f.name not in data]
    if missing:
        raise error(f"missing {what} fields: {missing}")
    return cls(**{k: tuple(v) if types[k] is tuple else v for k, v in data.items()})


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

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def validate(sc: Scenario) -> Scenario:
    for name, kind in _field_types(Scenario).items():
        check_type(getattr(sc, name), kind, name)
    for i, b in enumerate(sc.byzantine):
        check_type(b, int, f"byzantine[{i}]")
    for i, c in enumerate(sc.clients):
        check_type(c, dict, f"clients[{i}]")
        if set(c) != {"id", "op"}:
            raise ScenarioError(f"clients[{i}] must have the fields id and op, got {c!r}")
        check_type(c["id"], int, f"clients[{i}].id")
        if c["id"] < 1:
            raise ScenarioError(f"clients[{i}].id must be at least 1, got {c['id']}")
        check_type(c["op"], str, f"clients[{i}].op")
    for key, value in sc.inputs.items():
        check_type(value, str, f"inputs[{key!r}]")
    for i, e in enumerate(sc.expected):
        check_type(e, dict, f"expected[{i}]")
        unknown = set(e) - {"property", "status", "positions"}
        if unknown:
            raise ScenarioError(f"expected[{i}]: unknown fields {sorted(unknown)}")
        positions = e.get("positions", [])
        check_type(positions, list, f"expected[{i}].positions")
        for j, pos in enumerate(positions):
            check_type(pos, int, f"expected[{i}].positions[{j}]")
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
    for i, step in enumerate(sc.script):
        check_type(step, dict, f"script[{i}]")
        do = step.get("do")
        check_type(do, str, f"script[{i}].do")
        if do not in _DIRECTIVES:
            raise ScenarioError(f"script[{i}]: unknown directive {do!r}")
        missing = set(_DIRECTIVES[do]) - set(step)
        if do == "delay_all_except":  # its match is optional (null = everything)
            missing -= {"match"}
        if missing:
            raise ScenarioError(f"script[{i}] ({do}): missing fields {sorted(missing)}")
        unknown = set(step) - {"do", *_DIRECTIVES[do]}
        if unknown:
            raise ScenarioError(f"script[{i}] ({do}): unknown fields {sorted(unknown)}")
        for name, kind in _DIRECTIVES[do].items():
            if name in step and not (do == "delay_all_except" and step[name] is None):
                check_type(step[name], kind, f"script[{i}] ({do}) {name}")
    for e in sc.expected:
        if e.get("property") not in PROPERTIES:
            raise ScenarioError(f"unknown expected property {e.get('property')!r}")
        if e.get("status") not in STATUSES:
            raise ScenarioError(f"unknown expected status {e.get('status')!r}")
    return sc


def from_dict(data: dict) -> Scenario:
    return validate(read(Scenario, data, "scenario", ScenarioError))


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
