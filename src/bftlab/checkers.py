"""Trace analyzers certifying agreement, validity, stuck, and fast latency.

Checkers are pure functions over parsed trace records (the same dicts the
JSONL trace serializes), so a stored trace re-checks to exactly the verdicts
computed at run time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import ZYZZYVA, make_request, parse_node

HOLDS = "holds"
VIOLATED = "violated"
OCCURRED = "occurred"
NOT_APPLICABLE = "not_applicable"

AGREEMENT = "agreement"
VALIDITY = "validity"
STUCK = "stuck"
FAST_LATENCY = "fast_latency"

PROPERTIES = (AGREEMENT, VALIDITY, STUCK, FAST_LATENCY)


@dataclass
class Verdict:
    property: str
    status: str
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


_NULL = type(None)
# the fields of trace records that checking a trace reads -> their JSON types
_HEADER = {"name": str, "protocol": str, "n": int, "f": int, "t": int, "byzantine": list}
_RECORD = {"seq": int, "commits": (list, _NULL)}
_COMMIT = {"view": int, "track": str, "by": str}
_FAB_COMMIT = {"value": str, **_COMMIT}
_ZYZZYVA_COMMIT = {"position": int, "entry": (str, _NULL), "client": (str, _NULL),
                   "token": (str, _NULL), "depth": (int, _NULL), **_COMMIT}
_STUCK = {"view": int, "leader": str, "pc": list, "candidates": list}
_STUCK_REP = {"replica": str, "last_accepted": (str, _NULL), "commit_proof": (dict, _NULL)}
_STUCK_CANDIDATE = {"value": str, "vouched": bool, "blocked_prepare": list,
                    "blocked_proof": list}


def _shaped(obj, fields: dict, what: str):
    """obj, checked to be an object whose fields have the given JSON types."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    for name, kind in fields.items():
        if name not in obj or not isinstance(obj[name], kind):
            raise ValueError(f"{what} has a missing or mistyped {name!r}: {obj.get(name)!r}")
    return obj


def _header(records: list) -> dict:
    if not records or not isinstance(records[0], dict) or records[0].get("kind") != "scenario":
        raise ValueError("trace has no scenario header record")
    return records[0]


def _check_shape(records: list):
    """Raise ValueError unless the trace has the shape `bftlab check` reads."""
    header = _shaped(_header(records), _HEADER, "trace header")
    if not all(isinstance(b, str) for b in header["byzantine"]):
        raise ValueError(f"trace header byzantine must list node names: {header['byzantine']!r}")
    for rec in records[1:]:
        for c in _shaped(rec, _RECORD, "trace record")["commits"] or []:
            fields = _ZYZZYVA_COMMIT if isinstance(c, dict) and "position" in c else _FAB_COMMIT
            _shaped(c, fields, f"commit in record {rec['seq']}")
        if rec.get("stuck") is not None:
            _check_stuck_shape(rec["stuck"], f"stuck report in record {rec['seq']}")


def _check_stuck_shape(stuck, what: str):
    """A stuck report as `bftlab check` prints it: the leader's progress
    certificate and why each candidate value was blocked."""
    _shaped(stuck, _STUCK, what)
    for rep in stuck["pc"]:
        cp = _shaped(rep, _STUCK_REP, f"{what}: pc entry")["commit_proof"]
        if cp is not None:
            _shaped(cp, {"value": str}, f"{what}: commit proof")
    for cand in stuck["candidates"]:
        _shaped(cand, _STUCK_CANDIDATE, f"{what}: candidate")
        for name in ("blocked_prepare", "blocked_proof"):
            if not all(isinstance(v, str) for v in cand[name]):
                raise ValueError(f"{what}: candidate {name} must list values: {cand[name]!r}")


def _commits(records: list):
    """(seq, commit) pairs from correct participants only."""
    byz = set(_header(records)["byzantine"])
    for rec in records[1:]:
        for c in rec.get("commits") or []:
            if c["by"] in byz:
                continue
            yield rec["seq"], c


def check_agreement(records: list) -> Verdict:
    """Two correct commits at one log position must carry the same request."""
    slots: dict = {}
    for seq, c in _commits(records):
        slot = c.get("position", 1)
        entry = c.get("entry", c.get("value"))
        entry = "<null>" if entry is None else entry
        slots.setdefault(slot, {}).setdefault(entry, []).append((seq, c))
    conflicts = []
    witnesses = []
    for slot in sorted(slots):
        if len(slots[slot]) < 2:
            continue
        views = []
        for entry, hits in sorted(slots[slot].items()):
            seq, c = hits[0]
            witnesses.append(seq)
            views.append({"entry": entry, "view": c["view"], "track": c["track"], "by": c["by"]})
        conflicts.append({"position": slot, "decisions": views})
    if conflicts:
        return Verdict(
            AGREEMENT,
            VIOLATED,
            sorted(set(witnesses)),
            {"positions": [c["position"] for c in conflicts], "conflicts": conflicts},
        )
    return Verdict(AGREEMENT, HOLDS)


def check_validity(records: list) -> Verdict:
    """Every committed non-null request must carry a valid client token."""
    bad = []
    for seq, c in _commits(records):
        entry = c.get("entry")
        if entry is None:  # null entries (padding) and FaB values are exempt
            continue
        if c["token"] != make_request(entry.encode(), parse_node(c["client"])).token.value:
            bad.append(seq)
    if bad:
        return Verdict(VALIDITY, VIOLATED, sorted(set(bad)))
    return Verdict(VALIDITY, HOLDS)


def check_stuck(records: list) -> Verdict:
    """Did any new leader find its progress certificate vouching for nothing?"""
    hits = []
    details = {}
    for rec in records[1:]:
        if rec.get("stuck"):
            hits.append(rec["seq"])
            details = rec["stuck"]
    if hits:
        return Verdict(STUCK, OCCURRED, hits, details)
    return Verdict(STUCK, HOLDS)


def check_fast_latency(records: list) -> Verdict:
    """Benign fast-track commits must complete in delivery-rank depth 3."""
    header = _header(records)
    if header["protocol"] != ZYZZYVA or header["byzantine"]:
        return Verdict(FAST_LATENCY, NOT_APPLICABLE)
    depths = []
    witnesses = []
    for seq, c in _commits(records):
        if c["track"] == "fast" and c["by"].startswith("c"):
            depths.append(c["depth"])
            witnesses.append(seq)
    if not depths:
        return Verdict(FAST_LATENCY, NOT_APPLICABLE)
    status = HOLDS if all(d == 3 for d in depths) else VIOLATED
    return Verdict(FAST_LATENCY, status, sorted(set(witnesses)), {"depths": depths})


_CHECKERS = {
    AGREEMENT: check_agreement,
    VALIDITY: check_validity,
    STUCK: check_stuck,
    FAST_LATENCY: check_fast_latency,
}


def default_properties(protocol: str):
    if protocol == ZYZZYVA:
        return (AGREEMENT, VALIDITY, FAST_LATENCY)
    return (AGREEMENT, STUCK)


def run_checkers(records: list, properties=None) -> list:
    """Verdicts on a trace; a malformed one raises ValueError whatever is checked."""
    _check_shape(records)
    if properties is None:
        properties = default_properties(records[0]["protocol"])
    out = []
    for prop in properties:
        if prop not in _CHECKERS:
            raise ValueError(f"unknown property {prop!r}")
        out.append(_CHECKERS[prop](records))
    return out


def any_violation(verdicts) -> bool:
    return any(v.status in (VIOLATED, OCCURRED) for v in verdicts)


def expected_mismatches(expected: list, verdicts: list) -> list:
    """Compare a scenario's expected verdict block against computed verdicts."""
    by_prop = {v.property: v for v in verdicts}
    problems = []
    for want in expected:
        prop = want["property"]
        got = by_prop.get(prop)
        if got is None:
            problems.append(f"{prop}: not checked")
            continue
        if got.status != want["status"]:
            problems.append(f"{prop}: expected {want['status']}, got {got.status}")
        if "positions" in want:
            have = got.details.get("positions", [])
            if sorted(want["positions"]) != sorted(have):
                problems.append(f"{prop}: expected positions {want['positions']}, got {have}")
    return problems
