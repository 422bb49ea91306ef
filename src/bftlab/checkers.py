"""Trace analyzers certifying agreement, validity, stuck, and fast latency.

Checkers are pure functions over parsed trace records (the same dicts the
JSONL trace serializes), so a stored trace re-checks to exactly the verdicts
computed at run time. They trust the records: `read_trace` checks a stored
trace's shape, and the simulator writes only traces of that shape.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import ZYZZYVA, Obj, check_type, make_request, parse_json, parse_node

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


class TraceError(Exception):
    """A trace the checkers cannot read, or a property they do not know."""


# the fields of a trace that checking it reads, and their shapes
_HEADER = Obj({"name": str, "protocol": str, "n": int, "f": int, "t": int,
               "byzantine": list[str]}, open=True)
_COMMIT = {"view": int, "track": str, "by": str}
_FAB_COMMIT = Obj({"value": str, **_COMMIT}, open=True)
_ZYZZYVA_COMMIT = Obj({"position": int, "entry": str | None, "client": str | None,
                       "token": str | None, "depth": int | None, **_COMMIT}, open=True)
_STUCK = Obj({
    "view": int, "leader": str,
    "pc": list[Obj({"replica": str, "last_accepted": str | None,
                    "commit_proof": Obj({"value": str}, open=True, null=True)},
                   open=True)],
    "candidates": list[Obj({"value": str, "vouched": bool, "blocked_prepare": list[str],
                            "blocked_proof": list[str]}, open=True)],
}, open=True, null=True)
_FAB_RECORD = Obj({"seq": int, "commits": list[_FAB_COMMIT] | None},
                  {"stuck": _STUCK}, open=True)
_ZYZZYVA_RECORD = Obj({"seq": int, "commits": list[_ZYZZYVA_COMMIT] | None},
                      {"stuck": _STUCK}, open=True)


def check_trace(records: list):
    """Raise TraceError unless the trace has the shape `bftlab check` reads:
    a header, then records whose commits are of the header's protocol."""
    header = records[0] if records else None
    if not isinstance(header, dict) or header.get("kind") != "scenario":
        raise TraceError("trace has no scenario header record")
    check_type(header, _HEADER, "trace header", TraceError)
    shape = _ZYZZYVA_RECORD if header["protocol"] == ZYZZYVA else _FAB_RECORD
    # the records after the header by index, so that an error names its record
    body = {i: rec for i, rec in enumerate(records) if i}
    check_type(body, dict[int, shape], "trace", TraceError)


def read_trace(data: bytes) -> list[dict]:
    """The records of a JSONL trace file's bytes, if `check_trace` accepts
    them; else TraceError."""
    records = [parse_json(line, TraceError) for line in data.splitlines() if line.strip()]
    check_trace(records)
    return records


def _commits(records: list):
    """(seq, commit) pairs from correct participants only."""
    byz = set(records[0]["byzantine"])
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
        cid = parse_node(c["client"], TraceError)
        if c["token"] != make_request(entry.encode(), cid).token.value:
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
    header = records[0]
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


def check_properties(names):
    """names (None: a protocol's defaults), if each is one of PROPERTIES;
    else TraceError."""
    for name in names or ():
        if name not in PROPERTIES:
            raise TraceError(f"unknown property {name!r}")
    return names


def run_checkers(records: list, properties=None) -> list:
    """Verdicts on a trace's records, of the named PROPERTIES or of its
    protocol's defaults; an unknown name raises TraceError."""
    check_properties(properties)
    if properties is None:
        properties = default_properties(records[0]["protocol"])
    return [_CHECKERS[prop](records) for prop in properties]


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
