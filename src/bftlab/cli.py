"""Command-line driver: run scenarios, check traces, explore schedules.

Exit codes: 0 all properties hold, 1 I/O or validation error, 2 a
violation/stuck verdict occurred or the scenario's expected verdicts did
not match. The human summary goes to stdout; machine-readable verdicts go
to stderr, and traces/scenarios to files, so golden tests pin files only.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .checkers import (TraceError, any_violation, check_properties, expected_mismatches,
                       read_trace, run_checkers)
from .explorer import ExplorerError, explore, load_config
from .netsim import SimError, run_scenario
from .scenarios import ScenarioError, builtin_scenarios, get_builtin, load_scenario


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors exit 1, like every other input error: 2 means a violation."""
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="bftlab", description=__doc__)
    p.add_argument("--list", action="store_true", help="list built-in scenarios")
    sub = p.add_subparsers(dest="command")

    run = sub.add_parser("run", help="execute a scenario and check its trace")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", metavar="NAME", help="built-in scenario name")
    src.add_argument("--scenario", metavar="PATH", help="scenario JSON file")
    run.add_argument("-o", "--trace", metavar="PATH", help="write the JSONL trace here")
    run.add_argument("--properties", metavar="CSV", help="override checked properties")

    check = sub.add_parser("check", help="re-run checkers on a stored trace")
    check.add_argument("trace", metavar="TRACE", help="JSONL trace file")
    check.add_argument("--properties", metavar="CSV", help="comma-separated properties")

    exp = sub.add_parser("explore", help="bounded search for counterexamples")
    exp.add_argument("--explore-config", metavar="PATH", required=True)
    exp.add_argument("--out", metavar="PATH", help="write the found scenario here")

    sub.add_parser("list", help="list built-in scenarios")
    return p


def _emit_verdicts(verdicts):
    for v in verdicts:
        print(json.dumps(asdict(v), separators=(",", ":")), file=sys.stderr)


def _summary(records, verdicts):
    header = records[0]
    print(f"scenario: {header['name']}  protocol: {header['protocol']}  "
          f"n={header['n']} f={header['f']} t={header['t']} "
          f"byzantine={header['byzantine'] or '[]'}")
    rows = []
    for rec in records[1:]:
        for c in rec.get("commits") or []:
            if "position" in c:
                rows.append((c["view"], str(c["position"]), c["entry"] or "(null)",
                             c["track"], c["by"]))
            else:
                rows.append((c["view"], "-", c["value"], c["track"], c["by"]))
    if rows:
        print("commits:")
        print(f"  {'view':<5} {'pos':<4} {'entry':<8} {'track':<10} by")
        for view, pos, entry, track, by in rows:
            print(f"  {view:<5} {pos:<4} {entry:<8} {track:<10} {by}")
    else:
        print("commits: none")
    for rec in records[1:]:
        if rec.get("stuck"):
            s = rec["stuck"]
            print(f"stuck: view {s['view']} leader {s['leader']}")
            for r in s["pc"]:
                cp = r["commit_proof"]
                cp = f"proof({cp['value']})" if cp else "-"
                print(f"  rep {r['replica']}: accepted={r['last_accepted'] or '-'} {cp}")
            for c in s["candidates"]:
                why = []
                if c["blocked_prepare"]:
                    why.append(f"quorum of prepares for {','.join(c['blocked_prepare'])}")
                if c["blocked_proof"]:
                    why.append(f"commit proof for {','.join(c['blocked_proof'])}")
                verdict = "vouched" if c["vouched"] else "blocked: " + "; ".join(why)
                print(f"  candidate {c['value']}: {verdict}")
    for v in verdicts:
        extra = ""
        if v.property == "agreement" and v.details.get("positions"):
            extra = f" at position(s) {v.details['positions']}"
        elif v.property == "fast_latency" and v.details.get("depths"):
            extra = f" (depth {v.details['depths']})"
        print(f"{v.property}: {v.status.upper()}{extra}")


def _cmd_run(args) -> int:
    props = check_properties(args.properties.split(",") if args.properties else None)
    scenario = get_builtin(args.builtin) if args.builtin else load_scenario(args.scenario)
    trace = run_scenario(scenario)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_jsonl())
    verdicts = run_checkers(trace.records, props)
    _summary(trace.records, verdicts)
    _emit_verdicts(verdicts)
    mismatches = expected_mismatches(scenario.expected, verdicts)
    for m in mismatches:
        print(f"expected-verdict mismatch: {m}")
    if mismatches or any_violation(verdicts):
        return 2
    return 0


def _cmd_check(args) -> int:
    props = check_properties(args.properties.split(",") if args.properties else None)
    with open(args.trace, "rb") as fh:
        records = read_trace(fh.read())
    verdicts = run_checkers(records, props)
    _summary(records, verdicts)
    _emit_verdicts(verdicts)
    return 2 if any_violation(verdicts) else 0


def _cmd_explore(args) -> int:
    result = explore(load_config(args.explore_config))
    print(f"explored {result.stats['states']} states "
          f"(deduped {result.stats['deduped']}, depth {result.stats['max_depth']}) "
          f"in {result.stats['elapsed']}s; "
          f"{result.stats['transitions']} transitions computed, "
          f"{result.stats['transitions_reused']} reused")
    if result.stats["budget_exhausted"]:
        print("state budget exhausted before finding a counterexample")
    ce = result.counterexample
    if ce is None:
        print("no counterexample found within bounds")
        return 0
    print(f"counterexample found: {ce.verdict.property} {ce.verdict.status} "
          f"({len(ce.scenario.script)} directives)")
    _emit_verdicts([ce.verdict])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(ce.scenario.to_json())
        print(f"scenario written to {args.out}")
    return 2


def _cmd_list(args) -> int:
    for sc in builtin_scenarios():
        print(f"{sc.name:<26} {sc.description}")
    return 0


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        if getattr(args, "list", False):
            return _cmd_list(args)
        parser.print_usage(sys.stderr)
        return 1
    handler = {
        "run": _cmd_run,
        "check": _cmd_check,
        "explore": _cmd_explore,
        "list": _cmd_list,
    }[args.command]
    try:
        return handler(args)
    except (ScenarioError, SimError, ExplorerError, TraceError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
