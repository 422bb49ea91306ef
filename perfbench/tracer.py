"""Per-layer tracing for the benchmark, installed from outside the library.

`Tracer.install` wraps the functions and methods that form each layer's
boundary and records one span per call: layer, start, end and the parent
span. Spans live in flat arrays during the run and `write` stores them.
Self time (a span's duration minus the time its wrapped children took) is
accumulated per layer as each span closes. `remove` restores every original
object, so the library runs unchanged afterwards.

A wrapped function is patched in every bftlab module that binds it, because
`from .core import pack` leaves a separate reference in each importing
module; patching only `core.pack` would miss those callers.
"""
from __future__ import annotations

import functools
import gzip
import json
import time
from array import array

# layer -> (module, names); "Class.attr" patches the attribute on the class.
LAYERS = {
    "core.pack": ("core", ["pack"]),
    "core.log_canon": ("core", ["log_canon"]),
    "core.mint": ("core", ["mint"]),
    "core.token_ok": ("core", ["token_ok"]),
    "zyzzyva.handler": ("zyzzyva", [
        "send_request", "on_request", "on_order_req", "on_commit_request",
        "on_view_change_signal", "on_view_change_msg", "on_new_view",
        "on_spec_response", "on_timeout", "on_local_commit",
    ]),
    "zyzzyva.reconstruct_log": ("zyzzyva", ["reconstruct_log"]),
    "zyzzyva.check_decisions": ("zyzzyva", ["check_decisions"]),
    "fab.handler": ("fab", [
        "leader_propose", "on_propose", "on_accepted", "on_commit_proof_msg",
        "on_view_change_signal", "on_rep",
    ]),
    "fab.vouch_report": ("fab", ["vouch_report"]),
    "fab.check_decision": ("fab", ["check_decision"]),
    "netsim.event": ("netsim", [
        "Simulation.client_request", "Simulation.deliver", "Simulation.drop",
        "Simulation.delay_all_except", "Simulation.timeout", "Simulation.view_change",
        "Simulation.propose", "Simulation.adversary",
    ]),
    "netsim.scan_quorums": ("netsim", ["Simulation._scan_quorums"]),
    "netsim.state_digest": ("netsim", ["Simulation._state_digest"]),
    "netsim.to_jsonl": ("netsim", ["Trace.to_jsonl"]),
    "netsim.send": ("netsim", ["Simulation._send"]),
    "explorer.apply": ("explorer", ["_Kernel.apply"]),
    "explorer.dedup": ("explorer", ["KState.__hash__", "KState.__eq__"]),
    "explorer.store_add": ("explorer", ["_Kernel._store_add"]),
    "explorer.choices": ("explorer", ["_Kernel.choices"]),
    "explorer.violated": ("explorer", ["ZyzzyvaKernel.violated", "FabKernel.violated"]),
    "explorer.replay": ("explorer", ["_build_counterexample"]),
    "checkers.run": ("checkers", ["run_checkers"]),
    "scenarios.load": ("scenarios", [
        "get_builtin", "load_scenario", "loads", "from_dict", "validate",
    ]),
}

# Every canon/payload method of the message and identity classes is "core.canon".
CANON_MODULES = ("core", "zyzzyva", "fab")

# Layers whose per-call latency distribution is kept, not only totals.
LATENCY_LAYERS = ("netsim.event", "explorer.apply")

# Layers that return a list of decisions; their lengths are summed.
DECISION_LAYERS = ("zyzzyva.check_decisions", "fab.check_decision")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.results: list[int] = []
        self.durations: list[list | None] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [[-1, 0]]  # frames: [span index, child time in ns]
        self._undo: list[tuple] = []

    # -- install / remove -----------------------------------------------------

    def install(self, lab) -> None:
        """Wrap every layer boundary in the modules of `lab`."""
        for name, (modname, targets) in LAYERS.items():
            mod = getattr(lab, modname)
            for target in targets:
                if "." in target:
                    cls_name, attr = target.split(".")
                    self._patch_attr(getattr(mod, cls_name), attr, name)
                else:
                    self._patch_everywhere(lab, getattr(mod, target), name)
        for modname in CANON_MODULES:
            mod = getattr(lab, modname)
            for obj in list(vars(mod).values()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for attr in ("canon", "payload"):
                        if attr in vars(obj):
                            self._patch_attr(obj, attr, "core.canon")

    def _patch_attr(self, owner, attr, layer):
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(original, layer))
        self._undo.append((owner, attr, original))

    def _patch_everywhere(self, lab, original, layer):
        wrapped = self._wrap(original, layer)
        for mod in lab.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _lid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
            self.results.append(0)
            self.durations.append([] if name in LATENCY_LAYERS else None)
        return self.names.index(name)

    def _wrap(self, fn, name):
        lid = self._lid(name)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        durations, results = self.durations[lid], self.results
        keep_result = name in DECISION_LAYERS
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            up = stack[-1]
            i = len(layer)
            layer.append(lid)
            parent.append(up[0])
            start.append(0)
            end.append(0)
            frame = [i, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
                dur = t1 - t0
                up[1] += dur
                calls[lid] += 1
                total_ns[lid] += dur
                self_ns[lid] += dur - frame[1]
                if durations is not None:
                    durations.append(dur)
            if keep_result:
                results[lid] += len(out)
            return out

        return span

    # -- results --------------------------------------------------------------

    def layer_stats(self, name: str) -> dict:
        """calls, self_s, total_s, results and sorted durations (ns) of a layer."""
        if name not in self.names:
            return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "results": 0, "durations": []}
        i = self.names.index(name)
        return {
            "calls": self.calls[i],
            "self_s": self.self_ns[i] / 1e9,
            "total_s": self.total_ns[i] / 1e9,
            "results": self.results[i],
            "durations": sorted(self.durations[i] or ()),
        }

    def write(self, path) -> None:
        """Store the spans (gzip): one JSON header line, then the arrays it lists."""
        header = {
            "layers": self.names,
            "spans": len(self.layer),
            "arrays": ["layer:int32", "parent:int32", "start_ns:int64", "end_ns:int64"],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.layer, self.parent, self.start, self.end):
                fh.write(arr.tobytes())
