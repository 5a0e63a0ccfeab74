"""Outside-in layer trace of zxtk: hooks on module bindings, spans in memory.

zxtk's modules import each other's functions by name, so a caller looks
a function up in its own module.  A hook therefore replaces every
binding of a function, in every loaded zxtk module, with a wrapper that
opens a span on entry and closes it on exit.  Spans (name, start, end,
parent span, op id) stay in flat arrays until the run ends.

A layer's time is the summed duration of its outermost spans, so a
layer calling itself (``interp_cpm`` calls ``interp``) counts once; a
span's self time is its duration minus that of its direct children.
Counts that only the results carry (steps, collisions, replayed moves,
bytes) are read from the returned objects after the span has closed.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (layer, defining module, function)
HOOKS = (
    ("machine.normalize", "zxtk.machine", "normalize"),
    ("machine.diffuse", "zxtk.machine", "diffuse_once"),
    ("machine.gate_cycle", "zxtk.machine", "is_cycle_balanced"),
    ("machine.gate_wf", "zxtk.machine", "is_well_formed"),
    ("machine.readout", "zxtk.machine", "read_terms"),
    ("interp.dense", "zxtk.interp", "interp"),
    ("interp.dense", "zxtk.interp", "interp_cpm"),
    ("ground.replay", "zxtk.ground", "check_simulation"),
    ("diagram.cpm", "zxtk.diagram", "cpm_construct"),
    ("diagram.components", "zxtk.diagram", "connected_components"),
    ("diagram.cycles", "zxtk.diagram", "cycle_basis"),
    ("diagram.cycles", "zxtk.diagram", "enumerate_cycles"),
    ("diagram.paths", "zxtk.diagram", "enumerate_paths"),
    ("verify.generate", "zxtk.verify", "random_diagram"),
    ("verify.trial", "zxtk.verify", "run_trial"),
    ("textio.serialize", "zxtk.textio", "serialize_trace"),
    ("textio.parse", "zxtk.textio", "parse_trace"),
)
# The scheduler is a callable that make_strategy builds per run; its
# calls are spans of this layer.
SCHEDULE = "machine.schedule"
STRATEGY_FACTORY = ("zxtk.machine", "make_strategy")

# Counters read from results, and the layer whose calls produce them.
COUNTER_SOURCE = {
    "machine.steps": "machine.normalize",
    "machine.rule_applications": "machine.normalize",
    "machine.peak_terms": "machine.normalize",
    "machine.term_steps": "machine.normalize",
    "machine.collisions_matched": "machine.normalize",
    "machine.collisions_killed": "machine.normalize",
    "machine.kill_ratio": "machine.normalize",
    "machine.sites_offered": SCHEDULE,
    "ground.replayed_steps": "ground.replay",
    "ground.ground_moves": "ground.replay",
    "verify.skipped": "verify.trial",
    "textio.trace_bytes": "textio.serialize",
}


def source_layer(metric: str) -> str | None:
    """The layer whose hook must fire for ``metric`` to mean anything."""
    if metric in COUNTER_SOURCE:
        return COUNTER_SOURCE[metric]
    for suffix in ("_self_s", "_calls", "_s"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return None


def _observe_trace(counts: dict, result) -> None:
    _, trace = result
    peak = len(trace.initial.terms)
    for st in trace.steps:
        live = len(st.state_after.terms)
        peak = max(peak, live)
        counts["machine.term_steps"] += live
        counts["machine.rule_applications"] += 1 + len(st.collisions)
        for collision in st.collisions:
            counts["machine.collisions_matched" if collision[3] else "machine.collisions_killed"] += 1
    counts["machine.steps"] += len(trace.steps)
    counts["machine.peak_terms"] = max(counts["machine.peak_terms"], peak)


def _observe_replay(counts: dict, report) -> None:
    counts["ground.replayed_steps"] += len(report.steps)
    counts["ground.ground_moves"] += report.ground_moves


def _observe_trial(counts: dict, result) -> None:
    counts["verify.skipped"] += result.outcome == "skip"


def _observe_serialized(counts: dict, text: str) -> None:
    counts["textio.trace_bytes"] += len(text)  # the JSON is ASCII: one byte per character


OBSERVERS = {
    "normalize": _observe_trace,
    "check_simulation": _observe_replay,
    "run_trial": _observe_trial,
    "serialize_trace": _observe_serialized,
}


class Tracer:
    """Installs the hooks, records spans while active, and sums them per layer."""

    def __init__(self) -> None:
        self.layer_names: list[str] = ["op"]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.active = False
        self.op_id = -1
        self._root = -1
        self._stack: list[int] = []
        self._depth: defaultdict[int, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layer_names:
            self.layer_names.append(layer)
        return self.layer_names.index(layer)

    def _open(self, lid: int) -> int:
        i = len(self.start)
        self.name.append(lid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.outer.append(self._depth[lid] == 0)
        self.end.append(0.0)
        self._depth[lid] += 1
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self._depth[self.name[i]] -= 1

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.active = True
        self._root = self._open(0)

    def end_op(self) -> None:
        self._close(self._root)
        self.active = False

    # -- hooks ---------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every zxtk binding of ``original`` at ``replacement``."""
        for modname, module in list(sys.modules.items()):
            if modname != "zxtk" and not modname.startswith("zxtk."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _wrap(self, fn, layer: str, observe):
        lid = self._layer_id(layer)
        tracer = self

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if observe is not None:
                observe(tracer.counts, result)
            return result

        return hooked

    def _wrap_strategy(self, strategy):
        lid = self._layer_id(SCHEDULE)
        tracer = self

        def scheduled(d, s, sites):
            if not tracer.active:
                return strategy(d, s, sites)
            tracer.counts["machine.sites_offered"] += len(sites)
            i = tracer._open(lid)
            try:
                return strategy(d, s, sites)
            finally:
                tracer._close(i)

        return scheduled

    def install(self) -> None:
        """Hook every function in HOOKS that this zxtk still defines.

        A function that was renamed or removed gets no hook; its layer
        then records no calls and the report says it was not reached.
        """
        import importlib

        for layer, modname, fname in HOOKS:
            original = getattr(importlib.import_module(modname), fname, None)
            if callable(original):
                self._rebind(original, self._wrap(original, layer, OBSERVERS.get(fname)))
        modname, fname = STRATEGY_FACTORY
        factory = getattr(importlib.import_module(modname), fname, None)
        if callable(factory):

            @functools.wraps(factory)
            def make_strategy(*args, **kwargs):
                return self._wrap_strategy(factory(*args, **kwargs))

            self._rebind(factory, make_strategy)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Seconds and calls per layer, normalize's self time, and the counters."""
        n = len(self.start)
        children = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]] += self.end[i] - self.start[i]
        seconds: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        own: defaultdict[str, float] = defaultdict(float)
        for i in range(n):
            layer = self.layer_names[self.name[i]]
            duration = self.end[i] - self.start[i]
            own[layer] += duration - children[i]
            if self.outer[i]:
                seconds[layer] += duration
                calls[layer] += 1
        out: dict[str, float] = {}
        for layer in {h[0] for h in HOOKS} | {SCHEDULE}:
            out[f"{layer}_s"] = seconds[layer]
            out[f"{layer}_calls"] = calls[layer]
        out["machine.normalize_self_s"] = own["machine.normalize"]
        for counter in COUNTER_SOURCE:
            out[counter] = self.counts[counter]
        pairs = out["machine.collisions_matched"] + out["machine.collisions_killed"]
        out["machine.kill_ratio"] = out["machine.collisions_killed"] / pairs if pairs else 0.0
        return out

    def write_spans(self, path) -> None:
        """One line per span: id, layer, parent id, op id, start and end seconds."""
        lines = ["span\tlayer\tparent\top\tstart_s\tend_s"]
        t0 = self.start[0] if len(self.start) else 0.0
        for i in range(len(self.start)):
            lines.append(
                f"{i}\t{self.layer_names[self.name[i]]}\t{self.parent[i]}\t{self.op[i]}\t"
                f"{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}"
            )
        path.write_text("\n".join(lines) + "\n")
