"""Span recorder and layer wrappers for the traced benchmark run.

The traced run wraps each layer's public functions at the attributes
their callers look them up by: a module function is replaced in every
loaded ``repro`` module that binds it (``from x import f`` copies the
name), a method on every class that defines it.  Each wrapped call
records one span ``(name, start, end, parent, attrs)`` in memory; the
spans are written out as JSONL when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Spans of one process nest strictly (one thread, a stack),
so the self times of a tree sum to its root's duration.  Sweep points
that run in forked workers record their spans there and ship them back
on the outcome row, as trees of their own: they overlap the parent's
``executor.map`` span, so they count towards the layer totals but not
towards the parent's self-time sum.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Outcome-row key the worker-side spans of one sweep point ride on.
SHIPPED = "_trace_spans"


class Recorder:
    """In-memory spans of one process, plus the trees shipped to it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: ``[name, start, end, parent, attrs]`` — parent is an index
        #: into this list or ``None``.
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: Span lists recorded in worker processes (same layout, parent
        #: indices relative to their own list).
        self.worker_trees: List[List[list]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed "
                               f"out of order")

    def annotate(self, index: int, attrs: Dict[str, object]) -> None:
        self.spans[index][4] = attrs

    def take_since(self, first: int) -> List[list]:
        """Detach the spans recorded from index ``first`` on, as a tree
        of their own (parents outside the slice become ``None``)."""
        self.settle(first)
        shipped = [[name, start, end,
                    None if parent is None or parent < first
                    else parent - first, attrs]
                   for name, start, end, parent, attrs
                   in self.spans[first:]]
        del self.spans[first:]
        return shipped

    def settle(self, first: int = 0) -> None:
        """Turn deferred payload references into byte counts.

        ``to_dict`` spans keep a reference to the payload they
        returned, so serialising it for the byte count happens here,
        outside every timed span.
        """
        for span in self.spans[first:]:
            attrs = span[4]
            if attrs and "payload" in attrs:
                span[4] = {"bytes": len(json.dumps(attrs["payload"]))}

    def trees(self) -> List[List[list]]:
        """The main tree first, then every worker tree."""
        return [self.spans] + self.worker_trees

    def write_jsonl(self, path: pathlib.Path) -> None:
        self.settle()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for tree_index, tree in enumerate(self.trees()):
                for name, start, end, parent, attrs in tree:
                    handle.write(json.dumps({
                        "tree": tree_index, "name": name,
                        "start": start, "end": end, "parent": parent,
                        "attrs": attrs}) + "\n")


def self_times(tree: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[2] - span[1] for span in tree]
    for span in tree:
        parent = span[3]
        if parent is not None:
            own[parent] -= span[2] - span[1]
    return own


def outermost(tree: Sequence[Sequence]) -> List[bool]:
    """Whether each span has no ancestor of the same name.

    A layer's inclusive time counts only its outermost spans, so a
    layer function calling another of the same layer is not counted
    twice.
    """
    flags = []
    for span in tree:
        parent = span[3]
        while parent is not None and tree[parent][0] != span[0]:
            parent = tree[parent][3]
        flags.append(parent is None)
    return flags


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------

def _wrap_call(recorder: Recorder, name: str, fn: Callable,
               measure: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if measure is not None:
            recorder.annotate(index, measure(args, kwargs, out))
        return out
    return wrapper


def _wrap_generator(recorder: Recorder, name: str,
                    fn: Callable) -> Callable:
    """One span per ``next()``: the time the generator body runs."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = recorder.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                recorder.close(index)
            recorder.annotate(index, {"items": 1})
            yield item
    return wrapper


def _wrap_point(recorder: Recorder, fn: Callable) -> Callable:
    """Trace one sweep point; in a forked worker, ship its spans back
    on the outcome row (the parent never sees the worker's memory)."""
    traced = _wrap_call(recorder, "sweep.point", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        first = len(recorder.spans)
        out = traced(*args, **kwargs)
        if os.getpid() != recorder.pid:
            out[SHIPPED] = recorder.take_since(first)
        return out
    return wrapper


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path) if path is not None else 0
    except OSError:
        return 0


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, type) or hasattr(owner, "__spec__"):
        setattr(owner, attr, value)  # a class or a module
    else:  # a frozen dataclass instance (an Experiment's runner)
        object.__setattr__(owner, attr, value)


class Tracer:
    """Install the layer wrappers; :meth:`remove` puts everything back."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    # -- patching primitives -------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type)
                           else getattr(owner, attr)))
        _assign(owner, attr, value)

    def function(self, module, attr: str, name: str,
                 measure: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` wherever a ``repro`` module binds it."""
        original = getattr(module, attr)
        wrapper = _wrap_call(self.recorder, name, original, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def method(self, cls, attr: str, name: str,
               measure: Optional[Callable] = None,
               generator: bool = False) -> None:
        """Wrap ``attr`` on ``cls`` (a plain or class method)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            inner = _wrap_call(self.recorder, name, raw.__func__, measure)
            self._set(cls, attr, classmethod(inner))
            return
        wrap = _wrap_generator(self.recorder, name, raw) if generator \
            else _wrap_call(self.recorder, name, raw, measure)
        self._set(cls, attr, wrap)

    def methods(self, classes, attr: str, name: str,
                measure: Optional[Callable] = None) -> None:
        for cls in classes:
            if attr in cls.__dict__:
                self.method(cls, attr, name, measure)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._undo):
            _assign(owner, attr, value)
        self._undo.clear()

    # -- the layers ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer the per-layer metrics name."""
        from repro.analysis import results, steady_state
        from repro.backends import dispatch
        from repro.queueing import lindley
        from repro.runtime import (cache, executor, manifest, registry,
                                   store, sweep)
        from repro.sim import engine, probe_vector, vector
        from repro.stats import ks, warmup
        from repro.testbed import channel
        from repro.traffic import generators

        self.method(registry.Experiment, "run", "registry.run",
                    lambda a, k, out: {"experiment": a[0].name})
        self.method(registry.Experiment, "kwargs_for",
                    "registry.kwargs_for")
        for experiment in registry.experiments():
            self._set(experiment, "runner", _wrap_call(
                self.recorder, "analysis.runner", experiment.runner))
        self.function(dispatch, "resolve", "dispatch.resolve",
                      lambda a, k, out: {"family": out.name})
        self.function(executor, "run_batch", "executor.run_batch",
                      lambda a, k, out: {"rows": int(a[0].repetitions)})
        self.function(executor, "map_ordered", "executor.map")
        for attr in ("simulate_probe_train_batch",
                     "simulate_probe_arrivals_batch",
                     "simulate_steady_state_batch"):
            self.function(probe_vector, attr, "kernel.probe",
                          lambda a, k, out: {"rows": out.repetitions})
        self.function(vector, "simulate_saturated_batch",
                      "kernel.saturated")
        self.function(lindley, "lindley_batch", "kernel.lindley")
        self.function(lindley, "lindley_recursion", "kernel.lindley")
        self.method(engine.Simulator, "run", "kernel.event")
        self.methods((generators.PoissonGenerator,
                      generators.CBRGenerator, generators.OnOffGenerator,
                      generators.TraceGenerator), "generate",
                     "traffic.generate",
                     lambda a, k, out: {"packets": len(out)})
        channels = (channel.Channel, channel.SimulatedWlanChannel,
                    channel.SimulatedFifoChannel)
        for attr in ("send_train", "send_trains", "send_trains_batch",
                     "send_trains_dense", "send_train_sequence"):
            self.methods(channels, attr, "channel.send_trains")
        for attr in ("steady_state_throughputs", "steady_state_samples"):
            self.function(steady_state, attr, "analysis.steady_state")
        for attr in ("ks_distance", "ks_threshold",
                     "ks_2samp_interpolated"):
            self.function(ks, attr, "stats.ks")
        for attr in ("mser", "mser_m"):
            self.function(warmup, attr, "stats.mser")
        result_cls = results.ExperimentResult
        self.method(result_cls, "to_dict", "results.to_dict",
                    lambda a, k, out: {"payload": out})
        self.method(result_cls, "from_dict", "results.from_dict")
        self.method(result_cls, "table", "results.table")
        self.method(cache.ResultCache, "store", "cache.store",
                    lambda a, k, out: {"bytes": _file_bytes(out)})
        self.method(cache.ResultCache, "load", "cache.load",
                    lambda a, k, out: {"bytes": _file_bytes(
                        a[0].path_for(a[1], a[2]))})
        self.function(cache, "code_version", "cache.code_version")
        self.method(store.SweepStore, "flush", "store.flush",
                    lambda a, k, out: {"bytes": _file_bytes(out)})
        self.method(store.SweepStore, "frame", "store.frame")
        self.method(store.SweepStore, "completed", "store.completed")
        journal_bytes = (lambda a, k, out: {"bytes": sum(
            len(record.to_json()) + 1 for record in (
                a[1] if isinstance(a[1], list) else [a[1]]))})
        self.method(manifest.Manifest, "record", "manifest.record",
                    journal_bytes)
        self.method(manifest.Manifest, "record_many", "manifest.record",
                    journal_bytes)
        self.method(manifest.Manifest, "load", "manifest.load")
        self.method(sweep.SweepPlan, "windows", "sweep.plan",
                    generator=True)
        for attr in ("refine_candidates", "point_metric"):
            self.function(sweep, attr, "sweep.refine")
        self._set(sweep, "_execute_point",
                  _wrap_point(self.recorder, sweep._execute_point))


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(recorder: Recorder, experiments: Sequence[str]
                  ) -> Dict[str, Tuple[float, str]]:
    """Fold every tree's spans into the named per-layer metrics.

    ``experiments`` names the ``registry.run.<name>_s`` metrics.
    Counts and inclusive times take a layer's outermost spans; a
    ``.rows`` metric is the mean batch size per outermost call.
    """
    recorder.settle()
    calls: Dict[str, int] = defaultdict(int)
    inclusive: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    attrs: Dict[str, float] = defaultdict(float)
    per_experiment: Dict[str, float] = defaultdict(float)
    for tree in recorder.trees():
        selfs = self_times(tree)
        outer = outermost(tree)
        for span, self_s, top in zip(tree, selfs, outer):
            name, start, end, _parent, extra = span
            own[name] += self_s
            if top:
                calls[name] += 1
                inclusive[name] += end - start
            if extra:
                for key, value in extra.items():
                    if key == "experiment":
                        per_experiment[value] += end - start
                    elif key == "family":
                        attrs[f"{name}.{value}"] += 1
                    elif top or key != "rows":
                        attrs[f"{name}.{key}"] += value

    def per_call(name: str) -> float:
        return attrs[f"{name}.rows"] / calls[name] if calls[name] else 0.0

    out: Dict[str, Tuple[float, str]] = {}

    def put(key: str, value: float, unit: str) -> None:
        out[key] = (float(value), unit)

    put("registry.run.calls", calls["registry.run"], "count")
    put("registry.run.s", inclusive["registry.run"], "s")
    put("registry.kwargs_for.s", inclusive["registry.kwargs_for"], "s")
    for experiment in experiments:
        put(f"registry.run.{experiment}_s", per_experiment[experiment],
            "s")
    put("dispatch.resolve.calls", calls["dispatch.resolve"], "count")
    put("dispatch.resolve.s", inclusive["dispatch.resolve"], "s")
    put("dispatch.event.count", attrs["dispatch.resolve.event"], "count")
    put("dispatch.vector.count", attrs["dispatch.resolve.vector"],
        "count")
    put("executor.run_batch.calls", calls["executor.run_batch"], "count")
    put("executor.run_batch.s", inclusive["executor.run_batch"], "s")
    put("executor.run_batch.rows", per_call("executor.run_batch"),
        "rows/call")
    put("executor.map.calls", calls["executor.map"], "count")
    put("executor.map.s", inclusive["executor.map"], "s")
    for layer in ("probe", "saturated", "lindley", "event"):
        put(f"kernel.{layer}.calls", calls[f"kernel.{layer}"], "count")
        put(f"kernel.{layer}.s", inclusive[f"kernel.{layer}"], "s")
    put("kernel.probe.rows", per_call("kernel.probe"), "rows/call")
    put("traffic.generate.calls", calls["traffic.generate"], "count")
    put("traffic.generate.s", inclusive["traffic.generate"], "s")
    put("traffic.generate.packets", attrs["traffic.generate.packets"],
        "count")
    put("channel.send_trains.calls", calls["channel.send_trains"],
        "count")
    put("channel.send_trains.s", inclusive["channel.send_trains"], "s")
    put("channel.send_trains.self_s", own["channel.send_trains"], "s")
    put("analysis.runner.self_s", own["analysis.runner"], "s")
    put("analysis.steady_state.s", inclusive["analysis.steady_state"],
        "s")
    for layer in ("ks", "mser"):
        put(f"stats.{layer}.calls", calls[f"stats.{layer}"], "count")
        put(f"stats.{layer}.s", inclusive[f"stats.{layer}"], "s")
    for layer in ("to_dict", "from_dict"):
        put(f"results.{layer}.calls", calls[f"results.{layer}"], "count")
        put(f"results.{layer}.s", inclusive[f"results.{layer}"], "s")
    put("results.table.s", inclusive["results.table"], "s")
    put("results.payload.bytes", attrs["results.to_dict.bytes"], "bytes")
    for layer in ("store", "load"):
        put(f"cache.{layer}.calls", calls[f"cache.{layer}"], "count")
        put(f"cache.{layer}.s", inclusive[f"cache.{layer}"], "s")
        put(f"cache.{layer}.bytes", attrs[f"cache.{layer}.bytes"],
            "bytes")
    put("cache.code_version.s", inclusive["cache.code_version"], "s")
    put("store.flush.calls", calls["store.flush"], "count")
    put("store.flush.s", inclusive["store.flush"], "s")
    put("store.flush.bytes", attrs["store.flush.bytes"], "bytes")
    put("store.frame.calls", calls["store.frame"], "count")
    put("store.frame.s", inclusive["store.frame"], "s")
    put("store.completed.s", inclusive["store.completed"], "s")
    put("manifest.record.calls", calls["manifest.record"], "count")
    put("manifest.record.s", inclusive["manifest.record"], "s")
    put("manifest.record.bytes", attrs["manifest.record.bytes"], "bytes")
    put("manifest.load.s", inclusive["manifest.load"], "s")
    put("sweep.plan.s", inclusive["sweep.plan"], "s")
    put("sweep.windows.count", attrs["sweep.plan.items"], "count")
    put("sweep.refine.s", inclusive["sweep.refine"], "s")
    return out
