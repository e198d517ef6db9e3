"""Class-level span tracer for the benchmark's traced pass.

The program under test is not edited: :meth:`Tracer.install` replaces
the public entry point of each ``repro`` module listed in
:func:`_targets` with a timing wrapper, and :meth:`Tracer.uninstall`
puts the originals back.  Every wrapped call belongs to a *layer*
(gpusim, oracle, prepare, policy, server, fold, replay, observers,
autoscale, parallel_map) and an *op* (the call's name).

* A call into a layer from inside the same layer is not a new span:
  its count and inclusive time are recorded for its op, but its time
  stays in the enclosing frame's self time.
* Coarse calls (serve, prepare_pair, run_epoch_node, parallel_map,
  store I/O, synthesis, system construction) are kept as individual
  spans: name, start, end, self time and the span that caused them.
* Hot calls (lookups, decisions, fold events, predictions) are
  aggregated per parent span into count, total and self time.
* A layer's self time is its frames' duration minus the part covered
  by child frames of other layers; time outside every wrapped call is
  the root span's self time, reported as ``other``.

Worker processes of a traced ``parallel_map`` fan-out run each item
under a fresh tracer (inherited through ``fork``) and ship its summary
back with the item's result; :meth:`Tracer.absorb` folds it in, so the
layer seconds of a 2-worker run add up across processes.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from collections import defaultdict
from typing import Callable

clock = time.perf_counter

#: Per-layer metrics: (name, unit, better, layer, which traced run it is
#: read from).  gpusim simulations and store writes only happen while
#: the duration store is cold, so those are read from the cold trace;
#: the rest describe a warm run, the state ``wall_s`` measures, and the
#: 2-worker efficiency compares the warm run with its 2-worker twin.
LAYER_METRICS = (
    ("gpusim.runs", "count", "lower", "gpusim", "cold"),
    ("gpusim.s", "s", "lower", "gpusim", "cold"),
    ("gpusim.us_per_run", "us", "lower", "gpusim", "cold"),
    ("gpusim.fast_share", "ratio", "higher", "gpusim", "cold"),
    ("oracle.lookups", "count", "lower", "oracle", "warm"),
    ("oracle.hit_ratio", "ratio", "higher", "oracle", "warm"),
    ("oracle.self_s", "s", "lower", "oracle", "warm"),
    ("oracle.us_per_lookup", "us", "lower", "oracle", "warm"),
    ("oracle.store_load_s", "s", "lower", "oracle", "warm"),
    ("oracle.store_save_s", "s", "lower", "oracle", "cold"),
    ("prepare.calls", "count", "lower", "prepare", "warm"),
    ("prepare.ms_per_call", "ms", "lower", "prepare", "warm"),
    ("prepare.s", "s", "lower", "prepare", "warm"),
    ("fusion.ms_per_search", "ms", "lower", "prepare", "warm"),
    ("predictor.trains", "count", "lower", "prepare", "warm"),
    ("predictor.ms_per_train", "ms", "lower", "prepare", "warm"),
    ("policy.decisions", "count", "lower", "policy", "warm"),
    ("policy.self_s", "s", "lower", "policy", "warm"),
    ("policy.us_per_decide", "us", "lower", "policy", "warm"),
    ("predictor.predicts", "count", "lower", "policy", "warm"),
    ("predictor.us_per_predict", "us", "lower", "policy", "warm"),
    ("server.launches", "count", "lower", "server", "warm"),
    ("server.self_s", "s", "lower", "server", "warm"),
    ("server.us_per_launch", "us", "lower", "server", "warm"),
    ("fold.events", "count", "lower", "fold", "warm"),
    ("fold.ns_per_event", "ns", "lower", "fold", "warm"),
    ("replay.synth_s", "s", "lower", "replay", "warm"),
    ("observers.calls", "count", "lower", "observers", "warm"),
    ("observers.self_s", "s", "lower", "observers", "warm"),
    ("observers.share", "ratio", "lower", "observers", "warm"),
    ("autoscale.node_epochs", "count", "lower", "autoscale", "warm"),
    ("autoscale.systems_built", "count", "lower", "autoscale", "warm"),
    ("autoscale.controller_self_s", "s", "lower", "autoscale", "warm"),
    ("parallel_map.items", "count", "lower", "parallel_map", "warm"),
    ("parallel_map.s", "s", "lower", "parallel_map", "warm"),
    ("parallel_map.efficiency_2w", "ratio", "higher", "parallel_map", "fanout"),
    ("other.s", "s", "lower", "rest", "warm"),
    ("other.share", "ratio", "lower", "rest", "warm"),
    ("trace.overhead_x", "x", "lower", "rest", "warm"),
)

#: The end-to-end metrics each layer should move (README.md says on
#: which workloads).
LAYER_TARGETS = {
    "gpusim": "setup_s",
    "oracle": "wall_s",
    "prepare": "wall_s, setup_s",
    "policy": "wall_s",
    "server": "wall_s",
    "fold": "wall_s, rss_mb",
    "replay": "wall_s, setup_s",
    "observers": "wall_s, rss_mb",
    "autoscale": "wall_s",
    "parallel_map": "wall_s",
    "rest": "-",
}

#: The tracer whose wrappers are installed (a forked worker inherits it).
_ACTIVE: "Tracer | None" = None


class _Frame:
    __slots__ = ("layer", "op", "start", "child", "span")

    def __init__(self, layer: str, op: str, start: float, span: int):
        self.layer = layer
        self.op = op
        self.start = start
        self.child = 0.0
        self.span = span


def _targets():
    """(owner, attribute, layer, op, coarse) for every wrapped call."""
    from repro import telemetry
    from repro.fusion.search import FusionSearch
    from repro.gpusim import gpu
    from repro.predictor.fused_model import FusedDurationModel
    from repro.predictor.online import OnlineModelManager
    from repro.runtime import autoscale, oracle, replay, server, system
    from repro.runtime.policies import SchedulerPolicy  # imports every policy
    from repro.telemetry.session import RunTelemetry
    from repro.telemetry.slo import SLOMonitor

    targets = [(gpu, "run_blocks", "gpusim", "run_blocks", False)]
    for name in ("solo_ms", "solo_cycles", "fused", "corun", "corun_policy",
                 "launch_cycles"):
        targets.append((oracle.DurationOracle, name, "oracle", name, False))
    targets += [
        (oracle.OracleStore, "load", "oracle", "store_load", True),
        (oracle.OracleStore, "save", "oracle", "store_save", True),
        (system.TackerSystem, "__init__", "autoscale", "system_init", True),
        (system.TackerSystem, "prepare_pair", "prepare", "prepare_pair", True),
        (FusionSearch, "search", "prepare", "search", False),
        (FusedDurationModel, "train", "prepare", "train", False),
        (OnlineModelManager, "predict_kernel", "policy", "predict", False),
        (OnlineModelManager, "predict_fused", "policy", "predict", False),
        (server.ColocationServer, "serve", "server", "serve", True),
        (replay, "synthesize_trace", "replay", "synthesize_trace", True),
        (autoscale, "run_autoscale", "autoscale", "run_autoscale", True),
        (autoscale, "run_epoch_node", "autoscale", "run_epoch_node", True),
        (telemetry, "merge_session", "observers", "merge_session", False),
    ]
    for name in ("note_kernel", "note_query_latency", "note_be_credit"):
        targets.append((replay.StreamingResult, name, "fold", name, False))
    pending = [SchedulerPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for name in ("decide", "note_outcome", "note_query_done"):
            if name in cls.__dict__:
                targets.append((cls, name, "policy", name, False))
    for name, value in vars(RunTelemetry).items():
        if not name.startswith("_") and callable(value):
            targets.append((RunTelemetry, name, "observers", name, False))
    for name in vars(SLOMonitor):
        if name.startswith("note_"):
            targets.append((SLOMonitor, name, "observers", name, False))
    return targets


class Tracer:
    """Layer-attributed host-time accounting for one traced run."""

    def __init__(self):
        self._patched: list = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Start a fresh recording; the root span opens now."""
        self.pid = os.getpid()
        self.origin = clock()
        #: coarse spans, id = index; span 0 is the root ("other")
        self.spans: list = [{"id": 0, "parent": None, "layer": "other",
                             "op": "run", "start_s": 0.0}]
        #: (span id, layer, op) -> [count, total s, self s, outer total s]
        self.ops: dict = {}
        self.extra: dict = defaultdict(float)
        self.oracle_counts = [0, 0, 0]  # hits, misses, persistent hits
        self._oracles: "weakref.WeakSet" = weakref.WeakSet()
        self._stack = [_Frame("other", "run", self.origin, 0)]
        from repro.gpusim import fastpath

        self._fast0 = (fastpath.STATS.fast, fastpath.STATS.engine)

    def _note(self, span: int, layer: str, op: str, total: float,
              self_s: float, outer: float) -> None:
        key = (span, layer, op)
        agg = self.ops.get(key)
        if agg is None:
            self.ops[key] = [1, total, self_s, outer]
        else:
            agg[0] += 1
            agg[1] += total
            agg[2] += self_s
            agg[3] += outer

    def wrap(self, fn: Callable, layer: str, op: str, coarse: bool):
        """A timing wrapper around ``fn`` for one (layer, op)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            top = stack[-1]
            start = clock()
            if top.layer == layer:
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._note(top.span, layer, op, clock() - start, 0.0, 0.0)
            span = top.span
            if coarse:
                span = len(tracer.spans)
                tracer.spans.append({
                    "id": span, "parent": top.span, "layer": layer, "op": op,
                    "start_s": start - tracer.origin,
                })
            # re-entered through another layer (run_autoscale ->
            # parallel_map -> run_epoch_node): self time counts, but the
            # inclusive time is already inside the outer frame
            outermost = all(f.layer != layer for f in stack)
            frame = _Frame(layer, op, start, span)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stack[-1].child += elapsed
                self_s = elapsed - frame.child
                if coarse:
                    record = tracer.spans[span]
                    record["end_s"] = end - tracer.origin
                    record["self_s"] = self_s
                tracer._note(top.span, layer, op, elapsed, self_s,
                             elapsed if outermost else 0.0)

        return traced

    def wrap_map(self, map_fn: Callable, workers: int):
        """Trace the ``map_fn`` handed to ``run_autoscale``.

        With more than one worker, items run in other processes: each
        goes through :func:`_in_worker`, which ships the worker's trace
        summary back with the result.
        """
        tracer = self

        def fan_out(fn, items):
            items = list(items)
            tracer.extra["parallel_map.items"] += len(items)
            tracer.extra["parallel_map.workers"] = workers
            if workers <= 1:
                return map_fn(fn, items)
            shipped = map_fn(functools.partial(_in_worker, fn), items)
            for _, summary in shipped:
                tracer.absorb(summary)
            return [result for result, _ in shipped]

        return self.wrap(fan_out, "parallel_map", "map", True)

    def absorb(self, summary: dict) -> None:
        """Fold a worker's summary in under the current span."""
        parent = self._stack[-1].span
        offset = len(self.spans)
        for record in summary["spans"][1:]:
            record = dict(record)
            record["id"] += offset
            record["parent"] = (
                parent if record["parent"] == 0 else record["parent"] + offset
            )
            record["worker"] = summary["pid"]
            self.spans.append(record)
        for span, layer, op, count, total, self_s, outer in summary["ops"]:
            key = (parent if span == 0 else span + offset, layer, op)
            agg = self.ops.setdefault(key, [0, 0.0, 0.0, 0.0])
            agg[0] += count
            agg[1] += total
            agg[2] += self_s
            agg[3] += outer
        for i, value in enumerate(summary["oracle"]):
            self.oracle_counts[i] += value
        for key, value in summary["extra"].items():
            if key != "parallel_map.workers":
                self.extra[key] += value

    # -- oracle counters ---------------------------------------------------

    def _harvest(self, oracle) -> None:
        if getattr(oracle, "_bench_harvested", False):
            return
        oracle._bench_harvested = True
        self.oracle_counts[0] += oracle.hits
        self.oracle_counts[1] += oracle.misses
        self.oracle_counts[2] += oracle.persistent_hits

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every target; also sample every oracle's lookup counters."""
        global _ACTIVE
        from repro.runtime.oracle import DurationOracle

        for owner, name, layer, op, coarse in _targets():
            original = getattr(owner, name)
            wrapped = self.wrap(original, layer, op, coarse)
            self._patch(owner, name, wrapped)
            if not isinstance(owner, type):
                # ``from module import fn`` bindings elsewhere in repro
                for module in list(sys.modules.values()):
                    if (module is not owner
                            and getattr(module, "__name__", "").startswith("repro")
                            and getattr(module, name, None) is original):
                        self._patch(module, name, wrapped)

        init = DurationOracle.__init__

        @functools.wraps(init)
        def tracked_init(oracle, *args, **kwargs):
            init(oracle, *args, **kwargs)
            self._oracles.add(oracle)

        self._patch(DurationOracle, "__init__", tracked_init)
        # Oracles of finished node-epochs are counted as they are freed.
        self._patch(DurationOracle, "__del__",
                    lambda oracle: self._harvest(oracle))
        _ACTIVE = self

    def _patch(self, owner, name: str, value) -> None:
        had = isinstance(owner, type) and name in owner.__dict__
        self._patched.append((owner, name, getattr(owner, name, None),
                              had or not isinstance(owner, type)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, name, original, restore in reversed(self._patched):
            if restore:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patched.clear()
        _ACTIVE = None

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Close the root span; everything recorded, JSON-safe."""
        from repro.gpusim import fastpath

        now = clock()
        root = self._stack[0]
        wall = now - root.start
        for oracle in list(self._oracles):
            self._harvest(oracle)
        self.spans[0]["end_s"] = wall
        self.spans[0]["self_s"] = wall - root.child
        hot: dict = defaultdict(dict)
        for (span, layer, op), agg in self.ops.items():
            hot[span][f"{layer}.{op}"] = [agg[0], agg[1], agg[2]]
        for record in self.spans:
            record["hot"] = hot.get(record["id"], {})
        return {
            "pid": self.pid,
            "wall_s": wall,
            "spans": self.spans,
            "ops": [[span, layer, op, *agg]
                    for (span, layer, op), agg in self.ops.items()],
            "oracle": list(self.oracle_counts),
            "fastpath": [fastpath.STATS.fast - self._fast0[0],
                         fastpath.STATS.engine - self._fast0[1]],
            "extra": dict(self.extra),
        }


def _in_worker(fn, item):
    """Run one fanned-out item under a fresh recording (worker side)."""
    _ACTIVE.reset()
    result = fn(item)
    return result, _ACTIVE.summary()


# -- per-layer metrics ---------------------------------------------------------


def _totals(summary: dict) -> dict:
    """(layer, op) -> [count, total, self, outer] summed over spans."""
    totals: dict = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
    for _, layer, op, count, total, self_s, outer in summary["ops"]:
        agg = totals[(layer, op)]
        agg[0] += count
        agg[1] += total
        agg[2] += self_s
        agg[3] += outer
    return totals


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_shares(summary: dict) -> dict:
    """Each layer's inclusive share of the traced wall (cProfile-style
    cumulative time of its outermost calls), plus ``other``."""
    wall = summary["wall_s"]
    inclusive: dict = defaultdict(float)
    for (layer, _), agg in _totals(summary).items():
        inclusive[layer] += agg[3]
    shares = {layer: _ratio(s, wall) for layer, s in sorted(inclusive.items())}
    shares["other"] = _ratio(summary["spans"][0]["self_s"], wall)
    return shares


def _map_seconds(summary: dict) -> float:
    return sum(outer for _, layer, _, _, _, _, outer in summary["ops"]
               if layer == "parallel_map")


def layer_metrics(cold: dict, warm: dict, untraced_wall_s: float,
                  fanout: "dict | None" = None) -> dict:
    """Every :data:`LAYER_METRICS` value from one cold and one warm trace.

    ``fanout`` is the warm trace of the same autoscale run with
    ``parallel_map`` over 2 workers; ``parallel_map.efficiency_2w`` is
    the serial fan-out's seconds over 2 x the 2-worker fan-out's.
    """
    values = {}
    for source, summary in (("cold", cold), ("warm", warm)):
        t = _totals(summary)

        def get(layer, *ops, field=0):
            if not ops:
                return sum(a[field] for (l, _), a in t.items() if l == layer)
            return sum(t[(layer, op)][field] for op in ops if (layer, op) in t)

        hits, misses, persistent = summary["oracle"]
        lookups = hits + misses + persistent
        lookup_ops = ("solo_ms", "solo_cycles", "fused", "corun",
                      "corun_policy", "launch_cycles")
        fast, engine = summary["fastpath"]
        runs = get("gpusim", "run_blocks")
        launches = summary["extra"].get("launches", 0)
        prepare_calls = get("prepare", "prepare_pair")
        searches = get("prepare", "search")
        trains = get("prepare", "train")
        decisions = get("policy", "decide")
        predicts = get("policy", "predict")
        events = get("fold")
        other_s = summary["spans"][0]["self_s"]
        computed = {
            "gpusim.runs": runs,
            "gpusim.s": get("gpusim", "run_blocks", field=1),
            "gpusim.us_per_run": _ratio(get("gpusim", field=1), runs, 1e6),
            "gpusim.fast_share": _ratio(fast, fast + engine),
            "oracle.lookups": lookups,
            "oracle.hit_ratio": _ratio(hits, lookups),
            "oracle.self_s": get("oracle", *lookup_ops, field=2),
            "oracle.us_per_lookup": _ratio(
                get("oracle", *lookup_ops, field=2), lookups, 1e6),
            "oracle.store_load_s": get("oracle", "store_load", field=1),
            "oracle.store_save_s": get("oracle", "store_save", field=1),
            "prepare.calls": prepare_calls,
            "prepare.ms_per_call": _ratio(
                get("prepare", "prepare_pair", field=1), prepare_calls, 1e3),
            "prepare.s": get("prepare", "prepare_pair", field=1),
            "fusion.ms_per_search": _ratio(
                get("prepare", "search", field=1), searches, 1e3),
            "predictor.trains": trains,
            "predictor.ms_per_train": _ratio(
                get("prepare", "train", field=1), trains, 1e3),
            "policy.decisions": decisions,
            "policy.self_s": get("policy", field=2),
            "policy.us_per_decide": _ratio(
                get("policy", "decide", field=2), decisions, 1e6),
            "predictor.predicts": predicts,
            "predictor.us_per_predict": _ratio(
                get("policy", "predict", field=1), predicts, 1e6),
            "server.launches": launches,
            "server.self_s": get("server", "serve", field=2),
            "server.us_per_launch": _ratio(
                get("server", "serve", field=2), launches, 1e6),
            "fold.events": events,
            "fold.ns_per_event": _ratio(get("fold", field=2), events, 1e9),
            "replay.synth_s": get("replay", "synthesize_trace", field=1),
            "observers.calls": get("observers"),
            "observers.self_s": get("observers", field=2),
            "observers.share": _ratio(get("observers", field=3),
                                      get("server", "serve", field=3)),
            "autoscale.node_epochs": get("autoscale", "run_epoch_node"),
            "autoscale.systems_built": get("autoscale", "system_init"),
            "autoscale.controller_self_s": get(
                "autoscale", "run_autoscale", field=2),
            "parallel_map.items": int(summary["extra"].get(
                "parallel_map.items", 0)),
            "parallel_map.s": _map_seconds(summary),
            "other.s": other_s,
            "other.share": _ratio(other_s, summary["wall_s"]),
            "trace.overhead_x": _ratio(summary["wall_s"], untraced_wall_s),
        }
        for name, _, _, _, read_from in LAYER_METRICS:
            if read_from == source:
                values[name] = computed[name]
    values["parallel_map.efficiency_2w"] = _ratio(
        _map_seconds(warm),
        fanout["extra"]["parallel_map.workers"] * _map_seconds(fanout),
    ) if fanout else 0.0
    return values
