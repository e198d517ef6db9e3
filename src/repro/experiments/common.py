"""Shared infrastructure for the experiment harnesses.

The expensive state — kernel library, simulation caches, PTB transforms,
fused artifacts, trained models — lives in a :class:`TackerSystem` that
is shared per GPU across all experiments in a process, exactly as the
paper's offline preparation is shared across its evaluation runs.

Two performance layers sit on top:

* every shared system carries a persistent duration store (see
  :mod:`repro.runtime.oracle`), so repeat runs skip re-simulation;
* :func:`parallel_map` fans independent work items (e.g. the 72
  LC x BE pairs of Fig. 14) over worker processes.  Each worker builds
  its own systems, results come back in submission order, and the
  workers' fresh oracle entries are merged into the parent's store on
  join — so parallel runs are bit-identical to serial ones and leave
  the cache just as warm.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .. import audit, telemetry
from ..config import gpu_preset
from ..errors import ParallelMapError
from ..gpusim import fastpath
from ..runtime.oracle import STATS as oracle_stats
from ..runtime.runconfig import DEFAULT_RUN_CONFIG, RunConfig
from ..runtime.system import TackerSystem

_SYSTEMS: dict[tuple, TackerSystem] = {}

#: Experiment-module result caches (e.g. fig14's); registered so
#: :func:`reset_systems` clears them together with the systems.
_RESULT_CACHES: list[dict] = []

#: Environment switch: set REPRO_QUICK=1 to shrink sweeps for smoke runs.
QUICK_ENV = "REPRO_QUICK"

#: Worker processes for :func:`parallel_map`; unset/1 = serial,
#: "auto" = one per CPU.
WORKERS_ENV = "REPRO_WORKERS"

#: Set in workers so nested parallel_map calls stay serial.
_IN_WORKER_ENV = "REPRO_IN_WORKER"


def quick_mode() -> bool:
    return os.environ.get(QUICK_ENV, "") not in ("", "0", "false")


def get_system(
    gpu: str = "rtx2080ti", config: Optional[RunConfig] = None
) -> TackerSystem:
    """The process-wide shared system for one (GPU preset, run config).

    ``RunConfig`` is frozen and hashable, so each distinct operating
    point gets its own shared system while repeat callers reuse it.
    """
    resolved = config if config is not None else DEFAULT_RUN_CONFIG
    key = (gpu.lower(), resolved)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = TackerSystem(gpu=gpu_preset(key[0]), config=resolved)
    return _SYSTEMS[key]


def register_cache(cache: dict) -> dict:
    """Register an experiment-module result cache for central clearing."""
    _RESULT_CACHES.append(cache)
    return cache


def clear_caches() -> None:
    """Clear every registered experiment result cache."""
    for cache in _RESULT_CACHES:
        cache.clear()


def reset_systems() -> None:
    """Drop all shared systems and result caches (test isolation).

    Freshly simulated durations are flushed to the persistent store
    first, so isolation never costs warm-cache state.
    """
    for system in _SYSTEMS.values():
        system.flush()
    _SYSTEMS.clear()
    clear_caches()


def default_queries(full: int = 150, quick: int = 30) -> int:
    return quick if quick_mode() else full


# -- parallel fan-out ---------------------------------------------------------

T = TypeVar("T")
R = TypeVar("R")


def worker_count(workers: Optional[int] = None) -> int:
    """Resolve the worker count (explicit arg > env > serial)."""
    if workers is not None:
        return max(1, int(workers))
    if os.environ.get(_IN_WORKER_ENV):
        return 1
    raw = os.environ.get(WORKERS_ENV, "").strip().lower()
    if not raw or raw in ("0", "1"):
        return 1
    if raw in ("auto", "max"):
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _stores() -> list:
    """Every shared system's persistent store, each distinct one once
    (the systems of one GPU share one store)."""
    stores = (system.oracle.store for system in _SYSTEMS.values())
    return list({id(s): s for s in stores if s is not None}.values())


def _store_delta(before: dict[str, tuple[set, set]]) -> dict[str, dict]:
    """Each store's entries whose keys ``before`` lacks, by path."""
    delta: dict[str, dict] = {}
    for store in _stores():
        path = str(store.path)
        solo_keys, fused_keys = before.get(path, ((), ()))
        solo = {k: v for k, v in store.solo.items() if k not in solo_keys}
        fused = {k: v for k, v in store.fused.items() if k not in fused_keys}
        if solo or fused:
            delta[path] = {"solo": solo, "fused": fused}
    return delta


def _invoke_task(payload):
    """Worker-side wrapper: run the item, ship back new store entries.

    Both the store entries and the worker's process-global metrics are
    the item's *delta*: pooled worker processes are reused across items,
    and a snapshot would re-ship or double-count earlier items' work.
    """
    fn, item = payload
    os.environ[_IN_WORKER_ENV] = "1"
    before = telemetry.registry().snapshot()
    keys = {str(s.path): (set(s.solo), set(s.fused)) for s in _stores()}
    result = fn(item)
    return result, _store_delta(keys), telemetry.registry().diff(before)


def _merge_store_deltas(deltas: Iterable[dict[str, dict]]) -> None:
    """Fold workers' new store entries into the parent's stores."""
    stores = _stores()
    for delta in deltas:
        for store in stores:
            sections = delta.get(str(store.path))
            if sections is None:
                continue
            before = len(store)
            store.solo.update(sections["solo"])
            store.fused.update(sections["fused"])
            if len(store) != before:
                store._dirty = True


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Results come back in submission order, and every item is evaluated
    by a deterministic, order-independent pipeline (memoized
    simulations, per-pair arrival seeds), so the output is identical to
    a serial ``[fn(i) for i in items]`` — parallelism only changes the
    wall clock.  ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` of one).  Worker processes build their own
    systems; their freshly simulated durations are merged into this
    process's persistent store when the pool joins.

    A worker failure does not throw away finished work: every item runs
    to completion or failure, the finished items' store entries and
    metrics deltas are merged as usual, and then :class:`ParallelMapError`
    is raised naming the first failing item (the worker's exception is
    its ``__cause__``).
    """
    items = list(items)
    n_workers = min(worker_count(workers), len(items))
    if n_workers <= 1:
        return [fn(item) for item in items]
    shipped, failures = [], []
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(_invoke_task, (fn, item)) for item in items]
        for index, future in enumerate(futures):
            try:
                shipped.append(future.result())
            except Exception as exc:  # reported below, after the merge
                failures.append((index, exc))
    _merge_store_deltas(delta for _, delta, _ in shipped)
    # Metrics registries merge in submission order: counter/histogram
    # deltas add (commutative), gauges last-write-wins — the same final
    # state a serial run would leave.
    registry = telemetry.registry()
    for _, _, metrics_delta in shipped:
        if metrics_delta:
            registry.merge_snapshot(metrics_delta)
    if failures:
        index, exc = failures[0]
        raise ParallelMapError(
            f"parallel_map item {index} of {len(items)} "
            f"({repr(items[index])[:200]}) failed: "
            f"{type(exc).__name__}: {exc} "
            f"({len(failures)} of {len(items)} items failed)",
            index=index,
        ) from exc
    results = [result for result, _, _ in shipped]
    if audit.active():
        _audit_parallel_results(fn, items, results)
    return results


def _audit_parallel_results(fn, items, results) -> None:
    """Differential check: re-run sampled cells serially and compare.

    The serial-equals-parallel guarantee above is what makes
    ``REPRO_WORKERS`` safe to enable; this samples the first and last
    cells (the most likely to straddle a worker boundary) and verifies
    the worker-produced results against in-process evaluation.
    """
    n_samples = min(audit.config().parallel_samples, len(items))
    if n_samples <= 0:
        return
    indices = sorted({0, len(items) - 1})[:n_samples]
    for index in indices:
        serial = fn(items[index])
        audit.ensure(
            audit.results_match(results[index], serial),
            "parallel-serial-equivalence",
            "a parallel_map worker returned a different result than "
            "serial evaluation of the same item",
            index=index, item=repr(items[index])[:200],
        )


# -- performance accounting ---------------------------------------------------


def _dict_delta(now: dict[str, int], earlier: dict[str, int]) -> dict:
    """Per-key difference, dropping keys whose delta is zero."""
    delta = {}
    for key in sorted(set(now) | set(earlier)):
        diff = now.get(key, 0) - earlier.get(key, 0)
        if diff:
            delta[key] = diff
    return delta


@dataclass
class PerfCounters:
    """Point-in-time totals of the simulation-avoidance machinery."""

    oracle_hits: int = 0
    oracle_misses: int = 0
    oracle_persistent_hits: int = 0
    fastpath_fast: int = 0
    fastpath_engine: int = 0
    #: fast-path launches by accepted shape class
    fastpath_by_shape: dict = field(default_factory=dict)
    #: engine fallbacks by reject reason
    fastpath_rejects: dict = field(default_factory=dict)

    def delta(self, earlier: "PerfCounters") -> "PerfCounters":
        return PerfCounters(
            oracle_hits=self.oracle_hits - earlier.oracle_hits,
            oracle_misses=self.oracle_misses - earlier.oracle_misses,
            oracle_persistent_hits=(
                self.oracle_persistent_hits - earlier.oracle_persistent_hits
            ),
            fastpath_fast=self.fastpath_fast - earlier.fastpath_fast,
            fastpath_engine=self.fastpath_engine - earlier.fastpath_engine,
            fastpath_by_shape=_dict_delta(
                self.fastpath_by_shape, earlier.fastpath_by_shape
            ),
            fastpath_rejects=_dict_delta(
                self.fastpath_rejects, earlier.fastpath_rejects
            ),
        )

    def as_dict(self) -> dict[str, int]:
        flat = {
            "oracle_hits": self.oracle_hits,
            "oracle_misses": self.oracle_misses,
            "oracle_persistent_hits": self.oracle_persistent_hits,
            "fastpath_fast": self.fastpath_fast,
            "fastpath_engine": self.fastpath_engine,
        }
        for shape in sorted(self.fastpath_by_shape):
            flat[f"fastpath_fast[{shape}]"] = self.fastpath_by_shape[shape]
        for reason in sorted(self.fastpath_rejects):
            flat[f"fastpath_reject[{reason}]"] = self.fastpath_rejects[reason]
        return flat


def perf_counters() -> PerfCounters:
    """Current totals across every oracle of the process and the fast
    path (shared systems and the fresh ones of scenario, cluster and
    autoscale runs alike)."""
    return PerfCounters(
        oracle_hits=oracle_stats.hits,
        oracle_misses=oracle_stats.misses,
        oracle_persistent_hits=oracle_stats.persistent_hits,
        fastpath_fast=fastpath.STATS.fast,
        fastpath_engine=fastpath.STATS.engine,
        fastpath_by_shape=dict(fastpath.STATS.fast_by_shape),
        fastpath_rejects=dict(fastpath.STATS.rejects),
    )


def publish_perf_metrics(registry=None) -> PerfCounters:
    """Publish the perf totals into a metrics registry.

    The report's ad-hoc counters live on the registry now: this folds
    the same :func:`perf_counters` totals into Prometheus families
    (``repro_oracle_lookups_total``, ``repro_fastpath_dispatch_total``)
    at collection time, so ``repro metrics`` and ``--perf`` expose one
    set of numbers.  Returns the collected totals.
    """
    reg = registry if registry is not None else telemetry.registry()
    counters = perf_counters()
    for outcome, total in (
        ("hit", counters.oracle_hits),
        ("miss", counters.oracle_misses),
        ("persistent_hit", counters.oracle_persistent_hits),
    ):
        reg.counter(
            "repro_oracle_lookups_total",
            "Duration-oracle lookups by outcome.",
            outcome=outcome,
        ).set_total(total)
    for path, total in (
        ("fast", counters.fastpath_fast),
        ("engine", counters.fastpath_engine),
    ):
        reg.counter(
            "repro_fastpath_dispatch_total",
            "SM simulations by dispatch path.",
            path=path,
        ).set_total(total)
    for shape in sorted(counters.fastpath_by_shape):
        reg.counter(
            "repro_fastpath_shape_total",
            "Fast-path launches by accepted shape class.",
            shape=shape,
        ).set_total(counters.fastpath_by_shape[shape])
    for reason in sorted(counters.fastpath_rejects):
        reg.counter(
            "repro_fastpath_reject_total",
            "Engine fallbacks by reject reason.",
            reason=reason,
        ).set_total(counters.fastpath_rejects[reason])
    return counters


@dataclass
class TimedResult:
    """An experiment result with its wall clock and counter deltas."""

    value: object
    wall_s: float
    counters: PerfCounters

    def perf_line(self) -> str:
        c = self.counters
        line = (
            f"wall {self.wall_s:.2f}s | oracle hits {c.oracle_hits} "
            f"(persistent {c.oracle_persistent_hits}) misses "
            f"{c.oracle_misses} | fastpath {c.fastpath_fast} fast / "
            f"{c.fastpath_engine} engine"
        )
        if c.fastpath_rejects:
            rejects = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(c.fastpath_rejects.items())
            )
            line += f" (rejects: {rejects})"
        return line


def timed_run(fn: Callable[[], R],
              label: Optional[str] = None) -> TimedResult:
    """Run an experiment entry point under perf instrumentation.

    With telemetry on, the phase's wall clock is also published as a
    ``repro_phase_wall_seconds`` gauge (labelled by ``label`` or the
    function's qualified name) and the perf totals land on the registry.
    """
    before = perf_counters()
    start = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - start
    if telemetry.active():
        phase = label or getattr(fn, "__module__", "") or "phase"
        telemetry.registry().gauge(
            "repro_phase_wall_seconds",
            "Host wall clock of one experiment phase.",
            phase=phase,
        ).set(wall)
        publish_perf_metrics()
    return TimedResult(
        value=value,
        wall_s=wall,
        counters=perf_counters().delta(before),
    )


# -- formatting ---------------------------------------------------------------


def format_table(
    headers: list[str], rows: list[list], width: int = 12
) -> str:
    """Fixed-width plain-text table, the form the bench output prints.

    ``width`` is the *minimum* column width; any column whose header or
    contents are longer widens to fit, so long model names never
    collide with their neighbours.
    """

    def text(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    widths = [max(width, len(str(h))) for h in headers]
    for row in rows:
        for col, value in enumerate(row):
            if col < len(widths):
                widths[col] = max(widths[col], len(text(value)))

    def line(values) -> str:
        return "".join(
            text(v).rjust(widths[col]) for col, v in enumerate(values)
        )

    lines = [line(headers)]
    lines.append("-" * sum(widths))
    lines.extend(line(row) for row in rows)
    return "\n".join(lines)


def geometric_spacing(lo: float, hi: float, count: int) -> list[float]:
    """``count`` points spaced multiplicatively in [lo, hi]."""
    if count < 2:
        return [lo]
    ratio = (hi / lo) ** (1 / (count - 1))
    return [lo * ratio**i for i in range(count)]
