"""Workload generation (Section VIII-B).

LC queries arrive in a Poisson process at 80% of the service's peak
supported load (the load a real datacenter would run at without QoS
violations); BE applications are endless kernel streams built from the
Parboil kernels or the DNN-training iteration sequences.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from ..errors import ConfigError, SchedulingError
from ..kernels.library import KernelLibrary
from ..models.training import TRAINING_JOBS, training_job
from ..models.zoo import ModelSpec
from .oracle import DurationOracle
from .query import BEApplication, KernelInstance, KernelPlan, Query

#: Load factor of Section VIII-B: 80% of the peak supported load.
DEFAULT_LOAD = 0.8

#: Quantized random-input scales of BE launches (Section VIII-C's
#: "random inputs of BE tasks"); quantization keeps launch shapes
#: memoizable while still moving the load ratio off its opportune point.
BE_INPUT_SCALES = (0.5, 0.75, 1.0, 1.25, 1.5)


def query_instances(
    model: ModelSpec, library: KernelLibrary
) -> tuple[KernelInstance, ...]:
    """Materialize one query's kernel instances from its model spec."""
    return tuple(
        KernelInstance(
            kernel=library.get(qk.kernel),
            grid=library.get(qk.kernel).default_grid,
            fusable=qk.fusable,
        )
        for qk in model.kernels
    )


def solo_query_ms(
    model: ModelSpec, library: KernelLibrary, oracle: DurationOracle
) -> float:
    """Solo (uncontended) latency of one query."""
    return sum(
        oracle.solo_ms(inst.kernel, inst.grid)
        for inst in query_instances(model, library)
    )


def peak_load_qps(solo_ms: float) -> float:
    """Upper bound on the query rate: the serial service capacity."""
    if solo_ms <= 0:
        raise ConfigError("solo latency must be positive")
    return 1000.0 / solo_ms


#: Relative jitter of the paced arrival process: gaps are uniform in
#: ``mean_gap * [1 - JITTER, 1 + JITTER]``.
PACED_JITTER = 0.3


def arrival_gaps(
    rate_per_ms: float,
    count: int,
    seed: int,
    process: str = "paced",
) -> np.ndarray:
    """Inter-arrival gaps for one LC service.

    Two processes:

    * ``"paced"`` (default) — uniformly jittered periodic arrivals, the
      low-burstiness traffic a datacenter load balancer or an MLPerf
      server-style generator produces.  This is the operating point the
      paper's Fig. 16 exhibits (average latency close to the 99th
      percentile in *every* co-location, which open-loop heavy-tailed
      traffic cannot produce at high utilization) — see DESIGN.md.
    * ``"poisson"`` — open-loop exponential gaps, for studying the
      bursty regime.

    A zero (or negative) rate has no finite mean gap; callers that can
    legitimately see one — e.g. a churned-out tenant in
    :func:`merged_arrival_stream` — must skip the service instead.
    """
    if rate_per_ms <= 0:
        raise ConfigError(
            f"arrival rate must be positive, got {rate_per_ms}; a "
            "zero-rate service contributes no arrivals and must be "
            "skipped by the caller"
        )
    rng = np.random.default_rng(seed)
    mean_gap = 1.0 / rate_per_ms
    if process == "paced":
        return rng.uniform(
            mean_gap * (1 - PACED_JITTER),
            mean_gap * (1 + PACED_JITTER),
            size=count,
        )
    if process == "poisson":
        return rng.exponential(mean_gap, size=count)
    raise ConfigError(f"unknown arrival process {process!r}")


def fold_gaps_to_arrivals(gaps: np.ndarray, gap_filter=None) -> np.ndarray:
    """The one gap→arrival fold every arrival path shares.

    ``gap_filter`` (the fault-injection hook) transforms the
    inter-arrival gap array *before* the cumulative sum, so a burst
    compresses the gaps it covers and shifts everything after it.
    :meth:`PoissonArrivals.queries`, :func:`merged_arrival_stream` and
    the trace synthesizers in :mod:`repro.runtime.replay` all fold
    through here — one definition, so the semantics cannot drift
    between the live path and the replay path.
    """
    if gap_filter is not None:
        gaps = gap_filter(gaps)
    return np.cumsum(gaps)


def merge_streams(
    per_service: "Sequence[tuple[str, np.ndarray]]",
) -> list[tuple[float, str]]:
    """Merge per-service arrival arrays into one time-sorted stream.

    Returns ``(arrival_ms, service_name)`` tuples sorted by time with
    ties broken by service name — a *stable, total* order, so two
    services that happen to produce identical timestamps always merge
    the same way regardless of input ordering.
    """
    stream: list[tuple[float, str]] = []
    for name, arrivals in per_service:
        stream.extend((float(t), name) for t in arrivals)
    stream.sort(key=lambda item: (item[0], item[1]))
    return stream


#: Both functions below are pure functions of their arguments, and the
#: serving tests and experiment sweeps re-derive the same operating
#: points over and over (one calibration per (model, GPU, QoS) pair,
#: each costing a 30-step bisection over a 4000-query Lindley
#: recursion).  Memoizing them dedupes that work exactly — same code
#: path, same floats — so calibrated rates and the tables built from
#: them are byte-identical with or without a warm memo.
_P99_MEMO: dict[tuple, float] = {}
_PEAK_RATE_MEMO: dict[tuple, float] = {}


def _p99_sojourn_ms(
    rate_per_ms: float,
    solo_ms: float,
    seed: int,
    n_queries: int,
    process: str,
) -> float:
    """99th-percentile latency of the LC service running alone.

    LC queries execute serially and non-preemptively, so with no BE
    co-runner the service time is deterministic (= the solo latency)
    and the Lindley recursion gives exact sojourn times.  The recursion
    is one fold over Python floats: the same IEEE operations in the
    same order as a per-element loop, without numpy-scalar overhead.
    """
    key = (rate_per_ms, solo_ms, seed, n_queries, process)
    cached = _P99_MEMO.get(key)
    if cached is not None:
        return cached
    gaps = arrival_gaps(rate_per_ms, n_queries, seed, process)
    arrivals = np.cumsum(gaps)
    solo = float(solo_ms)
    finishes = itertools.accumulate(
        arrivals.tolist(),
        lambda finish, arrival: (
            arrival if arrival > finish else finish
        ) + solo,
        initial=0.0,
    )
    next(finishes)  # the initial idle server
    sojourns = np.fromiter(finishes, float, n_queries) - arrivals
    result = float(np.percentile(sojourns, 99))
    _P99_MEMO[key] = result
    return result


def calibrate_peak_rate(
    solo_ms: float,
    qos_ms: float,
    seed: int = 7,
    n_queries: int = 4000,
    process: str = "paced",
) -> float:
    """The peak supported load (queries/ms): the largest arrival rate at
    which the service alone still meets its QoS target at the 99th
    percentile — the paper's "peak supported load without causing QoS
    violation" (Section VIII-B).
    """
    if solo_ms >= qos_ms:
        raise ConfigError(
            f"solo latency {solo_ms:.1f} ms already exceeds the "
            f"{qos_ms:.1f} ms QoS target"
        )
    memo_key = (solo_ms, qos_ms, seed, n_queries, process)
    cached = _PEAK_RATE_MEMO.get(memo_key)
    if cached is not None:
        return cached
    lo, hi = 0.0, 1.0 / solo_ms
    for _ in range(30):
        mid = (lo + hi) / 2
        if mid == 0.0:
            break
        if _p99_sojourn_ms(mid, solo_ms, seed, n_queries, process) <= qos_ms:
            lo = mid
        else:
            hi = mid
    _PEAK_RATE_MEMO[memo_key] = lo
    return lo


class PoissonArrivals:
    """Deterministic Poisson arrival generator for one LC service."""

    def __init__(
        self,
        model: ModelSpec,
        library: KernelLibrary,
        oracle: DurationOracle,
        load: float = DEFAULT_LOAD,
        seed: int = 2022,
        qos_ms: float = 50.0,
        process: str = "paced",
    ):
        if not 0 < load <= 1:
            raise ConfigError(f"load must be in (0, 1], got {load}")
        self.model = model
        self.process = process
        self._plan = KernelPlan(query_instances(model, library))
        self._seed = seed
        self.solo_ms = sum(self._plan.served_ms(oracle, 1.0))
        self.rate_per_ms = load * calibrate_peak_rate(
            self.solo_ms, qos_ms, process=process
        )

    def queries(self, count: int, gap_filter=None) -> list[Query]:
        """The first ``count`` queries, with generated arrival times.

        ``gap_filter`` optionally transforms the inter-arrival gap
        array before arrival times are accumulated — the hook the
        fault-injection harness uses to inject bursts.
        """
        if count <= 0:
            raise SchedulingError("query count must be positive")
        gaps = arrival_gaps(self.rate_per_ms, count, self._seed, self.process)
        arrivals = fold_gaps_to_arrivals(gaps, gap_filter)
        return [
            Query(self.model, float(t), self._plan.instances, plan=self._plan)
            for t in arrivals
        ]


def merged_arrival_stream(
    models: "list[ModelSpec] | tuple[ModelSpec, ...]",
    library: KernelLibrary,
    oracle: DurationOracle,
    count: int,
    seed: int,
    load: float = DEFAULT_LOAD,
    qos_ms: float = 50.0,
    rate_scale: float = 1.0,
    process: str = "paced",
) -> list[tuple[float, str]]:
    """A fleet's merged LC arrival stream: ``(arrival_ms, model_name)``.

    Each service gets its own seeded arrival process at ``load`` of its
    calibrated peak rate, scaled by ``rate_scale`` (a fleet of ``N``
    replicas serving ``M`` services absorbs ``N / M`` single-node
    streams per service); ``count`` queries are split evenly across
    services (earlier services take the remainder).  Streams are merged
    and time-sorted, ties broken by model name (:func:`merge_streams`),
    so the result is a deterministic function of its arguments.

    A service whose effective rate is zero (``rate_scale == 0``)
    contributes no arrivals — the tenant-churn replay path relies on
    this rather than dividing by a zero rate.
    """
    if not models:
        raise SchedulingError("need at least one LC service")
    if count < len(models):
        raise SchedulingError(
            f"need at least one query per service ({len(models)} services)"
        )
    if rate_scale < 0:
        raise ConfigError(f"rate_scale must be >= 0, got {rate_scale}")
    per_stream: list[tuple[str, np.ndarray]] = []
    per_service, remainder = divmod(count, len(models))
    for index, model in enumerate(models):
        arrivals = PoissonArrivals(
            model, library, oracle,
            load=load, seed=seed + index, qos_ms=qos_ms, process=process,
        )
        effective = arrivals.rate_per_ms * rate_scale
        if effective <= 0:
            continue  # zero-rate service: no arrivals
        n = per_service + (1 if index < remainder else 0)
        gaps = arrival_gaps(effective, n, seed + index, process)
        per_stream.append((model.name, fold_gaps_to_arrivals(gaps)))
    return merge_streams(per_stream)


def be_application(name: str, library: KernelLibrary) -> BEApplication:
    """Build one of the paper's twelve BE applications by name.

    Parboil names map to single-kernel streams; the ``*-T`` names map to
    DNN-training iteration streams.
    """
    if name in TRAINING_JOBS or name.lower() in tuple(
        t.lower() for t in TRAINING_JOBS
    ):
        job = training_job(name)
        sequence = tuple(
            KernelInstance(
                kernel=library.get(qk.kernel),
                grid=library.get(qk.kernel).default_grid,
                fusable=qk.fusable,
            )
            for qk in job.kernels
        )
        return BEApplication(
            name=job.name, sequence=sequence, memory_intensive=True,
            input_scales=BE_INPUT_SCALES,
        )
    kernel = library.get(name)
    instance = KernelInstance(
        kernel=kernel, grid=kernel.default_grid, fusable=True
    )
    return BEApplication(
        name=name,
        sequence=(instance,),
        memory_intensive=kernel.is_memory_intensive,
        input_scales=BE_INPUT_SCALES,
    )


def standard_be_names() -> tuple[str, ...]:
    """The twelve BE applications of Table II, compute-intensive first."""
    return (
        "mriq", "fft", "mrif", "cutcp", "cp",
        "sgemm", "lbm", "tpacf",
        "Res-T", "VGG-T", "Incep-T", "Dense-T",
    )
