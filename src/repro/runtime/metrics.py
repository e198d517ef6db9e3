"""Evaluation metrics (Eqs. 10 and 11; Fig. 16's latency statistics).

Also home of :class:`QuantileSketch`, the fixed-bin streaming quantile
estimator the constant-memory replay fold uses for its p99 — kept here
with the other latency statistics so the list-based and folded paths
document their (bounded) disagreement in one place.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SchedulingError
from .server import ServerResult


class QuantileSketch:
    """Fixed-bin streaming quantile estimator (constant memory).

    ``bins`` uniform bins cover ``[0, upper_ms)``; values at or above
    ``upper_ms`` land in an overflow bin whose running maximum is kept
    exactly.  :meth:`quantile` returns the *upper edge* of the bin
    holding the ceil-rank order statistic, so its estimate is an upper
    bound on ``np.percentile(values, q*100, method="higher")`` that is
    at most :attr:`tolerance_ms` above it (exact for overflow quantiles,
    which return the running max).  Count, sum, min and max are exact.

    Deterministic and mergeable: folding two sketches with identical
    geometry (:meth:`merge`) equals sketching the concatenated stream,
    which is what keeps scenario tables byte-identical serial vs.
    ``--workers N``.
    """

    __slots__ = ("upper_ms", "bins", "counts", "overflow", "n",
                 "sum", "_min", "_max")

    def __init__(self, upper_ms: float, bins: int = 4096):
        if upper_ms <= 0 or bins < 1:
            raise SchedulingError(
                f"sketch needs a positive range and >= 1 bin, got "
                f"upper_ms={upper_ms}, bins={bins}"
            )
        self.upper_ms = float(upper_ms)
        self.bins = int(bins)
        self.counts = np.zeros(self.bins, dtype=np.int64)
        self.overflow = 0
        self.n = 0
        self.sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    @property
    def tolerance_ms(self) -> float:
        """The bin width: the worst-case quantile overestimate."""
        return self.upper_ms / self.bins

    def add(self, value: float) -> None:
        if value < 0:
            raise SchedulingError(f"latencies are non-negative, got {value}")
        self.n += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value >= self.upper_ms:
            self.overflow += 1
        else:
            self.counts[int(value / self.upper_ms * self.bins)] += 1

    def quantile(self, q: float) -> float:
        """Upper-edge estimate of the ``q``-quantile (0 < q <= 1)."""
        if not 0 < q <= 1:
            raise SchedulingError(f"quantile must be in (0, 1], got {q}")
        if self.n == 0:
            return float("nan")
        rank = max(1, int(np.ceil(q * self.n)))
        cumulative = 0
        for index in range(self.bins):
            cumulative += int(self.counts[index])
            if cumulative >= rank:
                return (index + 1) * self.tolerance_ms
        return self._max  # rank lands in the overflow bin: exact max

    @property
    def mean(self) -> float:
        return self.sum / self.n if self.n else float("nan")

    @property
    def max_value(self) -> float:
        return self._max if self.n else float("nan")

    @property
    def min_value(self) -> float:
        return self._min if self.n else float("nan")

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch of identical geometry into this one."""
        if (other.upper_ms, other.bins) != (self.upper_ms, self.bins):
            raise SchedulingError(
                "cannot merge sketches with different geometry "
                f"({self.upper_ms}/{self.bins} vs "
                f"{other.upper_ms}/{other.bins})"
            )
        self.counts += other.counts
        self.overflow += other.overflow
        self.n += other.n
        self.sum += other.sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def __eq__(self, other: object) -> bool:
        """Value equality: geometry, bin counts and exact aggregates."""
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        fields = ("upper_ms", "bins", "overflow", "n", "sum", "_min", "_max")
        return all(
            getattr(self, name) == getattr(other, name) for name in fields
        ) and np.array_equal(self.counts, other.counts)

    __hash__ = None  # mutable

    def to_dict(self) -> dict:
        """JSON-safe snapshot (bins are elided; aggregates are exact)."""
        return {
            "n": self.n,
            "mean_ms": self.mean,
            "p50_ms": self.quantile(0.50),
            "p99_ms": self.quantile(0.99),
            "max_ms": self.max_value,
            "min_ms": self.min_value,
            "overflow": self.overflow,
            "upper_ms": self.upper_ms,
            "bins": self.bins,
            "tolerance_ms": self.tolerance_ms,
        }


def throughput_improvement(
    tacker: ServerResult, baseline: ServerResult
) -> float:
    """Eq. 10: relative BE throughput gain of Tacker over the baseline.

    Both runs must cover the same horizon (same arrival trace), so the
    work comparison is a throughput comparison.
    """
    if abs(tacker.horizon_ms - baseline.horizon_ms) > 1e-6:
        raise SchedulingError(
            "cannot compare runs over different horizons "
            f"({tacker.horizon_ms} vs {baseline.horizon_ms})"
        )
    base_work = baseline.total_be_work_ms
    if base_work <= 0:
        raise SchedulingError("baseline completed no BE work")
    return (tacker.total_be_work_ms - base_work) / base_work


def fleet_improvement(
    measured: Sequence[ServerResult], baseline: Sequence[ServerResult]
) -> float:
    """Eq. 10 at fleet scale: summed BE work over one shared horizon.

    Every per-node run — measured and baseline — must cover the same
    wall-clock window (the cluster engine pins all replicas to the
    global horizon), so the fleet-wide work ratio is a throughput ratio.
    """
    if not measured or not baseline:
        raise SchedulingError("fleet comparison needs results on both sides")
    horizons = {
        round(result.horizon_ms, 6)
        for result in list(measured) + list(baseline)
    }
    if len(horizons) > 1:
        raise SchedulingError(
            f"cannot compare fleets over different horizons ({horizons})"
        )
    base_work = sum(result.total_be_work_ms for result in baseline)
    if base_work <= 0:
        raise SchedulingError("baseline fleet completed no BE work")
    work = sum(result.total_be_work_ms for result in measured)
    return (work - base_work) / base_work


def merged_latency_sketch(
    results: Sequence[ServerResult],
) -> "QuantileSketch | None":
    """Fold every replica's latency distribution into one sketch.

    The streaming fleet-aggregation path: per-replica
    :class:`QuantileSketch` instances (results with a ``sketch``
    attribute, i.e. :class:`~repro.runtime.replay.StreamingResult`)
    merge bin-by-bin, and list-based replicas fold their exact
    latencies into the same sketch.  ``None`` when no replica is
    streaming — callers then keep the exact list-based path, so
    committed all-list tables stay byte-identical.
    """
    sketches = [
        sketch
        for sketch in (getattr(r, "sketch", None) for r in results)
        if sketch is not None
    ]
    if not sketches:
        return None
    first = sketches[0]
    merged = QuantileSketch(first.upper_ms, first.bins)
    for result in results:
        sketch = getattr(result, "sketch", None)
        if sketch is not None:
            merged.merge(sketch)
        else:
            for latency in result.latencies_ms:
                merged.add(latency)
    return merged


def merged_p99_ms(results: Sequence[ServerResult]) -> float:
    """Fleet-wide 99th-percentile latency over all replicas' queries.

    Exact (``np.percentile``) when every replica kept its latency list;
    when any replica is a constant-memory streaming fold — whose
    ``latencies_ms`` is empty by design — the per-replica sketches and
    any remaining lists merge into one sketch and the p99 is its
    upper-edge estimate (within one bin width of exact).  NaN when no
    replica served any query (a degenerate but legal BE-only fleet).
    """
    merged = merged_latency_sketch(results)
    if merged is not None:
        if merged.n == 0:
            return float("nan")
        return merged.quantile(0.99)
    latencies = [
        latency for result in results for latency in result.latencies_ms
    ]
    if not latencies:
        return float("nan")
    return float(np.percentile(latencies, 99))


def merged_latency_stats(
    results: Sequence[ServerResult], qos_ms: float
) -> dict[str, float]:
    """Fleet-wide latency statistics over replicas, streaming-aware.

    The fleet twin of :func:`latency_stats`: counts, violations, mean
    and max are exact on both paths (streaming results carry exact
    counters); the p99 follows :func:`merged_p99_ms`.
    """
    count = 0
    violations = 0
    total = 0.0
    peak = float("-inf")
    for result in results:
        sketch = getattr(result, "sketch", None)
        if sketch is not None:
            count += sketch.n
            violations += getattr(result, "n_violations", 0)
            total += sketch.sum
            if sketch.n:
                peak = max(peak, sketch.max_value)
        elif result.latencies_ms:
            latencies = np.asarray(result.latencies_ms, dtype=float)
            count += latencies.size
            violations += int((latencies > qos_ms).sum())
            total += float(latencies.sum())
            peak = max(peak, float(latencies.max()))
    if count == 0:
        nan = float("nan")
        return {
            "count": 0,
            "mean_ms": nan,
            "p99_ms": nan,
            "max_ms": nan,
            "qos_ms": qos_ms,
            "violation_rate": nan,
        }
    return {
        "count": count,
        "mean_ms": total / count,
        "p99_ms": merged_p99_ms(results),
        "max_ms": peak,
        "qos_ms": qos_ms,
        "violation_rate": violations / count,
    }


def latency_stats(result: ServerResult) -> dict[str, float]:
    """Fig. 16's per-pair numbers: average and 99th-percentile latency.

    NaN-safe: a run that completed no LC queries (possible under
    LC-exclusive degradation with an empty trace window, or aggressive
    shedding) yields NaN statistics instead of raising, so sweeps can
    report partial outages alongside healthy runs.

    Streaming-aware: a constant-memory fold keeps ``latencies_ms``
    empty by design, so its statistics come from the exact counters and
    the sketch instead of reading as an empty run.
    """
    sketch = getattr(result, "sketch", None)
    if sketch is not None and sketch.n:
        return {
            "mean_ms": sketch.mean,
            "p99_ms": sketch.quantile(0.99),
            "max_ms": sketch.max_value,
            "qos_ms": result.qos_ms,
            "violation_rate": result.qos_violation_rate,
        }
    latencies = np.asarray(result.latencies_ms, dtype=float)
    if latencies.size == 0:
        nan = float("nan")
        return {
            "mean_ms": nan,
            "p99_ms": nan,
            "max_ms": nan,
            "qos_ms": result.qos_ms,
            "violation_rate": nan,
        }
    return {
        "mean_ms": float(latencies.mean()),
        "p99_ms": float(np.percentile(latencies, 99)),
        "max_ms": float(latencies.max()),
        "qos_ms": result.qos_ms,
        "violation_rate": result.qos_violation_rate,
    }


def latency_stats_by_service(
    result: ServerResult,
) -> dict[str, dict[str, float]]:
    """Per-LC-service latency statistics (multi-tenant runs).

    One :func:`latency_stats`-shaped dict per service, keyed by model
    name — the join key the telemetry decision log uses
    (``DecisionRecord.lc_service``), so per-service QoS can be lined up
    against the scheduling decisions taken while that service was at
    the head of the FIFO.
    """
    stats: dict[str, dict[str, float]] = {}
    for service in sorted(result.latencies_by_model):
        latencies = np.asarray(
            result.latencies_by_model[service], dtype=float
        )
        violations = int((latencies > result.qos_ms).sum())
        stats[service] = {
            "mean_ms": float(latencies.mean()),
            "p99_ms": float(np.percentile(latencies, 99)),
            "max_ms": float(latencies.max()),
            "qos_ms": result.qos_ms,
            "violation_rate": violations / latencies.size,
        }
    return stats


def active_time_breakdown(result: ServerResult) -> dict[str, float]:
    """Fig. 2's stacked bars: TC and CD active time over the run window.

    Values are normalized to the run's span so that a fully busy GPU
    with no overlap sums to 1.0, and overlap pushes the sum above 1.0.
    The span runs from the first executed action to the last — not from
    t=0 — so a run whose first event starts late (e.g. an LC-only run
    whose first query arrives mid-window) is not credited for the idle
    lead-in.
    """
    span = result.end_ms - result.start_ms
    if span <= 0:
        raise SchedulingError("empty run")
    tc = result.tc_timeline.total()
    cd = result.cd_timeline.total()
    both = result.tc_timeline.intersection(result.cd_timeline).total()
    return {
        "tc_active": tc / span,
        "cd_active": cd / span,
        "both_active": both / span,
        "stacked": (tc + cd) / span,
    }


def active_time_breakdown_by_service(
    result: ServerResult,
) -> dict[str, dict[str, float]]:
    """Per-service TC/CD active time over the run window.

    Requires the run to have been recorded with ``record_kernels=True``
    (the per-launch service attribution lives on
    :class:`~repro.runtime.server.ExecutedKernel`).  A fused launch is
    charged to the LC service it carried.  Every service is normalized
    by the *shared* run span, so the per-service stacked values sum to
    (at most) the global :func:`active_time_breakdown` ones.
    """
    from ..gpusim.trace import Timeline

    if not result.executed:
        raise SchedulingError(
            "no kernel trace recorded; run the server with "
            "record_kernels=True"
        )
    span = result.end_ms - result.start_ms
    if span <= 0:
        raise SchedulingError("empty run")
    timelines: dict[str, tuple[Timeline, Timeline]] = {}
    for kernel in result.executed:
        service = kernel.service or kernel.name
        tc, cd = timelines.setdefault(service, (Timeline(), Timeline()))
        if kernel.tc_end_ms > kernel.start_ms:
            tc.add(kernel.start_ms, kernel.tc_end_ms)
        if kernel.cd_end_ms > kernel.start_ms:
            cd.add(kernel.start_ms, kernel.cd_end_ms)
    breakdown: dict[str, dict[str, float]] = {}
    for service in sorted(timelines):
        tc, cd = timelines[service]
        tc_total = tc.total()
        cd_total = cd.total()
        breakdown[service] = {
            "tc_active": tc_total / span,
            "cd_active": cd_total / span,
            "both_active": tc.intersection(cd).total() / span,
            "stacked": (tc_total + cd_total) / span,
        }
    return breakdown


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of strictly positive values.

    Zero or negative inputs raise :class:`SchedulingError` (the log is
    undefined and a silent NaN would poison downstream tables), and so
    does an empty sequence (``np.mean`` of an empty array would return
    NaN with a warning instead of failing loudly).
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise SchedulingError("geometric mean of an empty sequence")
    if np.any(arr <= 0):
        raise SchedulingError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))
