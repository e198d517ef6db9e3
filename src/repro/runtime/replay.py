"""Trace-driven workload replay and the versioned scenario library.

Every experiment before this module drew memoryless arrivals; real LC
inference traffic is diurnal, bursty, and correlated across services —
exactly the regimes that stress the Eq. 9 headroom reservation and the
guard ladder (Gilman & Walls, arXiv 2110.00459, show arrival *structure*
— not just mean load — decides QoS outcomes under GPU concurrency).
This module supplies that structure three ways:

* :class:`Trace` — a materialized arrival stream ``(arrival_ms,
  service)`` as parallel numpy arrays, with a versioned JSONL format
  that round-trips *exactly* (record a run's arrivals, replay them
  byte-for-byte);
* :func:`synthesize_trace` — seeded synthesizers driven by a rate
  profile — steady, diurnal curves, flash crowds, MMPP on/off bursts,
  tenant churn;
* :class:`Scenario` — versioned JSON configs (``scenarios/*.json``,
  schema :data:`SCENARIO_SCHEMA`) naming the LC mix, BE apps, operating
  point and arrival shape, so every scheduler comparison runs on the
  same library of workloads.

For multi-day horizons (10^6–10^7 queries) the list-based
:class:`~repro.runtime.server.ServerResult` would hold per-query
latencies and a per-kernel timeline; :class:`StreamingResult` instead
folds every event into constant-memory accumulators (exact counters and
BE work, a fixed-bin :class:`~repro.runtime.metrics.QuantileSketch` for
the p99) and rides through :meth:`ColocationServer.serve`, which
consumes the query stream lazily.  ``tests/runtime/test_replay.py``
pins the fold to the list-based result at small scale.

All of it is seeded and bit-reproducible: the same scenario, seed and
query count produce the same trace, the same schedule, and the same
table — serial or under ``--workers N``.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from ..errors import ConfigError, SchedulingError
from ..kernels.library import KernelLibrary
from ..models.zoo import model_by_name
from .metrics import QuantileSketch
from .oracle import DurationOracle
from .runconfig import RunConfig
from .server import ServerResult
from .workload import (
    PoissonArrivals,
    arrival_gaps,
    fold_gaps_to_arrivals,
    merge_streams,
)

#: Version tag of the on-disk trace format.
TRACE_SCHEMA = "repro-trace/1"

#: Version tag of the scenario config format.
SCENARIO_SCHEMA = "repro-scenario/1"

#: Version tag of the folded replay summary (v2 added the tumbling
#: violation-window fields).
REPLAY_SUMMARY_SCHEMA = "repro-replay-summary/2"

#: The named scenarios the library ships (see ``scenarios/*.json``).
NAMED_SCENARIOS = (
    "steady", "diurnal", "flash-crowd", "bursty-mmpp", "tenant-churn",
)

#: Arrival-shape kinds a scenario may declare.
ARRIVAL_KINDS = (
    "steady", "diurnal", "flash-crowd", "bursty-mmpp", "tenant-churn",
)


# -- the trace ----------------------------------------------------------------


@dataclass
class Trace:
    """A materialized arrival stream: who arrives when.

    ``arrivals_ms`` is time-sorted; ``service_idx`` maps each event to
    its service in :attr:`services`.  Ties are broken by service name
    (the same total order as
    :func:`repro.runtime.workload.merge_streams`), so a trace is a
    deterministic value, not a process.
    """

    services: tuple[str, ...]
    arrivals_ms: np.ndarray
    service_idx: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.arrivals_ms = np.asarray(self.arrivals_ms, dtype=np.float64)
        self.service_idx = np.asarray(self.service_idx, dtype=np.int32)
        if self.arrivals_ms.shape != self.service_idx.shape:
            raise ConfigError("trace arrays must have identical length")
        if self.arrivals_ms.size and np.any(np.diff(self.arrivals_ms) < 0):
            raise ConfigError("trace arrivals must be time-sorted")
        if self.arrivals_ms.size and (
            self.service_idx.min() < 0
            or self.service_idx.max() >= len(self.services)
        ):
            raise ConfigError("trace service index out of range")

    def __len__(self) -> int:
        return int(self.arrivals_ms.size)

    def events(self) -> Iterator[tuple[float, str]]:
        """Lazy ``(arrival_ms, service_name)`` view, in trace order."""
        services = self.services
        for t, idx in zip(self.arrivals_ms, self.service_idx):
            yield float(t), services[idx]

    def merged_stream(self) -> list[tuple[float, str]]:
        """The trace as :func:`workload.merged_arrival_stream` output."""
        return list(self.events())

    def service_counts(self) -> dict[str, int]:
        counts = np.bincount(self.service_idx, minlength=len(self.services))
        return {
            name: int(count)
            for name, count in zip(self.services, counts)
        }

    def prefix(self, n_queries: int) -> "Trace":
        """The first ``n_queries`` arrivals (a recorded multi-day trace
        can smoke-test at any length); the whole trace when it is no
        longer, else a copy whose ``meta`` records ``truncated_to``."""
        if n_queries >= len(self):
            return self
        return Trace(
            services=self.services,
            arrivals_ms=self.arrivals_ms[:n_queries].copy(),
            service_idx=self.service_idx[:n_queries].copy(),
            meta={**self.meta, "truncated_to": n_queries},
        )

    def horizon_ms(self, qos_ms: float) -> float:
        """The run horizon: last arrival + the QoS target."""
        if not len(self):
            raise SchedulingError("empty trace has no horizon")
        return float(self.arrivals_ms[-1]) + qos_ms

    @staticmethod
    def from_stream(
        stream: Sequence[tuple[float, str]],
        meta: Optional[dict] = None,
    ) -> "Trace":
        """Record a merged arrival stream (e.g. a run's actual arrivals).

        The stream is re-sorted under the canonical ``(time, name)``
        total order, so recording is insensitive to the caller's event
        ordering.
        """
        ordered = sorted(stream, key=lambda item: (item[0], item[1]))
        services = tuple(sorted({name for _, name in ordered}))
        index = {name: i for i, name in enumerate(services)}
        arrivals = np.array([t for t, _ in ordered], dtype=np.float64)
        idx = np.array([index[name] for _, name in ordered], dtype=np.int32)
        return Trace(services, arrivals, idx, meta=dict(meta or {}))

    # -- JSONL round trip -----------------------------------------------------

    def write_jsonl(self, path: "str | pathlib.Path") -> pathlib.Path:
        """Serialize to JSONL: one header line, then one line per event.

        Floats serialize via ``repr`` (shortest round-trip form), so a
        read-back trace is *bit-identical* — replaying a recorded run
        reproduces its arrivals exactly.
        """
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w") as handle:
            header = {
                "schema": TRACE_SCHEMA,
                "services": list(self.services),
                "meta": self.meta,
            }
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for t, idx in zip(self.arrivals_ms, self.service_idx):
                handle.write(
                    json.dumps({"t": float(t), "s": int(idx)}) + "\n"
                )
        return target

    @staticmethod
    def read_jsonl(path: "str | pathlib.Path") -> "Trace":
        source = pathlib.Path(path)
        with source.open() as handle:
            try:
                header = json.loads(handle.readline())
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{source}: not a trace file ({exc})")
            if header.get("schema") != TRACE_SCHEMA:
                raise ConfigError(
                    f"{source}: unsupported trace schema "
                    f"{header.get('schema')!r} (expected {TRACE_SCHEMA!r})"
                )
            times: list[float] = []
            idx: list[int] = []
            for line in handle:
                if not line.strip():
                    continue
                event = json.loads(line)
                times.append(event["t"])
                idx.append(event["s"])
        return Trace(
            services=tuple(header["services"]),
            arrivals_ms=np.array(times, dtype=np.float64),
            service_idx=np.array(idx, dtype=np.int32),
            meta=dict(header.get("meta", {})),
        )


# -- rate profiles ------------------------------------------------------------


class RateProfile:
    """Time-varying rate multiplier of one service's arrival process.

    ``multiplier(t)`` scales the service's base rate at time ``t``;
    ``next_active(t)`` is the earliest time ``>= t`` at which the
    multiplier is positive (``None`` when the service never returns —
    the tenant-churn "left the cluster" case).
    """

    def multiplier(self, t: float) -> float:
        return 1.0

    def next_active(self, t: float) -> Optional[float]:
        return t


class SteadyProfile(RateProfile):
    """Constant rate — the library's control scenario."""


class DiurnalProfile(RateProfile):
    """A sinusoidal day/night rate curve.

    ``multiplier(t) = max(floor, 1 + amplitude * sin(2*pi*(t/period +
    phase)))`` — unit mean when the floor never binds, so the service
    still runs at its configured average load while the peaks stress
    the Eq. 9 reservation.
    """

    def __init__(self, period_ms: float, amplitude: float,
                 floor: float = 0.1, phase: float = 0.0):
        if period_ms <= 0:
            raise ConfigError("diurnal period must be positive")
        if not 0 <= amplitude <= 1:
            raise ConfigError("diurnal amplitude must be in [0, 1]")
        self.period_ms = period_ms
        self.amplitude = amplitude
        self.floor = floor
        self.phase = phase

    def multiplier(self, t: float) -> float:
        wave = 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (t / self.period_ms + self.phase)
        )
        return max(self.floor, wave)


class FlashCrowdProfile(RateProfile):
    """A sudden crowd: rate jumps to ``peak`` at ``at_ms``, decays back.

    ``multiplier = 1 + (peak - 1) * exp(-(t - at_ms) / decay_ms)`` for
    ``t >= at_ms`` — the open-loop surge a viral event or a failed
    upstream cache sends at an inference service.
    """

    def __init__(self, at_ms: float, peak: float, decay_ms: float):
        if peak < 1:
            raise ConfigError("flash-crowd peak must be >= 1")
        if decay_ms <= 0:
            raise ConfigError("flash-crowd decay must be positive")
        self.at_ms = at_ms
        self.peak = peak
        self.decay_ms = decay_ms

    def multiplier(self, t: float) -> float:
        if t < self.at_ms:
            return 1.0
        return 1.0 + (self.peak - 1.0) * math.exp(
            -(t - self.at_ms) / self.decay_ms
        )


class MMPPProfile(RateProfile):
    """Markov-modulated on/off bursts (a 2-state MMPP).

    The service alternates between an *on* state (multiplier
    ``on_mult``) and an *off* state (``off_mult``), with exponentially
    distributed holding times of means ``on_ms`` / ``off_ms`` drawn
    from a dedicated seeded RNG — independent of the gap RNG, so the
    burst pattern and the within-state jitter are separately
    reproducible.  Segments extend lazily, so the profile covers any
    horizon the synthesizer reaches.
    """

    def __init__(self, seed: int, on_ms: float, off_ms: float,
                 on_mult: float, off_mult: float):
        if on_ms <= 0 or off_ms <= 0:
            raise ConfigError("MMPP state holding times must be positive")
        if on_mult <= 0 or off_mult < 0:
            raise ConfigError(
                "MMPP multipliers must be positive (off may be zero)"
            )
        self._rng = np.random.default_rng(seed)
        self.on_ms = on_ms
        self.off_ms = off_ms
        self.on_mult = on_mult
        self.off_mult = off_mult
        self._bounds = [0.0]     # segment start times; [i] starts seg i
        self._mults: list[float] = []

    def _segment(self, t: float) -> int:
        """Index of the segment containing ``t`` (extends lazily)."""
        while self._bounds[-1] <= t:
            index = len(self._mults)
            on = index % 2 == 0
            mean = self.on_ms if on else self.off_ms
            self._mults.append(self.on_mult if on else self.off_mult)
            self._bounds.append(
                self._bounds[-1] + float(self._rng.exponential(mean))
            )
        lo, hi = 0, len(self._mults) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._bounds[mid] <= t:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def multiplier(self, t: float) -> float:
        return self._mults[self._segment(t)]

    def next_active(self, t: float) -> Optional[float]:
        index = self._segment(t)
        while self._mults[index] <= 0:
            index += 1
            self._segment(self._bounds[index])  # ensure materialized
        return max(t, self._bounds[index])


class TenantChurnProfile(RateProfile):
    """Service membership windows: tenants join and leave mid-run.

    ``windows`` is a sequence of half-open ``[start_ms, end_ms)``
    activity windows (``end_ms = None`` leaves the tenant resident for
    the rest of the run).  Outside every window the multiplier is zero
    and the synthesizer jumps to the next join time.
    """

    def __init__(self, windows: Sequence[tuple[float, Optional[float]]]):
        if not windows:
            raise ConfigError("tenant-churn windows must be non-empty")
        cleaned = []
        for start, end in windows:
            if end is not None and end <= start:
                raise ConfigError(
                    f"churn window ends before it starts: [{start}, {end})"
                )
            cleaned.append((float(start), None if end is None else float(end)))
        cleaned.sort(key=lambda w: w[0])
        self.windows = tuple(cleaned)

    def multiplier(self, t: float) -> float:
        for start, end in self.windows:
            if t >= start and (end is None or t < end):
                return 1.0
        return 0.0

    def next_active(self, t: float) -> Optional[float]:
        for start, end in self.windows:
            if end is None or t < end:
                return max(t, start)
        return None


def build_profile(
    arrival: dict, service_index: int, service_name: str, seed: int
) -> RateProfile:
    """Instantiate one service's rate profile from an arrival spec."""
    kind = arrival.get("kind")
    if kind == "steady":
        return SteadyProfile()
    if kind == "diurnal":
        return DiurnalProfile(
            period_ms=arrival["period_ms"],
            amplitude=arrival["amplitude"],
            floor=arrival.get("floor", 0.1),
            phase=arrival.get("phase", 0.0)
            + service_index * arrival.get("stagger", 0.0),
        )
    if kind == "flash-crowd":
        return FlashCrowdProfile(
            at_ms=arrival["at_ms"],
            peak=arrival["peak"],
            decay_ms=arrival["decay_ms"],
        )
    if kind == "bursty-mmpp":
        # A dedicated, service-separated RNG stream for the state chain.
        return MMPPProfile(
            seed=seed + 7919 * (service_index + 1),
            on_ms=arrival["on_ms"],
            off_ms=arrival["off_ms"],
            on_mult=arrival["on_mult"],
            off_mult=arrival["off_mult"],
        )
    if kind == "tenant-churn":
        # Zoo model names are canonical ("VGG19"); scenario configs may
        # spell them like the lc_services list, so match case-insensitively.
        by_tenant = {
            key.lower(): value
            for key, value in arrival.get("windows", {}).items()
        }
        windows = by_tenant.get(service_name.lower())
        if windows is None:
            windows = [[0.0, None]]  # unlisted tenants stay resident
        return TenantChurnProfile(
            [(w[0], w[1]) for w in windows]
        )
    raise ConfigError(
        f"unknown arrival kind {kind!r}; known: {sorted(ARRIVAL_KINDS)}"
    )


# -- synthesis ----------------------------------------------------------------


def _synthesize_service(
    rate_per_ms: float,
    count: int,
    seed: int,
    process: str,
    profile: RateProfile,
) -> np.ndarray:
    """Arrival times of one service under a time-varying rate profile.

    A steady profile reuses the exact gap stream of
    :func:`workload.arrival_gaps` — bit-equal to the live Poisson path,
    the property the ``steady`` scenario's regression test pins.  Other
    profiles scale unit-mean gaps by the rate in force when each gap
    starts (the standard frozen-rate approximation of a
    non-homogeneous process), jumping over windows where the
    multiplier is zero.
    """
    if rate_per_ms <= 0 or count <= 0:
        return np.empty(0, dtype=np.float64)
    if isinstance(profile, SteadyProfile):
        gaps = arrival_gaps(rate_per_ms, count, seed, process)
        return fold_gaps_to_arrivals(gaps)
    unit = arrival_gaps(1.0, count, seed, process)
    times = np.empty(count, dtype=np.float64)
    produced = 0
    t = 0.0
    for gap in unit:
        start = profile.next_active(t)
        if start is None:
            break  # the tenant left for good: no further arrivals
        t = max(t, start)
        t += float(gap) / (rate_per_ms * profile.multiplier(t))
        if profile.multiplier(t) <= 0:
            # The gap crossed into an inactive window: the arrival fires
            # when the tenant is next resident, not inside the gap.
            resumed = profile.next_active(t)
            if resumed is None:
                break
            t = resumed
        times[produced] = t
        produced += 1
    return times[:produced]


def synthesize_trace(
    scenario: "Scenario",
    library: KernelLibrary,
    oracle: DurationOracle,
    n_queries: Optional[int] = None,
) -> Trace:
    """Materialize a scenario's arrival trace.

    Each service is calibrated exactly as the live path
    (:class:`~repro.runtime.workload.PoissonArrivals`) calibrates it —
    ``load`` × its peak supported rate — then scaled by the scenario's
    ``rate_scale`` (default ``1 / n_services``: all services share one
    GPU) and shaped by the scenario's arrival profile.  ``n_queries``
    queries are split evenly across services, earlier services taking
    the remainder; a churned-out service may produce fewer (the trace
    meta records requested vs. produced).
    """
    models = [model_by_name(name) for name in scenario.lc_services]
    count = n_queries if n_queries is not None else scenario.queries
    if count < len(models):
        raise SchedulingError(
            f"need at least one query per service ({len(models)} services)"
        )
    rate_scale = scenario.rate_scale
    per_stream: list[tuple[str, np.ndarray]] = []
    requested: dict[str, int] = {}
    per_service, remainder = divmod(count, len(models))
    for index, model in enumerate(models):
        arrivals = PoissonArrivals(
            model, library, oracle,
            load=scenario.load, seed=scenario.seed + index,
            qos_ms=scenario.qos_ms, process=scenario.process,
        )
        effective = arrivals.rate_per_ms * rate_scale
        n = per_service + (1 if index < remainder else 0)
        requested[model.name] = n
        if effective <= 0:
            continue  # zero-rate service: contributes no arrivals
        profile = build_profile(
            scenario.arrival, index, model.name, scenario.seed
        )
        per_stream.append((
            model.name,
            _synthesize_service(
                effective, n, scenario.seed + index,
                scenario.process, profile,
            ),
        ))
    trace = Trace.from_stream(
        merge_streams(per_stream),
        meta={
            "scenario": scenario.name,
            "schema": scenario.schema,
            "seed": scenario.seed,
            "load": scenario.load,
            "qos_ms": scenario.qos_ms,
            "rate_scale": rate_scale,
            "process": scenario.process,
            "arrival": scenario.arrival,
            "requested": requested,
        },
    )
    return trace


# -- the scenario library -----------------------------------------------------


@dataclass
class Scenario:
    """One entry of the versioned scenario library."""

    name: str
    description: str
    lc_services: tuple[str, ...]
    be_apps: tuple[str, ...]
    arrival: dict
    qos_ms: float = 50.0
    load: float = 0.8
    seed: int = 2022
    queries: int = 1000
    quick_queries: int = 120
    process: str = "paced"
    rate_scale: float = 0.0  # 0 = auto: 1 / n_services
    schema: str = SCENARIO_SCHEMA

    def __post_init__(self) -> None:
        if self.rate_scale == 0.0:
            self.rate_scale = 1.0 / len(self.lc_services)

    def n_queries(self, quick: bool = False) -> int:
        return self.quick_queries if quick else self.queries

    def run_config(self, telemetry: bool = False,
                   n_queries: Optional[int] = None) -> RunConfig:
        return RunConfig(
            qos_ms=self.qos_ms,
            load=self.load,
            queries=n_queries if n_queries is not None
            else self.queries,
            seed=self.seed,
            telemetry=telemetry,
            scenario=self.name,
        )


_REQUIRED_SCENARIO_KEYS = (
    "schema", "name", "description", "lc_services", "be_apps", "arrival",
)
_KNOWN_SCENARIO_KEYS = _REQUIRED_SCENARIO_KEYS + (
    "qos_ms", "load", "seed", "queries", "quick_queries", "process",
    "rate_scale",
)
_ARRIVAL_PARAMS = {
    "steady": (),
    "diurnal": ("period_ms", "amplitude"),
    "flash-crowd": ("at_ms", "peak", "decay_ms"),
    "bursty-mmpp": ("on_ms", "off_ms", "on_mult", "off_mult"),
    "tenant-churn": ("windows",),
}


def validate_scenario(data: dict, origin: str = "<scenario>") -> None:
    """Schema-check one scenario config; raises :class:`ConfigError`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{origin}: scenario must be a JSON object")
    if data.get("schema") != SCENARIO_SCHEMA:
        raise ConfigError(
            f"{origin}: unsupported scenario schema "
            f"{data.get('schema')!r} (expected {SCENARIO_SCHEMA!r})"
        )
    missing = [key for key in _REQUIRED_SCENARIO_KEYS if key not in data]
    if missing:
        raise ConfigError(f"{origin}: missing keys {missing}")
    unknown = sorted(set(data) - set(_KNOWN_SCENARIO_KEYS))
    if unknown:
        raise ConfigError(
            f"{origin}: unknown keys {unknown}; known: "
            f"{sorted(_KNOWN_SCENARIO_KEYS)}"
        )
    if not data["lc_services"]:
        raise ConfigError(f"{origin}: lc_services must be non-empty")
    if not data["be_apps"]:
        raise ConfigError(f"{origin}: be_apps must be non-empty")
    arrival = data["arrival"]
    if not isinstance(arrival, dict) or "kind" not in arrival:
        raise ConfigError(f"{origin}: arrival must be an object with a kind")
    kind = arrival["kind"]
    if kind not in _ARRIVAL_PARAMS:
        raise ConfigError(
            f"{origin}: unknown arrival kind {kind!r}; known: "
            f"{sorted(_ARRIVAL_PARAMS)}"
        )
    needed = [p for p in _ARRIVAL_PARAMS[kind] if p not in arrival]
    if needed:
        raise ConfigError(
            f"{origin}: arrival kind {kind!r} needs parameters {needed}"
        )
    for bound, key in ((1, "queries"), (1, "quick_queries")):
        if key in data and data[key] < bound:
            raise ConfigError(f"{origin}: {key} must be >= {bound}")


def scenarios_dir() -> pathlib.Path:
    """The scenario library directory.

    ``REPRO_SCENARIOS`` wins; otherwise ``./scenarios`` (the working
    tree), falling back to the repository checkout this module lives
    in.
    """
    env = os.environ.get("REPRO_SCENARIOS", "").strip()
    if env:
        return pathlib.Path(env)
    cwd = pathlib.Path.cwd() / "scenarios"
    if cwd.is_dir():
        return cwd
    return pathlib.Path(__file__).resolve().parents[3] / "scenarios"


def list_scenarios() -> list[str]:
    """Names of every scenario the library directory ships."""
    root = scenarios_dir()
    if not root.is_dir():
        return []
    return sorted(path.stem for path in root.glob("*.json"))


def load_scenario(name_or_path: "str | pathlib.Path") -> Scenario:
    """Load and validate one scenario by name or explicit path."""
    path = pathlib.Path(name_or_path)
    if path.suffix != ".json":
        path = scenarios_dir() / f"{name_or_path}.json"
    if not path.is_file():
        known = ", ".join(list_scenarios()) or "none found"
        raise ConfigError(
            f"no scenario {str(name_or_path)!r} (looked at {path}; "
            f"known: {known})"
        )
    data = json.loads(path.read_text())
    validate_scenario(data, origin=str(path))
    return Scenario(
        name=data["name"],
        description=data["description"],
        lc_services=tuple(data["lc_services"]),
        be_apps=tuple(data["be_apps"]),
        arrival=dict(data["arrival"]),
        qos_ms=float(data.get("qos_ms", 50.0)),
        load=float(data.get("load", 0.8)),
        seed=int(data.get("seed", 2022)),
        queries=int(data.get("queries", 1000)),
        quick_queries=int(data.get("quick_queries", 120)),
        process=str(data.get("process", "paced")),
        rate_scale=float(data.get("rate_scale", 0.0)),
        schema=data["schema"],
    )


# -- the constant-memory fold -------------------------------------------------


class _ServiceFold:
    """Per-service latency accumulator (exact counters + a sketch)."""

    __slots__ = ("count", "sum", "max", "violations", "sketch")

    def __init__(self, qos_ms: float, sketch_upper_ms: float, bins: int):
        self.count = 0
        self.sum = 0.0
        self.max = float("-inf")
        self.violations = 0
        self.sketch = QuantileSketch(sketch_upper_ms, bins)

    def add(self, latency_ms: float, qos_ms: float) -> None:
        self.count += 1
        self.sum += latency_ms
        if latency_ms > self.max:
            self.max = latency_ms
        if latency_ms > qos_ms:
            self.violations += 1
        self.sketch.add(latency_ms)

    def stats(self, qos_ms: float) -> dict[str, float]:
        if not self.count:
            nan = float("nan")
            return {"count": 0, "mean_ms": nan, "p99_ms": nan,
                    "max_ms": nan, "qos_ms": qos_ms, "violation_rate": nan}
        return {
            "count": self.count,
            "mean_ms": self.sum / self.count,
            "p99_ms": self.sketch.quantile(0.99),
            "max_ms": self.max,
            "qos_ms": qos_ms,
            "violation_rate": self.violations / self.count,
        }


class StreamingResult(ServerResult):
    """A :class:`ServerResult` that folds instead of accumulating lists.

    Every per-event hook is overridden to update O(1) state: exact
    counters (queries, violations, kernel counts, BE work, pipe active
    times) and a fixed-bin :class:`QuantileSketch` per service plus one
    global, so a 10^6–10^7-query replay costs the same memory as a
    100-query run.  The latency statistics are exact except the
    quantiles, which are upper-edge estimates within
    ``sketch.tolerance_ms`` of the list-based ``method="higher"``
    percentile (so :attr:`qos_satisfied` is *conservative*: a run
    within one bin of the target may report a miss).

    ``record_kernels`` and per-query telemetry spans are incompatible
    with constant memory; kernel recording is ignored and streaming
    runs should keep span telemetry off.
    """

    def __init__(
        self,
        qos_ms: float,
        horizon_ms: float,
        sketch_upper_ms: Optional[float] = None,
        sketch_bins: int = 4096,
        window_ms: float = 1000.0,
    ):
        upper = (
            sketch_upper_ms if sketch_upper_ms is not None else 4.0 * qos_ms
        )
        if window_ms <= 0:
            raise SchedulingError("window_ms must be positive")
        super().__init__(
            qos_ms=qos_ms,
            horizon_ms=horizon_ms,
            end_ms=0.0,
            latencies_ms=[],
            be_work_ms={},
            tc_timeline=None,  # type: ignore[arg-type]
            cd_timeline=None,  # type: ignore[arg-type]
        )
        self._sketch_upper_ms = upper
        self._sketch_bins = sketch_bins
        self.sketch = QuantileSketch(upper, sketch_bins)
        self.service_folds: dict[str, _ServiceFold] = {}
        self.n_queries = 0
        self.n_violations = 0
        self.tc_active_ms = 0.0
        self.cd_active_ms = 0.0
        self.both_active_ms = 0.0
        #: tumbling violation windows (the SLO monitor's assertion unit)
        self.window_ms = float(window_ms)
        self.n_windows = 0
        self.violation_windows = 0
        self.worst_window_p99_ms = float("nan")
        self._window_end: Optional[float] = None
        self._window_count = 0
        self._window_violations = 0
        self._window_sketch = QuantileSketch(upper, sketch_bins)

    # -- event hooks (constant-memory overrides) ------------------------------

    def note_kernel(self, start, end, kind, name, tc_end, cd_end,
                    service, keep) -> None:
        # Launches are serial (the non-preemptive premise), so per-pipe
        # active time and the TC∩CD overlap fold exactly without
        # interval bookkeeping; ``keep`` (kernel recording) is ignored.
        if tc_end > start:
            self.tc_active_ms += tc_end - start
        if cd_end > start:
            self.cd_active_ms += cd_end - start
        overlap = min(tc_end, cd_end) - start
        if overlap > 0:
            self.both_active_ms += overlap

    def note_query_latency(
        self, model_name: str, latency_ms: float,
        end_ms: Optional[float] = None,
    ) -> None:
        self.n_queries += 1
        if latency_ms > self.qos_ms:
            self.n_violations += 1
        self.sketch.add(latency_ms)
        fold = self.service_folds.get(model_name)
        if fold is None:
            fold = self.service_folds[model_name] = _ServiceFold(
                self.qos_ms, self._sketch_upper_ms, self._sketch_bins
            )
        fold.add(latency_ms, self.qos_ms)
        if end_ms is not None:
            self._fold_window(latency_ms, end_ms)

    def _fold_window(self, latency_ms: float, end_ms: float) -> None:
        """Tumbling-window violation fold (completion-time windows).

        Completions arrive in non-decreasing end time (the serving loop
        is serial), so one open window suffices; empty windows carry no
        data and are skipped rather than counted.
        """
        if self._window_end is None:
            self._window_end = (
                (int(end_ms / self.window_ms) + 1) * self.window_ms
            )
        elif end_ms >= self._window_end:
            self._close_window()
            while end_ms >= self._window_end:
                self._window_end += self.window_ms
        self._window_count += 1
        if latency_ms > self.qos_ms:
            self._window_violations += 1
        self._window_sketch.add(latency_ms)

    def _close_window(self) -> None:
        if not self._window_count:
            return
        self.n_windows += 1
        if self._window_violations:
            self.violation_windows += 1
        p99 = self._window_sketch.quantile(0.99)
        if not (self.worst_window_p99_ms >= p99):  # NaN-safe max
            self.worst_window_p99_ms = p99
        self._window_count = 0
        self._window_violations = 0
        self._window_sketch = QuantileSketch(
            self._sketch_upper_ms, self._sketch_bins
        )

    def window_stats(self) -> dict:
        """Closed-window aggregates plus the still-open window.

        Read-only: calling it mid-run (or twice) never perturbs the
        fold, so ``summary_dict`` stays safe to re-render.
        """
        windows = self.n_windows
        bad = self.violation_windows
        worst = self.worst_window_p99_ms
        if self._window_count:
            windows += 1
            if self._window_violations:
                bad += 1
            p99 = self._window_sketch.quantile(0.99)
            if not (worst >= p99):
                worst = p99
        return {
            "window_ms": self.window_ms,
            "windows": windows,
            "violation_windows": bad,
            "worst_window_p99_ms": worst,
        }

    # note_be_credit: the base dict-accumulator is already O(1).

    # -- folded read surface --------------------------------------------------

    @property
    def mean_latency_ms(self) -> float:
        return self.sketch.mean

    @property
    def p99_latency_ms(self) -> float:
        return self.sketch.quantile(0.99)

    @property
    def max_latency_ms(self) -> float:
        return self.sketch.max_value

    @property
    def qos_violation_rate(self) -> float:
        if not self.n_queries:
            return float("nan")
        return self.n_violations / self.n_queries

    def p99_by_model(self) -> dict[str, float]:
        return {
            name: fold.sketch.quantile(0.99)
            for name, fold in sorted(self.service_folds.items())
        }

    def latency_stats_by_service(self) -> dict[str, dict[str, float]]:
        return {
            name: fold.stats(self.qos_ms)
            for name, fold in sorted(self.service_folds.items())
        }

    def active_breakdown(self) -> dict[str, float]:
        """The streaming twin of :func:`metrics.active_time_breakdown`."""
        span = self.end_ms - self.start_ms
        if span <= 0:
            raise SchedulingError("empty run")
        return {
            "tc_active": self.tc_active_ms / span,
            "cd_active": self.cd_active_ms / span,
            "both_active": self.both_active_ms / span,
            "stacked": (self.tc_active_ms + self.cd_active_ms) / span,
        }

    def summary_dict(self) -> dict:
        """A deterministic, JSON-safe folded summary of the run.

        Schema v2 adds the tumbling-window violation fold
        (``window_ms``/``windows``/``violation_windows``/
        ``worst_window_p99_ms``).
        """
        windows = self.window_stats()
        return {
            "schema": REPLAY_SUMMARY_SCHEMA,
            "qos_ms": self.qos_ms,
            "horizon_ms": self.horizon_ms,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "queries": self.n_queries,
            "violations": self.n_violations,
            "violation_rate": self.qos_violation_rate,
            "mean_latency_ms": self.mean_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "max_latency_ms": self.max_latency_ms,
            "sketch_tolerance_ms": self.sketch.tolerance_ms,
            "qos_satisfied": bool(self.qos_satisfied),
            "kernels": {
                "lc": self.n_lc_kernels,
                "be": self.n_be_kernels,
                "fused": self.n_fused_kernels,
            },
            "admission": {
                "shed": self.n_shed_be,
                "deferred": self.n_deferred_be,
            },
            "be_work_ms": {
                name: self.be_work_ms[name]
                for name in sorted(self.be_work_ms)
            },
            "total_be_work_ms": self.total_be_work_ms,
            "be_throughput": self.be_throughput,
            "active": self.active_breakdown(),
            "services": self.latency_stats_by_service(),
            "guard_mode_decisions": dict(self.guard_mode_decisions),
            "window_ms": windows["window_ms"],
            "windows": windows["windows"],
            "violation_windows": windows["violation_windows"],
            "worst_window_p99_ms": windows["worst_window_p99_ms"],
        }


# -- serving ------------------------------------------------------------------


def serve_trace(
    system,
    trace: Trace,
    be_names: Sequence[str],
    policy_name: Optional[str] = None,
    streaming: bool = True,
    record_kernels: bool = False,
    monitor=None,
) -> ServerResult:
    """Play one trace through a system's co-location server.

    ``streaming=True`` (the default) folds into a constant-memory
    :class:`StreamingResult` over the lazily built query stream;
    ``streaming=False`` materializes every query and returns the
    list-based :class:`ServerResult` — the reference the exactness
    tests compare the fold against.  ``monitor`` attaches an
    observe-only :class:`~repro.telemetry.slo.SLOMonitor`; its fired
    alerts land on ``result.alerts``.
    """
    if not len(trace):
        raise SchedulingError("cannot serve an empty trace")
    if policy_name is None:
        policy_name = getattr(system.config, "policy", "tacker")
    arrivals = ((service, t) for t, service in trace.events())
    horizon_ms = result = None
    if streaming:
        horizon_ms = trace.horizon_ms(system.qos_ms)
        result = StreamingResult(qos_ms=system.qos_ms, horizon_ms=horizon_ms)
    result = system.serve_arrivals(
        policy_name, trace.services, arrivals, be_names,
        horizon_ms=horizon_ms, result=result,
        record_kernels=record_kernels, monitor=monitor,
    )
    if monitor is not None:
        result.alerts = monitor.alert_dicts()
    return result


def run_scenario(
    system,
    scenario: Scenario,
    policy_name: Optional[str] = None,
    n_queries: Optional[int] = None,
    streaming: bool = True,
    trace: Optional[Trace] = None,
    monitor=None,
) -> ServerResult:
    """Synthesize (or accept) a scenario's trace and serve it.

    The one entry point the CLI and the experiment harness share: build
    the trace from the scenario's seeded generators (unless ``trace``
    replays a recorded one), play it through the named policy, and fold
    the run's aggregates into the metrics registry under the scenario
    label (a no-op while telemetry is off).
    """
    if policy_name is None:
        policy_name = getattr(system.config, "policy", "tacker")
    if trace is None:
        trace = synthesize_trace(
            scenario, system.library, system.oracle, n_queries=n_queries
        )
    result = serve_trace(
        system, trace, scenario.be_apps, policy_name,
        streaming=streaming, monitor=monitor,
    )
    publish_scenario_metrics(result, scenario.name, policy_name)
    return result


def publish_scenario_metrics(result: ServerResult, scenario: str,
                             policy: str) -> None:
    """Fold one scenario run's aggregates into the metrics registry.

    No-op while telemetry is off.  Families carry a ``scenario`` label,
    so a dashboard can fan the QoS/BE frontier out by workload shape.
    """
    from .. import telemetry

    if not telemetry.active():
        return
    reg = telemetry.registry()
    labels = {"scenario": scenario, "policy": policy}
    n_queries = getattr(result, "n_queries", None)
    if n_queries is None:
        n_queries = len(result.latencies_ms)
    reg.counter(
        "repro_scenario_queries_total",
        "LC queries served per replay scenario.", **labels,
    ).inc(n_queries)
    reg.counter(
        "repro_scenario_be_work_ms_total",
        "BE work credited per replay scenario (simulated ms).", **labels,
    ).inc(result.total_be_work_ms)
    reg.gauge(
        "repro_scenario_p99_latency_ms",
        "p99 LC latency of the latest replay run (simulated ms).", **labels,
    ).set(result.p99_latency_ms)
    reg.gauge(
        "repro_scenario_qos_satisfied",
        "1 when the latest replay run met its QoS target.", **labels,
    ).set(1.0 if result.qos_satisfied else 0.0)
