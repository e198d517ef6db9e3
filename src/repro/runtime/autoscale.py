"""The autoscaling control plane over the cluster serving engine.

PR 4's :mod:`~repro.runtime.cluster` serves a *static* fleet: the
replica count is fixed up front and the dispatcher only balances within
it.  The scenario library (diurnal, flash-crowd, tenant-churn) breaks
that premise — a fleet provisioned for the diurnal peak idles through
the trough, and one provisioned for the mean violates QoS at the peak.

This module closes the loop.  :func:`run_autoscale` runs a
deterministic control loop on the *simulated* clock: the control span
is cut into fixed epochs, and each epoch runs four phases.
:func:`route_epoch` routes the epoch's arrivals online across the live
replicas (through :meth:`~repro.runtime.cluster.RoutingStrategy.route`,
the routing step the static dispatcher uses); :func:`serve_epoch`
simulates every replica's epoch on a fresh
:class:`~repro.runtime.system.TackerSystem` (fanned out via
``parallel_map``); :func:`observe_epoch` folds the epoch into one
:class:`EpochReport` — demand, routed utilization, Eq. 9 dispatcher
slack, guard-mode decision counts, and the **SLO burn rate** — and
:func:`act` re-sizes the fleet for the next epoch under a pluggable
:class:`Scaler` policy.

Burn rate is the standard SRE error-budget derivative: a p99 SLO at
target ``qos_ms`` budgets :data:`SLO_BUDGET` (1%) of queries above the
target, so one epoch's burn is::

    burn = (epoch violations / epoch queries) / SLO_BUDGET

``burn == 1`` consumes budget exactly as fast as it accrues; the
burn-rate scaler treats ``burn >= UP_BURN`` (or any guard-mode
degradation) as a scale-up signal regardless of what the demand model
says, and refuses to drain until the fleet has stayed calm for a
cooldown — the classic fast-up / slow-down asymmetry.

Node-level faults (:class:`~repro.runtime.faults.NodeFault`: crash,
slow-node, flapping) act at the *routing* boundary: a flapping node is
skipped while down, a crashed node's in-flight queries are re-routed
to survivors mid-epoch — each re-routed query keeps the latency it
already accrued on the victim (``Query.penalty_ms``), so hand-offs
cannot launder tail latency — and a slow node's *actual* kernel
durations are scaled while its predictor stays healthy, modelling
silent degradation the dispatcher cannot see.

Predictor refits roll out node-by-node behind a canary gate: one node
runs the refit (a :class:`~repro.runtime.faults.FaultPlan` on the
prediction channel) for an epoch, its p99 is compared against the
rest of the fleet, and a regression beyond ``regression_pct`` aborts
the rollout everywhere while a pass promotes it in batches.

Everything is seeded and the fan-out is order-preserving, so a run is
byte-identical serial vs. parallel (the controller itself never runs
inside a worker; worker tasks are pure functions of their spec).
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Optional, Sequence

from ..config import gpu_preset
from ..errors import ConfigError, SchedulingError
from ..models.zoo import model_by_name
from .cluster import (
    ClusterManager,
    ReplicaState,
    ROUTING_STRATEGIES,
    routing_strategy,
)
from .faults import FaultPlan, NodeFaultPlan
from .metrics import merged_latency_stats, merged_p99_ms
from .policies import validate_policy_name
from .replay import StreamingResult, load_scenario, synthesize_trace
from .runconfig import RunConfig
from .system import TackerSystem
from ..telemetry.slo import make_monitor
from .workload import PoissonArrivals, solo_query_ms

#: The pluggable fleet-sizing policies.
SCALER_POLICIES = ("static", "reactive", "burnrate")

#: Synthesis slack over the control span's mean demand: the trace must
#: outlast the span on every service even when the arrival profile runs
#: above its mean for most of the span (flash-crowd decay, sine crest).
_SYNTH_MARGIN = 2.0


# -- configuration ------------------------------------------------------------

#: Bounds every scaler's target is clamped to.
MIN_NODES = 1
MAX_NODES = 256
#: The capacity model: instantaneous demand units one replica may carry
#: (1 unit = one node's share of the fleet-level rate).  The scenario
#: library is calibrated well below a replica's saturation point (a unit
#: is ``rate_scale`` of each service's 80%-load rate), so packing above
#: 1.0 is what creates headroom for savings; the value stays under the
#: per-node load the static fleet itself reaches at the diurnal crest,
#: keeping the packed fleet's tail no worse than static's.
PACK_UNITS = 1.45
#: fraction of queries the p99 SLO budgets above the target
SLO_BUDGET = 0.01
#: burn rate at/above which an epoch is "hot" (immediate scale-up)
UP_BURN = 1.0
#: burn rate at/below which an epoch counts toward the cooldown
DOWN_BURN = 0.25
#: consecutive calm epochs required before a drain step
COOLDOWN_EPOCHS = 2
#: most replicas one drain step removes
MAX_STEP_DOWN = 8
#: reactive policy: utilization band around the packed target,
#: relative to ``PACK_UNITS`` worth of per-node utilization
UTIL_HI_RATIO = 1.10
UTIL_LO_RATIO = 0.60
#: epoch in which a refit's canary runs
REFIT_START_EPOCH = 1
#: base seed of a refit's per-node-epoch prediction perturbation
REFIT_SEED = 2022


@dataclass(frozen=True)
class ScalerConfig:
    """Fleet-sizing policy knobs (the sizing constants above are shared
    by every policy)."""

    policy: str = "burnrate"
    #: replicas kept beyond the packed demand (also the hysteresis band)
    headroom_nodes: int = 1
    #: most replicas one scale-up step adds
    max_step_up: int = 24

    def __post_init__(self) -> None:
        if self.policy not in SCALER_POLICIES:
            raise ConfigError(
                f"unknown scaler policy {self.policy!r}; "
                f"choose from {SCALER_POLICIES}"
            )
        if self.headroom_nodes < 0:
            raise ConfigError("headroom_nodes must be >= 0")
        if self.max_step_up < 1:
            raise ConfigError("max_step_up must be >= 1")


@dataclass(frozen=True)
class RefitPlan:
    """A predictor refit to roll out node-by-node behind a canary gate.

    The refit itself is modelled as a :class:`~repro.runtime.faults.
    FaultPlan` on the prediction channel — ``bias``/``noise`` describe
    how the refit model's predictions deviate from the incumbent's (a
    benign refit has ``bias`` near 1 and small ``noise``; a botched one
    systematically under-predicts).  The canary node runs it for one
    epoch (epoch :data:`REFIT_START_EPOCH`); a p99 regression beyond
    ``regression_pct`` of the rest of the fleet — or the canary
    violating QoS while the fleet does not — aborts the rollout,
    otherwise it proceeds ``batch`` nodes/epoch.
    """

    bias: float = 1.0
    noise: float = 0.0
    regression_pct: float = 15.0
    batch: int = 4

    def __post_init__(self) -> None:
        if self.bias <= 0:
            raise ConfigError("bias must be positive")
        if self.noise < 0:
            raise ConfigError("noise must be non-negative")
        if self.regression_pct <= 0:
            raise ConfigError("regression_pct must be positive")
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")

    def fault_plan(self, node: int, epoch: int) -> FaultPlan:
        """The refit's prediction perturbation, reseeded per node-epoch
        so refit nodes do not share one noise stream."""
        return FaultPlan(
            seed=REFIT_SEED + 1_000_003 * node + epoch,
            predictor_bias=self.bias,
            predictor_noise=self.noise,
        )


@dataclass(frozen=True)
class AutoscaleSpec:
    """One autoscaling run: scenario, fleet scale, policies, faults."""

    scenario: str = "diurnal"
    scaler: ScalerConfig = ScalerConfig()
    #: control-loop resolution on the simulated clock
    epoch_ms: float = 1000.0
    #: control span; the trace is truncated to it
    span_ms: float = 20000.0
    #: fleet scale: the trace carries this many node-worths of traffic,
    #: and the static baseline provisions exactly this many replicas
    rate_nodes: int = 8
    routing: str = "headroom"
    policy: str = "tacker"
    guard: bool = True
    node_faults: NodeFaultPlan = NodeFaultPlan()
    refit: Optional[RefitPlan] = None
    #: SLO alert rules the (serial) controller evaluates on fleet-level
    #: epoch aggregates; empty = monitoring off, a true no-op
    slo_rules: tuple = ()

    def __post_init__(self) -> None:
        if self.epoch_ms <= 0:
            raise ConfigError("epoch_ms must be positive")
        if self.span_ms < self.epoch_ms:
            raise ConfigError("span_ms must cover at least one epoch")
        if self.rate_nodes < 1:
            raise ConfigError("rate_nodes must be >= 1")
        if self.routing not in ROUTING_STRATEGIES:
            raise ConfigError(
                f"unknown routing strategy {self.routing!r}; "
                f"choose from {ROUTING_STRATEGIES}"
            )
        validate_policy_name(self.policy, owner="autoscale policy")

    @property
    def n_epochs(self) -> int:
        return int(math.ceil(self.span_ms / self.epoch_ms))


# -- the epoch record ---------------------------------------------------------


@dataclass(frozen=True)
class EpochReport:
    """One epoch as the controller observed it: what the scalers read,
    the run reports and the monitor records.

    Derived values are properties, never fields: the field set is what
    ``dataclasses.asdict`` digests.
    """

    epoch: int
    start_ms: float
    end_ms: float
    nodes: tuple
    n_arrivals: int
    #: arrivals over one node-worth of calibrated rate, this epoch
    demand_units: float
    #: dispatcher-predicted utilization: routed service ms over capacity
    routed_util: float
    #: mean Eq. 9 slack the dispatcher granted arriving queries
    mean_slack_ms: float
    served: int
    violations: int
    burn_rate: float
    #: guard decisions that degraded fusion (reorder/exclusive)
    guard_events: int
    be_work_ms: float
    p99_ms: float
    n_rerouted: int
    crashed: tuple

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def active_nodes(self) -> int:
        """Replicas left once this epoch's crashed nodes leave."""
        return len(self.nodes) - len(self.crashed)


# -- scalers ------------------------------------------------------------------


class Scaler(ABC):
    """Maps one epoch's report to the next epoch's fleet size."""

    name = "?"

    def __init__(self, config: ScalerConfig, rate_nodes: int,
                 unit_util: float):
        self.config = config
        self.rate_nodes = rate_nodes
        #: predicted per-ms utilization of one demand unit
        self.unit_util = unit_util

    @abstractmethod
    def target(self, report: EpochReport) -> "tuple[int, str]":
        """(next fleet size, one-line reason) — before min/max clamping."""

    def initial_nodes(self) -> int:
        """Every policy starts from the static fleet and adapts."""
        return self.rate_nodes


class StaticScaler(Scaler):
    """The baseline: hold the provisioned peak fleet (crashes are
    replaced, which is all a static fleet's operator would do)."""

    name = "static"

    def target(self, report):
        return self.rate_nodes, "static provisioning"


class ReactiveScaler(Scaler):
    """Threshold reaction on routed utilization, no memory.

    Scales as soon as utilization leaves the band around the packed
    operating point — both directions immediately, so it tracks demand
    but flaps on noise and reacts only *after* load has already moved.
    """

    name = "reactive"

    def target(self, report):
        cfg = self.config
        util_target = PACK_UNITS * self.unit_util
        active = report.active_nodes
        needed = int(math.ceil(
            active * report.routed_util / util_target
        )) + cfg.headroom_nodes if report.routed_util > 0 else MIN_NODES
        if report.routed_util >= util_target * UTIL_HI_RATIO:
            up = min(active + cfg.max_step_up, max(needed, active + 1))
            return up, f"util {report.routed_util:.3f} above band"
        if report.routed_util <= util_target * UTIL_LO_RATIO:
            down = max(active - MAX_STEP_DOWN, needed)
            return down, f"util {report.routed_util:.3f} below band"
        return active, "util in band"


class BurnRateScaler(Scaler):
    """Demand-following with burn-rate override, trend lead,
    cooldown and hysteresis.

    The demand model packs next epoch's *projected* demand (observed
    plus its upward trend over the previous epoch — a rising edge is
    extrapolated, a falling one is not, so the drain never undershoots
    a turning load) at :data:`PACK_UNITS` per replica plus headroom.
    Two asymmetries protect the SLO: a hot epoch (burn at/above
    :data:`UP_BURN` or any guard-mode degradation) forces an immediate
    scale-up even when the demand model disagrees, and drains happen
    only after :data:`COOLDOWN_EPOCHS` consecutive calm epochs, at most
    :data:`MAX_STEP_DOWN` at a time.
    """

    name = "burnrate"

    def __init__(self, config, rate_nodes, unit_util):
        super().__init__(config, rate_nodes, unit_util)
        self._calm = 0
        #: the previous epoch's demand (the first epoch is its own)
        self._prev_demand: Optional[float] = None

    def target(self, report):
        cfg = self.config
        demand = report.demand_units
        prev = demand if self._prev_demand is None else self._prev_demand
        self._prev_demand = demand
        trend = max(0.0, demand - prev)
        projected = demand + trend
        needed = max(
            int(math.ceil(projected / PACK_UNITS)) + cfg.headroom_nodes,
            MIN_NODES,
        )
        active = report.active_nodes
        hot = report.burn_rate >= UP_BURN or report.guard_events > 0
        if hot or needed > active:
            self._calm = 0
            target = min(active + cfg.max_step_up,
                         max(needed, active + 1 if hot else needed))
            why = (f"burn {report.burn_rate:.2f} hot" if hot
                   else f"demand {projected:.1f}u needs {needed}")
            return target, why
        if needed < active:
            if report.burn_rate <= DOWN_BURN:
                self._calm += 1
            else:
                self._calm = 0
            if self._calm >= COOLDOWN_EPOCHS:
                return (max(active - MAX_STEP_DOWN, needed),
                        f"calm x{self._calm}, drain toward {needed}")
            return active, f"cooldown {self._calm}/{COOLDOWN_EPOCHS}"
        self._calm = 0
        return active, "at target"


_SCALER_CLASSES = {
    "static": StaticScaler,
    "reactive": ReactiveScaler,
    "burnrate": BurnRateScaler,
}


def make_scaler(config: ScalerConfig, rate_nodes: int,
                unit_util: float) -> Scaler:
    return _SCALER_CLASSES[config.policy](config, rate_nodes, unit_util)


# -- per-node epoch simulation (worker side) ----------------------------------


@dataclass(frozen=True)
class EpochNodeSpec:
    """Everything one worker needs to simulate one replica-epoch.

    Pure data and picklable; arrivals are epoch-relative triples
    ``(service, arrival_ms, penalty_ms)`` in time order.
    """

    gpu: str
    node: int
    name: str
    epoch: int
    arrivals: tuple
    be_names: tuple
    #: epoch length for this node (shorter when it crashes mid-epoch);
    #: also the BE-crediting horizon
    span_ms: float
    run: RunConfig
    policy: str
    guard: bool
    #: refit-rollout perturbation of the prediction channel, if any
    faults: Optional[FaultPlan]
    #: actual-duration multiplier of a silently degraded node
    slow_factor: float = 1.0


@dataclass
class EpochNodeStats:
    """One replica-epoch's folded outcome (constant memory).

    ``latencies_ms`` stays empty — the sketch plus exact counters are
    the streaming aggregation surface :mod:`~repro.runtime.metrics`
    consumes (:func:`~repro.runtime.metrics.merged_latency_sketch`).
    """

    node: int
    name: str
    epoch: int
    qos_ms: float
    n_queries: int
    n_violations: int
    sketch: object
    be_work_ms: float
    n_lc_kernels: int
    n_be_kernels: int
    n_fused_kernels: int
    guard_events: int
    latencies_ms: tuple = ()
    #: prediction-overrun evidence for incident forensics: sum and count
    #: of per-launch actual/predicted duration ratios on this node-epoch
    pred_ratio_sum: float = 0.0
    pred_ratio_n: int = 0

    @property
    def mean_overrun_ratio(self) -> float:
        """Mean actual/predicted launch-duration ratio (NaN when the
        epoch launched nothing with a usable prediction)."""
        if not self.pred_ratio_n:
            return float("nan")
        return self.pred_ratio_sum / self.pred_ratio_n


class _PredictionTap:
    """A minimal server monitor that only folds prediction overruns.

    Worker-side epoch simulations do not evaluate alert rules (the
    serial controller is the fleet's monitor — that keeps the alert
    stream independent of worker layout); they only need to ship back
    the actual/predicted duration ratio evidence incident forensics
    uses to localize a slow node or a biased refit.  Every other
    monitor hook is a no-op.
    """

    def __init__(self):
        self.ratio_sum = 0.0
        self.n = 0

    def note_outcome(self, kind, name, predicted_ms, actual_ms, now_ms):
        if predicted_ms > 0:
            self.ratio_sum += actual_ms / predicted_ms
            self.n += 1

    def note_query(self, *args, **kwargs):
        pass

    def note_guard(self, *args, **kwargs):
        pass

    def note_admission(self, *args, **kwargs):
        pass

    def note_fault(self, *args, **kwargs):
        pass


def run_epoch_node(spec: EpochNodeSpec) -> EpochNodeStats:
    """Simulate one replica for one epoch.  Module-level so
    :func:`~repro.experiments.common.parallel_map` can pickle it.

    A *fresh* :class:`TackerSystem` per task keeps repeated runs
    byte-identical regardless of worker count (online model state
    never leaks across epochs or nodes).  The epoch folds into a
    :class:`~repro.runtime.replay.StreamingResult`, so a 100-node
    fleet ships sketches and counters back, not latency lists.
    """
    system = TackerSystem(gpu=gpu_preset(spec.gpu), config=spec.run)
    services = dict.fromkeys(service for service, _, _ in spec.arrivals)
    fold = StreamingResult(qos_ms=spec.run.qos_ms, horizon_ms=spec.span_ms)
    tap = _PredictionTap()
    result = system.serve_arrivals(
        spec.policy, services, spec.arrivals, spec.be_names,
        guard=spec.guard, faults=spec.faults, horizon_ms=spec.span_ms,
        result=fold, slow_factor=spec.slow_factor, monitor=tap,
        metric_labels={"node": spec.name, "epoch": str(spec.epoch)},
    )
    system.flush()
    guard_events = sum(
        count for mode, count in result.guard_mode_decisions.items()
        if mode != "fuse"
    )
    return EpochNodeStats(
        node=spec.node,
        name=spec.name,
        epoch=spec.epoch,
        qos_ms=spec.run.qos_ms,
        n_queries=result.n_queries,
        n_violations=result.n_violations,
        sketch=result.sketch,
        be_work_ms=result.total_be_work_ms,
        n_lc_kernels=result.n_lc_kernels,
        n_be_kernels=result.n_be_kernels,
        n_fused_kernels=result.n_fused_kernels,
        guard_events=guard_events,
        pred_ratio_sum=tap.ratio_sum,
        pred_ratio_n=tap.n,
    )


# -- control-plane records ----------------------------------------------------


@dataclass(frozen=True)
class ScaleDecision:
    """One entry of the controller's decision log (every epoch logs
    one, holds included — that is what makes it an audit trail)."""

    epoch: int
    scaler: str
    action: str  # "up" | "down" | "hold"
    from_nodes: int
    to_nodes: int
    burn_rate: float
    demand_units: float
    routed_util: float
    reason: str


@dataclass(frozen=True)
class RolloutEvent:
    """One step of a canary-gated refit rollout."""

    epoch: int
    action: str  # "canary" | "promote" | "abort" | "complete"
    nodes: tuple
    canary_p99_ms: float
    control_p99_ms: float


class _RolloutState:
    """The canary-gated refit rollout state machine."""

    def __init__(self, plan: Optional[RefitPlan]):
        self.plan = plan
        self.phase = "idle" if plan is not None else "disabled"
        self.canary: Optional[int] = None
        self.refit: set = set()

    def refit_nodes(self, epoch: int, active: Sequence[int],
                    events: list) -> set:
        """Which nodes run the refit this epoch (advances the rollout)."""
        plan = self.plan
        if plan is None or self.phase in ("disabled", "aborted"):
            return set()
        if self.phase == "idle":
            if epoch >= REFIT_START_EPOCH and active:
                self.phase = "canary"
                self.canary = min(active)
            else:
                return set()
        if self.phase == "canary":
            return {self.canary}
        if self.phase == "rolling":
            # grow by up to ``batch`` nodes this epoch
            pending = sorted(n for n in active if n not in self.refit)
            for node in pending[: plan.batch]:
                self.refit.add(node)
            if all(n in self.refit for n in active):
                self.phase = "completed"
                events.append(RolloutEvent(
                    epoch, "complete", tuple(sorted(self.refit)),
                    float("nan"), float("nan"),
                ))
        if self.phase == "completed":
            return set(active)
        return {n for n in active if n in self.refit}

    def observe(self, epoch: int, stats: Sequence[EpochNodeStats],
                events: list) -> None:
        """Evaluate the canary gate after its epoch has simulated."""
        if self.phase != "canary":
            return
        plan = self.plan
        canary_stats = [s for s in stats if s.node == self.canary]
        control = [s for s in stats if s.node != self.canary]
        canary_p99 = merged_p99_ms(canary_stats)
        control_p99 = merged_p99_ms(control)
        qos = stats[0].qos_ms if stats else float("nan")
        regressed = False
        if canary_p99 == canary_p99 and control_p99 == control_p99:
            if canary_p99 > control_p99 * (1 + plan.regression_pct / 100.0):
                regressed = True
            if canary_p99 > qos >= control_p99:
                regressed = True
        events.append(RolloutEvent(
            epoch, "canary", (self.canary,), canary_p99, control_p99,
        ))
        if regressed:
            self.phase = "aborted"
            self.refit = set()
            events.append(RolloutEvent(
                epoch, "abort", (self.canary,), canary_p99, control_p99,
            ))
        else:
            self.phase = "rolling"
            self.refit = {self.canary}
            events.append(RolloutEvent(
                epoch, "promote", (self.canary,), canary_p99, control_p99,
            ))

    def protected(self) -> set:
        """Nodes the scaler must not drain (an in-flight canary)."""
        if self.phase == "canary" and self.canary is not None:
            return {self.canary}
        return set()


# -- the run result -----------------------------------------------------------


@dataclass
class AutoscaleResult:
    """One control-loop run: epochs, decisions, and fleet aggregates."""

    spec: AutoscaleSpec
    scenario_name: str
    qos_ms: float
    unit_rate_per_ms: float
    unit_util: float
    n_trace_queries: int
    epochs: list
    node_stats: list
    decisions: list
    rollout_events: list
    rollout_status: str
    staging: dict
    crashed: tuple
    n_rerouted: int
    #: fleet capacity actually billed, in simulated node-seconds
    #: (crashed nodes bill to their crash instant)
    node_seconds: float
    #: SLO alerts the controller's monitor fired, as plain dicts
    #: (sorted by firing time); [] when monitoring is off
    alerts: list = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    @property
    def total_queries(self) -> int:
        return sum(s.n_queries for s in self.node_stats)

    @property
    def total_violations(self) -> int:
        return sum(s.n_violations for s in self.node_stats)

    @property
    def total_be_work_ms(self) -> float:
        return sum(s.be_work_ms for s in self.node_stats)

    @property
    def merged_p99_ms(self) -> float:
        """Fleet p99 over every query of the whole span (sketch-merged)."""
        return merged_p99_ms(self.node_stats)

    @property
    def p99_tolerance_ms(self) -> float:
        for stats in self.node_stats:
            return stats.sketch.tolerance_ms
        return float("nan")

    @property
    def latency_stats(self) -> dict:
        return merged_latency_stats(self.node_stats, self.qos_ms)

    @property
    def qos_satisfied(self) -> bool:
        p99 = self.merged_p99_ms
        if p99 != p99:
            return True
        return p99 <= self.qos_ms * 1.0001

    @property
    def peak_nodes(self) -> int:
        return max(e.n_nodes for e in self.epochs)

    @property
    def min_nodes(self) -> int:
        return min(e.n_nodes for e in self.epochs)

    @property
    def static_node_seconds(self) -> float:
        """What static provisioning would bill over the same span."""
        return self.spec.rate_nodes * self.spec.span_ms / 1000.0

    @property
    def saved_vs_static_pct(self) -> float:
        static = self.static_node_seconds
        if static <= 0:
            return float("nan")
        return (static - self.node_seconds) / static * 100.0

    def summary_dict(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "scaler": self.spec.scaler.policy,
            "epochs": self.n_epochs,
            "rate_nodes": self.spec.rate_nodes,
            "node_seconds": round(self.node_seconds, 1),
            "saved_vs_static_pct": round(self.saved_vs_static_pct, 1),
            "peak_nodes": self.peak_nodes,
            "min_nodes": self.min_nodes,
            "queries": self.total_queries,
            "violations": self.total_violations,
            "p99_ms": round(self.merged_p99_ms, 3),
            "qos_satisfied": self.qos_satisfied,
            "rerouted": self.n_rerouted,
            "crashed": list(self.crashed),
            "rollout": self.rollout_status,
        }


# -- the control loop: route, serve, observe, act -----------------------------

#: Fan-out hook signature, mirroring :data:`~repro.runtime.cluster.MapFn`.
EpochMapFn = Callable[
    [Callable[[EpochNodeSpec], EpochNodeStats], Sequence[EpochNodeSpec]],
    Sequence[EpochNodeStats],
]

#: a node's routed entries in (arrival, service, penalty) order
_ENTRY_ORDER = itemgetter(1, 0, 2)


@dataclass(frozen=True)
class EpochRoute:
    """One epoch's routing outcome, as :func:`route_epoch` returns it."""

    #: per live node: the epoch-relative ``(service, arrival_ms,
    #: penalty_ms)`` triples routed there in time order, re-routes
    #: included (what :attr:`EpochNodeSpec.arrivals` carries)
    assignments: dict
    #: crash instant of every node that crashed this epoch
    crash_ms: dict
    n_rerouted: int
    #: mean Eq. 9 slack the dispatcher granted arriving queries
    mean_slack_ms: float
    #: predicted service ms routed across the fleet
    routed_ms: float


def route_epoch(arrivals: Sequence[tuple], live: Sequence[int],
                node_faults: NodeFaultPlan, start_ms: float, end_ms: float,
                service_ms: dict, qos_ms: float, routing: str) -> EpochRoute:
    """Route one epoch's ``(arrival_ms, service)`` arrivals online.

    Crashes and arrivals form one time-ordered list, the crash first at
    a tie.  A crashed replica keeps what it finished by its crash
    instant; the rest re-route to the survivors at that instant, each
    carrying the latency it already accrued as its penalty.  A flapping
    replica takes no query while it is down.  Every epoch gets a fresh
    strategy, so round-robin state resets at the epoch boundary.
    """
    replicas = {
        node: ReplicaState(index=node, qos_ms=qos_ms) for node in live
    }
    strategy = routing_strategy(routing)
    assignments: dict = {node: [] for node in live}
    crash_ms = {
        node: at for node in live
        if (at := node_faults.crash_in(node, start_ms, end_ms)) is not None
    }
    steps = sorted(
        [(at, 0, node) for node, at in crash_ms.items()]
        + [(t, 1, index) for index, (t, _) in enumerate(arrivals)]
    )
    lost: set = set()
    slack_sum, n_rerouted = 0.0, 0
    for now_ms, is_arrival, key in steps:
        if is_arrival:
            queries = [(arrivals[key][1], now_ms, 0.0)]
        else:
            lost.add(key)
            entries = assignments[key]
            queries = [x[:3] for x in entries if x[3] > now_ms]
            assignments[key] = [x for x in entries if x[3] <= now_ms]
            n_rerouted += len(queries)
        for service, arrival_ms, penalty_ms in queries:
            pool = [
                replicas[node] for node in live
                if node not in lost and not node_faults.is_down(node, now_ms)
            ]
            if not pool:
                raise SchedulingError(f"no live replica at {now_ms:.0f} ms")
            chosen, slack = strategy.route(now_ms, service_ms[service], pool)
            if is_arrival:
                slack_sum += slack
            # a re-routed query's clock keeps running from its arrival
            assignments[chosen.index].append([
                service, now_ms, penalty_ms + (now_ms - arrival_ms),
                chosen.busy_until_ms,
            ])
    return EpochRoute(
        assignments={
            node: tuple(
                (service, t - start_ms, penalty)
                for service, t, penalty, _ in sorted(entries, key=_ENTRY_ORDER)
            )
            for node, entries in assignments.items()
        },
        crash_ms=crash_ms,
        n_rerouted=n_rerouted,
        mean_slack_ms=(
            slack_sum / len(arrivals) if arrivals else float("nan")
        ),
        routed_ms=sum(r.routed_ms for r in replicas.values()),
    )


def serve_epoch(specs: Sequence[EpochNodeSpec],
                map_fn: Optional[EpochMapFn] = None) -> list:
    """Simulate every replica-epoch through ``map_fn`` (the builtin
    ``map`` by default), in spec order."""
    return list((map_fn or map)(run_epoch_node, specs))


def observe_epoch(epoch: int, start_ms: float, end_ms: float,
                  live: Sequence[int], n_arrivals: int, route: EpochRoute,
                  stats: Sequence[EpochNodeStats],
                  unit_rate: float) -> EpochReport:
    """Fold one routed and served epoch into its report."""
    span_ms = end_ms - start_ms
    served = sum(s.n_queries for s in stats)
    violations = sum(s.n_violations for s in stats)
    return EpochReport(
        epoch=epoch,
        start_ms=start_ms,
        end_ms=end_ms,
        nodes=tuple(sorted(live)),
        n_arrivals=n_arrivals,
        demand_units=n_arrivals / (unit_rate * span_ms),
        routed_util=(
            route.routed_ms / (len(live) * span_ms) if live else 0.0
        ),
        mean_slack_ms=route.mean_slack_ms,
        served=served,
        violations=violations,
        burn_rate=(violations / served) / SLO_BUDGET if served else 0.0,
        guard_events=sum(s.guard_events for s in stats),
        be_work_ms=sum(s.be_work_ms for s in stats),
        p99_ms=merged_p99_ms(stats),
        n_rerouted=route.n_rerouted,
        crashed=tuple(sorted(route.crash_ms)),
    )


class _Fleet:
    """The live replica set, provisioned through the cluster manager
    (occurrence counting stages fused kernels as placements land)."""

    def __init__(self, manager: ClusterManager, lc_names: tuple,
                 be_names: tuple):
        self.manager = manager
        self.lc_names = lc_names
        self.be_names = be_names
        #: live node indices, ascending (provisioning only appends)
        self.active: list = []
        self._next = 0

    def provision(self, n: int) -> None:
        for index in range(self._next, self._next + n):
            self.manager.register_replica(
                f"node{index:03d}",
                self.lc_names[index % len(self.lc_names)],
                (self.be_names[index % len(self.be_names)],),
            )
            self.active.append(index)
        self._next += n


def act(scaler: Scaler, report: EpochReport, fleet: _Fleet,
        protected: set) -> "tuple[ScaleDecision, int]":
    """Turn the scaler's clamped target into a provision or a drain.

    Drains take the newest replicas first and never a ``protected``
    one.  Returns the logged decision and the clamped target.
    """
    target, reason = scaler.target(report)
    target = max(MIN_NODES, min(MAX_NODES, target))
    before = len(fleet.active)
    if target > before:
        fleet.provision(target - before)
        action = "up"
    elif target < before:
        for node in sorted(fleet.active, reverse=True):
            if len(fleet.active) <= target:
                break
            if node not in protected:
                fleet.active.remove(node)
        action = "down"
    else:
        action = "hold"
    decision = ScaleDecision(
        epoch=report.epoch,
        scaler=scaler.name,
        action=action,
        from_nodes=before,
        to_nodes=len(fleet.active),
        burn_rate=report.burn_rate,
        demand_units=report.demand_units,
        routed_util=report.routed_util,
        reason=reason,
    )
    return decision, target


def _monitor_entry(report: EpochReport, stats: Sequence[EpochNodeStats],
                   refitting: set, desired: int, action: str) -> dict:
    """The monitor's flight-recorder entry for one epoch."""
    return {
        "epoch": report.epoch,
        "end_ms": report.end_ms,
        "served": report.served,
        "violations": report.violations,
        "nodes": report.n_nodes,
        "routed_util": report.routed_util,
        "burn_rate": report.burn_rate,
        "demand_units": report.demand_units,
        "guard_events": report.guard_events,
        "crashed": [f"node{n:03d}" for n in report.crashed],
        "n_rerouted": report.n_rerouted,
        "node_overrun": {
            s.name: s.mean_overrun_ratio for s in stats if s.pred_ratio_n
        },
        "refit_nodes": sorted(f"node{n:03d}" for n in refitting),
        "desired": desired,
        "action": action,
    }


def _unit_demand(scenario, system: TackerSystem
                 ) -> "tuple[dict, float, float]":
    """Per-service solo ms, plus the arrival rate and the predicted
    utilization of one demand unit (one node's calibrated share)."""
    library, oracle = system.library, system.oracle
    # key everything by the canonical model name — that is what the
    # trace's events carry
    lc_models = [model_by_name(name) for name in scenario.lc_services]
    service_ms = {
        model.name: solo_query_ms(model, library, oracle)
        for model in lc_models
    }
    unit_rate = 0.0
    unit_util = 0.0
    for index, model in enumerate(lc_models):
        arrivals = PoissonArrivals(
            model, library, oracle,
            load=scenario.load, seed=scenario.seed + index,
            qos_ms=scenario.qos_ms, process=scenario.process,
        )
        rate = arrivals.rate_per_ms * scenario.rate_scale
        unit_rate += rate
        unit_util += rate * service_ms[model.name]
    if unit_rate <= 0:
        raise SchedulingError(
            f"scenario {scenario.name!r} has no arrival rate"
        )
    return service_ms, unit_rate, unit_util


def _world_events(scenario, spec: AutoscaleSpec, system: TackerSystem,
                  unit_rate: float) -> list:
    """The world: the fleet-scale ``(arrival_ms, service)`` trace over
    the control span."""
    fleet_scenario = replace(
        scenario, rate_scale=scenario.rate_scale * spec.rate_nodes
    )
    count = int(math.ceil(
        unit_rate * spec.rate_nodes * spec.span_ms * _SYNTH_MARGIN
    ))
    count = max(count, len(scenario.lc_services))
    trace = synthesize_trace(
        fleet_scenario, system.library, system.oracle, n_queries=count
    )
    if len(trace) and trace.arrivals_ms[-1] < spec.span_ms:
        raise SchedulingError(
            f"synthesized trace ends at {trace.arrivals_ms[-1]:.0f} ms, "
            f"short of the {spec.span_ms:.0f} ms control span; "
            "raise the synthesis margin"
        )
    return [(t, s) for t, s in trace.events() if t < spec.span_ms]


def run_autoscale(
    spec: AutoscaleSpec,
    gpu: str = "rtx2080ti",
    map_fn: Optional[EpochMapFn] = None,
    system: Optional[TackerSystem] = None,
) -> AutoscaleResult:
    """Run the autoscaling control loop over one scenario.

    The controller is strictly causal: the trace is synthesized up
    front (it is the *world*, not controller knowledge), but every
    sizing decision consumes only finished-epoch observations.  Fleet
    membership changes take effect at the next epoch boundary —
    replicas reset their dispatcher reservation state there, which is
    sound because epochs are much longer than the QoS target, so an
    epoch's backlog drains within the epoch that created it.
    """
    scenario = load_scenario(spec.scenario)
    if system is None:
        system = TackerSystem(gpu=gpu_preset(gpu), config=scenario.run_config())
    service_ms, unit_rate, unit_util = _unit_demand(scenario, system)
    events = _world_events(scenario, spec, system, unit_rate)
    times = [t for t, _ in events]
    scaler = make_scaler(spec.scaler, spec.rate_nodes, unit_util)
    manager = ClusterManager(system)
    be_names = tuple(scenario.be_apps)
    fleet = _Fleet(manager, tuple(scenario.lc_services), be_names)
    fleet.provision(max(MIN_NODES, min(MAX_NODES, scaler.initial_nodes())))

    run_cfg = scenario.run_config()
    epochs: list = []
    all_stats: list = []
    decisions: list = []
    rollout_events: list = []
    rollout = _RolloutState(spec.refit)
    # The fleet monitor lives in the (serial) controller: alert streams
    # depend only on epoch aggregates, never on worker layout.
    monitor = make_monitor(spec.slo_rules, scenario.qos_ms, source="autoscale")
    node_seconds = 0.0
    cursor = 0
    for epoch in range(spec.n_epochs):
        t0 = epoch * spec.epoch_ms
        t1 = min(t0 + spec.epoch_ms, spec.span_ms)
        stop = bisect.bisect_left(times, t1, cursor)
        arrivals, cursor = events[cursor:stop], stop
        live = list(fleet.active)
        refitting = rollout.refit_nodes(epoch, live, rollout_events)
        route = route_epoch(
            arrivals, live, spec.node_faults, t0, t1, service_ms,
            scenario.qos_ms, spec.routing,
        )
        specs = [
            EpochNodeSpec(
                gpu=gpu,
                node=node,
                name=f"node{node:03d}",
                epoch=epoch,
                arrivals=route.assignments[node],
                be_names=be_names,
                span_ms=max(route.crash_ms.get(node, t1) - t0, 1e-3),
                run=run_cfg,
                policy=spec.policy,
                guard=spec.guard,
                faults=(
                    rollout.plan.fault_plan(node, epoch)
                    if node in refitting else None
                ),
                slow_factor=spec.node_faults.slow_factor(node, t0),
            )
            for node in live
        ]
        stats = serve_epoch(specs, map_fn)
        report = observe_epoch(
            epoch, t0, t1, live, len(arrivals), route, stats, unit_rate
        )
        epochs.append(report)
        all_stats.extend(stats)
        rollout.observe(epoch, stats, rollout_events)
        for node in live:
            node_seconds += (route.crash_ms.get(node, t1) - t0) / 1000.0
        # crashed capacity leaves; the scaler sizes the rest
        for node in report.crashed:
            fleet.active.remove(node)
        if epoch < spec.n_epochs - 1:
            decision, desired = act(
                scaler, report, fleet, rollout.protected()
            )
            decisions.append(decision)
            action = decision.action
        else:
            desired, action = len(fleet.active), "final"
        if monitor is not None:
            monitor.note_epoch(
                _monitor_entry(report, stats, refitting, desired, action)
            )

    result = AutoscaleResult(
        spec=spec,
        scenario_name=scenario.name,
        qos_ms=scenario.qos_ms,
        unit_rate_per_ms=unit_rate,
        unit_util=unit_util,
        n_trace_queries=len(events),
        epochs=epochs,
        node_stats=all_stats,
        decisions=decisions,
        rollout_events=rollout_events,
        rollout_status=rollout.phase,
        staging=manager.staging_report(),
        crashed=tuple(node for e in epochs for node in e.crashed),
        n_rerouted=sum(e.n_rerouted for e in epochs),
        node_seconds=node_seconds,
        alerts=monitor.alert_dicts() if monitor is not None else [],
    )
    publish_autoscale_metrics(result)
    return result


def publish_autoscale_metrics(result: AutoscaleResult) -> None:
    """Fold one control-loop run into the metrics registry.

    No-op while telemetry is off.  Families carry scenario and scaler
    labels, so a dashboard can compare policies per workload shape.
    """
    from .. import telemetry

    if not telemetry.active():
        return
    reg = telemetry.registry()
    labels = {
        "scenario": result.scenario_name,
        "scaler": result.spec.scaler.policy,
    }
    reg.counter(
        "repro_autoscale_queries_total",
        "LC queries served per autoscaling run.", **labels,
    ).inc(result.total_queries)
    reg.counter(
        "repro_autoscale_rerouted_total",
        "LC queries re-routed off crashed replicas.", **labels,
    ).inc(result.n_rerouted)
    reg.counter(
        "repro_autoscale_scale_events_total",
        "Fleet resize decisions that changed capacity.", **labels,
    ).inc(sum(1 for d in result.decisions if d.action != "hold"))
    reg.gauge(
        "repro_autoscale_node_seconds",
        "Billed fleet capacity of the latest run (simulated node-s).",
        **labels,
    ).set(result.node_seconds)
    reg.gauge(
        "repro_autoscale_saved_vs_static_pct",
        "Node-time saved vs. static provisioning, latest run.", **labels,
    ).set(result.saved_vs_static_pct)
    reg.gauge(
        "repro_autoscale_p99_latency_ms",
        "Fleet-merged p99 latency of the latest run (simulated ms).",
        **labels,
    ).set(result.merged_p99_ms)
    reg.gauge(
        "repro_autoscale_peak_burn_rate",
        "Worst per-epoch SLO burn rate of the latest run.", **labels,
    ).set(max((e.burn_rate for e in result.epochs), default=0.0))
