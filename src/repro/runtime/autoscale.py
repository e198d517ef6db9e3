"""The autoscaling control plane over the cluster serving engine.

PR 4's :mod:`~repro.runtime.cluster` serves a *static* fleet: the
replica count is fixed up front and the dispatcher only balances within
it.  The scenario library (diurnal, flash-crowd, tenant-churn) breaks
that premise — a fleet provisioned for the diurnal peak idles through
the trough, and one provisioned for the mean violates QoS at the peak.

This module closes the loop.  :func:`run_autoscale` runs a
deterministic control loop on the *simulated* clock: the control span
is cut into fixed epochs, each epoch's arrivals are routed online
across the live replicas (the same :class:`~repro.runtime.cluster.
ReplicaState` / :func:`~repro.runtime.cluster.routing_strategy`
machinery the static dispatcher uses), every replica simulates its
epoch on a fresh :class:`~repro.runtime.system.TackerSystem` (fanned
out via ``parallel_map``), and the controller then observes the epoch
— demand, routed utilization, Eq. 9 dispatcher slack, guard-mode
decision counts, and the **SLO burn rate** — and re-sizes the fleet
for the next epoch under a pluggable :class:`Scaler` policy.

Burn rate is the standard SRE error-budget derivative: a p99 SLO at
target ``qos_ms`` budgets ``slo_budget`` (default 1%) of queries above
the target, so one epoch's burn is::

    burn = (epoch violations / epoch queries) / slo_budget

``burn == 1`` consumes budget exactly as fast as it accrues; the
burn-rate scaler treats ``burn >= up_burn`` (or any guard-mode
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

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from ..config import gpu_preset
from ..errors import ConfigError, SchedulingError
from ..models.zoo import model_by_name
from .cluster import (
    DEFAULT_OCCURRENCE_THRESHOLD,
    ClusterManager,
    ReplicaState,
    ROUTING_STRATEGIES,
    routing_strategy,
)
from .faults import FaultPlan, NodeFaultPlan, make_injector
from .metrics import merged_latency_stats, merged_p99_ms
from .policies import validate_policy_name
from .query import Query
from .replay import StreamingResult, load_scenario, synthesize_trace
from .runconfig import RunConfig
from .server import ColocationServer
from .system import TackerSystem
from ..telemetry.slo import make_monitor
from .workload import (
    PoissonArrivals,
    be_application,
    query_instances,
    solo_query_ms,
)

#: The pluggable fleet-sizing policies.
SCALER_POLICIES = ("static", "reactive", "burnrate")

#: Synthesis slack over the control span's mean demand: the trace must
#: outlast the span on every service even when the arrival profile runs
#: above its mean for most of the span (flash-crowd decay, sine crest).
_SYNTH_MARGIN = 2.0


# -- configuration ------------------------------------------------------------


@dataclass(frozen=True)
class ScalerConfig:
    """Fleet-sizing policy knobs.

    ``pack_units`` is the capacity model: how many node-worths of
    calibrated scenario traffic (1 unit = one node's share of the
    fleet-level rate) a single replica may carry.  The scenario library
    is calibrated well below a replica's saturation point (a unit is
    ``rate_scale`` of each service's 80%-load rate), so packing above
    1.0 is what creates headroom for savings; the default stays under
    the per-node load the static fleet itself reaches at the diurnal
    crest, keeping the packed fleet's tail no worse than static's.
    """

    policy: str = "burnrate"
    min_nodes: int = 1
    max_nodes: int = 256
    #: instantaneous demand units one replica may carry
    pack_units: float = 1.45
    #: replicas kept beyond the packed demand (also the hysteresis band)
    headroom_nodes: int = 1
    #: fraction of queries the p99 SLO budgets above the target
    slo_budget: float = 0.01
    #: burn rate at/above which an epoch is "hot" (immediate scale-up)
    up_burn: float = 1.0
    #: burn rate at/below which an epoch counts toward the cooldown
    down_burn: float = 0.25
    #: consecutive calm epochs required before a drain step
    cooldown_epochs: int = 2
    max_step_up: int = 24
    max_step_down: int = 8
    #: reactive policy: utilization band around the packed target,
    #: relative to ``pack_units`` worth of per-node utilization
    util_hi_ratio: float = 1.10
    util_lo_ratio: float = 0.60

    def __post_init__(self) -> None:
        if self.policy not in SCALER_POLICIES:
            raise ConfigError(
                f"unknown scaler policy {self.policy!r}; "
                f"choose from {SCALER_POLICIES}"
            )
        if self.min_nodes < 1:
            raise ConfigError("min_nodes must be >= 1")
        if self.max_nodes < self.min_nodes:
            raise ConfigError("max_nodes must be >= min_nodes")
        if self.pack_units <= 0:
            raise ConfigError("pack_units must be positive")
        if self.headroom_nodes < 0:
            raise ConfigError("headroom_nodes must be >= 0")
        if not 0 < self.slo_budget <= 1:
            raise ConfigError("slo_budget must be in (0, 1]")
        if self.down_burn > self.up_burn:
            raise ConfigError("down_burn must not exceed up_burn")
        if self.cooldown_epochs < 1:
            raise ConfigError("cooldown_epochs must be >= 1")
        if self.max_step_up < 1 or self.max_step_down < 1:
            raise ConfigError("scale steps must be >= 1")
        if self.util_lo_ratio >= self.util_hi_ratio:
            raise ConfigError("util_lo_ratio must be below util_hi_ratio")


@dataclass(frozen=True)
class RefitPlan:
    """A predictor refit to roll out node-by-node behind a canary gate.

    The refit itself is modelled as a :class:`~repro.runtime.faults.
    FaultPlan` on the prediction channel — ``bias``/``noise`` describe
    how the refit model's predictions deviate from the incumbent's (a
    benign refit has ``bias`` near 1 and small ``noise``; a botched one
    systematically under-predicts).  The canary node runs it for one
    epoch; a p99 regression beyond ``regression_pct`` of the rest of
    the fleet — or the canary violating QoS while the fleet does not —
    aborts the rollout, otherwise it proceeds ``batch`` nodes/epoch.
    """

    start_epoch: int = 1
    bias: float = 1.0
    noise: float = 0.0
    regression_pct: float = 15.0
    batch: int = 4
    seed: int = 2022

    def __post_init__(self) -> None:
        if self.start_epoch < 0:
            raise ConfigError("start_epoch must be >= 0")
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
            seed=self.seed + 1_000_003 * node + epoch,
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
    occurrence_threshold: int = DEFAULT_OCCURRENCE_THRESHOLD
    sketch_bins: int = 4096
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
        if self.sketch_bins < 2:
            raise ConfigError("sketch_bins must be >= 2")
        validate_policy_name(self.policy, owner="autoscale policy")

    @property
    def n_epochs(self) -> int:
        return int(math.ceil(self.span_ms / self.epoch_ms))


# -- scalers ------------------------------------------------------------------


@dataclass(frozen=True)
class EpochObservation:
    """What the controller saw in one finished epoch."""

    epoch: int
    active_nodes: int
    n_arrivals: int
    #: arrivals over one node-worth of calibrated rate, this epoch
    demand_units: float
    prev_demand_units: float
    #: dispatcher-predicted utilization: routed service ms over capacity
    routed_util: float
    #: mean Eq. 9 slack the dispatcher granted arriving queries
    mean_slack_ms: float
    served: int
    violations: int
    burn_rate: float
    #: guard decisions that degraded fusion (reorder/exclusive)
    guard_events: int


class Scaler(ABC):
    """Maps one epoch's observation to the next epoch's fleet size."""

    name = "?"

    def __init__(self, config: ScalerConfig, rate_nodes: int,
                 unit_util: float):
        self.config = config
        self.rate_nodes = rate_nodes
        #: predicted per-ms utilization of one demand unit
        self.unit_util = unit_util

    @abstractmethod
    def target(self, obs: EpochObservation) -> "tuple[int, str]":
        """(next fleet size, one-line reason) — before min/max clamping."""

    def initial_nodes(self) -> int:
        """Every policy starts from the static fleet and adapts."""
        return self.rate_nodes


class StaticScaler(Scaler):
    """The baseline: hold the provisioned peak fleet (crashes are
    replaced, which is all a static fleet's operator would do)."""

    name = "static"

    def target(self, obs):
        return self.rate_nodes, "static provisioning"


class ReactiveScaler(Scaler):
    """Threshold reaction on routed utilization, no memory.

    Scales as soon as utilization leaves the band around the packed
    operating point — both directions immediately, so it tracks demand
    but flaps on noise and reacts only *after* load has already moved.
    """

    name = "reactive"

    def target(self, obs):
        cfg = self.config
        util_target = cfg.pack_units * self.unit_util
        active = obs.active_nodes
        needed = int(math.ceil(
            active * obs.routed_util / util_target
        )) + cfg.headroom_nodes if obs.routed_util > 0 else cfg.min_nodes
        if obs.routed_util >= util_target * cfg.util_hi_ratio:
            up = min(active + cfg.max_step_up, max(needed, active + 1))
            return up, f"util {obs.routed_util:.3f} above band"
        if obs.routed_util <= util_target * cfg.util_lo_ratio:
            down = max(active - cfg.max_step_down, needed)
            return down, f"util {obs.routed_util:.3f} below band"
        return active, "util in band"


class BurnRateScaler(Scaler):
    """Demand-following with burn-rate override, trend lead,
    cooldown and hysteresis.

    The demand model packs next epoch's *projected* demand (observed
    plus its upward trend — a rising edge is extrapolated, a falling
    one is not, so the drain never undershoots a turning load) at
    ``pack_units`` per replica plus headroom.  Two asymmetries protect
    the SLO: a hot epoch (burn at/above ``up_burn`` or any guard-mode
    degradation) forces an immediate scale-up even when the demand
    model disagrees, and drains happen only after ``cooldown_epochs``
    consecutive calm epochs, at most ``max_step_down`` at a time.
    """

    name = "burnrate"

    def __init__(self, config, rate_nodes, unit_util):
        super().__init__(config, rate_nodes, unit_util)
        self._calm = 0

    def target(self, obs):
        cfg = self.config
        trend = max(0.0, obs.demand_units - obs.prev_demand_units)
        projected = obs.demand_units + trend
        needed = max(
            int(math.ceil(projected / cfg.pack_units)) + cfg.headroom_nodes,
            cfg.min_nodes,
        )
        active = obs.active_nodes
        hot = obs.burn_rate >= cfg.up_burn or obs.guard_events > 0
        if hot or needed > active:
            self._calm = 0
            target = min(active + cfg.max_step_up,
                         max(needed, active + 1 if hot else needed))
            why = (f"burn {obs.burn_rate:.2f} hot" if hot
                   else f"demand {projected:.1f}u needs {needed}")
            return target, why
        if needed < active:
            if obs.burn_rate <= cfg.down_burn:
                self._calm += 1
            else:
                self._calm = 0
            if self._calm >= cfg.cooldown_epochs:
                return (max(active - cfg.max_step_down, needed),
                        f"calm x{self._calm}, drain toward {needed}")
            return active, f"cooldown {self._calm}/{cfg.cooldown_epochs}"
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
    sketch_upper_ms: float = 200.0
    sketch_bins: int = 4096


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
    models: dict = {}
    for service, _, _ in spec.arrivals:
        if service not in models:
            models[service] = model_by_name(service)
    for model in models.values():
        for be_name in spec.be_names:
            system.prepare_pair(
                model, be_application(be_name, system.library)
            )
    instances = {
        name: query_instances(model, system.library)
        for name, model in models.items()
    }
    policy = system.make_policy(spec.policy, guard=spec.guard)
    injector = make_injector(spec.faults) if spec.faults is not None else None
    tap = _PredictionTap()
    server = ColocationServer(
        system.gpu, oracle=system.oracle, policy=policy,
        config=spec.run, slow_factor=spec.slow_factor,
        faults=injector, record_kernels=False,
        monitor=tap,
        metric_labels={"node": spec.name, "epoch": str(spec.epoch)},
    )
    queries = [
        Query(models[service], arrival_ms, instances[service],
              penalty_ms=penalty_ms)
        for service, arrival_ms, penalty_ms in spec.arrivals
    ]
    be_apps = [
        be_application(name, system.library) for name in spec.be_names
    ]
    result = StreamingResult(
        qos_ms=spec.run.qos_ms,
        horizon_ms=spec.span_ms,
        be_names=spec.be_names,
        sketch_upper_ms=spec.sketch_upper_ms,
        sketch_bins=spec.sketch_bins,
    )
    if injector is not None:
        system.models.perturb = injector.perturb_prediction
    try:
        result = server.run_stream(
            queries, be_apps, horizon_ms=spec.span_ms, result=result
        )
    finally:
        system.models.perturb = None
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


@dataclass(frozen=True)
class EpochReport:
    """One epoch as the controller observed it."""

    epoch: int
    start_ms: float
    end_ms: float
    nodes: tuple
    n_arrivals: int
    demand_units: float
    routed_util: float
    mean_slack_ms: float
    served: int
    violations: int
    burn_rate: float
    guard_events: int
    be_work_ms: float
    p99_ms: float
    n_rerouted: int
    crashed: tuple

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


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
            if epoch >= plan.start_epoch and active:
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
    def mean_nodes(self) -> float:
        return sum(e.n_nodes for e in self.epochs) / len(self.epochs)

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


# -- the control loop ---------------------------------------------------------

#: Fan-out hook signature, mirroring :data:`~repro.runtime.cluster.MapFn`.
EpochMapFn = Callable[
    [Callable[[EpochNodeSpec], EpochNodeStats], Sequence[EpochNodeSpec]],
    Sequence[EpochNodeStats],
]


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

    # the world: the fleet-scale arrival trace over the control span
    fleet_scenario = replace(
        scenario, rate_scale=scenario.rate_scale * spec.rate_nodes
    )
    count = int(math.ceil(
        unit_rate * spec.rate_nodes * spec.span_ms * _SYNTH_MARGIN
    ))
    count = max(count, len(scenario.lc_services))
    trace = synthesize_trace(
        fleet_scenario, library, oracle, n_queries=count
    )
    if len(trace) and trace.arrivals_ms[-1] < spec.span_ms:
        raise SchedulingError(
            f"synthesized trace ends at {trace.arrivals_ms[-1]:.0f} ms, "
            f"short of the {spec.span_ms:.0f} ms control span; "
            "raise the synthesis margin"
        )
    events = [(t, s) for t, s in trace.events() if t < spec.span_ms]

    cfg = spec.scaler
    scaler = make_scaler(cfg, spec.rate_nodes, unit_util)
    manager = ClusterManager(
        system, occurrence_threshold=spec.occurrence_threshold
    )
    lc_names = tuple(scenario.lc_services)
    be_names = tuple(scenario.be_apps)
    active: list = []
    next_node = 0

    def provision(n: int) -> list:
        """Register ``n`` fresh replicas through the cluster manager
        (occurrence counting stages fused kernels as placements land)."""
        nonlocal next_node
        added = []
        for _ in range(n):
            index = next_node
            next_node += 1
            manager.register_replica(
                f"node{index:03d}",
                lc_names[index % len(lc_names)],
                (be_names[index % len(be_names)],),
            )
            active.append(index)
            added.append(index)
        return added

    initial = scaler.initial_nodes()
    initial = max(cfg.min_nodes, min(cfg.max_nodes, initial))
    provision(initial)

    run_cfg = scenario.run_config()
    sketch_upper = 4.0 * scenario.qos_ms
    epochs: list = []
    all_stats: list = []
    decisions: list = []
    rollout_events: list = []
    rollout = _RolloutState(spec.refit)
    # The fleet monitor lives in the (serial) controller: alert streams
    # depend only on epoch aggregates, never on worker layout.
    monitor = make_monitor(spec.slo_rules, scenario.qos_ms, source="autoscale")
    crashed: list = []
    node_seconds = 0.0
    total_rerouted = 0
    prev_demand: Optional[float] = None
    cursor = 0
    n_epochs = spec.n_epochs

    for epoch in range(n_epochs):
        t0 = epoch * spec.epoch_ms
        t1 = min(t0 + spec.epoch_ms, spec.span_ms)
        epoch_span = t1 - t0
        epoch_events = []
        while cursor < len(events) and events[cursor][0] < t1:
            epoch_events.append(events[cursor])
            cursor += 1

        refitting = rollout.refit_nodes(epoch, active, rollout_events)

        # -- route the epoch's arrivals online across the live fleet --
        replicas = {
            node: ReplicaState(index=node, qos_ms=scenario.qos_ms)
            for node in active
        }
        strategy = routing_strategy(spec.routing)
        assignments: dict = {node: [] for node in active}
        lost: set = set()
        crash_times: dict = {}
        crash_list = sorted(
            (at, node) for node in active
            if (at := spec.node_faults.crash_in(node, t0, t1)) is not None
        )
        slack_sum, slack_n = 0.0, 0
        seq = 0
        epoch_rerouted = 0

        def eligible(now_ms: float) -> list:
            return [
                replicas[node] for node in active
                if node not in lost
                and not spec.node_faults.is_down(node, now_ms)
            ]

        def fail_node(victim: int, at_ms: float) -> None:
            """Crash a replica: keep what it finished, re-route the rest."""
            nonlocal seq, epoch_rerouted
            if victim in lost:
                return
            lost.add(victim)
            crash_times[victim] = at_ms
            kept, moved = [], []
            for entry in assignments[victim]:
                (moved if entry[3] > at_ms else kept).append(entry)
            assignments[victim] = kept
            for service, arrival_ms, penalty_ms, _ in moved:
                pool = eligible(at_ms)
                if not pool:
                    raise SchedulingError(
                        f"node {victim} crashed at {at_ms:.0f} ms with "
                        "no live replica left to absorb its queries"
                    )
                for replica in pool:
                    replica.drain(at_ms)
                ms = service_ms[service]
                chosen = strategy.choose(at_ms, ms, pool)
                chosen.assign(at_ms, ms, seq)
                seq += 1
                assignments[chosen.index].append([
                    service, at_ms,
                    penalty_ms + (at_ms - arrival_ms),
                    chosen.busy_until_ms,
                ])
                epoch_rerouted += 1

        ci = 0
        for t, service in epoch_events:
            while ci < len(crash_list) and crash_list[ci][0] <= t:
                fail_node(crash_list[ci][1], crash_list[ci][0])
                ci += 1
            pool = eligible(t)
            if not pool:
                raise SchedulingError(
                    f"no live replica at {t:.0f} ms (epoch {epoch})"
                )
            for replica in pool:
                replica.drain(t)
            ms = service_ms[service]
            chosen = strategy.choose(t, ms, pool)
            slack_sum += chosen.new_query_slack_ms(t, ms)
            slack_n += 1
            chosen.assign(t, ms, seq)
            seq += 1
            assignments[chosen.index].append(
                [service, t, 0.0, chosen.busy_until_ms]
            )
        while ci < len(crash_list):
            fail_node(crash_list[ci][1], crash_list[ci][0])
            ci += 1

        # -- fan the per-replica epoch simulations out --
        specs = []
        for node in sorted(active):
            entries = assignments[node]
            entries.sort(key=lambda e: (e[1], e[0], e[2]))
            end_ms = crash_times.get(node, t1)
            fault_plan = None
            if node in refitting and rollout.plan is not None:
                fault_plan = rollout.plan.fault_plan(node, epoch)
            specs.append(EpochNodeSpec(
                gpu=gpu,
                node=node,
                name=f"node{node:03d}",
                epoch=epoch,
                arrivals=tuple(
                    (service, t_abs - t0, penalty)
                    for service, t_abs, penalty, _ in entries
                ),
                be_names=be_names,
                span_ms=max(end_ms - t0, 1e-3),
                run=run_cfg,
                policy=spec.policy,
                guard=spec.guard,
                faults=fault_plan,
                slow_factor=spec.node_faults.slow_factor(node, t0),
                sketch_upper_ms=sketch_upper,
                sketch_bins=spec.sketch_bins,
            ))
        if map_fn is None:
            stats = [run_epoch_node(s) for s in specs]
        else:
            stats = list(map_fn(run_epoch_node, specs))

        # -- observe --
        served = sum(s.n_queries for s in stats)
        violations = sum(s.n_violations for s in stats)
        guard_events = sum(s.guard_events for s in stats)
        burn = (
            (violations / served) / cfg.slo_budget if served else 0.0
        )
        routed = sum(r.routed_ms for r in replicas.values())
        util = routed / (len(active) * epoch_span) if active else 0.0
        demand = len(epoch_events) / (unit_rate * epoch_span)
        mean_slack = slack_sum / slack_n if slack_n else float("nan")
        for node in active:
            node_seconds += (crash_times.get(node, t1) - t0) / 1000.0
        epochs.append(EpochReport(
            epoch=epoch,
            start_ms=t0,
            end_ms=t1,
            nodes=tuple(sorted(active)),
            n_arrivals=len(epoch_events),
            demand_units=demand,
            routed_util=util,
            mean_slack_ms=mean_slack,
            served=served,
            violations=violations,
            burn_rate=burn,
            guard_events=guard_events,
            be_work_ms=sum(s.be_work_ms for s in stats),
            p99_ms=merged_p99_ms(stats),
            n_rerouted=epoch_rerouted,
            crashed=tuple(sorted(lost)),
        ))
        all_stats.extend(stats)
        total_rerouted += epoch_rerouted
        rollout.observe(epoch, stats, rollout_events)
        epoch_entry = None
        if monitor is not None:
            epoch_entry = {
                "epoch": epoch,
                "end_ms": t1,
                "served": served,
                "violations": violations,
                "nodes": len(epochs[-1].nodes),
                "routed_util": util,
                "burn_rate": burn,
                "demand_units": demand,
                "guard_events": guard_events,
                "crashed": [f"node{n:03d}" for n in sorted(lost)],
                "n_rerouted": epoch_rerouted,
                "node_overrun": {
                    s.name: s.mean_overrun_ratio
                    for s in stats if s.pred_ratio_n
                },
                "refit_nodes": sorted(
                    f"node{n:03d}" for n in refitting
                ),
            }

        # -- act: crashed capacity leaves, the scaler sizes the rest --
        for node in sorted(lost):
            active.remove(node)
            crashed.append(node)
        if epoch == n_epochs - 1:
            if epoch_entry is not None:
                epoch_entry.update(desired=len(active), action="final")
                monitor.note_epoch(epoch_entry)
            prev_demand = demand
            continue
        obs = EpochObservation(
            epoch=epoch,
            active_nodes=len(active),
            n_arrivals=len(epoch_events),
            demand_units=demand,
            prev_demand_units=(
                prev_demand if prev_demand is not None else demand
            ),
            routed_util=util,
            mean_slack_ms=mean_slack,
            served=served,
            violations=violations,
            burn_rate=burn,
            guard_events=guard_events,
        )
        target, reason = scaler.target(obs)
        target = max(cfg.min_nodes, min(cfg.max_nodes, target))
        before = len(active)
        if target > before:
            provision(target - before)
            action = "up"
        elif target < before:
            protected = rollout.protected()
            for node in sorted(active, reverse=True):
                if len(active) <= target:
                    break
                if node in protected:
                    continue
                active.remove(node)
            action = "down"
        else:
            action = "hold"
        decisions.append(ScaleDecision(
            epoch=epoch,
            scaler=scaler.name,
            action=action,
            from_nodes=before,
            to_nodes=len(active),
            burn_rate=burn,
            demand_units=demand,
            routed_util=util,
            reason=reason,
        ))
        if epoch_entry is not None:
            epoch_entry.update(desired=target, action=action)
            monitor.note_epoch(epoch_entry)
        prev_demand = demand

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
        crashed=tuple(crashed),
        n_rerouted=total_rerouted,
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
