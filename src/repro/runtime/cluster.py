"""Cluster-level deployment (Section IV) and the cluster serving engine.

Beyond a single private-datacenter GPU, the paper sketches two wider
deployment modes:

* on clouds, fuse an application's kernels only once its *occurrence*
  exceeds an adjustable threshold — compiling fused kernels for one-off
  tenants would waste the 0.9 s/pair offline cost;
* at the cluster level, identify the long-running applications centrally,
  prepare the fused kernels once, and distribute the shared libraries to
  the GPUs "based on the BE applications' location".

``ClusterManager`` implements both: it counts application occurrences
across nodes, triggers the offline fusion pipeline when a pair of
co-resident applications crosses the threshold, and records which nodes
receive which artifact.

The serving engine then actually *runs* traffic at cluster scale.
:class:`ClusterDispatcher` is a planner: it materializes the fleet's
merged LC arrival stream, routes each query online across the replicas
(round-robin, least-outstanding, or QoS-headroom-aware routing that
consults each replica's Eq. 9 reservation state), and rebalances BE
work (an under-utilized node steals a loaded neighbour's BE queue).
The resulting :class:`RoutingPlan` is pure data, so the per-node
simulations — each a run of the replica recipe
(:meth:`~repro.runtime.system.TackerSystem.serve_arrivals`) under the
measured policy *and* the baseline, on its own
:class:`~repro.runtime.system.TackerSystem` — fan out across worker
processes and stay bit-reproducible per seed.  :class:`ClusterResult`
aggregates per-node and fleet-wide QoS satisfaction, p99 latency, and
the Eq. 10 throughput gain over one shared horizon.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from ..config import gpu_preset
from ..errors import SchedulingError
from ..models.zoo import ModelSpec, model_by_name
from .faults import FaultPlan
from .metrics import fleet_improvement, merged_p99_ms, throughput_improvement
from .policies import validate_policy_name
from .query import BEApplication
from .runconfig import DEFAULT_RUN_CONFIG, RunConfig
from .server import ServerResult
from .system import TackerSystem
from ..telemetry.slo import make_monitor, merge_alerts
from .workload import be_application, merged_arrival_stream, solo_query_ms

#: Default occurrence threshold before a workload earns fused kernels.
DEFAULT_OCCURRENCE_THRESHOLD = 3

#: The pluggable routing strategies of the dispatcher.
ROUTING_STRATEGIES = ("roundrobin", "least", "headroom")

#: minimum predicted-utilization gap before a BE-hosting node steals
STEAL_GAP = 0.15

#: arrival process of the dispatcher's merged stream ("paced" | "poisson")
ARRIVAL_PROCESS = "paced"


@dataclass
class ClusterNode:
    """One GPU node: which LC service and BE applications it hosts."""

    name: str
    lc_service: Optional[str] = None
    be_apps: set[str] = field(default_factory=set)


class ClusterManager:
    """Tracks workloads across nodes and stages fused kernels for them."""

    def __init__(
        self,
        system: TackerSystem,
        occurrence_threshold: int = DEFAULT_OCCURRENCE_THRESHOLD,
    ):
        if occurrence_threshold < 1:
            raise SchedulingError("occurrence threshold must be >= 1")
        self.system = system
        self.occurrence_threshold = occurrence_threshold
        self._nodes: dict[str, ClusterNode] = {}
        self._occurrences: Counter[str] = Counter()
        #: node name -> artifact library names staged there
        self.distributed: dict[str, set[str]] = {}

    # -- placement bookkeeping ---------------------------------------------------

    def add_node(self, name: str) -> ClusterNode:
        if name in self._nodes:
            raise SchedulingError(f"node {name!r} already registered")
        node = ClusterNode(name=name)
        self._nodes[name] = node
        self.distributed[name] = set()
        return node

    def node(self, name: str) -> ClusterNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise SchedulingError(f"unknown node {name!r}") from None

    def place_lc(self, node_name: str, lc_name: str) -> None:
        """Record an LC service deployment (one occurrence)."""
        node = self.node(node_name)
        node.lc_service = lc_name
        self._occurrences[f"lc:{lc_name}"] += 1
        self._refresh()

    def place_be(self, node_name: str, be_name: str) -> None:
        """Record a BE application landing on a node (one occurrence)."""
        node = self.node(node_name)
        node.be_apps.add(be_name)
        self._occurrences[f"be:{be_name}"] += 1
        self._refresh()

    def register_replica(
        self, name: str, lc_name: str, be_names: Sequence[str]
    ) -> ClusterNode:
        """Add a node and place its workloads in one step.

        The autoscaling control plane provisions through this: every
        scale-out registers the replica's placements, so occurrence
        counting — and with it fused-kernel staging — follows fleet
        growth instead of only the initial deployment.
        """
        node = self.add_node(name)
        self.place_lc(name, lc_name)
        for be_name in be_names:
            self.place_be(name, be_name)
        return node

    def _refresh(self) -> None:
        """Re-evaluate every node: a workload crossing the threshold can
        unlock fusion staging on *other* nodes hosting the same pair."""
        for node in self._nodes.values():
            self._maybe_prepare(node)

    def occurrences(self, kind: str, name: str) -> int:
        return self._occurrences[f"{kind}:{name}"]

    def is_long_running(self, kind: str, name: str) -> bool:
        """Whether a workload has crossed the occurrence threshold."""
        return self.occurrences(kind, name) >= self.occurrence_threshold

    # -- fusion staging -------------------------------------------------------------

    def _maybe_prepare(self, node: ClusterNode) -> None:
        """Prepare + distribute fused kernels for co-resident pairs whose
        workloads are both long-running."""
        if node.lc_service is None:
            return
        if not self.is_long_running("lc", node.lc_service):
            return
        model = model_by_name(node.lc_service)
        for be_name in sorted(node.be_apps):
            if not self.is_long_running("be", be_name):
                continue
            self._prepare_and_distribute(node, model, be_name)

    def _prepare_and_distribute(
        self, node: ClusterNode, model: ModelSpec, be_name: str
    ) -> None:
        be_app = be_application(be_name, self.system.library)
        self.system.prepare_pair(model, be_app)
        libraries = {
            artifact.library_name
            for artifact in self.system.compiler
            if self._relevant(artifact, model, be_app)
        }
        self.distributed[node.name] |= libraries

    @staticmethod
    def _relevant(artifact, model: ModelSpec, be_app: BEApplication) -> bool:
        lc_kernels = {k.kernel for k in model.kernels}
        be_kernels = {i.name for i in be_app.sequence}
        tc, cd = artifact.key
        return (tc in lc_kernels and cd in be_kernels) or (
            tc in be_kernels and cd in lc_kernels
        )

    # -- reporting -------------------------------------------------------------------

    def staging_report(self) -> dict[str, int]:
        """Libraries staged per node (what the distribution step ships)."""
        return {
            name: len(libraries)
            for name, libraries in self.distributed.items()
        }

    # -- serving hand-off --------------------------------------------------------

    def serving_spec(
        self,
        routing: str = "headroom",
        run: Optional[RunConfig] = None,
        steal: bool = True,
    ) -> "ClusterSpec":
        """A :class:`ClusterSpec` over this manager's registered placements.

        The staged fleet becomes a serving fleet: every registered node
        becomes a replica keeping its placed BE applications, and the
        union of placed LC services becomes the routed service mix (any
        replica can serve any service — that is the routing premise).
        """
        lc_names = sorted(
            {
                node.lc_service
                for node in self._nodes.values()
                if node.lc_service is not None
            }
        )
        if not lc_names:
            raise SchedulingError("no LC service placed on any node")
        nodes = tuple(
            NodeSpec(name=name, be_names=tuple(sorted(node.be_apps)))
            for name, node in sorted(self._nodes.items())
        )
        return ClusterSpec(
            nodes=nodes,
            lc_names=tuple(lc_names),
            routing=routing,
            run=run if run is not None else DEFAULT_RUN_CONFIG,
            steal=steal,
        )


# -- the cluster serving engine ----------------------------------------------------


@dataclass(frozen=True)
class NodeSpec:
    """One replica's static configuration in a serving fleet."""

    name: str
    #: BE applications resident on this node (before work-stealing)
    be_names: tuple = ()
    #: enable the mispredict guard rails on this node's policies
    guard: bool = False
    #: optional per-node fault plan (seeded per node at dispatch time)
    faults: Optional[FaultPlan] = None
    #: registered policy name overriding the cluster-wide
    #: :attr:`ClusterSpec.policy` on this node (heterogeneous fleets);
    #: ``None`` inherits the cluster's choice
    policy: Optional[str] = None

    def __post_init__(self) -> None:
        if self.policy is not None:
            validate_policy_name(self.policy, owner="node policy")


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster serving configuration (the dispatcher's contract)."""

    nodes: tuple
    #: the LC service mix routed across the fleet
    lc_names: tuple = ("resnet50", "vgg19")
    routing: str = "headroom"
    #: run-level knobs: QoS target, per-node load, fleet query count, seed
    run: RunConfig = DEFAULT_RUN_CONFIG
    #: BE work-stealing: an under-utilized node drains a loaded
    #: neighbour's BE queue
    steal: bool = True
    #: the measured policy and the baseline it is compared against
    policy: str = "tacker"
    baseline: str = "baymax"
    #: record per-kernel execution traces on every node (needed for
    #: fleet-wide Chrome-trace export; off by default — it is the one
    #: per-launch allocation the serving hot path otherwise avoids)
    record_kernels: bool = False
    #: SLO alert rules evaluated per node on the measured policy's run
    #: (see ``docs/incidents.md``); empty = monitoring off, a true no-op
    slo_rules: tuple = ()

    def __post_init__(self) -> None:
        if not self.nodes:
            raise SchedulingError("a cluster needs at least one node")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise SchedulingError(f"duplicate node names in {names}")
        if not self.lc_names:
            raise SchedulingError("a cluster needs at least one LC service")
        if self.routing not in ROUTING_STRATEGIES:
            raise SchedulingError(
                f"unknown routing strategy {self.routing!r}; "
                f"choose from {ROUTING_STRATEGIES}"
            )
        validate_policy_name(self.policy, owner="cluster policy")
        validate_policy_name(self.baseline, owner="cluster baseline")


def default_cluster_spec(
    n_nodes: int,
    routing: str = "headroom",
    lc_names: Sequence[str] = ("resnet50", "vgg19"),
    be_names: Sequence[str] = ("fft", "mriq", "cutcp", "sgemm"),
    run: Optional[RunConfig] = None,
    steal: bool = True,
    be_every: int = 1,
    guard: bool = False,
    record_kernels: bool = False,
) -> ClusterSpec:
    """A homogeneous fleet with BE applications rotated across nodes.

    ``be_every`` places a BE application only on every n-th node
    (``be_every=2`` = a BE-sparse fleet, the paper's "based on the BE
    applications' location" — the nodes left BE-less are what
    work-stealing exists for).  ``guard`` enables the mispredict guard
    rails on every node (the production posture: overloaded replicas
    degrade gracefully instead of violating QoS).
    """
    if n_nodes < 1:
        raise SchedulingError("need at least one node")
    if not be_names:
        raise SchedulingError("need at least one BE application")
    if be_every < 1:
        raise SchedulingError("be_every must be >= 1")
    nodes = tuple(
        NodeSpec(
            name=f"node{index}",
            be_names=(
                (be_names[(index // be_every) % len(be_names)],)
                if index % be_every == 0 else ()
            ),
            guard=guard,
        )
        for index in range(n_nodes)
    )
    return ClusterSpec(
        nodes=nodes,
        lc_names=tuple(lc_names),
        routing=routing,
        run=run if run is not None else DEFAULT_RUN_CONFIG,
        steal=steal,
        record_kernels=record_kernels,
    )


class ReplicaState:
    """The dispatcher's live model of one replica.

    Everything here is a *prediction* made at routing time — solo
    service estimates serialized FIFO — mirroring what a front-end
    load balancer can actually know before the node simulates.
    """

    def __init__(self, index: int, qos_ms: float):
        self.index = index
        self.qos_ms = qos_ms
        self.busy_until_ms = 0.0
        #: in-flight reservations: (arrival_ms, service_ms, finish_est_ms)
        self.inflight: list = []
        self.routed_ms = 0.0
        #: sequence number of the last query routed here (LRU tie-break)
        self.routed_seq = -1

    def drain(self, now_ms: float) -> None:
        self.inflight = [
            entry for entry in self.inflight if entry[2] > now_ms
        ]

    def outstanding(self) -> int:
        return len(self.inflight)

    def backlog_ms(self, now_ms: float) -> float:
        return max(0.0, self.busy_until_ms - now_ms)

    def reserved_ms(self, now_ms: float) -> float:
        """Reserved-ahead time: the in-flight queries' remaining work."""
        return sum(
            min(service, max(0.0, finish - now_ms))
            for _, service, finish in self.inflight
        )

    def new_query_slack_ms(self, now_ms: float, service_ms: float) -> float:
        """Eq. 9 slack an arriving query would have on this replica.

        The node serves FIFO and non-preemptively, so a new query joins
        the tail — it cannot delay the queries already reserved — and
        its own slack is the QoS target minus the replica's
        reserved-ahead time minus its own predicted service time.
        """
        return self.qos_ms - self.reserved_ms(now_ms) - service_ms

    def assign(self, now_ms: float, service_ms: float, seq: int) -> None:
        start = max(now_ms, self.busy_until_ms)
        self.busy_until_ms = start + service_ms
        self.inflight.append((now_ms, service_ms, self.busy_until_ms))
        self.routed_ms += service_ms
        self.routed_seq = seq


class RoutingStrategy(ABC):
    """Picks the replica for one arriving query, in arrival order."""

    name = "?"

    def __init__(self):
        #: sequence number of the next routed query (LRU tie-break)
        self._seq = 0

    @abstractmethod
    def choose(
        self,
        now_ms: float,
        service_ms: float,
        replicas: Sequence[ReplicaState],
    ) -> ReplicaState:
        ...

    def route(
        self,
        now_ms: float,
        service_ms: float,
        pool: Sequence[ReplicaState],
    ) -> "tuple[ReplicaState, float]":
        """Route one query: drain the pool, choose, reserve.

        Returns the chosen replica and the query's Eq. 9 slack on it
        from before the reservation.
        """
        for replica in pool:
            replica.drain(now_ms)
        chosen = self.choose(now_ms, service_ms, pool)
        slack = chosen.new_query_slack_ms(now_ms, service_ms)
        chosen.assign(now_ms, service_ms, self._seq)
        self._seq += 1
        return chosen, slack


class RoundRobinRouting(RoutingStrategy):
    """Cycle through the replicas regardless of their state."""

    name = "roundrobin"

    def __init__(self):
        super().__init__()
        self._next = 0

    def choose(self, now_ms, service_ms, replicas):
        chosen = replicas[self._next % len(replicas)]
        self._next += 1
        return chosen


class LeastOutstandingRouting(RoutingStrategy):
    """Fewest in-flight queries wins; backlog, then LRU break ties."""

    name = "least"

    def choose(self, now_ms, service_ms, replicas):
        return min(
            replicas,
            key=lambda r: (
                r.outstanding(), r.backlog_ms(now_ms), r.routed_seq, r.index,
            ),
        )


class HeadroomRouting(RoutingStrategy):
    """Largest Eq. 9 slack for the arriving query wins.

    Consults each replica's reservation state exactly the way the
    node's own kernel manager does (Eq. 9): the in-flight queries'
    remaining service time is reserved ahead of the new arrival, so the
    replica leaving the new query the most QoS slack absorbs it.
    Unlike least-outstanding, this weighs reservations in milliseconds,
    not query counts — one in-flight vgg19 query reserves more than two
    resnet50 queries — which both protects the fleet p99 and preserves
    per-node headroom, the currency the Tacker policy spends on fused
    BE launches.  Idle replicas tie at the maximum slack and are taken
    least-recently-routed first.
    """

    name = "headroom"

    def choose(self, now_ms, service_ms, replicas):
        return min(
            replicas,
            key=lambda r: (
                -r.new_query_slack_ms(now_ms, service_ms),
                r.outstanding(),
                r.routed_seq,
                r.index,
            ),
        )


_ROUTING_CLASSES = {
    "roundrobin": RoundRobinRouting,
    "least": LeastOutstandingRouting,
    "headroom": HeadroomRouting,
}


def routing_strategy(name: str) -> RoutingStrategy:
    """Instantiate a routing strategy by name."""
    try:
        return _ROUTING_CLASSES[name]()
    except KeyError:
        raise SchedulingError(
            f"unknown routing strategy {name!r}; "
            f"choose from {ROUTING_STRATEGIES}"
        ) from None


@dataclass(frozen=True)
class NodeRunSpec:
    """Everything one worker process needs to simulate one replica."""

    gpu: str
    name: str
    #: routed LC traffic: (model_name, arrival_ms) in arrival order
    lc_arrivals: tuple
    #: BE applications resident after work-stealing
    be_names: tuple
    #: BE applications claimed from a loaded neighbour
    stolen: tuple
    run: RunConfig
    horizon_ms: float
    policy: str
    baseline: str
    guard: bool
    faults: Optional[FaultPlan]
    record_kernels: bool = False
    #: SLO alert rules for this node's monitor (empty = off)
    slo_rules: tuple = ()


@dataclass
class RoutingPlan:
    """The dispatcher's output: who serves what, as pure data."""

    spec: ClusterSpec
    horizon_ms: float
    #: per node: routed (model_name, arrival_ms) tuples
    assignments: tuple
    #: per node: BE application names after work-stealing
    be_names: tuple
    #: per node: BE names claimed from a neighbour
    stolen: tuple
    #: (thief, donor, be_name) records
    steals: tuple
    #: per node: predicted LC utilization (routed service time / horizon)
    utilization: tuple

    def node_run_specs(self, gpu: str) -> list:
        """Picklable per-node work items for :func:`run_node`."""
        specs = []
        for index, node in enumerate(self.spec.nodes):
            faults = node.faults
            if faults is not None:
                # Per-node fault seeds: replicas endure independent but
                # reproducible perturbation streams.
                faults = replace(faults, seed=faults.seed + index)
            specs.append(
                NodeRunSpec(
                    gpu=gpu,
                    name=node.name,
                    lc_arrivals=self.assignments[index],
                    be_names=self.be_names[index],
                    stolen=self.stolen[index],
                    run=self.spec.run,
                    horizon_ms=self.horizon_ms,
                    policy=node.policy or self.spec.policy,
                    baseline=self.spec.baseline,
                    guard=node.guard,
                    faults=faults,
                    record_kernels=self.spec.record_kernels,
                    slo_rules=self.spec.slo_rules,
                )
            )
        return specs


class ClusterDispatcher:
    """Routes the fleet's LC arrivals across replicas.

    The dispatcher is a planner: it materializes the merged multi-service
    arrival stream, routes each query *online* (in arrival order, using
    only the predicted solo service times and its own reservation
    bookkeeping — nothing from the future), then plans BE work-stealing
    from the predicted imbalance.  The output plan is pure data, so the
    per-node simulations can fan out across processes and the whole run
    is a deterministic function of the spec and seed.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        gpu: str = "rtx2080ti",
        system: Optional[TackerSystem] = None,
    ):
        self.spec = spec
        self.gpu = gpu
        # Only the oracle (solo durations) and the library are used; a
        # bare system is cheap and shares the persistent duration store.
        self._system = (
            system
            if system is not None
            else TackerSystem(gpu=gpu_preset(gpu), config=spec.run)
        )

    def dispatch(self) -> RoutingPlan:
        spec = self.spec
        run = spec.run
        system = self._system
        models = [model_by_name(name) for name in spec.lc_names]
        stream = merged_arrival_stream(
            models, system.library, system.oracle,
            count=run.queries, seed=run.seed, load=run.load,
            qos_ms=run.qos_ms,
            rate_scale=len(spec.nodes) / len(models),
            process=ARRIVAL_PROCESS,
        )
        service_ms = {
            model.name: solo_query_ms(model, system.library, system.oracle)
            for model in models
        }
        strategy = routing_strategy(spec.routing)
        replicas = [
            ReplicaState(index, run.qos_ms)
            for index in range(len(spec.nodes))
        ]
        assignments: list = [[] for _ in spec.nodes]
        for arrival_ms, lc_name in stream:
            chosen, _ = strategy.route(
                arrival_ms, service_ms[lc_name], replicas
            )
            assignments[chosen.index].append((lc_name, arrival_ms))
        horizon_ms = stream[-1][0] + run.qos_ms
        utilization = tuple(
            replica.routed_ms / horizon_ms for replica in replicas
        )
        be_names, stolen, steals = self._plan_steals(utilization)
        system.flush()
        return RoutingPlan(
            spec=spec,
            horizon_ms=horizon_ms,
            assignments=tuple(tuple(a) for a in assignments),
            be_names=be_names,
            stolen=stolen,
            steals=steals,
            utilization=utilization,
        )

    def _plan_steals(self, utilization):
        """BE work-stealing from the predicted imbalance.

        The donor is the most LC-loaded node that hosts BE work.  Two
        kinds of thief drain its queue:

        * a node with *no* resident BE applications steals always — BE
          streams are endless, so a BE-hosting node's idle time is
          already filled and only a BE-less node truly wastes cycles;
        * a BE-hosting node steals when it sits :data:`STEAL_GAP` of
          predicted utilization below the donor (extra streams to
          interleave into its larger idle share).

        The donor keeps its queue: a steal models an idle node draining
        a shared work queue, not a transfer of ownership.
        """
        spec = self.spec
        be_names = [list(node.be_names) for node in spec.nodes]
        stolen: list = [[] for _ in spec.nodes]
        steals: list = []
        donors = [
            index for index, node in enumerate(spec.nodes) if node.be_names
        ]
        if spec.steal and donors and len(spec.nodes) > 1:
            donor = max(donors, key=lambda i: (utilization[i], -i))
            for index, node in enumerate(spec.nodes):
                if index == donor:
                    continue
                eligible = not node.be_names or (
                    utilization[donor] - utilization[index] > STEAL_GAP
                )
                if not eligible:
                    continue
                for be_name in spec.nodes[donor].be_names:
                    if be_name in be_names[index]:
                        continue
                    be_names[index].append(be_name)
                    stolen[index].append(be_name)
                    steals.append(
                        (node.name, spec.nodes[donor].name, be_name)
                    )
        return (
            tuple(tuple(names) for names in be_names),
            tuple(tuple(names) for names in stolen),
            tuple(steals),
        )


def run_node(spec: NodeRunSpec) -> "NodeResult":
    """Simulate one replica under the measured policy and the baseline.

    Module-level so :func:`repro.experiments.common.parallel_map` can
    pickle it.  Builds a *fresh* :class:`TackerSystem` (online model
    state drifts across runs on a shared system; a fresh one keeps
    repeated cluster runs byte-identical), replays the routed arrivals
    through both policies on identical traces, and pins the run to the
    fleet-wide horizon so per-node throughputs aggregate fairly.
    """
    system = TackerSystem(gpu=gpu_preset(spec.gpu), config=spec.run)
    services = dict.fromkeys(name for name, _ in spec.lc_arrivals)
    # Only the measured policy's run is monitored: alerts compare the
    # deployed scheduler against its SLO, not the baseline.
    monitor = make_monitor(spec.slo_rules, spec.run.qos_ms, source=spec.name)
    results = {}
    # dict.fromkeys dedups policy == baseline (legal under per-node
    # overrides): a second run would see predictor state mutated by the
    # first and break byte-reproducibility.
    for policy_name in dict.fromkeys((spec.policy, spec.baseline)):
        results[policy_name] = system.serve_arrivals(
            policy_name, services, spec.lc_arrivals, spec.be_names,
            guard=spec.guard, faults=spec.faults,
            horizon_ms=spec.horizon_ms, record_kernels=spec.record_kernels,
            monitor=monitor if policy_name == spec.policy else None,
            metric_labels={"node": spec.name},
        )
    system.flush()
    return NodeResult(
        name=spec.name,
        tacker=results[spec.policy],
        baymax=results[spec.baseline],
        n_queries=len(spec.lc_arrivals),
        be_names=spec.be_names,
        stolen=spec.stolen,
        policy=spec.policy,
        baseline=spec.baseline,
        alerts=tuple(monitor.alert_dicts()) if monitor is not None else (),
    )


@dataclass
class NodeResult:
    """One replica's served outcome (measured policy vs. baseline)."""

    name: str
    tacker: ServerResult
    baymax: ServerResult
    n_queries: int
    be_names: tuple
    stolen: tuple
    #: registered names actually served ("" for legacy pickles); the
    #: ``tacker``/``baymax`` field names are historical — a node
    #: override may put any registered policy in either slot
    policy: str = ""
    baseline: str = ""
    #: SLO alerts fired on this node's measured-policy run, as plain
    #: dicts (picklable across the worker boundary); () when off
    alerts: tuple = ()

    @property
    def improvement(self) -> float:
        """Eq. 10 gain on this node; NaN when it hosts no BE work."""
        try:
            return throughput_improvement(self.tacker, self.baymax)
        except SchedulingError:
            return float("nan")

    @property
    def qos_satisfied(self) -> bool:
        """QoS on this node; trivially met when no query was routed.

        Streaming results keep ``latencies_ms`` empty and count served
        queries exactly, so the served count is consulted first — an
        empty list alone must not read as "no traffic".
        """
        served = getattr(self.tacker, "n_queries", None)
        if served is None:
            served = len(self.tacker.latencies_ms)
        if not served:
            return True
        return self.tacker.qos_satisfied


@dataclass
class ClusterResult:
    """Fleet-wide aggregation of one cluster serving run."""

    routing: str
    qos_ms: float
    horizon_ms: float
    nodes: list
    #: (thief, donor, be_name) work-stealing records
    steals: tuple
    #: fleet-wide SLO alerts, merged from every node's monitor and
    #: sorted on (at_ms, source, rule_id); [] when monitoring is off
    alerts: list = field(default_factory=list)

    @property
    def n_queries(self) -> int:
        return sum(node.n_queries for node in self.nodes)

    @property
    def fleet_p99_ms(self) -> float:
        return merged_p99_ms([node.tacker for node in self.nodes])

    @property
    def n_nodes_satisfied(self) -> int:
        return sum(1 for node in self.nodes if node.qos_satisfied)

    @property
    def fleet_qos_satisfied(self) -> bool:
        """The paper's criterion at fleet scale: the merged 99th
        percentile over every served query meets the target.

        Per-node satisfaction (``n_nodes_satisfied``) is reported
        separately: with the fleet's queries spread across replicas, a
        single node's p99 degenerates toward its max latency, which is
        a stricter statistic than the paper evaluates.
        """
        p99 = self.fleet_p99_ms
        if p99 != p99:  # no LC traffic anywhere: trivially satisfied
            return True
        return p99 <= self.qos_ms * 1.0001

    @property
    def fleet_be_work_ms(self) -> float:
        return sum(node.tacker.total_be_work_ms for node in self.nodes)

    @property
    def baseline_be_work_ms(self) -> float:
        return sum(node.baymax.total_be_work_ms for node in self.nodes)

    @property
    def improvement(self) -> float:
        """Eq. 10 throughput gain of the fleet over the baseline fleet."""
        return fleet_improvement(
            [node.tacker for node in self.nodes],
            [node.baymax for node in self.nodes],
        )


#: Signature of the fan-out hook: (fn, items) -> results, in order.
MapFn = Callable[[Callable[[NodeRunSpec], NodeResult], Sequence[NodeRunSpec]],
                 Sequence[NodeResult]]


def serve_cluster(
    spec: ClusterSpec,
    gpu: str = "rtx2080ti",
    system: Optional[TackerSystem] = None,
    map_fn: Optional[MapFn] = None,
) -> ClusterResult:
    """Plan routing for a fleet, then simulate every replica.

    ``map_fn`` lets callers fan the per-node simulations out — the
    experiments layer passes :func:`~repro.experiments.common.
    parallel_map` — while the default is a serial map.  Either way the
    result is identical: routing happens up front, every node simulates
    from a fresh system, and all randomness is seeded by the spec.
    """
    dispatcher = ClusterDispatcher(spec, gpu=gpu, system=system)
    plan = dispatcher.dispatch()
    run_specs = plan.node_run_specs(gpu)
    if map_fn is None:
        nodes = [run_node(run_spec) for run_spec in run_specs]
    else:
        nodes = list(map_fn(run_node, run_specs))
    return ClusterResult(
        routing=spec.routing,
        qos_ms=spec.run.qos_ms,
        horizon_ms=plan.horizon_ms,
        nodes=nodes,
        steals=plan.steals,
        alerts=merge_alerts([node.alerts for node in nodes]),
    )
