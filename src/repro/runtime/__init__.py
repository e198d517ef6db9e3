"""The Tacker runtime: QoS-aware online kernel scheduling (Section VII).

Pieces:

* :mod:`~repro.runtime.query` — LC queries as kernel sequences and BE
  applications as endless kernel streams;
* :mod:`~repro.runtime.workload` — Poisson query arrivals at a fraction
  of each service's peak load (Section VIII-B);
* :mod:`~repro.runtime.oracle` — ground-truth durations from the GPU
  simulator, memoized (the role real silicon plays in the paper);
* :mod:`~repro.runtime.headroom` — the QoS headroom algebra of
  Eqs. 7 and 9;
* :mod:`~repro.runtime.policies` — the pluggable scheduler-policy
  framework: the slim :class:`SchedulerPolicy` protocol, the
  string-keyed registry, the Tacker kernel manager (fusion + reorder,
  Eq. 8, Tgain selection), the Baymax reorder baseline, and the
  competitor zoo (hfuse, spatial, gpuos, multifuse);
* :mod:`~repro.runtime.server` — the non-preemptive co-location engine
  that plays a policy forward and records latencies, throughput and the
  two pipes' active timelines;
* :mod:`~repro.runtime.system` — offline preparation (PTB transforms,
  fusion search, artifact compilation, model training) + experiment glue;
* :mod:`~repro.runtime.metrics` — Eq. 10 throughput improvement, tail
  latencies, Eq. 11 overlap rates;
* :mod:`~repro.runtime.replay` — trace-driven workload replay: recorded
  or synthesized arrival traces (diurnal, flash-crowd, MMPP bursts,
  tenant churn), the versioned scenario library, and the
  constant-memory streaming result fold;
* :mod:`~repro.runtime.autoscale` — the autoscaling control plane: a
  deterministic epoch loop that sizes the fleet from SLO burn rate and
  demand, survives node crashes by re-routing in-flight queries, and
  rolls predictor refits out behind a canary QoS gate.
"""

from .query import BEApplication, KernelInstance, Query
from .workload import PoissonArrivals, be_application, peak_load_qps
from .oracle import DurationOracle
from .headroom import HeadroomTracker
from .policies import (
    BaymaxPolicy,
    SchedulerPolicy,
    TackerPolicy,
    list_policies,
    policy_from_name,
    register_policy,
)
from .runconfig import RunConfig
from .server import ColocationServer, ServerResult
from .system import TackerSystem, PairOutcome
from .metrics import (
    active_time_breakdown,
    active_time_breakdown_by_service,
    latency_stats,
    latency_stats_by_service,
    throughput_improvement,
)
from .cluster import (
    ClusterDispatcher,
    ClusterManager,
    ClusterNode,
    ClusterResult,
    ClusterSpec,
    NodeSpec,
    default_cluster_spec,
    serve_cluster,
)
from .autoscale import (
    AutoscaleResult,
    AutoscaleSpec,
    RefitPlan,
    SCALER_POLICIES,
    ScalerConfig,
    run_autoscale,
)
from .faults import NodeFault, NodeFaultPlan
from .replay import (
    NAMED_SCENARIOS,
    Scenario,
    StreamingResult,
    Trace,
    list_scenarios,
    load_scenario,
    run_scenario,
    serve_trace,
    synthesize_trace,
)
from .trace_export import (
    cluster_to_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_cluster_trace,
)

__all__ = [
    "BEApplication",
    "KernelInstance",
    "Query",
    "PoissonArrivals",
    "be_application",
    "peak_load_qps",
    "DurationOracle",
    "HeadroomTracker",
    "SchedulerPolicy",
    "BaymaxPolicy",
    "TackerPolicy",
    "register_policy",
    "list_policies",
    "policy_from_name",
    "RunConfig",
    "ColocationServer",
    "ServerResult",
    "TackerSystem",
    "PairOutcome",
    "latency_stats",
    "latency_stats_by_service",
    "active_time_breakdown",
    "active_time_breakdown_by_service",
    "throughput_improvement",
    "ClusterDispatcher",
    "ClusterManager",
    "ClusterNode",
    "ClusterResult",
    "ClusterSpec",
    "NodeSpec",
    "default_cluster_spec",
    "serve_cluster",
    "SCALER_POLICIES",
    "AutoscaleResult",
    "AutoscaleSpec",
    "RefitPlan",
    "ScalerConfig",
    "run_autoscale",
    "NodeFault",
    "NodeFaultPlan",
    "NAMED_SCENARIOS",
    "Trace",
    "Scenario",
    "StreamingResult",
    "list_scenarios",
    "load_scenario",
    "run_scenario",
    "serve_trace",
    "synthesize_trace",
    "to_chrome_trace",
    "write_chrome_trace",
    "cluster_to_chrome_trace",
    "write_cluster_trace",
]
