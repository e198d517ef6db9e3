"""The stable public facade of the reproduction.

``repro.api`` re-exports exactly the surface documented in the README
and tutorial, with an explicit ``__all__`` as the compatibility
contract: symbols listed here keep their names and call signatures
across refactors (internal modules may move underneath), and knob
additions go through :class:`RunConfig` rather than new positional
arguments.  Import from here in anything long-lived::

    from repro.api import TackerSystem, RunConfig

    system = TackerSystem(config=RunConfig(qos_ms=40.0))
    outcome = system.run_pair("resnet50", "fft")

Cluster-scale serving::

    from repro.api import RunConfig, default_cluster_spec, serve_cluster

    spec = default_cluster_spec(4, routing="headroom",
                                run=RunConfig(queries=120))
    result = serve_cluster(spec)
    print(result.fleet_p99_ms, result.improvement)

Scenario replay (see ``docs/scenarios.md``)::

    from repro.api import RunConfig, TackerSystem, load_scenario, run_scenario

    scenario = load_scenario("diurnal")
    system = TackerSystem(config=scenario.run_config())
    result = run_scenario(system, scenario)   # constant-memory fold
    print(result.p99_latency_ms, result.qos_satisfied)

Observability (see ``docs/observability.md``)::

    from repro.api import RunConfig, TackerSystem, telemetry_registry

    system = TackerSystem(config=RunConfig(telemetry=True))
    outcome = system.run_pair("resnet50", "fft")
    print(len(outcome.tacker.telemetry.decisions))
    print(telemetry_registry().prometheus_text())
"""

from __future__ import annotations

from .config import RTX2080TI, V100, GPUConfig, gpu_preset
from .predictor.online import OnlineModelManager
from .runtime.autoscale import (
    AutoscaleResult,
    AutoscaleSpec,
    RefitPlan,
    ScalerConfig,
    run_autoscale,
)
from .runtime.cluster import (
    ClusterDispatcher,
    ClusterManager,
    ClusterNode,
    ClusterResult,
    ClusterSpec,
    NodeSpec,
    default_cluster_spec,
    serve_cluster,
)
from .runtime.faults import FaultPlan, NodeFault, NodeFaultPlan
from .runtime.metrics import (
    active_time_breakdown_by_service,
    latency_stats_by_service,
)
from .runtime.policies import (
    GuardConfig,
    SchedulerPolicy,
    list_policies,
    policy_from_name,
    register_policy,
)
from .runtime.replay import (
    Scenario,
    StreamingResult,
    Trace,
    list_scenarios,
    load_scenario,
    run_scenario,
    serve_trace,
    synthesize_trace,
)
from .runtime.runconfig import RunConfig
from .runtime.server import ColocationServer, ServerResult
from .runtime.system import PairOutcome, TackerSystem
from .runtime.trace_export import (
    cluster_to_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_cluster_trace,
)
from .telemetry import (
    AlertEvent,
    DecisionRecord,
    FlightRecorder,
    FusionCandidate,
    Incident,
    MetricsRegistry,
    ReservationRecord,
    RunTelemetry,
    SLOMonitor,
    SLORule,
    Span,
    attribute_run,
    decision_log_jsonl,
    diagnose_alerts,
    render_incident_html,
    render_incident_text,
    validate_decision_jsonl,
    validate_incident_jsonl,
    write_decision_log,
    write_incidents,
)
from .telemetry import default_rules as default_slo_rules
from .telemetry import load_rules as load_slo_rules
from .telemetry import registry as telemetry_registry

__all__ = [
    # hardware presets
    "GPUConfig",
    "RTX2080TI",
    "V100",
    "gpu_preset",
    # run-level knobs
    "RunConfig",
    # single-GPU serving
    "TackerSystem",
    "PairOutcome",
    "ColocationServer",
    "ServerResult",
    "OnlineModelManager",
    # robustness knobs
    "FaultPlan",
    "NodeFault",
    "NodeFaultPlan",
    "GuardConfig",
    # the scheduler-policy plugin surface
    "SchedulerPolicy",
    "register_policy",
    "list_policies",
    "policy_from_name",
    # cluster-scale serving
    "ClusterManager",
    "ClusterNode",
    "ClusterDispatcher",
    "ClusterSpec",
    "NodeSpec",
    "ClusterResult",
    "default_cluster_spec",
    "serve_cluster",
    # autoscaling control plane
    "AutoscaleSpec",
    "AutoscaleResult",
    "ScalerConfig",
    "RefitPlan",
    "run_autoscale",
    # trace replay + the scenario library
    "Trace",
    "Scenario",
    "StreamingResult",
    "list_scenarios",
    "load_scenario",
    "run_scenario",
    "serve_trace",
    "synthesize_trace",
    # observability
    "RunTelemetry",
    "DecisionRecord",
    "FusionCandidate",
    "ReservationRecord",
    "Span",
    "MetricsRegistry",
    "telemetry_registry",
    "decision_log_jsonl",
    "write_decision_log",
    "validate_decision_jsonl",
    # SLO monitoring + incident forensics
    "SLORule",
    "SLOMonitor",
    "AlertEvent",
    "FlightRecorder",
    "Incident",
    "default_slo_rules",
    "load_slo_rules",
    "diagnose_alerts",
    "attribute_run",
    "write_incidents",
    "validate_incident_jsonl",
    "render_incident_text",
    "render_incident_html",
    "latency_stats_by_service",
    "active_time_breakdown_by_service",
    "to_chrome_trace",
    "write_chrome_trace",
    "cluster_to_chrome_trace",
    "write_cluster_trace",
]
