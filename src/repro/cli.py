"""Command-line interface.

Usage::

    python -m repro kernels                      # kernel library
    python -m repro models                       # LC services
    python -m repro fuse tgemm_l fft             # fuse one pair
    python -m repro run-pair resnet50 fft        # Tacker vs Baymax
    python -m repro run-cluster --nodes 4        # fleet serving sweep
    python -m repro run-scenario diurnal         # replay one scenario
    python -m repro trace resnet50 fft out.json  # Chrome trace export
    python -m repro report [--full]              # aggregate report
"""

from __future__ import annotations

import argparse
import sys

from .config import gpu_preset


def _peak_rss_mb() -> "float | None":
    """Peak RSS of this process in MB (None without ``resource``).

    ``getrusage().ru_maxrss`` is platform-dependent: kilobytes on Linux
    (and most Unixes), but *bytes* on macOS — an unconditional /1024
    would read a darwin peak 1024x too large and trip the
    ``--max-rss-mb`` gate on every healthy run.
    """
    try:
        import resource
    except ImportError:  # non-Unix: no rusage, the gate is unavailable
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _add_slo_arguments(command) -> None:
    """The shared SLO-monitoring flags of the serving commands."""
    command.add_argument(
        "--slo-rules", default=None, metavar="SPEC",
        help="attach the observe-only SLO monitor: 'default' for the "
             "stock rule set, or a path to a repro-slo-rules/1 JSON "
             "file (see docs/incidents.md); omitted = monitoring off",
    )
    command.add_argument(
        "--incidents-out", default=None, metavar="PATH",
        help="diagnose every fired alert and write the forensic "
             "incident reports as repro-incident/1 JSONL "
             "(needs --slo-rules)",
    )


def _handle_incidents(args, alerts) -> None:
    """Report fired alerts and write the forensic JSONL if asked."""
    import pathlib

    from .telemetry.forensics import attribute_run, diagnose_alerts
    from .telemetry.forensics import write_incidents as _write

    print(f"slo: {len(alerts)} alerts fired")
    if args.incidents_out is None:
        return
    incidents = diagnose_alerts(alerts)
    path = pathlib.Path(args.incidents_out)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write(str(path), incidents)
    if incidents:
        top, _ = attribute_run(alerts)
        print(f"incidents: wrote {len(incidents)} to {path} "
              f"(top cause: {top})")
    else:
        print(f"incidents: wrote 0 to {path}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tacker (HPCA 2022) reproduction toolkit",
    )
    parser.add_argument(
        "--gpu", default="rtx2080ti", help="GPU preset (rtx2080ti | v100)"
    )
    parser.add_argument(
        "--workers", default=None,
        help="worker processes for pair sweeps (an int, or 'auto'; "
             "same as setting REPRO_WORKERS)",
    )
    parser.add_argument(
        "--perf", action="store_true",
        help="print wall clock and simulation-cache counters after "
             "the command",
    )
    parser.add_argument(
        "--audit", action="store_true",
        help="enable the runtime invariant auditor (see docs/auditing.md); "
             "violations abort with an AuditViolation, and a per-invariant "
             "check summary prints after the command",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="enable structured telemetry (span tracing, the scheduler "
             "decision log and the metrics registry; see "
             "docs/observability.md); a metrics summary prints after "
             "the command",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("kernels", help="list the kernel library")
    commands.add_parser("models", help="list the LC services")

    fuse = commands.add_parser("fuse", help="fuse one TC/CD kernel pair")
    fuse.add_argument("tc_kernel")
    fuse.add_argument("cd_kernel")
    fuse.add_argument("--source", action="store_true",
                      help="print the fused kernel source")

    pair = commands.add_parser(
        "run-pair", help="co-locate one LC service with one BE app"
    )
    pair.add_argument("lc_model")
    pair.add_argument("be_app")
    pair.add_argument("--queries", type=int, default=100)
    pair.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject faults, e.g. 'noise=0.3,bias=0.9,drop=0.05,"
             "burst=0.1' (keys: noise, bias, stale, delay, delay_factor,"
             " drop, burst, burst_size, seed)",
    )
    pair.add_argument(
        "--guard", action="store_true",
        help="enable the mispredict guard rails (headroom inflation, "
             "graceful degradation, BE admission control)",
    )

    cluster = commands.add_parser(
        "run-cluster",
        help="serve LC traffic across a replicated fleet and write the "
             "cluster-scale sweep table",
    )
    cluster.add_argument("--nodes", type=int, default=4)
    cluster.add_argument(
        "--routing", default="headroom",
        help="LC routing strategy (roundrobin | least | headroom)",
    )
    cluster.add_argument(
        "--lc", default="resnet50,vgg19", metavar="NAMES",
        help="comma-separated LC services in the traffic mix",
    )
    cluster.add_argument(
        "--be", default="fft,mriq,cutcp,sgemm", metavar="NAMES",
        help="comma-separated BE applications rotated across the fleet",
    )
    cluster.add_argument("--queries", type=int, default=None)
    cluster.add_argument("--load", type=float, default=None)
    cluster.add_argument("--qos", type=float, default=None, metavar="MS")
    cluster.add_argument("--seed", type=int, default=None)
    cluster.add_argument(
        "--no-steal", action="store_true",
        help="disable BE work-stealing onto idle nodes",
    )
    cluster.add_argument(
        "--no-guard", action="store_true",
        help="serve without the mispredict guard rails",
    )
    cluster.add_argument(
        "--be-every", type=int, default=2, metavar="N",
        help="place a BE application on every N-th node (default 2: "
             "a BE-sparse fleet, the case work-stealing exists for)",
    )
    cluster.add_argument(
        "--out", default="benchmarks/results/cluster_scale.txt",
        help="where to write the sweep table",
    )
    cluster.add_argument(
        "--no-sweep", action="store_true",
        help="only serve the requested fleet; skip the full "
             "nodes x load x routing sweep and its table",
    )
    _add_slo_arguments(cluster)

    autoscale = commands.add_parser(
        "run-autoscale",
        help="run the autoscaling control loop over a scenario",
    )
    autoscale.add_argument(
        "scenario", nargs="?", default="diurnal",
        help="scenario name or path (default: diurnal)",
    )
    autoscale.add_argument(
        "--scaler", default="burnrate",
        help="fleet-sizing policy (static | reactive | burnrate)",
    )
    autoscale.add_argument(
        "--rate-nodes", type=int, default=8, metavar="N",
        help="node-worths of traffic in the trace (also the static "
             "baseline's fleet size)",
    )
    autoscale.add_argument("--span-ms", type=float, default=20000.0)
    autoscale.add_argument("--epoch-ms", type=float, default=1000.0)
    autoscale.add_argument(
        "--routing", default="headroom",
        help="LC routing strategy (roundrobin | least | headroom)",
    )
    autoscale.add_argument(
        "--crash", action="append", default=[], metavar="NODE@MS",
        help="crash a replica mid-run, e.g. --crash 0@2500 (repeatable)",
    )
    autoscale.add_argument(
        "--slow", action="append", default=[], metavar="NODE@MS:FACTOR",
        help="silently slow a replica's kernels, e.g. --slow 1@0:3 "
             "(repeatable)",
    )
    autoscale.add_argument(
        "--flap", action="append", default=[], metavar="NODE@MS:DOWN/UP",
        help="flap a replica, e.g. --flap 2@1000:500/1500 (repeatable)",
    )
    autoscale.add_argument(
        "--refit-bias", type=float, default=None, metavar="BIAS",
        help="roll out a predictor refit with this bias behind the "
             "canary QoS gate (1.0 = faithful refit)",
    )
    autoscale.add_argument(
        "--sweep", action="store_true",
        help="also run the full scaler x scenario sweep and write "
             "its table (minutes of simulation)",
    )
    autoscale.add_argument(
        "--out", default="benchmarks/results/autoscale.txt",
        help="where --sweep writes the table",
    )
    _add_slo_arguments(autoscale)

    scenario = commands.add_parser(
        "run-scenario",
        help="replay one scenario from the versioned library "
             "(scenarios/*.json) through the streaming server loop",
    )
    scenario.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario name (e.g. diurnal) or a path to a scenario JSON",
    )
    scenario.add_argument(
        "--list", action="store_true",
        help="list the scenario library and exit",
    )
    scenario.add_argument(
        "--policy", default="tacker",
        help="any registered scheduler policy (see `repro policies`)",
    )
    scenario.add_argument(
        "--queries", type=int, default=None,
        help="override the scenario's query count (e.g. 1000000 for a "
             "long-horizon replay)",
    )
    scenario.add_argument(
        "--quick", action="store_true",
        help="use the scenario's quick_queries count",
    )
    scenario.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the folded run summary as JSON",
    )
    scenario.add_argument(
        "--json", action="store_true",
        help="print the folded run summary JSON instead of the text recap",
    )
    scenario.add_argument(
        "--record", default=None, metavar="PATH",
        help="write the arrival trace as JSONL before serving "
             "(replayable with --replay)",
    )
    scenario.add_argument(
        "--replay", default=None, metavar="PATH",
        help="serve a recorded JSONL trace instead of synthesizing one",
    )
    scenario.add_argument(
        "--max-rss-mb", type=float, default=None, metavar="MB",
        help="fail (exit 2) if the process peak RSS exceeds this ceiling "
             "after the run — the nightly long-horizon memory gate",
    )
    scenario.add_argument(
        "--no-stream", action="store_true",
        help="use the list-based result instead of the constant-memory "
             "streaming fold (small runs only)",
    )
    scenario.add_argument(
        "--require-qos", action="store_true",
        help="exit 1 when the run misses its QoS target (off by default: "
             "overload scenarios miss by design)",
    )
    _add_slo_arguments(scenario)

    incidents = commands.add_parser(
        "incidents",
        help="validate an incident JSONL file (repro-incident/1) and "
             "print its forensic timeline",
    )
    incidents.add_argument(
        "path", help="incident JSONL written by --incidents-out",
    )
    incidents.add_argument(
        "--html", default=None, metavar="PATH",
        help="also render the timeline as a standalone HTML report",
    )
    incidents.add_argument(
        "--json", action="store_true",
        help="print the raw incident records instead of the text "
             "timeline",
    )

    tournament = commands.add_parser(
        "run-tournament",
        help="rank every registered scheduler policy across the "
             "scenario library (one ranked table per scenario)",
    )
    tournament.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="restrict the bracket to one scenario (repeatable)",
    )
    tournament.add_argument(
        "--policy", action="append", default=None, metavar="NAME",
        help="restrict the bracket to one policy (repeatable)",
    )
    tournament.add_argument(
        "--quick", action="store_true",
        help="use each scenario's quick query count",
    )
    tournament.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the rendered table to this file "
             "(benchmarks/results/tournament.txt in CI)",
    )

    commands.add_parser(
        "policies",
        help="list the scheduler-policy registry (name, module, "
             "description)",
    )

    trace = commands.add_parser(
        "trace", help="export a co-location run as a Chrome trace"
    )
    trace.add_argument("lc_model")
    trace.add_argument("be_app")
    trace.add_argument("output", help="output JSON path")
    trace.add_argument("--queries", type=int, default=20)
    trace.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="render an N-node cluster run as one multi-process "
             "Perfetto trace instead of a single-server run",
    )

    metrics = commands.add_parser(
        "metrics",
        help="run one co-location pair with telemetry on and print the "
             "metrics registry (Prometheus text exposition)",
    )
    metrics.add_argument("lc_model")
    metrics.add_argument("be_app")
    metrics.add_argument("--queries", type=int, default=20)
    metrics.add_argument(
        "--json", action="store_true",
        help="print the JSON snapshot instead of Prometheus text",
    )
    metrics.add_argument(
        "--decisions", default=None, metavar="PATH",
        help="also export the scheduler decision log as JSONL to PATH",
    )

    report = commands.add_parser("report", help="aggregate reproduction report")
    report.add_argument("--full", action="store_true")
    return parser


def _cmd_kernels(args) -> int:
    from .kernels import default_library

    gpu = gpu_preset(args.gpu)
    library = default_library()
    print(f"{'kernel':<16}{'kind':<6}{'threads':>8}{'shmem KB':>10}"
          f"{'grid':>8}  tags")
    for kernel in sorted(library, key=lambda k: (k.kind, k.name)):
        print(f"{kernel.name:<16}{kernel.kind:<6}"
              f"{kernel.resources.threads:>8}"
              f"{kernel.resources.shared_mem_bytes // 1024:>10}"
              f"{kernel.default_grid:>8}  {', '.join(sorted(kernel.tags))}")
    print(f"\n{len(library)} kernels; GPU preset: {gpu.name}")
    return 0


def _cmd_models(args) -> int:
    from .models.zoo import LC_MODEL_FACTORIES

    print(f"{'model':<12}{'batch':>6}{'kernels':>9}{'TC':>5}{'CD':>5}"
          f"{'fusable TC':>12}")
    for factory in LC_MODEL_FACTORIES:
        spec = factory()
        print(f"{spec.name:<12}{spec.batch_size:>6}{spec.n_kernels:>9}"
              f"{len(spec.tc_kernels):>5}{len(spec.cd_kernels):>5}"
              f"{spec.fusable_tc_fraction:>11.0%}")
    return 0


def _cmd_fuse(args) -> int:
    from .fusion import FusionSearch, ptb_transform
    from .kernels import default_library

    gpu = gpu_preset(args.gpu)
    library = default_library()
    tc = ptb_transform(library.get(args.tc_kernel), gpu)
    cd = ptb_transform(library.get(args.cd_kernel), gpu)
    decision = FusionSearch(gpu).search(tc, cd)
    if not decision.should_fuse:
        print(f"{args.tc_kernel} + {args.cd_kernel}: sequential wins — "
              "not fused")
        return 1
    best = decision.best
    print(f"fused at ratio {best.ratio}; "
          f"{decision.speedup_over_serial:.2f}x over serial; "
          f"overlap {best.corun.overlap:.2f}")
    if args.source:
        print(best.fused.source.render())
    return 0


def _cmd_run_pair(args) -> int:
    from .experiments.common import get_system

    faults = guard = None
    if args.faults or args.guard:
        from .runtime.faults import FaultPlan
        from .runtime.policies import GuardConfig
        from .runtime.system import TackerSystem

        if args.faults:
            faults = FaultPlan.parse(args.faults)
        if args.guard:
            guard = GuardConfig()
        system = TackerSystem(
            gpu=gpu_preset(args.gpu), faults=faults, guard=guard
        )
    else:
        system = get_system(args.gpu)
    outcome = system.run_pair(
        args.lc_model, args.be_app, n_queries=args.queries
    )
    print(f"{outcome.lc_name} + {outcome.be_name} "
          f"({args.queries} queries, QoS {system.qos_ms:.0f} ms)")
    print(f"  improvement over Baymax: {outcome.improvement:+.1%}")
    print(f"  Tacker p99: {outcome.tacker.p99_latency_ms:.1f} ms | "
          f"Baymax p99: {outcome.baymax.p99_latency_ms:.1f} ms")
    print(f"  fused launches: {outcome.tacker.n_fused_kernels}")
    tacker = outcome.tacker
    if faults is not None:
        events = ", ".join(
            f"{key}={value}" for key, value in tacker.fault_events.items()
        )
        print(f"  faults injected: {events or 'none'}")
        print(f"  BE dropped/delayed: {tacker.n_dropped_be}"
              f"/{tacker.n_delayed_be}")
    if guard is not None:
        modes = ", ".join(
            f"{mode}={count}"
            for mode, count in tacker.guard_mode_decisions.items()
        )
        print(f"  guard decisions: {modes}")
        print(f"  BE shed/deferred: {tacker.n_shed_be}"
              f"/{tacker.n_deferred_be}")
    print(f"  QoS satisfied: {'yes' if outcome.qos_satisfied else 'NO'}")
    return 0 if outcome.qos_satisfied else 1


def _cmd_run_cluster(args) -> int:
    import math
    import pathlib

    from .experiments import cluster_scale
    from .experiments.common import parallel_map
    from .runtime.cluster import default_cluster_spec, serve_cluster
    from .runtime.runconfig import RunConfig

    run_cfg = RunConfig().with_overrides(
        qos_ms=args.qos, load=args.load, queries=args.queries,
        seed=args.seed,
    )
    spec = default_cluster_spec(
        args.nodes,
        routing=args.routing,
        lc_names=tuple(args.lc.split(",")),
        be_names=tuple(args.be.split(",")),
        run=run_cfg,
        steal=not args.no_steal,
        be_every=args.be_every,
        guard=not args.no_guard,
    )
    if args.slo_rules is not None:
        from dataclasses import replace

        from .telemetry.slo import resolve_rules

        spec = replace(
            spec, slo_rules=resolve_rules(args.slo_rules, run_cfg.qos_ms)
        )
    result = serve_cluster(spec, gpu=args.gpu, map_fn=parallel_map)
    print(f"{args.nodes} nodes | routing {result.routing} | "
          f"QoS {result.qos_ms:.0f} ms | load {run_cfg.load} | "
          f"horizon {result.horizon_ms:.0f} ms")
    print(f"{'node':<8}{'queries':>9}{'BE apps':>18}{'be work ms':>12}"
          f"{'gain':>8}{'p99 ms':>8}  qos")
    for node in result.nodes:
        # be_names already includes stolen apps; mark those with '*'
        apps = ",".join(
            name + ("*" if name in node.stolen else "")
            for name in node.be_names
        ) or "-"
        gain = (
            f"{node.improvement:+.1%}"
            if not math.isnan(node.improvement) else "-"
        )
        print(f"{node.name:<8}{node.n_queries:>9}{apps:>18}"
              f"{node.tacker.total_be_work_ms:>12.1f}{gain:>8}"
              f"{node.tacker.p99_latency_ms:>8.2f}  "
              f"{'yes' if node.qos_satisfied else 'NO'}")
    if result.steals:
        moves = ", ".join(
            f"{be} {donor}->{thief}" for thief, donor, be in result.steals
        )
        print(f"steals: {moves}")
    print(f"fleet: be work {result.fleet_be_work_ms:.1f} ms | "
          f"gain {result.improvement:+.1%} | "
          f"p99 {result.fleet_p99_ms:.2f} ms | "
          f"QoS {'yes' if result.fleet_qos_satisfied else 'NO'} "
          f"({result.n_nodes_satisfied}/{len(result.nodes)} nodes)")
    if args.slo_rules is not None:
        _handle_incidents(args, result.alerts)
    if not args.no_sweep:
        sweep = cluster_scale.run(gpu=args.gpu)
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(cluster_scale.render(sweep))
        summary = sweep.summary()
        print(f"\nsweep: wrote {path} "
              f"({summary['n_cells']} cells, headroom vs roundrobin "
              f"{summary['headroom_vs_roundrobin_be_pct']:+.2f}% BE work)")
    return 0 if result.fleet_qos_satisfied else 1


def _parse_node_faults(args):
    from .runtime.faults import NodeFault, NodeFaultPlan

    faults = []
    for text in args.crash:
        node, at_ms = text.split("@", 1)
        faults.append(NodeFault(
            kind="crash", node=int(node), at_ms=float(at_ms),
        ))
    for text in args.slow:
        node, rest = text.split("@", 1)
        at_ms, factor = rest.split(":", 1)
        faults.append(NodeFault(
            kind="slow", node=int(node), at_ms=float(at_ms),
            factor=float(factor),
        ))
    for text in args.flap:
        node, rest = text.split("@", 1)
        at_ms, windows = rest.split(":", 1)
        down_ms, up_ms = windows.split("/", 1)
        faults.append(NodeFault(
            kind="flap", node=int(node), at_ms=float(at_ms),
            down_ms=float(down_ms), up_ms=float(up_ms),
        ))
    return NodeFaultPlan(faults=tuple(faults))


def _cmd_run_autoscale(args) -> int:
    import pathlib

    from .experiments.common import parallel_map
    from .runtime.autoscale import (
        AutoscaleSpec, RefitPlan, ScalerConfig, run_autoscale,
    )

    refit = None
    if args.refit_bias is not None:
        refit = RefitPlan(bias=args.refit_bias, noise=0.1)
    slo_rules = ()
    if args.slo_rules is not None:
        from .runtime.replay import load_scenario
        from .telemetry.slo import resolve_rules

        slo_rules = resolve_rules(
            args.slo_rules, load_scenario(args.scenario).qos_ms
        )
    spec = AutoscaleSpec(
        scenario=args.scenario,
        scaler=ScalerConfig(policy=args.scaler),
        epoch_ms=args.epoch_ms,
        span_ms=args.span_ms,
        rate_nodes=args.rate_nodes,
        routing=args.routing,
        node_faults=_parse_node_faults(args),
        refit=refit,
        slo_rules=slo_rules,
    )
    result = run_autoscale(spec, gpu=args.gpu, map_fn=parallel_map)
    print(f"{args.scenario} | scaler {args.scaler} | "
          f"{result.n_epochs} epochs x {spec.epoch_ms:.0f} ms | "
          f"{spec.rate_nodes} node-worths of traffic | "
          f"QoS {result.qos_ms:.0f} ms")
    print(f"{'epoch':<6}{'nodes':>6}{'arrivals':>9}{'demand':>8}"
          f"{'util':>7}{'burn':>7}{'p99 ms':>8}{'reroute':>8}  decision")
    decisions = {d.epoch: d for d in result.decisions}
    for e in result.epochs:
        decision = decisions.get(e.epoch)
        what = (
            f"{decision.action} -> {decision.to_nodes} ({decision.reason})"
            if decision is not None else "-"
        )
        print(f"{e.epoch:<6}{e.n_nodes:>6}{e.n_arrivals:>9}"
              f"{e.demand_units:>8.2f}{e.routed_util:>7.3f}"
              f"{e.burn_rate:>7.2f}{e.p99_ms:>8.2f}"
              f"{e.n_rerouted:>8}  {what}")
    for event in result.rollout_events:
        print(f"rollout: epoch {event.epoch} {event.action} "
              f"nodes {list(event.nodes)} "
              f"canary p99 {event.canary_p99_ms:.2f} "
              f"vs fleet {event.control_p99_ms:.2f}")
    summary = result.summary_dict()
    print(f"fleet: {summary['queries']} queries | "
          f"p99 {summary['p99_ms']:.2f} ms | "
          f"QoS {'yes' if result.qos_satisfied else 'NO'} | "
          f"node-s {summary['node_seconds']:.1f} "
          f"({summary['saved_vs_static_pct']:+.1f}% vs static) | "
          f"rerouted {summary['rerouted']} | "
          f"rollout {summary['rollout']}")
    if args.slo_rules is not None:
        _handle_incidents(args, result.alerts)
    if args.sweep:
        from .experiments import autoscale as autoscale_experiment

        sweep = autoscale_experiment.run(gpu=args.gpu)
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(autoscale_experiment.render(sweep))
        print(f"\nsweep: wrote {path} ({len(sweep.cells)} cells)")
    return 0 if result.qos_satisfied else 1


def _cmd_run_scenario(args) -> int:
    import json
    import pathlib
    import time

    from .runtime.replay import (
        Trace,
        list_scenarios,
        load_scenario,
        run_scenario,
        synthesize_trace,
    )
    from .runtime.runconfig import RunConfig
    from .runtime.system import TackerSystem

    if args.list:
        for name in list_scenarios():
            entry = load_scenario(name)
            print(f"{name:<14}kind={entry.arrival['kind']:<13}"
                  f"lc={','.join(entry.lc_services):<28}"
                  f"be={','.join(entry.be_apps)}")
        return 0
    if args.scenario is None:
        raise SystemExit("run-scenario needs a scenario name (or --list)")
    scenario = load_scenario(args.scenario)
    if args.queries is not None:
        n_queries = args.queries
    else:
        n_queries = scenario.n_queries(quick=args.quick)
    # The policy rides in the config: an unknown name fails here, with
    # the registry's did-you-mean message, not minutes into the run.
    config = RunConfig(
        qos_ms=scenario.qos_ms, load=scenario.load, queries=n_queries,
        seed=scenario.seed, scenario=scenario.name, policy=args.policy,
    )
    system = TackerSystem(gpu=gpu_preset(args.gpu), config=config)
    start = time.perf_counter()
    if args.replay is not None:
        trace = Trace.read_jsonl(args.replay)
        if args.queries is not None:
            trace = trace.prefix(args.queries)
    else:
        trace = synthesize_trace(
            scenario, system.library, system.oracle, n_queries=n_queries
        )
    if args.record is not None:
        path = trace.write_jsonl(args.record)
        print(f"recorded {len(trace)} arrivals to {path}")
    monitor = None
    if args.slo_rules is not None:
        from .telemetry.slo import make_monitor, resolve_rules

        monitor = make_monitor(
            resolve_rules(args.slo_rules, scenario.qos_ms),
            scenario.qos_ms, source=scenario.name,
        )
    result = run_scenario(
        system, scenario, policy_name=args.policy, trace=trace,
        streaming=not args.no_stream, monitor=monitor,
    )
    wall = time.perf_counter() - start
    if hasattr(result, "summary_dict"):
        summary = result.summary_dict()
    else:  # --no-stream: reduce the list-based result the same way
        from .runtime.metrics import latency_stats

        summary = {
            "schema": "repro-replay-summary/1",
            "qos_ms": result.qos_ms,
            "horizon_ms": result.horizon_ms,
            "queries": len(result.latencies_ms),
            "qos_satisfied": bool(result.qos_satisfied),
            "total_be_work_ms": result.total_be_work_ms,
            "be_throughput": result.be_throughput,
            **{f"latency_{k}": v
               for k, v in latency_stats(result).items()},
        }
    summary["scenario"] = scenario.name
    summary["policy"] = args.policy
    summary["wall_s"] = round(wall, 3)
    if monitor is not None:
        # keyed only when monitoring is on, so a monitor-less run's
        # summary JSON stays byte-identical to pre-monitor builds
        summary["alerts"] = len(result.alerts)
    max_rss_mb = _peak_rss_mb()
    if max_rss_mb is not None:
        summary["max_rss_mb"] = round(max_rss_mb, 1)
    if args.out is not None:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
        print(f"wrote summary to {out}")
    if args.json:
        print(json.dumps(summary, sort_keys=True, indent=2))
    else:
        p99 = summary.get("p99_latency_ms",
                          summary.get("latency_p99_ms", float("nan")))
        print(f"{scenario.name} | {args.policy} | {len(trace)} queries | "
              f"horizon {trace.horizon_ms(scenario.qos_ms) / 1000:.1f} s")
        print(f"  p99 {p99:.2f} ms (target {scenario.qos_ms:.0f} ms) | "
              f"QoS {'yes' if summary['qos_satisfied'] else 'NO'} | "
              f"BE work {summary['total_be_work_ms']:.1f} ms")
        rss = f" | peak RSS {max_rss_mb:.0f} MB" if max_rss_mb else ""
        print(f"  wall {wall:.2f} s{rss}")
    if monitor is not None:
        _handle_incidents(args, result.alerts)
    if args.max_rss_mb is not None:
        if max_rss_mb is None:
            raise SystemExit("--max-rss-mb needs the resource module")
        if max_rss_mb > args.max_rss_mb:
            print(f"memory ceiling exceeded: {max_rss_mb:.1f} MB > "
                  f"{args.max_rss_mb:.1f} MB")
            return 2
        print(f"memory ceiling ok: {max_rss_mb:.1f} MB <= "
              f"{args.max_rss_mb:.1f} MB")
    if args.require_qos and not summary["qos_satisfied"]:
        return 1
    return 0


def _cmd_trace(args) -> int:
    from .models.zoo import model_by_name
    from .runtime.system import TackerSystem
    from .runtime.trace_export import write_chrome_trace, write_cluster_trace
    from .runtime.workload import be_application

    if args.nodes is not None:
        from . import telemetry
        from .experiments.common import parallel_map
        from .runtime.cluster import default_cluster_spec, serve_cluster
        from .runtime.runconfig import RunConfig

        spec = default_cluster_spec(
            args.nodes,
            lc_names=(args.lc_model,),
            be_names=(args.be_app,),
            run=RunConfig(queries=args.queries, telemetry=telemetry.active()),
            record_kernels=True,
        )
        cluster = serve_cluster(spec, gpu=args.gpu, map_fn=parallel_map)
        path = write_cluster_trace(cluster, args.output)
        events = sum(len(node.tacker.executed) for node in cluster.nodes)
        print(f"wrote {events} kernel events across {args.nodes} nodes "
              f"to {path} (open in chrome://tracing or Perfetto)")
        return 0
    system = TackerSystem(gpu=gpu_preset(args.gpu))
    model = model_by_name(args.lc_model)
    system.prepare_pair(model, be_application(args.be_app, system.library))
    result = system.run_custom(
        model, [args.be_app], system.make_policy("tacker"),
        n_queries=args.queries, record_kernels=True,
    )
    path = write_chrome_trace(result, args.output)
    print(f"wrote {len(result.executed)} kernel events to {path} "
          "(open in chrome://tracing or Perfetto)")
    return 0


def _cmd_metrics(args) -> int:
    import os

    from . import telemetry
    from .experiments.common import get_system
    from .telemetry import write_decision_log

    # The whole point of this command is the registry output, so the
    # switch is forced on regardless of --telemetry / REPRO_TELEMETRY.
    telemetry.enable()
    os.environ["REPRO_TELEMETRY"] = "1"
    system = get_system(args.gpu)
    outcome = system.run_pair(
        args.lc_model, args.be_app, n_queries=args.queries
    )
    registry = telemetry.registry()
    if args.json:
        import json

        print(json.dumps(registry.json_snapshot(), sort_keys=True,
                         indent=2))
    else:
        print(registry.prometheus_text(), end="")
    session = outcome.tacker.telemetry
    if args.decisions is not None:
        if session is None:
            raise SystemExit("no decision log recorded (telemetry is off?)")
        write_decision_log(session.decisions, args.decisions)
        print(f"wrote {len(session.decisions)} decision records to "
              f"{args.decisions}")
    return 0


def _cmd_incidents(args) -> int:
    import json

    from .telemetry.forensics import (
        read_incidents,
        render_incident_html,
        render_incident_text,
        validate_incident_jsonl,
    )

    count = validate_incident_jsonl(args.path)
    incidents = read_incidents(args.path)
    if args.json:
        for record in incidents:
            print(json.dumps(record, sort_keys=True))
    else:
        print(f"{args.path}: {count} incidents (schema valid)")
        print()
        print(render_incident_text(incidents), end="")
    if args.html is not None:
        import pathlib

        html = render_incident_html(incidents)
        path = pathlib.Path(args.html)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(html)
        print(f"wrote HTML timeline to {path}")
    return 0


def _cmd_run_tournament(args) -> int:
    from .experiments import tournament

    argv = []
    if args.quick:
        argv.append("--quick")
    for name in args.scenario or ():
        argv.extend(["--scenario", name])
    for name in args.policy or ():
        argv.extend(["--policy", name])
    if args.out:
        argv.extend(["--out", args.out])
    return tournament.main(argv)


def _cmd_policies(args) -> int:
    from .runtime.policies import policy_entries

    entries = policy_entries()
    width = max(len(entry.name) for entry in entries) + 2
    mod_width = max(len(entry.module) for entry in entries) + 2
    print(f"{'policy':<{width}}{'module':<{mod_width}}description")
    for entry in entries:
        print(f"{entry.name:<{width}}{entry.module:<{mod_width}}"
              f"{entry.description}")
    return 0


def _cmd_report(args) -> int:
    from .experiments import report

    return report.main(["--full"] if args.full else [])


_COMMANDS = {
    "kernels": _cmd_kernels,
    "models": _cmd_models,
    "fuse": _cmd_fuse,
    "run-pair": _cmd_run_pair,
    "run-cluster": _cmd_run_cluster,
    "run-autoscale": _cmd_run_autoscale,
    "run-scenario": _cmd_run_scenario,
    "run-tournament": _cmd_run_tournament,
    "incidents": _cmd_incidents,
    "policies": _cmd_policies,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    import os
    import time

    args = _build_parser().parse_args(argv)
    if args.workers is not None:
        os.environ["REPRO_WORKERS"] = str(args.workers)
    if args.audit:
        from . import audit

        audit.enable()
        # Workers inherit the switch through the environment.
        os.environ["REPRO_AUDIT"] = "1"
    if args.telemetry:
        from . import telemetry

        telemetry.enable()
        os.environ["REPRO_TELEMETRY"] = "1"
    if not args.perf:
        status = _COMMANDS[args.command](args)
    else:
        from .experiments.common import perf_counters

        before = perf_counters()
        start = time.perf_counter()
        status = _COMMANDS[args.command](args)
        wall = time.perf_counter() - start
        delta = perf_counters().delta(before)
        print(f"\nperf: wall {wall:.2f}s")
        for key, value in delta.as_dict().items():
            print(f"  {key} = {value}")
    if args.audit:
        checks = audit.summary()
        total = sum(checks.values())
        print(f"\naudit: {total} checks, 0 violations")
        for invariant, count in checks.items():
            print(f"  {invariant} = {count}")
    if args.telemetry and args.command != "metrics":
        registry = telemetry.registry()
        print(f"\ntelemetry: {len(registry)} metric families "
              "(run 'repro metrics' for the full exposition)")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
