"""The benchmark's workloads, and the child process that runs one.

``bench.py`` starts one fresh process per measurement::

    python benchmarks/perf/workloads.py setup WORKLOAD SCENARIO_JSON [--smoke]
    python benchmarks/perf/workloads.py run WORKLOAD SCENARIO_JSON [--smoke]
        [--workers N] [--trace]

and reads the JSON record printed as the last line of stdout.  The
caller pins the environment (private ``REPRO_CACHE_DIR``, one BLAS
thread, no ``REPRO_*`` switches); ``SCENARIO_JSON`` is the scenario
file with the run's seed already written into it.

* ``setup`` times a fresh process on an empty duration store, from
  before ``import repro`` to a flushed store: building the
  ``TackerSystem``, ``prepare_pair`` for every (LC, BE) pair of the
  scenario, and synthesizing the scenario's trace.
* ``run`` times the workload on a warm store, from building the
  system (or calling ``run_autoscale``) to the folded result, and
  reports the simulated outcome's digest and conservation check.
  ``--trace`` runs the same thing under :class:`tracer.Tracer`.

Host-side every workload is a batch job: one run at a time.  LC
arrivals are open-loop on the *simulated* clock only, so there is no
generator lateness to report.
"""

import time

_START = time.perf_counter()  # setup_s includes ``import repro``

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

#: run_autoscale settings of the autoscale workload
AUTOSCALE_SCALER = "burnrate"
AUTOSCALE_RATE_NODES = 8

#: kernel-count fields of a ServerResult; each launch bumps exactly one
_LAUNCH_KINDS = ("lc", "be", "fused", "hfused", "spatial", "chain")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    #: LC queries of a replay, or the control span (ms) of an autoscale run
    size: int
    #: the same, shrunk for ``--smoke``
    smoke_size: int
    policy: str = "tacker"
    #: call ``run_autoscale`` (``map_fn=partial(parallel_map, workers=N)``)
    #: instead of replaying through ``run_scenario``
    autoscale: bool = False
    #: telemetry on and the default SLO rules attached
    observed: bool = False


WORKLOADS = (
    Workload(
        "steady-tacker",
        "the paper's scheduler on stationary traffic: decide and the server "
        "loop dominate, few prepare_pair calls, little oracle hashing; the "
        "control for prepare and oracle changes",
        scenario="steady", size=800, smoke_size=60,
    ),
    Workload(
        "steady-hfuse",
        "HFuse-style horizontal fusion prices every BE pair through "
        "corun_policy, so oracle launch-signature hashing dominates",
        scenario="steady", size=120, smoke_size=30, policy="hfuse",
    ),
    Workload(
        "autoscale-diurnal",
        "burn-rate autoscaling builds a TackerSystem and reruns prepare_pair "
        "per node-epoch; where per-epoch memoization shows. Its traced pass "
        "also fans out over 2 workers",
        scenario="diurnal", size=3000, smoke_size=1000, autoscale=True,
    ),
    Workload(
        "diurnal-observed",
        "telemetry and the default SLO rules on, so all observer channels "
        "are live; where observer-bus work shows",
        scenario="diurnal", size=250, smoke_size=60, observed=True,
    ),
)

WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


def _run_config(scenario, workload, n_queries):
    return scenario.run_config(
        telemetry=workload.observed, n_queries=n_queries
    ).with_overrides(policy=workload.policy)


def setup(workload: Workload, scenario_path: str, size: int) -> dict:
    from repro.models.zoo import model_by_name
    from repro.runtime import replay
    from repro.runtime.system import TackerSystem
    from repro.runtime.workload import be_application

    scenario = replay.load_scenario(scenario_path)
    n_queries = scenario.queries if workload.autoscale else size
    system = TackerSystem(config=_run_config(scenario, workload, n_queries))
    for lc_name in scenario.lc_services:
        model = model_by_name(lc_name)
        for be_name in scenario.be_apps:
            system.prepare_pair(model, be_application(be_name, system.library))
    replay.synthesize_trace(
        scenario, system.library, system.oracle, n_queries=n_queries
    )
    system.flush()
    return {"setup_s": time.perf_counter() - _START, "errors": []}


def _digest(canonical) -> str:
    return hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode()
    ).hexdigest()


def run(workload: Workload, scenario_path: str, size: int, workers: int,
        tracer=None) -> dict:
    from repro.experiments.common import parallel_map
    from repro.runtime import autoscale, replay
    from repro.runtime.system import TackerSystem
    from repro.telemetry.slo import default_rules, make_monitor

    scenario = replay.load_scenario(scenario_path)
    summary = None
    if tracer is not None:
        tracer.install()
        tracer.reset()
    start = time.perf_counter()
    try:
        if workload.autoscale:
            map_fn = functools.partial(parallel_map, workers=workers)
            if tracer is not None:
                map_fn = tracer.wrap_map(map_fn, workers)
            spec = autoscale.AutoscaleSpec(
                scenario=scenario_path,
                scaler=autoscale.ScalerConfig(policy=AUTOSCALE_SCALER),
                span_ms=float(size),
                rate_nodes=AUTOSCALE_RATE_NODES,
                policy=workload.policy,
            )
            result = autoscale.run_autoscale(spec, map_fn=map_fn)
            n_trace = None
        else:
            system = TackerSystem(config=_run_config(scenario, workload, size))
            trace = replay.synthesize_trace(
                scenario, system.library, system.oracle, n_queries=size
            )
            monitor = None
            if workload.observed:
                monitor = make_monitor(
                    default_rules(scenario.qos_ms), scenario.qos_ms,
                    source=scenario.name,
                )
            result = replay.run_scenario(
                system, scenario, policy_name=workload.policy, trace=trace,
                monitor=monitor,
            )
            # a no-op once the store is warm; autoscale flushes per node-epoch
            system.flush()
            n_trace = len(trace)
        wall_s = time.perf_counter() - start
        if tracer is not None:
            summary = tracer.summary()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if workload.autoscale:
        canonical = {
            "summary": result.summary_dict(),
            "epochs": [dataclasses.asdict(e) for e in result.epochs],
        }
        attempted = result.n_trace_queries
        completed = result.total_queries
        launches = sum(
            s.n_lc_kernels + s.n_be_kernels + s.n_fused_kernels
            for s in result.node_stats
        )
    else:
        canonical = result.summary_dict()
        attempted = n_trace
        completed = result.n_queries
        launches = sum(
            getattr(result, f"n_{kind}_kernels") for kind in _LAUNCH_KINDS
        )
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    errors = []
    if completed != attempted:
        errors.append(
            f"conservation: {completed} queries completed of {attempted}"
        )
    record = {"wall_s": wall_s}
    if summary is not None:
        summary["extra"]["launches"] = launches
        record["trace"] = summary
    record.update(
        rss_mb=rss_kb / 1024.0,
        sim_digest=_digest(canonical),
        ops_attempted=attempted,
        ops_failed=max(attempted - completed, 0),
        launches=launches,
        errors=errors,
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload", choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("scenario", help="seeded scenario JSON file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes of an autoscale run's fan-out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS_BY_NAME[args.workload]
    size = workload.smoke_size if args.smoke else workload.size
    try:
        if args.mode == "setup":
            record = setup(workload, args.scenario, size)
        else:
            tracer = None
            if args.trace:
                from tracer import Tracer

                tracer = Tracer()
            record = run(workload, args.scenario, size, args.workers, tracer)
    except Exception:  # the boundary: report the failure to the parent
        traceback.print_exc()
        record = {"errors": [traceback.format_exc(limit=8)]}
    print(json.dumps(record))
    return 1 if record["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
