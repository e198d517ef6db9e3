"""Tests for the autoscaling control plane (runtime.autoscale).

The simulation-backed tests share tiny module-scoped runs (2–3
replicas, a few epochs) so the whole file stays in unit-test
territory; the fleet-scale behaviour is the benchmark suite's job
(``benchmarks/test_autoscale.py``).
"""

import pytest

from repro import audit
from repro.errors import ConfigError
from repro.experiments import autoscale as autoscale_exp
from repro.models.zoo import model_by_name
from repro.runtime.autoscale import (
    AutoscaleSpec,
    BurnRateScaler,
    EpochObservation,
    ReactiveScaler,
    RefitPlan,
    SCALER_POLICIES,
    ScalerConfig,
    StaticScaler,
    make_scaler,
    run_autoscale,
)
from repro.runtime.faults import NodeFault, NodeFaultPlan
from repro.runtime.workload import query_instances

#: Small enough to run in seconds, big enough to cross epoch
#: boundaries and see the diurnal shape move.
TINY = dict(scenario="diurnal", rate_nodes=2, span_ms=6000.0,
            epoch_ms=2000.0)


def obs(**kwargs):
    base = dict(
        epoch=1, active_nodes=8, n_arrivals=100, demand_units=8.0,
        prev_demand_units=8.0, routed_util=0.4, mean_slack_ms=10.0,
        served=100, violations=0, burn_rate=0.0, guard_events=0,
    )
    base.update(kwargs)
    return EpochObservation(**base)


class TestConfigValidation:
    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="unknown scaler policy"):
            ScalerConfig(policy="magic")

    @pytest.mark.parametrize("kwargs", [
        dict(min_nodes=0),
        dict(min_nodes=4, max_nodes=2),
        dict(pack_units=0.0),
        dict(slo_budget=0.0),
        dict(down_burn=2.0, up_burn=1.0),
        dict(cooldown_epochs=0),
        dict(max_step_down=0),
        dict(util_lo_ratio=1.2, util_hi_ratio=1.1),
    ])
    def test_bad_scaler_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            ScalerConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(scenario="diurnal", epoch_ms=0.0),
        dict(scenario="diurnal", span_ms=10.0, epoch_ms=100.0),
        dict(scenario="diurnal", rate_nodes=0),
        dict(scenario="diurnal", routing="psychic"),
        dict(scenario="diurnal", sketch_bins=1),
    ])
    def test_bad_spec(self, kwargs):
        with pytest.raises(ConfigError):
            AutoscaleSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(bias=0.0),
        dict(noise=-0.1),
        dict(regression_pct=0.0),
        dict(batch=0),
    ])
    def test_bad_refit(self, kwargs):
        with pytest.raises(ConfigError):
            RefitPlan(**kwargs)

    def test_factory_covers_every_policy(self):
        for policy in SCALER_POLICIES:
            scaler = make_scaler(ScalerConfig(policy=policy), 8, 0.25)
            assert scaler.name == policy
            assert scaler.initial_nodes() == 8


class TestScalerLogic:
    """Pure decision logic, no simulation."""

    def test_static_always_holds(self):
        scaler = StaticScaler(ScalerConfig(policy="static"), 8, 0.25)
        for burn in (0.0, 5.0):
            target, _ = scaler.target(obs(burn_rate=burn, routed_util=0.9))
            assert target == 8

    def test_reactive_scales_with_utilization(self):
        cfg = ScalerConfig(policy="reactive")
        scaler = ReactiveScaler(cfg, 8, 0.25)
        band = cfg.pack_units * 0.25
        up, why = scaler.target(obs(routed_util=band * 1.5))
        assert up > 8 and "above band" in why
        down, why = scaler.target(obs(routed_util=band * 0.3))
        assert down < 8 and "below band" in why
        hold, why = scaler.target(obs(routed_util=band))
        assert hold == 8 and "in band" in why

    def test_burnrate_hot_epoch_forces_up(self):
        scaler = BurnRateScaler(ScalerConfig(policy="burnrate"), 8, 0.25)
        target, why = scaler.target(
            obs(burn_rate=2.0, demand_units=2.0, prev_demand_units=2.0)
        )
        assert target > 8 and "hot" in why

    def test_burnrate_guard_event_counts_as_hot(self):
        scaler = BurnRateScaler(ScalerConfig(policy="burnrate"), 8, 0.25)
        target, why = scaler.target(
            obs(guard_events=3, demand_units=2.0, prev_demand_units=2.0)
        )
        assert target > 8 and "hot" in why

    def test_burnrate_drains_only_after_cooldown(self):
        cfg = ScalerConfig(policy="burnrate", cooldown_epochs=2)
        scaler = BurnRateScaler(cfg, 8, 0.25)
        calm = obs(demand_units=2.0, prev_demand_units=2.0, burn_rate=0.0)
        first, why = scaler.target(calm)
        assert first == 8 and "cooldown" in why
        second, why = scaler.target(calm)
        assert second < 8 and "drain" in why

    def test_burnrate_hot_epoch_resets_cooldown(self):
        cfg = ScalerConfig(policy="burnrate", cooldown_epochs=2)
        scaler = BurnRateScaler(cfg, 8, 0.25)
        calm = obs(demand_units=2.0, prev_demand_units=2.0, burn_rate=0.0)
        scaler.target(calm)
        scaler.target(obs(burn_rate=2.0))  # hot: calm streak resets
        target, why = scaler.target(calm)
        assert target == 8 and "cooldown 1/2" in why

    def test_burnrate_extrapolates_rising_demand_only(self):
        cfg = ScalerConfig(policy="burnrate", headroom_nodes=1)
        scaler = BurnRateScaler(cfg, 8, 0.25)
        rising, _ = scaler.target(
            obs(demand_units=8.0, prev_demand_units=6.0, active_nodes=7)
        )
        # projected 10 units / 1.45 + 1 headroom = 8 nodes
        assert rising == 8
        scaler = BurnRateScaler(cfg, 8, 0.25)
        falling, why = scaler.target(
            obs(demand_units=6.0, prev_demand_units=8.0, active_nodes=5)
        )
        # falling demand is not extrapolated below its observed level
        assert falling == 6 and "needs 6" in why


@pytest.fixture(scope="module")
def static_result():
    return run_autoscale(AutoscaleSpec(
        scaler=ScalerConfig(policy="static"), **TINY
    ))


@pytest.fixture(scope="module")
def crash_result():
    """A mid-epoch crash, simulated under the invariant auditor."""
    audit.reset()
    audit.enable()
    try:
        result = run_autoscale(AutoscaleSpec(
            scaler=ScalerConfig(policy="static"),
            node_faults=NodeFaultPlan(faults=(
                NodeFault(kind="crash", node=0, at_ms=2500.0),
            )),
            **TINY,
        ))
        checks = audit.summary()
    finally:
        audit.reset()
    return result, checks


class TestStaticRun:
    def test_no_query_lost(self, static_result):
        assert static_result.n_trace_queries > 0
        assert static_result.total_queries == static_result.n_trace_queries

    def test_kernel_conservation(self, static_result, library):
        """Every served query retires exactly its kernel sequence
        (a fused launch retires one LC kernel and one BE kernel)."""
        lc_retired = sum(
            s.n_lc_kernels + s.n_fused_kernels
            for s in static_result.node_stats
        )
        # the diurnal scenario's LC services
        kernels_per_query = {
            name: len(query_instances(model_by_name(name), library))
            for name in ("vgg16", "resnet50")
        }
        lo = min(kernels_per_query.values()) * static_result.total_queries
        hi = max(kernels_per_query.values()) * static_result.total_queries
        assert lo <= lc_retired <= hi

    def test_static_bills_the_full_fleet(self, static_result):
        spec = static_result.spec
        assert static_result.node_seconds == pytest.approx(
            spec.rate_nodes * spec.span_ms / 1000.0
        )
        assert static_result.saved_vs_static_pct == pytest.approx(0.0)

    def test_decision_log_covers_every_epoch(self, static_result):
        # the controller logs holds too — all but the final epoch
        assert len(static_result.decisions) == static_result.n_epochs - 1
        assert all(d.action == "hold" for d in static_result.decisions)

    def test_summary_shape(self, static_result):
        summary = static_result.summary_dict()
        assert summary["scaler"] == "static"
        assert summary["rerouted"] == 0
        assert summary["rollout"] == "disabled"
        assert summary["queries"] == static_result.total_queries


class TestCrashReroute:
    def test_no_query_silently_dropped(self, crash_result):
        result, _ = crash_result
        assert result.total_queries == result.n_trace_queries
        assert result.n_rerouted > 0

    def test_crashed_node_leaves_the_pool(self, crash_result):
        result, _ = crash_result
        assert result.crashed == (0,)
        for epoch in result.epochs[2:]:
            assert 0 not in epoch.nodes

    def test_replacement_provisioned(self, crash_result):
        # static: the operator replaces lost capacity next epoch
        result, _ = crash_result
        assert result.epochs[-1].n_nodes == result.spec.rate_nodes

    def test_crash_truncates_the_bill(self, crash_result):
        result, _ = crash_result
        full = result.spec.rate_nodes * result.spec.span_ms / 1000.0
        assert result.node_seconds < full

    def test_kernel_conservation_under_audit(self, crash_result, library):
        """Re-routed queries re-run in full on a survivor; the crashed
        node's partial work is waste, never a silent drop."""
        result, checks = crash_result
        assert checks, "the auditor saw no checks"
        kernels_per_query = {
            name: len(query_instances(model_by_name(name), library))
            for name in ("vgg16", "resnet50")
        }
        lc_retired = sum(
            s.n_lc_kernels + s.n_fused_kernels for s in result.node_stats
        )
        # at least every trace query's full sequence retired somewhere
        assert lc_retired >= (
            min(kernels_per_query.values()) * result.n_trace_queries
        )

    def test_penalty_counts_toward_latency(self):
        """A re-routed query's clock starts at its original arrival."""
        from repro.runtime.query import Query

        model = model_by_name("vgg16")
        query = Query(model, 10.0, (), penalty_ms=7.5)
        query.finish_ms = 12.0
        assert query.latency_ms == pytest.approx(9.5)


class TestNodeFaultModes:
    def test_slow_node_degrades_silently(self):
        healthy = run_autoscale(AutoscaleSpec(
            scenario="diurnal", rate_nodes=2, span_ms=4000.0,
            epoch_ms=2000.0, scaler=ScalerConfig(policy="static"),
        ))
        slowed = run_autoscale(AutoscaleSpec(
            scenario="diurnal", rate_nodes=2, span_ms=4000.0,
            epoch_ms=2000.0, scaler=ScalerConfig(policy="static"),
            node_faults=NodeFaultPlan(faults=(
                NodeFault(kind="slow", node=0, at_ms=0.0, factor=3.0),
            )),
        ))
        # same routing (the dispatcher cannot see the slowdown) ...
        assert slowed.total_queries == healthy.total_queries
        # ... but the served reality is worse
        assert slowed.total_violations > healthy.total_violations
        assert slowed.merged_p99_ms > healthy.merged_p99_ms

    @pytest.mark.parametrize("policy,kind", [
        ("tacker", "fused"), ("multifuse", "chain"), ("hfuse", "hfused"),
        ("spatial", "spatial"), ("baymax", "lc"), ("baymax", "be"),
    ])
    def test_slow_node_slows_every_launch_kind(
        self, every_kind_colocation, monkeypatch, policy, kind
    ):
        """Every launch, of every kind, runs on the degraded clock."""
        from repro.runtime.server import ColocationServer

        factor = 3.0
        system, policy_, queries, be_apps = every_kind_colocation(policy)
        server = ColocationServer(
            system.gpu, oracle=system.oracle, policy=policy_,
            config=system.config, slow_factor=factor, record_kernels=True,
        )
        healthy = ColocationServer(
            system.gpu, oracle=system.oracle, policy=policy_,
            config=system.config,
        )
        # admission control's ground-truth accounting is degraded too
        assert server._true_remaining_ms(queries[0]) == pytest.approx(
            factor * healthy._true_remaining_ms(queries[0]), rel=1e-12
        )
        prices = []
        slowed_price = server._price

        def price(action, now):
            # the same action priced on a slow and on a healthy node
            slowed = slowed_price(action, now)
            prices.append((slowed, healthy._price(action, now)))
            return slowed

        monkeypatch.setattr(server, "_price", price)
        result = server.run(queries, be_apps)
        assert any(k.kind == kind for k in result.executed)
        assert len(result.executed) == len(prices)
        for kernel, (slowed, fine) in zip(result.executed, prices):
            # (name, duration, ..., observed): duration is index 1
            assert kernel.end_ms - kernel.start_ms == pytest.approx(
                factor * fine[1], rel=1e-9
            ), kernel
            if fine[-1] is not None:
                # the online fused model observes the served co-run
                assert slowed[-1][-1] == pytest.approx(
                    factor * fine[-1][-1], rel=1e-12
                )

    def test_flapping_node_takes_no_new_queries_while_down(self):
        result = run_autoscale(AutoscaleSpec(
            scenario="diurnal", rate_nodes=2, span_ms=4000.0,
            epoch_ms=2000.0, scaler=ScalerConfig(policy="static"),
            node_faults=NodeFaultPlan(faults=(
                NodeFault(kind="flap", node=0, at_ms=0.0,
                          down_ms=4000.0, up_ms=1000.0),
            )),
        ))
        # node 0 was down for the whole span: everything went to node 1
        assert result.total_queries == result.n_trace_queries
        served_by = {}
        for stats in result.node_stats:
            served_by[stats.node] = (
                served_by.get(stats.node, 0) + stats.n_queries
            )
        assert served_by.get(0, 0) == 0
        assert served_by[1] == result.n_trace_queries


class TestCanaryRollout:
    def test_benign_refit_completes(self):
        result = run_autoscale(AutoscaleSpec(
            scenario="diurnal", rate_nodes=3, span_ms=8000.0,
            epoch_ms=2000.0, scaler=ScalerConfig(policy="static"),
            refit=RefitPlan(start_epoch=1, bias=1.0, noise=0.05,
                            batch=2, regression_pct=5.0),
        ))
        assert result.rollout_status == "completed"
        actions = [e.action for e in result.rollout_events]
        assert actions == ["canary", "promote", "complete"]

    def test_botched_refit_aborts_at_the_gate(self):
        result = run_autoscale(AutoscaleSpec(
            scenario="diurnal", rate_nodes=3, span_ms=8000.0,
            epoch_ms=2000.0, scaler=ScalerConfig(policy="static"),
            refit=RefitPlan(start_epoch=1, bias=0.45, noise=0.8,
                            batch=2, regression_pct=5.0),
        ))
        assert result.rollout_status == "aborted"
        actions = [e.action for e in result.rollout_events]
        assert actions == ["canary", "abort"]
        gate = result.rollout_events[0]
        assert gate.canary_p99_ms > gate.control_p99_ms
        # the blast radius stayed at one node for one epoch
        assert gate.nodes == (0,)


class TestDeterminism:
    def test_sweep_render_identical_serial_vs_parallel(self):
        """The committed results table must not depend on the worker
        count — the property the CI determinism gate enforces."""
        shapes = {"diurnal": (2, 4000.0, 2000.0)}
        kwargs = dict(
            scenario_names=("diurnal",),
            scalers=("static", "burnrate"),
            shapes=shapes, quick=True, rollouts=False,
        )
        serial = autoscale_exp.render(
            autoscale_exp.run(workers=1, **kwargs)
        )
        parallel = autoscale_exp.render(
            autoscale_exp.run(workers=4, **kwargs)
        )
        assert serial == parallel
        assert "diurnal" in serial and "burnrate" in serial
