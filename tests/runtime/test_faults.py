"""Tests for fault injection and the mispredict guard rails."""

import numpy as np
import pytest

from repro.errors import ConfigError, PredictionError
from repro.gpusim.trace import Timeline
from repro.models.zoo import model_by_name
from repro.predictor.online import PredictionErrorTracker
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    NodeFault,
    NodeFaultPlan,
    make_injector,
)
from repro.runtime.policies import (
    Action,
    BaymaxPolicy,
    GuardConfig,
    MispredictGuard,
    TackerPolicy,
    list_policies,
)
from repro.runtime.query import BEApplication, KernelInstance, Query
from repro.runtime.runconfig import RunConfig
from repro.runtime.server import ColocationServer, ServerResult
from repro.runtime.system import TackerSystem


@pytest.fixture(scope="module")
def system(gpu):
    sys_ = TackerSystem(gpu=gpu)
    sys_.prepare_fusion("tgemm_l", "fft")
    return sys_


def make_queries(system, count, gap_ms=30.0,
                 kernels=("tgemm_l", "relu", "tgemm_l", "bn")):
    instances = tuple(
        KernelInstance(system.library.get(n),
                       system.library.get(n).default_grid)
        for n in kernels
    )
    return [
        Query(model_by_name("resnet50"), i * gap_ms, instances)
        for i in range(count)
    ]


def be_app(system, name="fft"):
    kernel = system.library.get(name)
    return BEApplication(
        name, (KernelInstance(kernel, kernel.default_grid),)
    )


def empty_result(qos_ms=50.0):
    return ServerResult(
        qos_ms=qos_ms, horizon_ms=1e9, end_ms=0.0, latencies_ms=[],
        be_work_ms={"fft": 0.0},
        tc_timeline=Timeline(), cd_timeline=Timeline(),
    )


class TestFaultPlan:
    def test_default_plan_is_clean(self):
        plan = FaultPlan()
        assert not plan.any_faults
        assert make_injector(plan) is None
        assert make_injector(None) is None

    def test_any_faults_detects_each_channel(self):
        for kwargs in (
            {"predictor_noise": 0.1}, {"predictor_bias": 0.9},
            {"stale_model": 0.1}, {"be_delay": 0.1},
            {"be_drop": 0.1}, {"burst": 0.1},
        ):
            assert FaultPlan(**kwargs).any_faults, kwargs

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultPlan(be_drop=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(predictor_noise=-0.1)
        with pytest.raises(ConfigError):
            FaultPlan(predictor_bias=0.0)
        with pytest.raises(ConfigError):
            FaultPlan(be_delay_factor=0.5)
        with pytest.raises(ConfigError):
            FaultPlan(burst_size=1)

    def test_scaled_zero_is_clean(self):
        plan = FaultPlan(
            predictor_noise=0.3, predictor_bias=0.8, stale_model=0.2,
            be_delay=0.2, be_drop=0.1, burst=0.1,
        )
        assert not plan.scaled(0.0).any_faults

    def test_scaled_math(self):
        plan = FaultPlan(predictor_noise=0.2, predictor_bias=0.9,
                         be_drop=0.6)
        doubled = plan.scaled(2.0)
        assert doubled.predictor_noise == pytest.approx(0.4)
        assert doubled.predictor_bias == pytest.approx(0.8)
        # probabilities clamp at 1
        assert doubled.be_drop == 1.0

    def test_scaled_rejects_negative(self):
        with pytest.raises(ConfigError):
            FaultPlan().scaled(-1.0)

    def test_parse_aliases(self):
        plan = FaultPlan.parse(
            "noise=0.3, bias=0.9, stale=0.1, delay=0.2, "
            "delay_factor=3, drop=0.05, burst=0.1, burst_size=3, seed=7"
        )
        assert plan.predictor_noise == 0.3
        assert plan.predictor_bias == 0.9
        assert plan.stale_model == 0.1
        assert plan.be_delay == 0.2
        assert plan.be_delay_factor == 3.0
        assert plan.be_drop == 0.05
        assert plan.burst == 0.1
        assert plan.burst_size == 3
        assert plan.seed == 7

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("noise")
        with pytest.raises(ConfigError):
            FaultPlan.parse("bogus_knob=1")
        with pytest.raises(ConfigError):
            FaultPlan.parse("noise=abc")


class TestFaultInjector:
    def test_deterministic_across_injectors(self):
        plan = FaultPlan(predictor_noise=0.3, stale_model=0.5,
                         be_delay=0.3, be_drop=0.2, burst=0.3)
        a, b = FaultInjector(plan), FaultInjector(plan)
        for name in ("k1", "k2", "k1"):
            assert a.perturb_prediction(name, 10.0) == \
                b.perturb_prediction(name, 10.0)
        for _ in range(20):
            assert a.be_outcome(5.0) == b.be_outcome(5.0)
        gaps = np.full(50, 10.0)
        assert np.array_equal(a.perturb_gaps(gaps), b.perturb_gaps(gaps))
        assert a.counters() == b.counters()

    def test_bias_is_systematic(self):
        inj = FaultInjector(FaultPlan(predictor_bias=0.5))
        assert inj.perturb_prediction("k", 10.0) == pytest.approx(5.0)
        assert inj.predictions_perturbed == 1

    def test_stale_multiplier_frozen_per_kernel(self):
        inj = FaultInjector(FaultPlan(stale_model=1.0))
        first = inj.perturb_prediction("k", 10.0)
        assert first != 10.0  # stale offset applied
        assert inj.perturb_prediction("k", 10.0) == first
        # an independent kernel draws its own offset
        other = inj.perturb_prediction("other", 10.0)
        assert other != first

    def test_be_outcome_delay_and_drop(self):
        inj = FaultInjector(
            FaultPlan(be_delay=1.0, be_delay_factor=3.0, be_drop=1.0)
        )
        duration, dropped = inj.be_outcome(2.0)
        assert duration == pytest.approx(6.0)
        assert dropped
        assert inj.be_delayed == 1 and inj.be_dropped == 1

    def test_clean_channels_pass_through(self):
        inj = FaultInjector(FaultPlan(burst=0.5))
        assert inj.perturb_prediction("k", 10.0) == 10.0
        assert inj.be_outcome(2.0) == (2.0, False)
        assert inj.predictions_perturbed == 0

    def test_bursts_compress_gaps(self):
        inj = FaultInjector(FaultPlan(burst=1.0, burst_size=3))
        gaps = np.full(6, 10.0)
        out = inj.perturb_gaps(gaps)
        assert inj.bursts_injected == 2
        # every burst leaves its leading gap intact, compresses the rest
        assert list(out) == pytest.approx([10.0, 0.5, 0.5] * 2)
        # the input array is not mutated
        assert list(gaps) == [10.0] * 6


class TestPredictionErrorTracker:
    def test_relative_error_band(self):
        tracker = PredictionErrorTracker(alpha=0.5)
        band = tracker.record("k", 12.0, 10.0)
        assert band == pytest.approx(0.2)
        assert tracker.band() == pytest.approx(0.2)
        assert tracker.band("k") == pytest.approx(0.2)

    def test_per_kernel_falls_back_to_overall(self):
        tracker = PredictionErrorTracker()
        tracker.record("k", 15.0, 10.0)
        assert tracker.band("never_seen") == tracker.band()

    def test_ewma_smoothing(self):
        tracker = PredictionErrorTracker(alpha=0.5)
        tracker.record("k", 10.0, 10.0)   # error 0
        tracker.record("k", 20.0, 10.0)   # error 1
        assert tracker.band() == pytest.approx(0.5)

    def test_first_observation_seeds_per_kernel_band_exactly(self):
        # Regression: the first sample must become the band verbatim,
        # not be down-weighted by an EWMA blend with a phantom prior.
        tracker = PredictionErrorTracker(alpha=0.15)
        tracker.record("k", 14.0, 10.0)   # error 0.4
        assert tracker.band("k") == pytest.approx(0.4)

    def test_second_observation_blends_per_kernel_band(self):
        tracker = PredictionErrorTracker(alpha=0.5)
        tracker.record("k", 14.0, 10.0)   # seeds 0.4
        tracker.record("k", 10.0, 10.0)   # error 0 -> 0.5*0 + 0.5*0.4
        assert tracker.band("k") == pytest.approx(0.2)

    def test_ignores_non_positive_actuals(self):
        tracker = PredictionErrorTracker()
        tracker.record("k", 10.0, 0.0)
        assert tracker.observations == 0

    def test_rejects_bad_alpha(self):
        with pytest.raises(PredictionError):
            PredictionErrorTracker(alpha=0.0)


class TestGuardConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GuardConfig(margin_factor=-1.0)
        with pytest.raises(ConfigError):
            GuardConfig(reorder_risk=0.3, exclusive_risk=0.2)
        with pytest.raises(ConfigError):
            GuardConfig(recover_ratio=1.0)
        with pytest.raises(ConfigError):
            GuardConfig(risk_alpha=0.0)


class TestMispredictGuard:
    def test_margin_scales_with_error_band(self):
        guard = MispredictGuard(GuardConfig(margin_factor=2.0))
        assert guard.margin_ms(10.0) == 0.0
        guard.note_launch("k", 12.0, 10.0)
        band = guard.errors.band()
        assert guard.margin_ms(10.0) == pytest.approx(2.0 * band * 10.0)

    def test_degradation_ladder_and_recovery(self):
        config = GuardConfig(reorder_risk=0.3, exclusive_risk=0.6,
                             recover_ratio=0.5, risk_alpha=0.5)
        guard = MispredictGuard(config)
        assert guard.mode == "fuse"
        # near-violations push risk over each rail in turn
        guard.note_query(49.0, 50.0)   # risk -> 1.0 (first sample)
        assert guard.mode == "reorder"
        guard.note_query(49.0, 50.0)
        assert guard.mode == "exclusive"
        # healthy latencies decay the risk; hysteresis steps back one
        # mode at a time
        while guard.mode == "exclusive":
            guard.note_query(10.0, 50.0)
        assert guard.mode == "reorder"
        assert guard.risk < config.exclusive_risk * config.recover_ratio
        while guard.mode == "reorder":
            guard.note_query(10.0, 50.0)
        assert guard.mode == "fuse"
        # every transition was logged
        modes = [(old, new) for _, old, new in guard.transitions]
        assert modes == [
            ("fuse", "reorder"), ("reorder", "exclusive"),
            ("exclusive", "reorder"), ("reorder", "fuse"),
        ]

    def test_healthy_operating_point_is_not_a_near_violation(self):
        # ~45 ms of a 50 ms target is the QOS_GUARD operating point; it
        # must not count toward the risk or the guard degrades on clean
        # runs.
        guard = MispredictGuard(GuardConfig())
        for _ in range(200):
            guard.note_query(45.0, 50.0)
        assert guard.mode == "fuse"
        assert guard.risk == 0.0

    def test_note_decision_counts_current_mode(self):
        guard = MispredictGuard(GuardConfig())
        guard.note_decision()
        guard.mode = "exclusive"
        guard.note_decision()
        assert guard.mode_decisions == {
            "fuse": 1, "reorder": 0, "exclusive": 1,
        }


class TestGuardedPolicies:
    def test_exclusive_mode_launches_lc_only(self, system):
        guard = MispredictGuard(GuardConfig())
        guard.mode = "exclusive"
        policy = TackerPolicy(
            system.gpu, system.models, 50.0, system.artifacts, guard=guard
        )
        queries = make_queries(system, 1)
        action = policy.decide(0.0, queries, [be_app(system)])
        assert action.kind == "lc"

    def test_reorder_mode_never_fuses(self, system):
        guard = MispredictGuard(GuardConfig())
        guard.mode = "reorder"
        # pin the risk inside the reorder band so the short healthy run
        # does not decay it below the recovery rail
        guard.risk = 0.15
        guard.queries_observed = 1
        policy = TackerPolicy(
            system.gpu, system.models, 50.0, system.artifacts, guard=guard
        )
        server = ColocationServer(
            system.gpu, oracle=system.oracle, policy=policy
        )
        result = server.run(make_queries(system, 4), [be_app(system)])
        assert result.n_fused_kernels == 0
        assert result.guard_mode_decisions["reorder"] > 0

    def test_error_band_inflates_threshold(self, system):
        guard = MispredictGuard(GuardConfig(margin_factor=2.0))
        guard.note_launch("k", 20.0, 10.0)  # huge observed error
        policy = BaymaxPolicy(
            system.gpu, system.models, 50.0, guard=guard
        )
        queries = make_queries(system, 1)
        thr = policy.headroom.headroom_ms(0.0, queries)
        guarded = policy._guarded_thr(thr, queries)
        assert guarded < thr

    def test_unguarded_threshold_unchanged(self, system):
        policy = BaymaxPolicy(system.gpu, system.models, 50.0)
        queries = make_queries(system, 1)
        assert policy._guarded_thr(12.0, queries) == 12.0


class TestAdmissionControl:
    def make_server(self, system, guarded=True):
        guard = MispredictGuard(GuardConfig()) if guarded else None
        policy = BaymaxPolicy(
            system.gpu, system.models, 50.0, guard=guard
        )
        return ColocationServer(
            system.gpu, oracle=system.oracle, policy=policy
        )

    def test_be_shed_when_slack_gone(self, system):
        server = self.make_server(system)
        queries = make_queries(system, 1)
        result = empty_result()
        action = Action(kind="be", be_app=be_app(system))
        # at now = internal target the reserved LC time is pure deficit
        internal = server.policy.headroom.qos_ms
        admitted = server._admit(action, internal, queries, result)
        assert admitted.kind == "lc"
        assert result.n_shed_be == 1 and result.n_deferred_be == 0

    def test_be_deferred_inside_margin(self, system):
        server = self.make_server(system)
        queries = make_queries(system, 1)
        result = empty_result()
        remaining = server._true_remaining_ms(queries[0])
        internal = server.policy.headroom.qos_ms
        now = internal - remaining - 0.5   # slack = 0.5 < 1 ms margin
        action = Action(kind="be", be_app=be_app(system))
        admitted = server._admit(action, now, queries, result)
        assert admitted.kind == "lc"
        assert result.n_deferred_be == 1 and result.n_shed_be == 0

    def test_be_admitted_with_headroom(self, system):
        server = self.make_server(system)
        queries = make_queries(system, 1)
        result = empty_result()
        action = Action(kind="be", be_app=be_app(system))
        admitted = server._admit(action, 0.0, queries, result)
        assert admitted is action
        assert result.n_shed_be == result.n_deferred_be == 0

    def test_unguarded_policy_bypasses_admission(self, system):
        server = self.make_server(system, guarded=False)
        queries = make_queries(system, 1)
        result = empty_result()
        action = Action(kind="be", be_app=be_app(system))
        internal = server.policy.headroom.qos_ms
        assert server._admit(action, internal, queries, result) is action
        assert result.n_shed_be == 0

    def test_non_be_actions_pass_through(self, system):
        server = self.make_server(system)
        queries = make_queries(system, 1)
        action = Action(kind="lc", query=queries[0])
        out = server._admit(action, 100.0, queries, empty_result())
        assert out is action

    def test_guarded_hfuse_pairs_face_admission(self, gpu):
        """An hfused pair carries no LC kernel, so under an
        under-predicting model its launches are shed or deferred too."""
        system = TackerSystem(
            gpu=gpu, config=RunConfig(queries=10, telemetry=True)
        )
        model = model_by_name("resnet50")
        for name in ("sgemm", "mriq"):
            system.prepare_pair(model, be_app(system, name))
        policy = system.make_policy("hfuse", guard=True)
        result = system.run_custom(
            model, ("sgemm", "mriq"), policy, n_queries=10,
            faults=FaultPlan(predictor_bias=0.5),
        )
        refused = [
            decision for decision in result.telemetry.decisions
            if decision.kind == "hfused"
            and decision.admission in ("shed", "deferred")
        ]
        assert refused
        assert result.n_shed_be + result.n_deferred_be >= len(refused)


class TestFaultedServerRuns:
    def test_dropped_launches_burn_time_without_credit(self, system):
        plan = FaultPlan(be_drop=1.0)
        policy = BaymaxPolicy(system.gpu, system.models, 50.0)
        server = ColocationServer(
            system.gpu, oracle=system.oracle, policy=policy,
            faults=FaultInjector(plan),
        )
        result = server.run(
            make_queries(system, 3, gap_ms=100.0), [be_app(system)]
        )
        assert result.n_dropped_be == result.n_be_kernels > 0
        assert result.total_be_work_ms == 0.0
        assert result.fault_events["be_dropped"] == result.n_dropped_be

    def test_delayed_launches_credit_solo_work(self, system):
        plan = FaultPlan(be_delay=1.0, be_delay_factor=2.0)
        policy = BaymaxPolicy(system.gpu, system.models, 50.0)
        server = ColocationServer(
            system.gpu, oracle=system.oracle, policy=policy,
            faults=FaultInjector(plan),
        )
        queries = make_queries(system, 3, gap_ms=100.0)
        faulted = server.run(queries, [be_app(system)])
        assert faulted.n_delayed_be == faulted.n_be_kernels > 0
        # credited work is the solo duration, not the inflated one
        app = be_app(system)
        solo = system.oracle.solo_ms(app.head.kernel, app.head.grid)
        assert faulted.total_be_work_ms == pytest.approx(
            solo * faulted.n_be_kernels, rel=1e-6
        )


class TestBEFaultsReachEveryPart:
    """BE completion faults hit the BE part of every launch kind."""

    #: the launch kind each registered policy co-runs BE work with
    KIND = {"baymax": "be", "gpuos": "fused", "hfuse": "hfused",
            "multifuse": "chain", "spatial": "spatial", "tacker": "fused"}

    @staticmethod
    def serve(build, monkeypatch, name, plan):
        """A faulted run plus the fault-free price of each launch."""
        system, policy, queries, be_apps = build(name)
        server = ColocationServer(
            system.gpu, oracle=system.oracle, policy=policy,
            config=system.config, faults=FaultInjector(plan),
            record_kernels=True,
        )
        priced = []
        price = server._price

        def spy(action, now):
            priced.append(price(action, now))
            return priced[-1]

        monkeypatch.setattr(server, "_price", spy)
        completions = []
        advance = Query.advance

        def note_completion(query, end):
            completions.append(end)
            advance(query, end)

        monkeypatch.setattr(Query, "advance", note_completion)
        result = server.run(queries, be_apps)
        return result, priced, completions, be_apps

    @pytest.mark.parametrize("name", list_policies())
    def test_drop_credits_no_be_work(
        self, every_kind_colocation, monkeypatch, name
    ):
        result, priced, _, be_apps = self.serve(
            every_kind_colocation, monkeypatch, name, FaultPlan(be_drop=1.0)
        )
        assert result.kernel_counts()[self.KIND[name]] > 0
        n_parts = sum(len(parts) for *_, parts, _ in priced)
        assert n_parts > 0
        assert result.n_dropped_be == n_parts
        assert result.total_be_work_ms == 0.0
        assert all(app.completed_kernels == 0 for app in be_apps)

    @pytest.mark.parametrize("name", list_policies())
    def test_delay_stretches_every_be_launch(
        self, every_kind_colocation, monkeypatch, name
    ):
        factor = 4.0
        result, priced, completions, _ = self.serve(
            every_kind_colocation, monkeypatch, name,
            FaultPlan(be_delay=1.0, be_delay_factor=factor),
        )
        assert result.kernel_counts()[self.KIND[name]] > 0
        assert len(result.executed) == len(priced)
        n_parts = sum(len(parts) for *_, parts, _ in priced)
        assert n_parts > 0 and result.n_delayed_be == n_parts
        lc_ends = []
        for kernel, (_, duration, _, _, _, lc_end, _, parts, _) in zip(
            result.executed, priced
        ):
            served_ms = kernel.end_ms - kernel.start_ms
            if parts:
                # the launch ends at its latest part, each BE part
                # finishing at start + factor x its healthy offset
                latest = factor * max(offset for _, _, offset in parts)
                assert served_ms > duration
                assert served_ms == pytest.approx(
                    max(duration, latest), rel=1e-9
                ), kernel
            else:
                assert served_ms == pytest.approx(duration, rel=1e-9)
            # an LC kernel completes with its launch (a fused or chain
            # LC half waits for the delayed BE half), except a spatial
            # LC partition, which finishes before the BE one drains
            if kernel.kind == "spatial":
                assert lc_end < kernel.end_ms
                lc_ends.append(lc_end)
            elif kernel.kind in ("lc", "fused", "chain"):
                lc_ends.append(kernel.end_ms)
        assert completions == lc_ends


class TestSystemIntegration:
    def test_clean_plan_matches_no_plan(self, system):
        model = model_by_name("resnet50")
        runs = []
        for faults in (False, FaultPlan()):
            policy = system.make_policy("baymax")
            runs.append(system.run_custom(
                model, ["fft"], policy, n_queries=10, faults=faults
            ))
        assert runs[0].latencies_ms == runs[1].latencies_ms
        assert runs[0].total_be_work_ms == runs[1].total_be_work_ms

    def test_faulted_run_is_reproducible(self, system):
        model = model_by_name("resnet50")
        plan = FaultPlan(
            predictor_noise=0.2, predictor_bias=0.9, be_drop=0.2,
            burst=0.2, burst_size=3,
        )
        runs = []
        for _ in range(2):
            policy = system.make_policy("baymax")
            runs.append(system.run_custom(
                model, ["fft"], policy, n_queries=10, faults=plan
            ))
        assert runs[0].latencies_ms == runs[1].latencies_ms
        assert runs[0].fault_events == runs[1].fault_events

    def test_perturbation_hook_is_uninstalled_after_run(self, system):
        model = model_by_name("resnet50")
        policy = system.make_policy("baymax")
        system.run_custom(
            model, ["fft"], policy, n_queries=5,
            faults=FaultPlan(predictor_noise=0.2),
        )
        assert system.models.perturb is None

    def test_make_policy_guard_forms(self, system):
        assert system.make_policy("tacker").guard is None
        guarded = system.make_policy("tacker", guard=True)
        assert isinstance(guarded.guard, MispredictGuard)
        config = GuardConfig(margin_factor=3.0)
        custom = system.make_policy("baymax", guard=config)
        assert custom.guard.config is config


class TestNodeFaults:
    """Node-level fault schedules (the autoscaling control plane's
    crash / slow / flap modes)."""

    def test_kind_is_validated(self):
        with pytest.raises(ConfigError, match="unknown node fault kind"):
            NodeFault(kind="meltdown", node=0)

    @pytest.mark.parametrize("kwargs", [
        dict(kind="crash", node=-1),
        dict(kind="crash", node=0, at_ms=-1.0),
        dict(kind="slow", node=0, factor=1.0),
        dict(kind="flap", node=0, down_ms=0.0),
        dict(kind="flap", node=0, up_ms=-5.0),
    ])
    def test_bad_fault_knobs(self, kwargs):
        with pytest.raises(ConfigError):
            NodeFault(**kwargs)

    def test_crash_is_permanent(self):
        fault = NodeFault(kind="crash", node=0, at_ms=100.0)
        assert not fault.is_down(99.9)
        assert fault.is_down(100.0)
        assert fault.is_down(1e9)

    def test_flap_phase_math(self):
        fault = NodeFault(kind="flap", node=0, at_ms=1000.0,
                          down_ms=200.0, up_ms=300.0)
        assert not fault.is_down(999.0)     # before onset
        assert fault.is_down(1000.0)        # down window starts
        assert fault.is_down(1199.0)
        assert not fault.is_down(1200.0)    # up window
        assert not fault.is_down(1499.0)
        assert fault.is_down(1500.0)        # next period
        assert fault.slow_factor_at(1100.0) == 1.0

    def test_slow_factor_onset(self):
        fault = NodeFault(kind="slow", node=2, at_ms=500.0, factor=3.0)
        assert fault.slow_factor_at(499.0) == 1.0
        assert fault.slow_factor_at(500.0) == 3.0
        assert not fault.is_down(600.0)     # slow nodes stay routable

    def test_plan_rejects_non_faults(self):
        with pytest.raises(ConfigError, match="not a NodeFault"):
            NodeFaultPlan(faults=("crash",))

    def test_plan_is_per_node(self):
        plan = NodeFaultPlan(faults=(
            NodeFault(kind="crash", node=0, at_ms=100.0),
            NodeFault(kind="slow", node=1, at_ms=0.0, factor=2.0),
            NodeFault(kind="slow", node=1, at_ms=50.0, factor=3.0),
        ))
        assert plan.any_faults
        assert len(plan.for_node(1)) == 2
        assert plan.for_node(2) == ()
        assert plan.is_down(0, 150.0) and not plan.is_down(1, 150.0)
        # stacked slowdowns multiply
        assert plan.slow_factor(1, 60.0) == 6.0
        assert plan.slow_factor(1, 10.0) == 2.0

    def test_crash_window_queries(self):
        plan = NodeFaultPlan(faults=(
            NodeFault(kind="crash", node=0, at_ms=2500.0),
        ))
        assert plan.crash_in(0, 2000.0, 3000.0) == 2500.0
        assert plan.crash_in(0, 0.0, 2000.0) is None
        assert plan.crash_in(0, 2500.0, 2600.0) == 2500.0
        assert plan.crash_in(1, 0.0, 1e9) is None
        assert not plan.crashed_by(0, 2499.0)
        assert plan.crashed_by(0, 2500.0)

    def test_empty_plan_is_inert(self):
        plan = NodeFaultPlan()
        assert not plan.any_faults
        assert not plan.is_down(0, 0.0)
        assert plan.slow_factor(0, 0.0) == 1.0
