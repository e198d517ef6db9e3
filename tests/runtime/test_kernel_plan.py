"""Kernel plans: per-cursor prices of a query's kernel sequence.

Every value a plan serves must be the one the unplanned computation
gives, bit for bit: the ground-truth remaining sums add left to right
(as ``sum()`` over the remaining kernels does), the predicted suffix
sums right to left, and a perturbed prediction is drawn exactly as
often as before.
"""

import pytest

from repro.models.zoo import model_by_name
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.headroom import HeadroomTracker
from repro.runtime.policies import (
    Action,
    BaymaxPolicy,
    GuardConfig,
    MispredictGuard,
)
from repro.runtime.query import (
    BEApplication,
    KernelInstance,
    KernelPlan,
    Query,
)
from repro.runtime.runconfig import RunConfig
from repro.runtime.server import ColocationServer
from repro.runtime.system import TackerSystem
from repro.runtime.workload import PoissonArrivals, query_instances


@pytest.fixture(scope="module")
def system(gpu):
    return TackerSystem(gpu=gpu, config=RunConfig(queries=8), store=None)


def service(system, name="resnet50"):
    """A model and a fresh plan over its whole kernel sequence."""
    model = model_by_name(name)
    return model, KernelPlan(query_instances(model, system.library))


def queries_of(model, plan, arrivals):
    return [
        Query(model, arrival, plan.instances, plan=plan)
        for arrival in arrivals
    ]


def server(system, factor=1.0, guard=None):
    policy = BaymaxPolicy(system.gpu, system.models, 50.0, guard=guard)
    return ColocationServer(
        system.gpu, oracle=system.oracle, policy=policy,
        config=system.config, slow_factor=factor,
    )


def served_sum(oracle, instances, factor):
    return sum(oracle.solo_ms(i.kernel, i.grid) * factor for i in instances)


class TestSharing:
    def test_arrivals_share_one_plan(self, system):
        arrivals = PoissonArrivals(
            model_by_name("vgg16"), system.library, system.oracle
        )
        queries = arrivals.queries(5)
        assert len({id(query.plan) for query in queries}) == 1
        assert queries[0].plan.instances is queries[0].instances

    def test_a_query_without_a_plan_gets_its_own(self, system):
        model, plan = service(system, "vgg16")
        first = Query(model, 0.0, plan.instances)
        second = Query(model, 0.0, plan.instances)
        assert first.plan is not second.plan
        assert first.plan.instances is plan.instances

    def test_one_solo_lookup_per_kernel_of_each_sequence(
        self, gpu, monkeypatch
    ):
        """However many queries it serves, a serve with no BE apps looks
        each kernel of each distinct sequence up once."""
        fresh = TackerSystem(gpu=gpu, config=RunConfig(queries=8), store=None)
        services = [service(fresh, "vgg16"), service(fresh, "vgg19")]
        queries = sorted(
            (query for index, (model, plan) in enumerate(services)
             for query in queries_of(
                 model, plan, [index * 7.0 + 30.0 * i for i in range(6)]
             )),
            key=lambda query: query.arrival_ms,
        )
        oracle = fresh.oracle
        lookups = []
        solo_ms = oracle.solo_ms

        def counted(kernel, grid=None):
            lookups.append((kernel.name, grid))
            return solo_ms(kernel, grid)

        monkeypatch.setattr(oracle, "solo_ms", counted)
        result = server(fresh).serve(queries, [])
        assert result.n_lc_kernels == sum(len(q.instances) for q in queries)
        assert len(lookups) == sum(len(plan.instances) for _, plan in services)


class TestGroundTruth:
    @pytest.mark.parametrize("factor", [1.0, 2.5])
    def test_remaining_is_the_left_to_right_sum(self, system, factor):
        node = server(system, factor)
        model, plan = service(system)
        query = Query(model, 0.0, plan.instances, plan=plan)
        oracle, instances = system.oracle, plan.instances
        for cursor in range(len(instances) + 1):
            query.cursor = cursor
            assert node._true_remaining_ms(query) == served_sum(
                oracle, instances[cursor:], factor
            )
            if cursor < len(instances):
                current = instances[cursor]
                priced = node._price(Action(kind="lc", query=query), 0.0)
                assert priced[1] == oracle.solo_ms(
                    current.kernel, current.grid
                ) * factor

    def test_servers_with_different_factors_keep_separate_columns(
        self, system
    ):
        slow, healthy = server(system, 2.5), server(system)
        model, plan = service(system)
        active = queries_of(model, plan, [0.0, 4.0])
        active[0].cursor = 17
        oracle = system.oracle
        for _ in range(2):  # interleaved reads never share a column
            for node, factor in ((slow, 2.5), (healthy, 1.0)):
                assert node._true_remaining_ms(active[0]) == served_sum(
                    oracle, plan.instances[17:], factor
                )
                assert node.true_headroom_ms(10.0, active) < float("inf")
        assert slow.true_headroom_ms(10.0, active) < healthy.true_headroom_ms(
            10.0, active
        )
        assert plan.remaining_ms(oracle, 2.5) is not plan.remaining_ms(
            oracle, 1.0
        )


class TestPredictedColumns:
    def test_suffix_is_the_right_to_left_build(self, system):
        policy = BaymaxPolicy(system.gpu, system.models, 50.0)
        model, plan = service(system)
        query = Query(model, 0.0, plan.instances, plan=plan)
        expected = [0.0]
        for instance in reversed(plan.instances):
            expected.append(expected[-1] + policy.predict_ms(instance))
        expected.reverse()
        for cursor in range(len(expected)):
            query.cursor = cursor
            assert policy.headroom.predicted_remaining_ms(query) == (
                expected[cursor]
            )
            if cursor < len(plan.instances):
                assert policy.predict_lc_ms(query) == policy.predict_ms(
                    plan.instances[cursor]
                )

    def test_suffix_rebuilt_once_per_model_version(self, system):
        state = {"version": 0}
        calls = []

        def predict(instance):
            calls.append(instance)
            return 1.0 + state["version"]

        tracker = HeadroomTracker(
            50.0, predict, version=lambda: state["version"]
        )
        model, plan = service(system, "vgg16")
        active = queries_of(model, plan, [0.0, 3.0])
        n = len(plan.instances)
        for _ in range(3):
            tracker.headroom_ms(5.0, active)
        assert len(calls) == n
        state["version"] = 1
        for _ in range(3):
            tracker.headroom_ms(5.0, active)
        assert len(calls) == 2 * n
        assert tracker.predicted_remaining_ms(active[0]) == 2.0 * n

    def test_perturbed_suffix_drawn_once_per_sequence_and_version(
        self, system
    ):
        policy = BaymaxPolicy(system.gpu, system.models, 50.0)
        injector = FaultInjector(FaultPlan(predictor_noise=0.3))
        model, plan = service(system, "vgg16")
        active = queries_of(model, plan, [0.0, 2.0, 4.0])
        models = policy.models
        previous = models.perturb
        models.perturb = injector.perturb_prediction
        try:
            first = policy.headroom.headroom_ms(6.0, active)
            assert injector.predictions_perturbed == len(plan.instances)
            assert policy.headroom.headroom_ms(6.0, active) == first
            assert injector.predictions_perturbed == len(plan.instances)
            # the LC launch's own prediction bypasses the plan
            policy.predict_lc_ms(active[0])
            assert injector.predictions_perturbed == len(plan.instances) + 1
        finally:
            models.perturb = previous

    def test_be_head_priced_once_per_stream_cursor(self, system, monkeypatch):
        policy = BaymaxPolicy(system.gpu, system.models, 50.0)
        kernel = system.library.get("fft")
        app = BEApplication(
            "fft", (KernelInstance(kernel, kernel.default_grid),)
        )
        priced = []
        predict_ms = policy.predict_ms

        def counted(instance):
            priced.append(instance)
            return predict_ms(instance)

        monkeypatch.setattr(policy, "predict_ms", counted)
        first = policy.predict_head_ms(app)
        assert policy.predict_head_ms(app) == first
        assert len(priced) == 1
        app.complete_head(0.0)
        assert policy.predict_head_ms(app) == predict_ms(app.head)
        assert len(priced) == 2


class TestGuardedThreshold:
    def test_one_pass_threshold_matches_the_two_pass_sum(self, system):
        guard = MispredictGuard(GuardConfig())
        guard.note_launch("k", 20.0, 13.0)  # a non-zero error band
        policy = BaymaxPolicy(system.gpu, system.models, 50.0, guard=guard)
        (resnet, resnet_plan), (vgg, vgg_plan) = (
            service(system), service(system, "vgg16")
        )
        active = [
            *queries_of(resnet, resnet_plan, [0.0, 1.5]),
            *queries_of(vgg, vgg_plan, [2.25]),
        ]
        active[0].cursor = 40
        active[2].cursor = 3
        now = 12.5
        remaining = sum(
            policy.headroom.predicted_remaining_ms(query) for query in active
        )
        assert guard.margin_ms(remaining) > 0
        thr = policy.current_thr_ms(now, active)
        assert thr == policy.headroom.headroom_ms(now, active) - (
            guard.margin_ms(remaining)
        )
        assert thr == policy._guarded_thr(
            policy.headroom.headroom_ms(now, active), active
        )
        assert policy._thr_with_reservation(now, active)[0] == thr
