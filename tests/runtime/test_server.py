"""Tests for the co-location server."""

import pytest

from repro.errors import ConfigError, SchedulingError
from repro.models.zoo import model_by_name
from repro.runtime.policies import BaymaxPolicy, TackerPolicy
from repro.runtime.query import BEApplication, KernelInstance, Query
from repro.runtime.server import ColocationServer
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


def run(system, policy_cls, queries, apps, **kwargs):
    if policy_cls is TackerPolicy:
        policy = TackerPolicy(
            system.gpu, system.models, 50.0, system.artifacts
        )
    else:
        policy = BaymaxPolicy(system.gpu, system.models, 50.0)
    server = ColocationServer(
        system.gpu, oracle=system.oracle, policy=policy, **kwargs
    )
    return server.run(queries, apps)


class TestBasicRuns:
    def test_all_queries_complete(self, system):
        queries = make_queries(system, 5)
        result = run(system, BaymaxPolicy, queries, [be_app(system)])
        assert len(result.latencies_ms) == 5
        assert all(q.done for q in queries)

    def test_rejects_empty_trace(self, system):
        with pytest.raises(SchedulingError):
            run(system, BaymaxPolicy, [], [be_app(system)])

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_slow_factor(self, system, factor):
        with pytest.raises(ConfigError, match="slow_factor"):
            run(system, BaymaxPolicy, [], [], slow_factor=factor)

    def test_lc_only_latency_is_solo(self, system):
        queries = make_queries(system, 3, gap_ms=100.0)
        result = run(system, BaymaxPolicy, queries, [])
        solo = sum(
            system.oracle.solo_ms(i.kernel, i.grid)
            for i in queries[0].instances
        )
        assert result.latencies_ms[0] == pytest.approx(solo, rel=0.01)

    def test_be_fills_idle_time(self, system):
        queries = make_queries(system, 3, gap_ms=100.0)
        result = run(system, BaymaxPolicy, queries, [be_app(system)])
        assert result.total_be_work_ms > 0
        assert result.n_be_kernels > 0

    def test_horizon_defaults_to_last_arrival_plus_qos(self, system):
        queries = make_queries(system, 3, gap_ms=40.0)
        result = run(system, BaymaxPolicy, queries, [be_app(system)])
        assert result.horizon_ms == pytest.approx(2 * 40.0 + 50.0)


class TestFusedExecution:
    def test_tacker_fuses_and_credits_be_work(self, system):
        queries = make_queries(system, 4, gap_ms=30.0)
        result = run(system, TackerPolicy, queries, [be_app(system)])
        assert result.n_fused_kernels > 0

    def test_fused_timelines_overlap(self, system):
        queries = make_queries(system, 4, gap_ms=30.0)
        result = run(system, TackerPolicy, queries, [be_app(system)])
        both = result.tc_timeline.intersection(result.cd_timeline)
        assert both.total() > 0

    def test_baymax_timelines_never_overlap(self, system):
        queries = make_queries(system, 4, gap_ms=30.0)
        result = run(system, BaymaxPolicy, queries, [be_app(system)])
        both = result.tc_timeline.intersection(result.cd_timeline)
        assert both.total() == pytest.approx(0.0, abs=1e-9)

    def test_kernel_recording_optional(self, system):
        queries = make_queries(system, 2, gap_ms=50.0)
        bare = run(system, TackerPolicy, queries, [be_app(system)])
        assert bare.executed == []
        queries = make_queries(system, 2, gap_ms=50.0)
        traced = run(
            system, TackerPolicy, queries, [be_app(system)],
            record_kernels=True,
        )
        assert len(traced.executed) > 0
        kinds = {e.kind for e in traced.executed}
        assert kinds <= {"lc", "be", "fused"}


class TestResultStatistics:
    def test_latency_stats(self, system):
        queries = make_queries(system, 10, gap_ms=25.0)
        result = run(system, BaymaxPolicy, queries, [be_app(system)])
        assert result.mean_latency_ms <= result.p99_latency_ms
        assert 0.0 <= result.qos_violation_rate <= 1.0

    def test_be_throughput_normalized_by_horizon(self, system):
        queries = make_queries(system, 5, gap_ms=40.0)
        result = run(system, BaymaxPolicy, queries, [be_app(system)])
        assert result.be_throughput == pytest.approx(
            result.total_be_work_ms / result.horizon_ms
        )


class TestBurstBehaviour:
    def test_burst_suppresses_be_work(self, system):
        """Eq. 9: with several queries queued, the binding slack goes
        negative and the scheduler stops feeding BE kernels."""
        instances = tuple(
            __import__("repro.runtime.query", fromlist=["KernelInstance"])
            .KernelInstance(system.library.get(n),
                            system.library.get(n).default_grid)
            for n in ("tgemm_l",) * 20
        )
        from repro.models.zoo import model_by_name
        from repro.runtime.query import Query

        burst = [
            Query(model_by_name("resnet50"), 0.0, instances)
            for _ in range(4)
        ]
        result = run(system, TackerPolicy, burst, [be_app(system)])
        solo = 20 * system.oracle.solo_ms(system.library.get("tgemm_l"))
        # Four queries of `solo` ms each arrive together: the later ones
        # cannot meet QoS, so BE admission must be heavily suppressed.
        assert result.total_be_work_ms < 0.2 * (4 * solo)

    def test_fifo_service_order(self, system):
        queries = make_queries(system, 4, gap_ms=1.0)
        run(system, BaymaxPolicy, queries, [])
        finishes = [q.finish_ms for q in queries]
        assert finishes == sorted(finishes)
