"""Smoke tests for the experiment harnesses (quick configurations).

The full sweeps live in ``benchmarks/``; these tests check that every
harness runs, produces well-formed rows/summaries, and preserves its
experiment's defining property at reduced scale.
"""

import pytest

from repro.experiments import (
    ablations,
    fig02_motivation,
    fig03_direct_fusion,
    fig10_load_ratio,
    fig11_fixed_ratio,
    fig15_timelines,
    fig17_pred_single,
    fig18_pred_fused,
    fig20_corun,
    fig21_im2col,
    tab01_microbench,
    tab03_cudnn,
    tab_overhead,
)
from repro.errors import SchedulingError
from repro.experiments.common import format_table, geometric_spacing
from repro.runtime.policies import Action


class TestCommonHelpers:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in lines[2]

    def test_geometric_spacing(self):
        points = geometric_spacing(1.0, 8.0, 4)
        assert points[0] == pytest.approx(1.0)
        assert points[-1] == pytest.approx(8.0)
        ratios = [b / a for a, b in zip(points, points[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)


class TestMicroExperiments:
    def test_tab01(self):
        result = tab01_microbench.run()
        assert result.summary()["bench_a"] < 1.2
        assert len(result.rows()) == 3

    def test_fig03(self):
        result = fig03_direct_fusion.run()
        assert result.summary()["mean_normalized"] > 1.5

    def test_fig10(self):
        result = fig10_load_ratio.run(points=6)
        summary = result.summary()
        assert summary["after_slope"] > summary["before_slope"]

    def test_fig11(self):
        result = fig11_fixed_ratio.run()
        assert result.summary()["min_r_squared"] > 0.98

    def test_tab03(self):
        result = tab03_cudnn.run()
        assert result.summary()["n_implementations"] == 12

    def test_fig21(self):
        result = fig21_im2col.run()
        assert result.summary()["worst_loss"] < 0.02
        assert len(result.resnet50_normalized) == 53

    def test_overhead(self):
        result = tab_overhead.run()
        assert result.modeled_scheduling_ms > result.modeled_static_ms
        assert result.measured_tacker_decision_us > 0
        assert result.measured_baymax_decision_us > 0

    def test_overhead_times_only_the_named_kind(self):
        class PacedOut:
            """Reorders, then takes the LC exit, as Baymax does when
            asked again about a kernel it already reordered before."""

            def __init__(self):
                self.kinds = iter(["be", "be", "lc"])

            def decide(self, now_ms, active, be_apps):
                return Action(next(self.kinds))

        with pytest.raises(SchedulingError):
            tab_overhead._measure_decision_us(PacedOut(), [[]] * 3, [], "be")


class TestPredictionExperiments:
    def test_fig17_subset(self):
        result = fig17_pred_single.run(kernels=("fft", "relu"))
        assert result.summary()["worst_kernel_max_error"] < 0.05

    def test_fig18_subset(self):
        result = fig18_pred_fused.run(pairs=(("tgemm_l", "fft"),))
        summary = result.summary()
        assert summary["worst_before_inflection"] < 0.08
        assert summary["worst_after_inflection"] < 0.08


class TestServerExperiments:
    def test_fig02_single_pair(self):
        result = fig02_motivation.run(
            lc_names=("resnet50",), be_names=("fft",), n_queries=8
        )
        summary = result.summary()
        assert summary["mean_stacked"] > 0.95
        assert summary["max_both_active"] < 0.02

    def test_fig15_small(self):
        result = fig15_timelines.run(n_queries=8)
        assert result.co_active_fraction("fft") > 0
        assert len(result.segments("fft", limit=5)) == 5

    def test_fig20_shape(self):
        result = fig20_corun.run()
        summary = result.summary()
        assert summary["tacker_wins"] == summary["n_pairs"]


class TestAblations:
    def test_ratio(self):
        result = ablations.ratio_ablation(
            pairs=(("tgemm_l", "fft"), ("tgemm_l", "cp"))
        )
        assert result.summary()["mean_flexible_over_naive"] > 1.0

    def test_predictor(self):
        result = ablations.predictor_ablation()
        summary = result.summary()
        assert summary["single_lr_max_error"] > summary[
            "two_stage_max_error"
        ]

    def test_policy(self):
        result = ablations.policy_ablation(n_queries=10)
        summary = result.summary()
        assert summary["fusion+reorder_vs_reorder"] >= 1.0


class TestExtensionExperiments:
    def test_energy(self):
        from repro.experiments import energy

        result = energy.run(n_queries=10)
        summary = result.summary()
        assert summary["energy_saving"] > 0
        assert summary["tacker_watts"] <= 251.0  # clamped at the limit

    def test_arrival_study(self):
        from repro.experiments import arrival_study

        result = arrival_study.run(models=("densenet",))
        stats = result.per_model["Densenet"]
        assert stats["poisson_peak_qps"] < stats["paced_peak_qps"]

    def test_multi_tenant(self):
        from repro.experiments import multi_tenant

        result = multi_tenant.run(
            lc_names=("vgg16", "densenet"), be_names=("mriq",),
            n_queries=8,
        )
        assert result.summary()["n_services"] == 2

    def test_batch_sensitivity(self):
        from repro.experiments import batch_sensitivity

        result = batch_sensitivity.run(batches=(8, 32), n_queries=10)
        summary = result.summary()
        assert summary["small_batch"] == 8
        assert summary["improvement_large"] >= 0


class TestCommonInfrastructure:
    def test_quick_mode_env(self, monkeypatch):
        from repro.experiments import common

        monkeypatch.delenv(common.QUICK_ENV, raising=False)
        assert not common.quick_mode()
        assert common.default_queries(100, 10) == 100
        monkeypatch.setenv(common.QUICK_ENV, "1")
        assert common.quick_mode()
        assert common.default_queries(100, 10) == 10
        monkeypatch.setenv(common.QUICK_ENV, "0")
        assert not common.quick_mode()

    def test_get_system_cached_per_gpu(self):
        from repro.experiments.common import get_system

        assert get_system("rtx2080ti") is get_system("RTX2080Ti")
        assert get_system("v100") is not get_system("rtx2080ti")

    def test_fig14_result_cache(self):
        from repro.experiments import fig14_throughput

        a = fig14_throughput.run(
            lc_names=("densenet",), be_names=("mriq",), n_queries=6
        )
        b = fig14_throughput.run(
            lc_names=("densenet",), be_names=("mriq",), n_queries=6
        )
        assert a is b  # same cache entry, no re-run

    def test_fig14_outcomes_keyed_on_requested_pair(self):
        from repro.experiments import fig14_throughput

        result = fig14_throughput.run(
            lc_names=("densenet",), be_names=("mriq",), n_queries=6
        )
        assert set(result.outcomes) == {("densenet", "mriq")}

    def test_format_table_widens_for_long_cells(self):
        long_name = "(improvement %)"
        text = format_table(["service", "p99 ms"], [[long_name, 4.8]])
        header, sep, row = text.splitlines()
        # Every line shares one width; the long cell pushes its whole
        # column out instead of colliding with its neighbour.
        assert len(header) == len(sep) == len(row)
        assert row.startswith(long_name)
        assert row.endswith("4.800")

    def test_perf_counters_track_oracle(self):
        from repro.experiments import common

        baseline = common.perf_counters()
        timed = common.timed_run(
            lambda: common.get_system("rtx2080ti").oracle.solo_cycles(
                common.get_system("rtx2080ti").library.get("mriq")
            )
        )
        assert timed.wall_s >= 0.0
        total = timed.counters
        assert (
            total.oracle_hits + total.oracle_misses
            + total.oracle_persistent_hits >= 1
        )
        assert "wall" in timed.perf_line()
        after = common.perf_counters().delta(baseline)
        assert after.oracle_misses >= 0

    def test_perf_counters_break_down_fastpath_dispatch(self, gpu):
        from repro.experiments import common
        from repro.gpusim import fastpath
        from repro.gpusim.gpu import clear_result_memo, simulate_launch
        from repro.kernels.parboil import mriq

        fastpath.STATS.reset()
        clear_result_memo()
        before = common.perf_counters()
        simulate_launch(mriq().launch(1000), gpu)
        delta = common.perf_counters().delta(before)
        assert delta.fastpath_fast == 1
        assert delta.fastpath_by_shape == {fastpath.SHAPE_PLAIN: 1}
        assert delta.fastpath_rejects == {}
        flat = delta.as_dict()
        assert flat[f"fastpath_fast[{fastpath.SHAPE_PLAIN}]"] == 1

    def test_perf_counters_break_down_fastpath_rejects(
        self, gpu, monkeypatch
    ):
        from repro.experiments import common
        from repro.gpusim import fastpath
        from repro.gpusim.gpu import clear_result_memo, simulate_launch
        from repro.kernels.parboil import mriq

        fastpath.STATS.reset()
        clear_result_memo()
        monkeypatch.setenv(fastpath.FASTPATH_ENV, "0")
        before = common.perf_counters()
        simulate_launch(mriq().launch(1000), gpu)
        delta = common.perf_counters().delta(before)
        assert delta.fastpath_engine == 1
        assert delta.fastpath_rejects == {fastpath.REASON_DISABLED: 1}
        assert "rejects: disabled=1" in common.TimedResult(
            value=None, wall_s=0.0, counters=delta
        ).perf_line()

    def test_publish_perf_metrics_exports_breakdowns(self, gpu):
        from repro.experiments import common
        from repro.gpusim import fastpath
        from repro.gpusim.gpu import clear_result_memo, simulate_launch
        from repro.kernels.parboil import mriq
        from repro.telemetry.registry import MetricsRegistry

        fastpath.STATS.reset()
        clear_result_memo()
        simulate_launch(mriq().launch(1000), gpu)
        registry = MetricsRegistry()
        common.publish_perf_metrics(registry)
        exposition = registry.prometheus_text()
        assert "repro_fastpath_shape_total" in exposition
        assert f'shape="{fastpath.SHAPE_PLAIN}"' in exposition


class TestParallelSweeps:
    def test_worker_count_resolution(self, monkeypatch):
        from repro.experiments import common

        monkeypatch.delenv(common.WORKERS_ENV, raising=False)
        monkeypatch.delenv(common._IN_WORKER_ENV, raising=False)
        assert common.worker_count() == 1
        assert common.worker_count(3) == 3
        monkeypatch.setenv(common.WORKERS_ENV, "4")
        assert common.worker_count() == 4
        assert common.worker_count(2) == 2  # explicit arg wins
        monkeypatch.setenv(common.WORKERS_ENV, "auto")
        assert common.worker_count() >= 1
        monkeypatch.setenv(common.WORKERS_ENV, "nonsense")
        assert common.worker_count() == 1
        # Workers never nest pools.
        monkeypatch.setenv(common.WORKERS_ENV, "8")
        monkeypatch.setenv(common._IN_WORKER_ENV, "1")
        assert common.worker_count() == 1

    def test_parallel_map_serial_path(self):
        from repro.experiments.common import parallel_map

        assert parallel_map(str.upper, ["a", "b"], workers=1) == ["A", "B"]

    def test_parallel_map_failure_keeps_finished_work(
        self, tmp_path, monkeypatch
    ):
        """One failing item still lets every finished item's simulations
        reach the parent's store, then names the failing item."""
        from repro.errors import ParallelMapError
        from repro.experiments import common

        common.reset_systems()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        try:
            store = common.get_system("rtx2080ti").oracle.store
            grids = [101, 102, 103, 104]
            with pytest.raises(ParallelMapError, match="item 2 of 4") as info:
                common.parallel_map(_simulate_or_fail, grids, workers=2)
            assert info.value.index == 2
            assert isinstance(info.value.__cause__, ValueError)
            stored = {key.rsplit("|", 1)[1] for key in store.solo
                      if key.startswith("mriq|")}
            assert stored == {"101", "102", "104"}
        finally:
            common.reset_systems()

    def test_parallel_map_ships_only_new_store_entries(
        self, tmp_path, monkeypatch
    ):
        """Each item ships only the store entries it added, each
        distinct store merges them once, and the parent's store ends as
        a serial run leaves it."""
        from repro.experiments import common

        grids = [111, 112, 113, 114]
        monkeypatch.setenv(common._IN_WORKER_ENV, "")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        common.reset_systems()
        try:
            serial = common.get_system("rtx2080ti").oracle.store
            common.parallel_map(_simulate_or_fail, grids, workers=1)
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "workers"))
            common.reset_systems()
            store = common.get_system("rtx2080ti").oracle.store
            # a second system of the same GPU shares the store
            common.get_system("rtx2080ti", common.DEFAULT_RUN_CONFIG
                              .with_overrides(queries=7))
            shipped = []
            merge = common._merge_store_deltas

            def record(deltas):
                deltas = list(deltas)
                shipped.extend(deltas)
                merge(deltas)

            monkeypatch.setattr(common, "_merge_store_deltas", record)
            common.parallel_map(_simulate_or_fail, grids, workers=2)
            assert (store.solo, store.fused) == (serial.solo, serial.fused)
            assert len(shipped) == len(grids)
            for grid, delta in zip(grids, shipped):
                (sections,) = delta.values()
                assert {key.rsplit("|", 1)[1] for key in sections["solo"]} \
                    == {str(grid)}
            # in process: a payload is exactly what the item added
            before = set(store.solo)
            _, delta, _ = common._invoke_task((_simulate_or_fail, 115))
            (sections,) = delta.values()
            assert set(sections["solo"]) == set(store.solo) - before
            assert len(sections["solo"]) == 1 and not sections["fused"]
            _, delta, _ = common._invoke_task((_simulate_or_fail, 115))
            assert delta == {}
        finally:
            common.reset_systems()

    def test_parallel_fig14_identical_to_serial(self):
        """The acceptance bar: a parallel sweep is byte-identical to a
        serial one — same outcomes, same formatted table."""
        from repro.experiments import fig14_throughput

        lc, be = ("densenet", "vgg16"), ("mriq", "fft")
        serial = fig14_throughput.run(
            lc_names=lc, be_names=be, n_queries=6, workers=1
        )
        fig14_throughput.clear_cache()
        parallel = fig14_throughput.run(
            lc_names=lc, be_names=be, n_queries=6, workers=2
        )
        assert list(parallel.outcomes) == list(serial.outcomes)
        headers = ["LC", "BE", "improvement %", "tacker p99", "baymax p99"]
        assert format_table(headers, parallel.rows()) == format_table(
            headers, serial.rows()
        )
        assert parallel.summary() == serial.summary()


def _simulate_or_fail(grid):
    """parallel_map item: one fresh mriq simulation, except grid 103."""
    from repro.experiments import common

    if grid == 103:
        raise ValueError("injected failure")
    system = common.get_system("rtx2080ti")
    return system.oracle.solo_cycles(system.library.get("mriq"), grid)
