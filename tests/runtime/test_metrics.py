"""Tests for the evaluation metrics."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.gpusim.trace import Timeline
from repro.runtime.metrics import (
    active_time_breakdown,
    active_time_breakdown_by_service,
    geometric_mean,
    latency_stats,
    latency_stats_by_service,
    merged_latency_sketch,
    merged_latency_stats,
    merged_p99_ms,
    throughput_improvement,
)
from repro.runtime.replay import StreamingResult
from repro.runtime.server import ExecutedKernel, ServerResult


def result(be_work=10.0, horizon=100.0, latencies=(40.0, 45.0, 48.0),
           tc=None, cd=None, end=100.0, start=0.0):
    res = ServerResult(
        qos_ms=50.0, horizon_ms=horizon, end_ms=end,
        latencies_ms=list(latencies), be_work_ms={"fft": be_work},
        tc_timeline=tc if tc is not None else Timeline(),
        cd_timeline=cd if cd is not None else Timeline(),
        start_ms=start,
    )
    return res


class TestThroughputImprovement:
    def test_eq10(self):
        tacker = result(be_work=13.0)
        baymax = result(be_work=10.0)
        assert throughput_improvement(tacker, baymax) == pytest.approx(0.3)

    def test_mismatched_horizons_rejected(self):
        with pytest.raises(SchedulingError):
            throughput_improvement(result(horizon=100.0),
                                   result(horizon=200.0))

    def test_zero_baseline_rejected(self):
        with pytest.raises(SchedulingError):
            throughput_improvement(result(), result(be_work=0.0))


class TestLatencyStats:
    def test_fields(self):
        stats = latency_stats(result(latencies=[40.0, 45.0, 52.0]))
        assert stats["mean_ms"] == pytest.approx(45.6667, abs=1e-3)
        assert stats["max_ms"] == 52.0
        assert stats["violation_rate"] == pytest.approx(1 / 3)
        assert stats["qos_ms"] == 50.0

    def test_empty_latencies_yield_nan_not_crash(self):
        import math

        stats = latency_stats(result(latencies=[]))
        assert stats["qos_ms"] == 50.0
        for key, value in stats.items():
            if key != "qos_ms":
                assert math.isnan(value), key

    def test_empty_result_properties_are_nan(self):
        import math

        empty = result(latencies=[])
        assert math.isnan(empty.mean_latency_ms)
        assert math.isnan(empty.p99_latency_ms)
        assert math.isnan(empty.qos_violation_rate)


class TestActiveTimeBreakdown:
    def test_fig2_stacking(self):
        tc = Timeline()
        tc.add(0.0, 60.0)
        cd = Timeline()
        cd.add(60.0, 100.0)
        stats = active_time_breakdown(result(tc=tc, cd=cd, end=100.0))
        assert stats["tc_active"] == pytest.approx(0.6)
        assert stats["cd_active"] == pytest.approx(0.4)
        assert stats["both_active"] == 0.0
        assert stats["stacked"] == pytest.approx(1.0)

    def test_overlap_pushes_stacked_above_one(self):
        tc = Timeline()
        tc.add(0.0, 80.0)
        cd = Timeline()
        cd.add(40.0, 100.0)
        stats = active_time_breakdown(result(tc=tc, cd=cd, end=100.0))
        assert stats["both_active"] == pytest.approx(0.4)
        assert stats["stacked"] > 1.0

    def test_empty_run_rejected(self):
        with pytest.raises(SchedulingError):
            active_time_breakdown(result(end=0.0))

    def test_normalizes_by_busy_span_not_end_time(self):
        # First kernel starts at t=60 (e.g. an LC-only run whose first
        # query arrives late): the busy span is 40 ms, not 100 ms.
        # Normalizing by end_ms overstated idle lead-in as utilization.
        tc = Timeline()
        tc.add(60.0, 100.0)
        stats = active_time_breakdown(
            result(tc=tc, end=100.0, start=60.0)
        )
        assert stats["tc_active"] == pytest.approx(1.0)
        assert stats["stacked"] == pytest.approx(1.0)

    def test_zero_span_with_late_start_rejected(self):
        with pytest.raises(SchedulingError):
            active_time_breakdown(result(end=60.0, start=60.0))


class TestPerServiceStats:
    def multi_tenant(self):
        res = result(latencies=[40.0, 45.0, 52.0, 30.0])
        res.latencies_by_model = {
            "Resnet50": [40.0, 45.0, 52.0],
            "Vgg19": [30.0],
        }
        return res

    def test_per_service_latency_stats(self):
        stats = latency_stats_by_service(self.multi_tenant())
        assert set(stats) == {"Resnet50", "Vgg19"}
        assert stats["Resnet50"]["max_ms"] == 52.0
        assert stats["Resnet50"]["violation_rate"] == pytest.approx(1 / 3)
        assert stats["Vgg19"]["violation_rate"] == 0.0
        # Same shape as the global latency_stats.
        assert set(stats["Vgg19"]) == set(latency_stats(self.multi_tenant()))

    def test_per_service_stats_empty_for_be_only_run(self):
        assert latency_stats_by_service(result(latencies=[])) == {}

    def test_per_service_active_time(self):
        res = result(end=100.0)
        res.executed = [
            ExecutedKernel(0.0, 60.0, "lc", "tgemm_l", 60.0, 0.0,
                           service="Resnet50"),
            ExecutedKernel(60.0, 100.0, "fused", "fused_x", 80.0, 100.0,
                           service="Vgg19"),
            ExecutedKernel(0.0, 50.0, "be", "fft", 0.0, 50.0,
                           service="fft"),
        ]
        breakdown = active_time_breakdown_by_service(res)
        assert set(breakdown) == {"Resnet50", "Vgg19", "fft"}
        assert breakdown["Resnet50"]["tc_active"] == pytest.approx(0.6)
        assert breakdown["Resnet50"]["cd_active"] == 0.0
        # The fused launch is charged to the LC service it carried.
        assert breakdown["Vgg19"]["tc_active"] == pytest.approx(0.2)
        assert breakdown["Vgg19"]["cd_active"] == pytest.approx(0.4)
        assert breakdown["fft"]["cd_active"] == pytest.approx(0.5)

    def test_unnamed_service_falls_back_to_kernel_name(self):
        res = result(end=100.0)
        res.executed = [
            ExecutedKernel(0.0, 50.0, "be", "fft", 0.0, 50.0),
        ]
        assert set(active_time_breakdown_by_service(res)) == {"fft"}

    def test_unrecorded_run_rejected(self):
        with pytest.raises(SchedulingError, match="record_kernels"):
            active_time_breakdown_by_service(result())


class TestGeometricMean:
    def test_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_non_positive(self):
        with pytest.raises(SchedulingError):
            geometric_mean([1.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(SchedulingError):
            geometric_mean([2.0, -1.0])

    def test_rejects_empty(self):
        with pytest.raises(SchedulingError):
            geometric_mean([])


def streaming(latencies, qos=50.0, upper=200.0, bins=4096):
    res = StreamingResult(
        qos_ms=qos, horizon_ms=100.0, sketch_upper_ms=upper,
        sketch_bins=bins,
    )
    for latency in latencies:
        res.note_query_latency("Vgg16", latency)
    return res


class TestMergedFleetStats:
    """Fleet aggregation over mixed list-based and streaming replicas
    (the autoscaling control plane's aggregation surface)."""

    def test_all_list_replicas_stay_exact(self):
        results = [result(latencies=(40.0, 45.0)), result(latencies=(48.0,))]
        assert merged_latency_sketch(results) is None
        exact = np.percentile([40.0, 45.0, 48.0], 99)
        assert merged_p99_ms(results) == pytest.approx(exact)

    def test_sketch_estimate_within_tolerance(self):
        values = [float(v) for v in range(1, 101)]
        res = streaming(values)
        merged = merged_latency_sketch([res])
        assert merged is not None
        # the ceil-rank order statistic: the 99th smallest of 100
        exact = sorted(values)[int(np.ceil(0.99 * len(values))) - 1]
        estimate = merged.quantile(0.99)
        assert exact <= estimate <= exact + merged.tolerance_ms

    def test_mixed_replicas_fold_into_one_sketch(self):
        stream = streaming([40.0, 45.0, 60.0])
        lists = result(latencies=(42.0, 55.0))
        merged = merged_latency_sketch([stream, lists])
        assert merged.n == 5
        assert merged.sum == pytest.approx(242.0)
        stats = merged_latency_stats([stream, lists], qos_ms=50.0)
        assert stats["count"] == 5
        assert stats["mean_ms"] == pytest.approx(242.0 / 5)
        assert stats["max_ms"] == pytest.approx(60.0)
        # violations: 60.0 from the stream, 55.0 from the list
        assert stats["violation_rate"] == pytest.approx(2 / 5)

    def test_merge_rejects_mismatched_geometry(self):
        a = streaming([40.0], bins=1024)
        b = streaming([41.0], bins=2048)
        with pytest.raises(SchedulingError, match="different geometry"):
            merged_latency_sketch([a, b])

    def test_empty_fleet_is_nan(self):
        assert merged_p99_ms([]) != merged_p99_ms([])  # NaN
        stats = merged_latency_stats([], qos_ms=50.0)
        assert stats["count"] == 0
        assert stats["p99_ms"] != stats["p99_ms"]

    def test_streaming_replica_with_no_queries(self):
        res = streaming([])
        assert merged_p99_ms([res]) != merged_p99_ms([res])  # NaN
        stats = merged_latency_stats([res], qos_ms=50.0)
        assert stats["count"] == 0

    def test_latency_stats_reads_the_sketch(self):
        res = streaming([40.0, 45.0, 60.0])
        stats = latency_stats(res)
        assert stats["mean_ms"] == pytest.approx(145.0 / 3)
        assert stats["max_ms"] == pytest.approx(60.0)
        assert stats["violation_rate"] == pytest.approx(1 / 3)


class TestSketchEquality:
    """Sketches compare by value, so two folds of one stream (a serial
    and a worker run of the same node-epoch) compare equal."""

    @staticmethod
    def sketch(values, bins=1024):
        from repro.runtime.metrics import QuantileSketch

        out = QuantileSketch(upper_ms=100.0, bins=bins)
        for value in values:
            out.add(value)
        return out

    def test_same_stream_is_equal(self):
        assert self.sketch([40.0, 45.0, 120.0]) == self.sketch(
            [40.0, 45.0, 120.0]
        )

    def test_one_bin_apart_is_unequal(self):
        a = self.sketch([40.0, 45.0])
        b = self.sketch([40.0, 45.0])
        b.counts[0] += 1
        assert a != b

    def test_aggregates_and_geometry_count(self):
        assert self.sketch([40.0]) != self.sketch([41.0])
        assert self.sketch([40.0], bins=1024) != self.sketch(
            [40.0], bins=2048
        )
        assert self.sketch([150.0]) != self.sketch([160.0])  # overflow max
        assert self.sketch([40.0]) != [40.0]

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.sketch([40.0]))
