"""Tests for workload generation and peak-load calibration."""

import numpy as np
import pytest

from repro.errors import ConfigError, SchedulingError
from repro.models.zoo import model_by_name
from repro.runtime import workload
from repro.runtime.replay import load_scenario
from repro.runtime.workload import (
    BE_INPUT_SCALES,
    PoissonArrivals,
    arrival_gaps,
    be_application,
    calibrate_peak_rate,
    fold_gaps_to_arrivals,
    merge_streams,
    merged_arrival_stream,
    peak_load_qps,
    solo_query_ms,
    standard_be_names,
)


class TestArrivalGaps:
    def test_paced_gaps_bounded(self):
        gaps = arrival_gaps(0.1, 1000, seed=1, process="paced")
        assert np.all(gaps >= 10.0 * 0.7 - 1e-9)
        assert np.all(gaps <= 10.0 * 1.3 + 1e-9)
        assert np.mean(gaps) == pytest.approx(10.0, rel=0.05)

    def test_poisson_gaps_exponential_mean(self):
        gaps = arrival_gaps(0.1, 5000, seed=1, process="poisson")
        assert np.mean(gaps) == pytest.approx(10.0, rel=0.1)

    def test_deterministic_per_seed(self):
        a = arrival_gaps(0.1, 10, seed=3)
        b = arrival_gaps(0.1, 10, seed=3)
        assert np.array_equal(a, b)

    def test_unknown_process(self):
        with pytest.raises(ConfigError):
            arrival_gaps(0.1, 10, seed=1, process="weibull")


class TestPeakCalibration:
    def test_peak_rate_below_serial_capacity(self):
        peak = calibrate_peak_rate(solo_ms=20.0, qos_ms=50.0)
        assert 0 < peak <= 1 / 20.0

    def test_peak_meets_qos_but_barely(self):
        from repro.runtime.workload import _p99_sojourn_ms

        peak = calibrate_peak_rate(solo_ms=20.0, qos_ms=50.0)
        assert _p99_sojourn_ms(peak, 20.0, 7, 4000, "paced") <= 50.0
        assert _p99_sojourn_ms(peak * 1.1, 20.0, 7, 4000, "paced") > 50.0

    def test_poisson_peak_is_much_lower(self):
        paced = calibrate_peak_rate(20.0, 50.0, process="paced")
        poisson = calibrate_peak_rate(20.0, 50.0, process="poisson")
        assert poisson < paced

    def test_solo_beyond_qos_rejected(self):
        with pytest.raises(ConfigError):
            calibrate_peak_rate(solo_ms=60.0, qos_ms=50.0)

    def test_peak_load_qps_guard(self):
        with pytest.raises(ConfigError):
            peak_load_qps(0.0)


def reference_p99(rate_per_ms, solo_ms, seed, n_queries, process):
    """The Lindley recursion as a per-element loop over numpy scalars."""
    arrivals = np.cumsum(arrival_gaps(rate_per_ms, n_queries, seed, process))
    finish = 0.0
    sojourns = np.empty(n_queries)
    for i, arrival in enumerate(arrivals):
        finish = max(arrival, finish) + solo_ms
        sojourns[i] = finish - arrival
    return float(np.percentile(sojourns, 99))


def reference_peak(solo_ms, qos_ms, process, seed=7, n_queries=4000):
    """``calibrate_peak_rate``'s bisection over :func:`reference_p99`."""
    lo, hi = 0.0, 1.0 / solo_ms
    for _ in range(30):
        mid = (lo + hi) / 2
        if mid == 0.0:
            break
        if reference_p99(mid, solo_ms, seed, n_queries, process) <= qos_ms:
            lo = mid
        else:
            hi = mid
    return lo


class TestLindleyFold:
    """The calibration's fold performs the loop's IEEE operations in
    the loop's order, so every calibrated rate is bit-identical."""

    @pytest.fixture(autouse=True)
    def cold_memos(self, monkeypatch):
        monkeypatch.setattr(workload, "_P99_MEMO", {})
        monkeypatch.setattr(workload, "_PEAK_RATE_MEMO", {})

    def assert_exact(self, rate, solo_ms, process):
        workload._P99_MEMO.clear()
        fold = workload._p99_sojourn_ms(rate, solo_ms, 7, 4000, process)
        assert fold == reference_p99(rate, solo_ms, 7, 4000, process)

    @pytest.mark.parametrize("process", ("paced", "poisson"))
    def test_scenario_services_equal_the_loop(self, library, oracle,
                                              process):
        cases = set()
        for name in ("steady", "diurnal"):
            scenario = load_scenario(name)
            for service in scenario.lc_services:
                solo = solo_query_ms(model_by_name(service), library, oracle)
                cases.add((solo, scenario.qos_ms))
        for solo, qos in sorted(cases):
            for fraction in np.linspace(0.02, 0.999, 9):
                self.assert_exact(fraction / solo, solo, process)
            peak = calibrate_peak_rate(solo, qos, process=process)
            for rate in (np.nextafter(peak, 0.0), peak,
                         np.nextafter(peak, np.inf)):
                self.assert_exact(float(rate), solo, process)

    @pytest.mark.parametrize("process", ("paced", "poisson"))
    def test_calibrated_peak_equals_the_loop(self, process):
        assert calibrate_peak_rate(20.0, 50.0, process=process) == (
            reference_peak(20.0, 50.0, process)
        )


class TestPoissonArrivals:
    def test_queries_sorted_and_deterministic(self, library, oracle):
        model = model_by_name("resnet50")
        gen = PoissonArrivals(model, library, oracle, seed=9)
        queries = gen.queries(20)
        arrivals = [q.arrival_ms for q in queries]
        assert arrivals == sorted(arrivals)
        again = PoissonArrivals(model, library, oracle, seed=9).queries(20)
        assert [q.arrival_ms for q in again] == arrivals

    def test_rate_scales_with_load(self, library, oracle):
        model = model_by_name("resnet50")
        high = PoissonArrivals(model, library, oracle, load=0.8)
        low = PoissonArrivals(model, library, oracle, load=0.4)
        assert low.rate_per_ms == pytest.approx(high.rate_per_ms / 2)

    def test_bad_load_rejected(self, library, oracle):
        with pytest.raises(ConfigError):
            PoissonArrivals(
                model_by_name("resnet50"), library, oracle, load=1.5
            )

    def test_solo_matches_helper(self, library, oracle):
        model = model_by_name("resnet50")
        gen = PoissonArrivals(model, library, oracle)
        assert gen.solo_ms == pytest.approx(
            solo_query_ms(model, library, oracle)
        )


class TestMergedArrivalStream:
    def test_zero_rate_scale_yields_no_arrivals(self, library, oracle):
        models = [model_by_name("resnet50"), model_by_name("vgg16")]
        stream = merged_arrival_stream(
            models, library, oracle, count=10, seed=1, rate_scale=0.0
        )
        assert stream == []

    def test_single_query_per_service(self, library, oracle):
        models = [model_by_name("resnet50"), model_by_name("vgg16")]
        stream = merged_arrival_stream(
            models, library, oracle, count=2, seed=1, rate_scale=0.2
        )
        assert len(stream) == 2
        assert {name for _, name in stream} == {"Resnet50", "VGG16"}

    def test_count_below_service_count_rejected(self, library, oracle):
        models = [model_by_name("resnet50"), model_by_name("vgg16")]
        with pytest.raises(SchedulingError):
            merged_arrival_stream(models, library, oracle, count=1, seed=1)
        with pytest.raises(SchedulingError):
            merged_arrival_stream([], library, oracle, count=4, seed=1)

    def test_negative_rate_scale_rejected(self, library, oracle):
        with pytest.raises(ConfigError):
            merged_arrival_stream(
                [model_by_name("resnet50")], library, oracle,
                count=4, seed=1, rate_scale=-0.5,
            )

    def test_merge_ties_broken_by_name_stably(self):
        # Identical timestamps must merge the same way regardless of
        # input ordering — the total order replays rely on.
        a = ("alpha", np.array([1.0, 5.0]))
        b = ("beta", np.array([5.0, 9.0]))
        merged = merge_streams([b, a])
        assert merged == [
            (1.0, "alpha"), (5.0, "alpha"), (5.0, "beta"), (9.0, "beta"),
        ]
        assert merged == merge_streams([a, b])

    def test_fold_applies_gap_filter_before_cumsum(self):
        gaps = np.array([10.0, 10.0, 10.0])
        halved = fold_gaps_to_arrivals(gaps, gap_filter=lambda g: g / 2)
        assert np.array_equal(halved, np.array([5.0, 10.0, 15.0]))
        assert np.array_equal(
            fold_gaps_to_arrivals(gaps), np.array([10.0, 20.0, 30.0])
        )


class TestBEApplications:
    def test_twelve_standard_names(self):
        assert len(standard_be_names()) == 12

    def test_parboil_app(self, library):
        app = be_application("fft", library)
        assert app.sequence[0].name == "fft"
        assert not app.memory_intensive
        assert app.input_scales == BE_INPUT_SCALES

    def test_memory_intensive_flag(self, library):
        assert be_application("lbm", library).memory_intensive

    def test_training_app(self, library):
        app = be_application("Res-T", library)
        assert app.memory_intensive
        assert any(k.kind == "tc" for k in app.sequence)
        assert any(k.name == "weight_update" for k in app.sequence)
