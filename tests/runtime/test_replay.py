"""Tests for trace-driven replay: traces, profiles, scenarios, folds."""

import json

import numpy as np
import pytest

from repro.errors import ConfigError, SchedulingError
from repro.runtime.replay import (
    NAMED_SCENARIOS,
    SCENARIO_SCHEMA,
    DiurnalProfile,
    FlashCrowdProfile,
    MMPPProfile,
    Scenario,
    StreamingResult,
    TenantChurnProfile,
    Trace,
    build_profile,
    list_scenarios,
    load_scenario,
    serve_trace,
    synthesize_trace,
    validate_scenario,
)
from repro.runtime.system import TackerSystem
from repro.runtime.workload import merged_arrival_stream


@pytest.fixture(scope="module")
def system(gpu):
    return TackerSystem(gpu=gpu)


def scenario(**overrides):
    base = dict(
        name="t",
        description="test scenario",
        lc_services=("resnet50", "vgg16"),
        be_apps=("fft",),
        arrival={"kind": "steady"},
        queries=40,
        quick_queries=10,
        rate_scale=0.15,
    )
    base.update(overrides)
    return Scenario(**base)


class TestTrace:
    def test_roundtrip_bit_identical(self, tmp_path, library, oracle):
        trace = synthesize_trace(scenario(), library, oracle)
        path = trace.write_jsonl(tmp_path / "t.jsonl")
        back = Trace.read_jsonl(path)
        assert back.services == trace.services
        assert np.array_equal(back.arrivals_ms, trace.arrivals_ms)
        assert np.array_equal(back.service_idx, trace.service_idx)
        assert back.meta == trace.meta
        # Re-serialization is byte-stable: record -> replay -> record.
        again = back.write_jsonl(tmp_path / "t2.jsonl")
        assert again.read_bytes() == path.read_bytes()

    def test_rejects_unknown_schema(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"schema": "nope/9", "services": []}) + "\n")
        with pytest.raises(ConfigError, match="schema"):
            Trace.read_jsonl(bad)

    def test_rejects_unsorted_arrivals(self):
        with pytest.raises(ConfigError, match="sorted"):
            Trace(("a",), np.array([2.0, 1.0]), np.array([0, 0]))

    def test_rejects_index_out_of_range(self):
        with pytest.raises(ConfigError, match="index"):
            Trace(("a",), np.array([1.0]), np.array([3]))

    def test_from_stream_ties_broken_by_name(self):
        trace = Trace.from_stream([(5.0, "b"), (5.0, "a"), (1.0, "b")])
        assert trace.services == ("a", "b")
        assert list(trace.events()) == [(1.0, "b"), (5.0, "a"), (5.0, "b")]

    def test_horizon_is_last_arrival_plus_qos(self):
        trace = Trace.from_stream([(1.0, "a"), (7.0, "a")])
        assert trace.horizon_ms(50.0) == 57.0
        with pytest.raises(SchedulingError):
            Trace(("a",), np.array([]), np.array([])).horizon_ms(50.0)

    def test_recorded_source_truncates_to_prefix(
        self, tmp_path, library, oracle
    ):
        trace = synthesize_trace(scenario(), library, oracle)
        path = trace.write_jsonl(tmp_path / "t.jsonl")
        recorded = Trace.read_jsonl(path)
        short = recorded.prefix(7)
        assert len(short) == 7
        assert np.array_equal(short.arrivals_ms, trace.arrivals_ms[:7])
        assert np.array_equal(short.service_idx, trace.service_idx[:7])
        assert short.meta["truncated_to"] == 7
        assert "truncated_to" not in recorded.meta
        full = recorded.prefix(len(trace))
        assert len(full) == len(trace)
        assert "truncated_to" not in full.meta


class TestProfiles:
    def test_diurnal_floor_binds(self):
        prof = DiurnalProfile(period_ms=1000.0, amplitude=1.0, floor=0.2)
        # The trough of a full-amplitude sine would hit zero; the floor
        # keeps the service alive through the night.
        trough = prof.multiplier(750.0)
        assert trough == pytest.approx(0.2)
        assert prof.multiplier(250.0) == pytest.approx(2.0)

    def test_diurnal_validation(self):
        with pytest.raises(ConfigError):
            DiurnalProfile(period_ms=0.0, amplitude=0.5)
        with pytest.raises(ConfigError):
            DiurnalProfile(period_ms=1000.0, amplitude=1.5)

    def test_flash_crowd_shape(self):
        prof = FlashCrowdProfile(at_ms=100.0, peak=4.0, decay_ms=50.0)
        assert prof.multiplier(0.0) == 1.0
        assert prof.multiplier(100.0) == pytest.approx(4.0)
        assert 1.0 < prof.multiplier(200.0) < 4.0

    def test_mmpp_deterministic_per_seed(self):
        kwargs = dict(on_ms=50.0, off_ms=100.0, on_mult=3.0, off_mult=0.5)
        a = MMPPProfile(seed=5, **kwargs)
        b = MMPPProfile(seed=5, **kwargs)
        points = [float(t) for t in np.linspace(0.0, 2000.0, 101)]
        assert [a.multiplier(t) for t in points] == [
            b.multiplier(t) for t in points
        ]

    def test_mmpp_next_active_skips_dead_state(self):
        prof = MMPPProfile(
            seed=5, on_ms=50.0, off_ms=100.0, on_mult=2.0, off_mult=0.0
        )
        for t in (0.0, 123.0, 977.0):
            resumed = prof.next_active(t)
            assert resumed >= t
            assert prof.multiplier(resumed) > 0

    def test_churn_windows(self):
        prof = TenantChurnProfile([(0.0, 100.0), (300.0, None)])
        assert prof.multiplier(50.0) == 1.0
        assert prof.multiplier(150.0) == 0.0
        assert prof.multiplier(100.0) == 0.0  # half-open upper edge
        assert prof.multiplier(300.0) == 1.0
        assert prof.next_active(150.0) == 300.0

    def test_churn_leave_for_good(self):
        prof = TenantChurnProfile([(0.0, 100.0)])
        assert prof.next_active(150.0) is None

    def test_churn_validation(self):
        with pytest.raises(ConfigError):
            TenantChurnProfile([])
        with pytest.raises(ConfigError):
            TenantChurnProfile([(100.0, 50.0)])

    def test_build_profile_matches_windows_case_insensitively(self):
        arrival = {
            "kind": "tenant-churn",
            "windows": {"vgg16": [[0.0, 100.0]]},
        }
        prof = build_profile(arrival, 0, "VGG16", seed=1)
        assert prof.multiplier(150.0) == 0.0
        resident = build_profile(arrival, 1, "Resnet50", seed=1)
        assert resident.multiplier(150.0) == 1.0

    def test_build_profile_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            build_profile({"kind": "weibull"}, 0, "resnet50", seed=1)


class TestSynthesis:
    def test_deterministic_per_seed(self, library, oracle):
        spec = scenario(
            arrival={"kind": "diurnal", "period_ms": 2000.0,
                     "amplitude": 0.7},
        )
        a = synthesize_trace(spec, library, oracle)
        b = synthesize_trace(spec, library, oracle)
        assert np.array_equal(a.arrivals_ms, b.arrivals_ms)
        assert np.array_equal(a.service_idx, b.service_idx)

    def test_steady_bit_equal_to_live_path(self, library, oracle):
        """The steady scenario IS merged_arrival_stream, bit for bit."""
        spec = scenario()
        trace = synthesize_trace(spec, library, oracle)
        from repro.models.zoo import model_by_name

        live = merged_arrival_stream(
            [model_by_name(n) for n in spec.lc_services],
            library, oracle, count=spec.queries, seed=spec.seed,
            load=spec.load, qos_ms=spec.qos_ms,
            rate_scale=spec.rate_scale, process=spec.process,
        )
        assert trace.merged_stream() == live

    def test_churned_tenant_produces_no_arrivals_in_gap(
        self, library, oracle
    ):
        spec = scenario(
            lc_services=("resnet50", "vgg16"),
            arrival={
                "kind": "tenant-churn",
                "windows": {"vgg16": [[0.0, 500.0], [2000.0, None]]},
            },
            queries=60,
        )
        trace = synthesize_trace(spec, library, oracle)
        inside_gap = [
            t for t, name in trace.events()
            if name == "VGG16" and 500.0 <= t < 2000.0
        ]
        assert inside_gap == []

    def test_leaving_tenant_truncates(self, library, oracle):
        spec = scenario(
            arrival={
                "kind": "tenant-churn",
                "windows": {"vgg16": [[0.0, 200.0]]},
            },
            queries=60,
        )
        trace = synthesize_trace(spec, library, oracle)
        counts = trace.service_counts()
        assert counts["VGG16"] < 30  # left early, budget unproduced
        assert counts["Resnet50"] == 30

    def test_too_few_queries_rejected(self, library, oracle):
        with pytest.raises(SchedulingError):
            synthesize_trace(scenario(), library, oracle, n_queries=1)


class TestScenarioLibrary:
    def test_library_ships_the_named_scenarios(self):
        assert set(NAMED_SCENARIOS) <= set(list_scenarios())

    def test_every_shipped_scenario_validates(self):
        for name in list_scenarios():
            spec = load_scenario(name)
            assert spec.schema == SCENARIO_SCHEMA
            assert spec.n_queries(quick=True) <= spec.n_queries()
            assert spec.run_config().scenario == spec.name

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigError, match="known:"):
            load_scenario("no-such-scenario")

    def test_rate_scale_defaults_to_equal_share(self):
        spec = scenario(rate_scale=0.0)
        assert spec.rate_scale == pytest.approx(0.5)

    def test_validate_rejects_missing_and_unknown_keys(self):
        good = {
            "schema": SCENARIO_SCHEMA,
            "name": "x",
            "description": "d",
            "lc_services": ["resnet50"],
            "be_apps": ["fft"],
            "arrival": {"kind": "steady"},
        }
        validate_scenario(dict(good))
        with pytest.raises(ConfigError, match="missing"):
            validate_scenario({k: v for k, v in good.items() if k != "name"})
        with pytest.raises(ConfigError, match="unknown keys"):
            validate_scenario({**good, "burst": 2})
        with pytest.raises(ConfigError, match="schema"):
            validate_scenario({**good, "schema": "repro-scenario/99"})

    def test_validate_checks_arrival_params(self):
        good = {
            "schema": SCENARIO_SCHEMA,
            "name": "x",
            "description": "d",
            "lc_services": ["resnet50"],
            "be_apps": ["fft"],
            "arrival": {"kind": "diurnal", "period_ms": 1000.0},
        }
        with pytest.raises(ConfigError, match="needs parameters"):
            validate_scenario(good)
        with pytest.raises(ConfigError, match="kind"):
            validate_scenario(
                {**good, "arrival": {"kind": "weibull"}}
            )


class TestStreamingFold:
    """The constant-memory fold must match the list-based reference."""

    @pytest.fixture(scope="class")
    def both(self, gpu, library, oracle):
        system = TackerSystem(gpu=gpu)
        spec = scenario(queries=60)
        trace = synthesize_trace(spec, library, oracle)
        exact = serve_trace(system, trace, spec.be_apps, streaming=False)
        fold = serve_trace(system, trace, spec.be_apps, streaming=True)
        return exact, fold

    def test_counters_exact(self, both):
        exact, fold = both
        assert isinstance(fold, StreamingResult)
        assert fold.n_queries == len(exact.latencies_ms)
        assert fold.end_ms == exact.end_ms
        assert fold.n_lc_kernels == exact.n_lc_kernels
        assert fold.n_be_kernels == exact.n_be_kernels
        assert fold.n_fused_kernels == exact.n_fused_kernels
        assert fold.be_work_ms == exact.be_work_ms

    def test_latency_moments_exact(self, both):
        exact, fold = both
        lat = np.asarray(exact.latencies_ms)
        assert fold.mean_latency_ms == pytest.approx(float(lat.mean()))
        assert fold.max_latency_ms == float(lat.max())
        violations = int(np.sum(lat > exact.qos_ms))
        assert fold.n_violations == violations

    def test_p99_within_sketch_tolerance(self, both):
        exact, fold = both
        reference = float(np.percentile(
            np.asarray(exact.latencies_ms), 99, method="higher"
        ))
        drift = fold.p99_latency_ms - reference
        assert 0.0 <= drift <= fold.sketch.tolerance_ms

    def test_active_breakdown_matches_timelines(self, both):
        exact, fold = both
        from repro.runtime.metrics import active_time_breakdown

        reference = active_time_breakdown(exact)
        folded = fold.active_breakdown()
        for key, value in reference.items():
            assert folded[key] == pytest.approx(value, abs=1e-9), key

    def test_summary_dict_json_safe(self, both):
        _, fold = both
        summary = fold.summary_dict()
        assert summary["schema"] == "repro-replay-summary/2"
        json.dumps(summary)  # must not raise

    def test_window_fold_counts_synthetic_stream(self):
        """Hand-fed completions land in known tumbling windows."""
        fold = StreamingResult(
            qos_ms=50.0, horizon_ms=5000.0, window_ms=1000.0,
        )
        # window [0, 1000): clean; [1000, 2000): one violation;
        # [3000, 4000): all violations ([2000, 3000) is empty and must
        # not be counted).
        for latency, end in [
            (10.0, 100.0), (20.0, 900.0),
            (30.0, 1100.0), (80.0, 1900.0),
            (90.0, 3100.0), (95.0, 3200.0),
        ]:
            fold.note_query_latency("Resnet50", latency, end_ms=end)
        stats = fold.window_stats()
        assert stats["window_ms"] == 1000.0
        assert stats["windows"] == 3
        assert stats["violation_windows"] == 2
        drift = stats["worst_window_p99_ms"] - 95.0
        assert 0.0 <= drift <= fold.sketch.tolerance_ms
        # read-only: a second call returns the same numbers
        assert fold.window_stats() == stats

    def test_window_fold_of_a_real_run(self, both):
        exact, fold = both
        stats = fold.window_stats()
        assert stats["windows"] >= 1
        assert 0 <= stats["violation_windows"] <= stats["windows"]
        span = exact.end_ms - exact.start_ms
        assert stats["windows"] <= span / stats["window_ms"] + 2
        # the worst window cannot beat the whole run's p99
        assert stats["worst_window_p99_ms"] >= fold.p99_latency_ms \
            or stats["windows"] == 1

    def test_empty_streaming_run_rejected(self, system, library, oracle):
        empty = Trace(("Resnet50",), np.array([]), np.array([]))
        with pytest.raises(SchedulingError):
            serve_trace(system, empty, ("fft",))
