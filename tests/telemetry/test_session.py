"""Tests for the per-run telemetry session and the process switch."""

import os
from types import SimpleNamespace

import pytest

from repro.gpusim.trace import Timeline
from repro.runtime.server import ServerResult
from repro.telemetry import (
    RunTelemetry,
    MetricsRegistry,
    SIM_SPAN_CAP,
    TELEMETRY_ENVS,
    merge_session,
)
from repro.telemetry import core


@pytest.fixture(autouse=True)
def clean_telemetry():
    """The switch and registry are process-global; isolate tests."""
    core.reset()
    yield
    core.reset()


def query(service="Resnet50", arrival=0.0, qid=7):
    return SimpleNamespace(
        model=SimpleNamespace(name=service), arrival_ms=arrival, qid=qid,
    )


def run_result(**overrides):
    fields = dict(
        qos_ms=50.0, horizon_ms=100.0, end_ms=0.0, latencies_ms=[12.0],
        be_work_ms={}, tc_timeline=Timeline(), cd_timeline=Timeline(),
        n_lc_kernels=10, n_be_kernels=3, n_fused_kernels=2,
        latencies_by_model={"Resnet50": [12.0]},
    )
    fields.update(overrides)
    return ServerResult(**fields)


class TestSwitch:
    def test_off_by_default(self):
        for env in TELEMETRY_ENVS:
            assert not os.environ.get(env), (
                f"{env} set in the test environment; telemetry tests "
                "assume environment-driven activation is off"
            )
        assert not core.active()

    def test_enable_disable_reset(self):
        core.enable()
        assert core.active()
        core.disable()
        assert not core.active()
        core.reset()
        assert not core.active()

    def test_env_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert core.active()
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        assert not core.active()
        # A programmatic disable overrides the environment.
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        core.disable()
        assert not core.active()

    def test_sim_span_cap(self):
        for i in range(SIM_SPAN_CAP + 5):
            core.sim_span("engine.run", 0.0, 1.0, events=i)
        assert len(core.sim_spans()) == SIM_SPAN_CAP
        assert core.sim_spans_dropped() == 5


class TestRunTelemetry:
    def test_query_spans_split_queue_and_service(self):
        session = RunTelemetry(policy="tacker")
        session.note_first_launch(7, 2.0)
        session.note_first_launch(7, 3.0)  # later launches don't move it
        session.note_query_complete(query(arrival=1.0), 6.0)
        queue, service = session.query_spans()
        assert (queue.name, queue.start, queue.end) == ("queue", 1.0, 2.0)
        assert (service.start, service.end) == (2.0, 6.0)
        assert service.attrs["latency_ms"] == pytest.approx(5.0)
        assert service.duration == pytest.approx(4.0)

    def test_first_launch_is_transient(self):
        """Sessions compare equal across processes despite qid drift."""
        a = RunTelemetry(policy="tacker")
        b = RunTelemetry(policy="tacker")
        a.note_first_launch(7, 2.0)
        b.note_first_launch(9001, 2.0)
        a.note_query_complete(query(qid=7), 6.0)
        b.note_query_complete(query(qid=9001), 6.0)
        assert a == b
        assert not a._first_launch and not b._first_launch

    def test_publish_result_metrics(self):
        session = RunTelemetry(policy="tacker")
        session.publish_result(run_result())
        reg = session.registry
        assert reg.value("repro_runs_total", policy="tacker") == 1
        assert reg.value(
            "repro_kernels_total", kind="fused", policy="tacker"
        ) == 2
        assert reg.value("repro_queries_total", service="Resnet50") == 1

    def test_admission_override_rewrites_last_decision(self):
        from repro.telemetry import DecisionRecord

        session = RunTelemetry(policy="tacker")
        session.record_decision(DecisionRecord(
            index=0, now_ms=0.0, policy="tacker", kind="be", be_app="fft",
        ))
        session.note_admission_override("shed")
        last = session.decisions[-1]
        assert (last.admission, last.final_kind) == ("shed", "lc")

    def test_summary_counts(self):
        from repro.telemetry import DecisionRecord

        session = RunTelemetry(policy="tacker")
        for index, kind in enumerate(("lc", "fused", "lc")):
            session.record_decision(DecisionRecord(
                index=index, now_ms=0.0, policy="tacker", kind=kind,
            ))
        summary = session.summary()
        assert summary["decisions"] == 3
        assert summary["by_kind"] == {"fused": 1, "lc": 2}
        assert summary["fused"] == 1

    def test_merge_session_into_process_registry(self):
        session = RunTelemetry(policy="tacker")
        session.publish_result(run_result())
        target = MetricsRegistry()
        merge_session(session, target)
        assert target.value("repro_runs_total", policy="tacker") == 1
        merge_session(None, target)  # no-op
        assert target.value("repro_runs_total", policy="tacker") == 1
