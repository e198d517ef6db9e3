"""Per-run telemetry session: spans + decision log + run metrics.

One :class:`RunTelemetry` is attached to one :class:`ColocationServer`
run.  The policy appends decision records to it, the server appends
query-lifecycle spans and publishes the run's aggregate metrics into its
registry at completion, and the finished session rides back on
``ServerResult.telemetry`` — including across process boundaries, since
everything in it is plain picklable data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .decisions import DecisionRecord, decision_log_jsonl
from .registry import MetricsRegistry
from .spans import Span


@dataclass
class RunTelemetry:
    """Everything one run recorded."""

    policy: str = ""
    #: scenario label of the run ("" outside scenario replays); stamped
    #: onto the per-scenario metric families at publication
    scenario: str = ""
    spans: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: extra label values stamped on every family this session publishes
    #: (fleet runs label per-node sessions with ``node``/``epoch``, so
    #: the registry merge keeps per-node identity instead of folding
    #: every replica into one unlabeled series)
    extra_labels: dict = field(default_factory=dict)
    #: transient first-launch times keyed by qid; qids are process-local
    #: so this never participates in equality or exports (and is empty
    #: once every query completed)
    _first_launch: dict = field(
        default_factory=dict, compare=False, repr=False
    )

    # -- recording (called by policy/server) ----------------------------------

    def record_decision(self, record: DecisionRecord) -> None:
        """Append one record.  Policies append to ``decisions`` directly,
        on the per-decision path, with each record's index its position."""
        self.decisions.append(record)

    def note_admission_override(self, outcome: str) -> None:
        """Mark the latest decision as overridden by admission control."""
        if not self.decisions:
            return
        self.decisions[-1] = self.decisions[-1]._replace(
            admission=outcome, final_kind="lc",
        )

    def note_first_launch(self, qid: int, now_ms: float) -> None:
        self._first_launch.setdefault(qid, now_ms)

    def note_query_complete(self, query, end_ms: float) -> None:
        service = query.model.name
        arrival = query.arrival_ms
        first = self._first_launch.pop(query.qid, arrival)
        self.spans.append(Span(
            name="queue", category="query", start=arrival, end=first,
            attrs={"service": service},
        ))
        self.spans.append(Span(
            name="service", category="query", start=first, end=end_ms,
            attrs={"service": service, "latency_ms": end_ms - arrival},
        ))

    # -- run-end aggregation --------------------------------------------------

    def _labels(self, **labels) -> dict:
        """Family labels plus this session's extra label values."""
        merged = dict(self.extra_labels)
        merged.update(labels)
        return merged

    def publish_result(self, result, guard=None) -> None:
        """Fold a finished run's aggregates into the session registry."""
        reg = self.registry
        run_labels = self._labels(policy=self.policy)
        if self.scenario:
            run_labels["scenario"] = self.scenario
        reg.counter(
            "repro_runs_total", "Completed co-location runs.",
            **run_labels,
        ).inc()
        for kind, count in result.kernel_counts().items():
            if count:
                reg.counter(
                    "repro_kernels_total", "Executed launches by kind.",
                    **self._labels(kind=kind, policy=self.policy),
                ).inc(count)
        decision_kinds: dict = {}
        for record in self.decisions:
            final = record.final_kind or record.kind
            decision_kinds[final] = decision_kinds.get(final, 0) + 1
        for kind in sorted(decision_kinds):
            reg.counter(
                "repro_decisions_total", "Scheduling decisions by kind.",
                **self._labels(kind=kind, policy=self.policy),
            ).inc(decision_kinds[kind])
        for outcome, count in (
            ("shed", result.n_shed_be),
            ("deferred", result.n_deferred_be),
        ):
            if count:
                reg.counter(
                    "repro_admission_total",
                    "BE launches refused by admission control.",
                    **self._labels(outcome=outcome),
                ).inc(count)
        for outcome, count in (
            ("dropped", result.n_dropped_be),
            ("delayed", result.n_delayed_be),
        ):
            if count:
                reg.counter(
                    "repro_be_faults_total",
                    "Injected BE completion faults endured.",
                    **self._labels(outcome=outcome),
                ).inc(count)
        for mode, count in sorted(result.guard_mode_decisions.items()):
            if count:
                reg.counter(
                    "repro_guard_decisions_total",
                    "Guarded decisions per degradation mode.",
                    **self._labels(mode=mode),
                ).inc(count)
        if guard is not None:
            for _, old, new in guard.transitions:
                reg.counter(
                    "repro_guard_transitions_total",
                    "Guard-ladder mode transitions.",
                    **self._labels(from_mode=old, to_mode=new),
                ).inc()
        for service in sorted(result.latencies_by_model):
            latencies = result.latencies_by_model[service]
            reg.counter(
                "repro_queries_total", "Completed LC queries per service.",
                **self._labels(service=service),
            ).inc(len(latencies))
            histogram = reg.histogram(
                "repro_query_latency_ms",
                "End-to-end LC query latency (simulated ms).",
                **self._labels(service=service),
            )
            for latency in latencies:
                histogram.observe(latency)

    # -- queries --------------------------------------------------------------

    def fused_decisions(self) -> list:
        return [d for d in self.decisions if d.kind == "fused"]

    def decision_jsonl(self) -> str:
        return decision_log_jsonl(self.decisions)

    def query_spans(self) -> list:
        return [s for s in self.spans if s.category == "query"]

    def summary(self) -> dict:
        kinds: dict = {}
        for record in self.decisions:
            final = record.final_kind or record.kind
            kinds[final] = kinds.get(final, 0) + 1
        summary = {
            "policy": self.policy,
            "decisions": len(self.decisions),
            "by_kind": {k: kinds[k] for k in sorted(kinds)},
            "fused": len(self.fused_decisions()),
            "spans": len(self.spans),
            "metrics_samples": len(self.registry),
        }
        if self.scenario:
            summary["scenario"] = self.scenario
        return summary


def merge_session(session: Optional[RunTelemetry], registry) -> None:
    """Fold a finished session's registry into a process registry."""
    if session is not None:
        registry.merge_snapshot(session.registry.snapshot())
