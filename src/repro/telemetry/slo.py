"""Online SLO monitoring on the simulated clock.

The paper's contract is "utilization *while ensuring QoS*", yet the
repo's replay and autoscale paths only report the post-hoc violation
fraction.  This module watches a run *while it executes* — on the
simulated clock, so the monitor is as deterministic as the run itself —
and fires :class:`AlertEvent` records when a declarative
:class:`SLORule` trips.  Each alert carries a snapshot of the
:class:`FlightRecorder`, a bounded ring buffer of the most recent
scheduling outcomes, completed queries, guard transitions, admission
overrides, fault events and autoscale epochs: the raw material
:mod:`repro.telemetry.forensics` walks backwards to attribute the
breach to a cause.

Rule kinds (see ``docs/incidents.md``):

* ``burn-rate`` — multi-window SRE burn rate: the violation rate over
  a short and a long sliding window, both normalized by the SLO error
  budget, must simultaneously exceed ``threshold``;
* ``p99-threshold`` — tumbling-window p99 over
  ``threshold x qos_ms``, evaluated at window close;
* ``guard-escalation`` — the mispredict guard ladder moved up
  (fuse -> reorder -> exclusive);
* ``prediction-error`` — the EWMA of the relative duration-prediction
  error exceeds ``threshold``.

Everything here is observe-only: a monitor never changes a scheduling
decision, so a run with no monitor attached is byte-identical to one
that was never watched, and serial vs ``parallel_map`` execution
produces identical alert streams (times, rule ids, snapshot hashes).
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

from ..errors import ConfigError

#: The alert-rule kinds the monitor evaluates.
RULE_KINDS = (
    "burn-rate",
    "p99-threshold",
    "guard-escalation",
    "prediction-error",
)

#: Schema tag for rule files consumed by ``--slo-rules``.
SLO_RULES_SCHEMA = "repro-slo-rules/1"

#: Alert severities, mildest first.
SEVERITIES = ("warn", "page")

#: Decision/outcome kinds that carry a fused co-run prediction.
FUSED_KINDS = ("fused", "hfused", "spatial", "chain")

#: Guard ladder, used to detect escalation direction.
_GUARD_LADDER = ("fuse", "reorder", "exclusive")


@dataclass(frozen=True)
class SLORule:
    """One declarative alert rule.

    ``threshold`` is interpreted per kind: a burn-rate multiple of the
    error budget, a multiplier on the QoS target (p99), a minimum
    ladder rung (guard escalation: 1 = reorder, 2 = exclusive), or a
    relative-error ceiling (prediction error).
    """

    rule_id: str
    kind: str
    threshold: float = 1.0
    #: sliding/tumbling evaluation windows (simulated milliseconds)
    short_window_ms: float = 1000.0
    long_window_ms: float = 5000.0
    #: SLO error budget (violation-rate target) for burn-rate rules
    slo_budget: float = 0.01
    #: smoothing factor for prediction-error EWMA
    ewma_alpha: float = 0.2
    #: minimum observations before the rule may fire
    min_events: int = 20
    #: refractory period between fires of the same rule
    cooldown_ms: float = 1000.0
    severity: str = "page"

    def __post_init__(self) -> None:
        if not self.rule_id:
            raise ConfigError("an SLO rule needs a non-empty rule_id")
        if self.kind not in RULE_KINDS:
            raise ConfigError(
                f"unknown SLO rule kind {self.kind!r}; "
                f"choose from {RULE_KINDS}"
            )
        if self.severity not in SEVERITIES:
            raise ConfigError(
                f"unknown severity {self.severity!r}; "
                f"choose from {SEVERITIES}"
            )
        if self.threshold <= 0:
            raise ConfigError("threshold must be positive")
        if self.short_window_ms <= 0 or self.long_window_ms <= 0:
            raise ConfigError("rule windows must be positive")
        if self.long_window_ms < self.short_window_ms:
            raise ConfigError("long window must cover the short window")
        if not 0.0 < self.slo_budget <= 1.0:
            raise ConfigError("slo_budget must be in (0, 1]")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError("ewma_alpha must be in (0, 1]")
        if self.min_events < 1:
            raise ConfigError("min_events must be at least 1")
        if self.cooldown_ms < 0:
            raise ConfigError("cooldown_ms must be non-negative")


def default_rules(qos_ms: float) -> "tuple[SLORule, ...]":
    """The stock rule set (``--slo-rules default``)."""
    return (
        SLORule(
            rule_id="burn-fast",
            kind="burn-rate",
            threshold=1.0,
            short_window_ms=1000.0,
            long_window_ms=5000.0,
            min_events=20,
            cooldown_ms=2000.0,
        ),
        SLORule(
            rule_id="p99-window",
            kind="p99-threshold",
            threshold=1.0,
            short_window_ms=1000.0,
            long_window_ms=1000.0,
            min_events=10,
            cooldown_ms=0.0,
        ),
        SLORule(
            rule_id="guard-ladder",
            kind="guard-escalation",
            threshold=1.0,
            min_events=1,
            cooldown_ms=0.0,
            severity="warn",
        ),
        SLORule(
            rule_id="prediction-ewma",
            kind="prediction-error",
            threshold=0.35,
            ewma_alpha=0.2,
            min_events=25,
            cooldown_ms=2000.0,
            severity="warn",
        ),
    )


def rules_to_dict(rules: Sequence[SLORule]) -> dict:
    """JSON-safe form of a rule set (the ``--slo-rules`` file format)."""
    return {
        "schema": SLO_RULES_SCHEMA,
        "rules": [asdict(rule) for rule in rules],
    }


def load_rules(path: str) -> "tuple[SLORule, ...]":
    """Read a rule file written in the :data:`SLO_RULES_SCHEMA` format."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or data.get("schema") != SLO_RULES_SCHEMA:
        raise ConfigError(
            f"{path}: not a {SLO_RULES_SCHEMA} rule file "
            f"(schema = {data.get('schema') if isinstance(data, dict) else data!r})"
        )
    raw_rules = data.get("rules")
    if not isinstance(raw_rules, list) or not raw_rules:
        raise ConfigError(f"{path}: a rule file needs a non-empty rules list")
    valid = {f.name for f in fields(SLORule)}
    rules = []
    for index, raw in enumerate(raw_rules):
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: rule {index} is not an object")
        unknown = sorted(set(raw) - valid)
        if unknown:
            raise ConfigError(
                f"{path}: rule {index} has unknown keys {unknown}"
            )
        rules.append(SLORule(**raw))
    return tuple(rules)


def resolve_rules(
    spec: Optional[str], qos_ms: float
) -> "tuple[SLORule, ...]":
    """CLI helper: ``None`` -> no rules, ``"default"`` -> stock set,
    anything else -> a rule-file path."""
    if spec is None:
        return ()
    if spec == "default":
        return default_rules(qos_ms)
    return load_rules(spec)


# -- alert events and the flight recorder -------------------------------------


@dataclass
class AlertEvent:
    """One rule firing, with the flight-recorder snapshot at that instant.

    Plain data (dicts, lists, floats) end to end, so events pickle
    across ``parallel_map`` workers and serialize deterministically.
    """

    rule_id: str
    kind: str
    severity: str
    at_ms: float
    value: float
    threshold: float
    #: rule-specific details (window sizes, burn rates, guard modes, ...)
    context: dict = field(default_factory=dict)
    #: flight-recorder contents at the instant the rule fired
    snapshot: dict = field(default_factory=dict)
    #: truncated sha256 of the canonical-JSON snapshot
    snapshot_hash: str = ""

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "kind": self.kind,
            "severity": self.severity,
            "at_ms": self.at_ms,
            "value": self.value,
            "threshold": self.threshold,
            "context": self.context,
            "snapshot": self.snapshot,
            "snapshot_hash": self.snapshot_hash,
        }


def alert_from_dict(data: dict) -> AlertEvent:
    """Rebuild an :class:`AlertEvent` from :meth:`AlertEvent.to_dict`."""
    return AlertEvent(**data)


def snapshot_hash(snapshot: dict) -> str:
    """Truncated sha256 of the canonical JSON form of a snapshot."""
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class FlightRecorder:
    """Bounded ring buffers of the most recent runtime events.

    Each channel keeps its last ``capacity`` entries as plain dicts, so
    a snapshot is a deep-copy-free ``dict`` of lists that hashes and
    pickles deterministically.  Capacity bounds memory on 10^6-query
    horizons: the recorder never grows with the run.
    """

    CHANNELS = (
        "outcomes", "queries", "guard", "admission", "faults", "epochs",
    )

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ConfigError("flight-recorder capacity must be >= 1")
        self.capacity = int(capacity)
        for channel in self.CHANNELS:
            setattr(self, channel, deque(maxlen=self.capacity))

    def record(self, channel: str, entry: dict) -> None:
        getattr(self, channel).append(entry)

    def snapshot(self) -> dict:
        """Plain-dict copy of every channel, oldest entry first."""
        return {
            channel: [dict(entry) for entry in getattr(self, channel)]
            for channel in self.CHANNELS
        }


# -- per-rule evaluation state ------------------------------------------------


class _BurnState:
    """Sliding multi-window burn-rate evaluator for one rule."""

    __slots__ = ("rule", "events", "last_fire_ms")

    def __init__(self, rule: SLORule):
        self.rule = rule
        #: (t_ms, served, violations) observations, oldest first
        self.events: deque = deque()
        self.last_fire_ms = float("-inf")

    def observe(self, now_ms: float, served: int, violations: int):
        rule = self.rule
        self.events.append((now_ms, served, violations))
        horizon = now_ms - rule.long_window_ms
        while self.events and self.events[0][0] < horizon:
            self.events.popleft()
        short_cut = now_ms - rule.short_window_ms
        long_served = long_bad = short_served = short_bad = 0
        for t_ms, n, bad in self.events:
            long_served += n
            long_bad += bad
            if t_ms >= short_cut:
                short_served += n
                short_bad += bad
        if long_served < rule.min_events or short_served == 0:
            return None
        if now_ms - self.last_fire_ms < rule.cooldown_ms:
            return None
        short_burn = (short_bad / short_served) / rule.slo_budget
        long_burn = (long_bad / long_served) / rule.slo_budget
        if short_burn >= rule.threshold and long_burn >= rule.threshold:
            self.last_fire_ms = now_ms
            return {
                "short_burn": short_burn,
                "long_burn": long_burn,
                "short_window_ms": rule.short_window_ms,
                "long_window_ms": rule.long_window_ms,
                "served": long_served,
                "violations": long_bad,
            }
        return None


class _P99State:
    """Tumbling-window p99 evaluator for one rule.

    Latencies accumulate per window and the rule is checked when an
    observation lands past the window's end — the close time is the
    deterministic fire time.  The window's exact ceil-rank p99 comes
    from a sort at close (windows are short; memory stays bounded by
    the window's own event count).
    """

    __slots__ = ("rule", "window_end_ms", "latencies", "last_fire_ms")

    def __init__(self, rule: SLORule):
        self.rule = rule
        self.window_end_ms: Optional[float] = None
        self.latencies: list = []
        self.last_fire_ms = float("-inf")

    def observe(self, now_ms: float, latency_ms: float, qos_ms: float):
        rule = self.rule
        fired = None
        if self.window_end_ms is None:
            self.window_end_ms = (
                (int(now_ms / rule.short_window_ms) + 1)
                * rule.short_window_ms
            )
        elif now_ms >= self.window_end_ms:
            fired = self._close(qos_ms)
            while now_ms >= self.window_end_ms:
                self.window_end_ms += rule.short_window_ms
        self.latencies.append(latency_ms)
        return fired

    def _close(self, qos_ms: float):
        rule = self.rule
        latencies, self.latencies = self.latencies, []
        close_ms = self.window_end_ms
        if len(latencies) < rule.min_events:
            return None
        if close_ms - self.last_fire_ms < rule.cooldown_ms:
            return None
        ordered = sorted(latencies)
        rank = max(1, -(-99 * len(ordered) // 100))  # ceil(0.99 n)
        p99 = ordered[rank - 1]
        limit = rule.threshold * qos_ms
        if p99 > limit:
            self.last_fire_ms = close_ms
            return {
                "at_ms": close_ms,
                "p99_ms": p99,
                "limit_ms": limit,
                "window_ms": rule.short_window_ms,
                "count": len(latencies),
            }
        return None


class _EwmaState:
    """Prediction-error EWMA evaluator for one rule."""

    __slots__ = ("rule", "ewma", "count", "last_fire_ms")

    def __init__(self, rule: SLORule):
        self.rule = rule
        self.ewma = 0.0
        self.count = 0
        self.last_fire_ms = float("-inf")

    def observe(self, now_ms: float, rel_error: float):
        rule = self.rule
        alpha = rule.ewma_alpha
        self.ewma = (
            rel_error if self.count == 0
            else alpha * rel_error + (1 - alpha) * self.ewma
        )
        self.count += 1
        if self.count < rule.min_events:
            return None
        if now_ms - self.last_fire_ms < rule.cooldown_ms:
            return None
        if self.ewma > rule.threshold:
            self.last_fire_ms = now_ms
            return {"ewma": self.ewma, "observations": self.count}
        return None


# -- the monitor --------------------------------------------------------------


class SLOMonitor:
    """Evaluates a rule set over one run's event stream.

    Attach one monitor per run (or per node of a fleet): its hooks are
    called from the serving loop with simulated-clock timestamps, and
    fired alerts accumulate on :attr:`alerts` in event order.  The
    monitor observes and records; it never feeds back into scheduling.
    """

    def __init__(
        self,
        rules: Sequence[SLORule],
        qos_ms: float,
        *,
        recorder_capacity: int = 64,
        source: str = "",
    ):
        self.rules = tuple(rules)
        self.qos_ms = float(qos_ms)
        self.source = source
        self.recorder = FlightRecorder(recorder_capacity)
        self.alerts: "list[AlertEvent]" = []
        self._burn = [
            _BurnState(r) for r in self.rules if r.kind == "burn-rate"
        ]
        self._p99 = [
            _P99State(r) for r in self.rules if r.kind == "p99-threshold"
        ]
        self._ewma = [
            _EwmaState(r) for r in self.rules
            if r.kind == "prediction-error"
        ]
        self._guard_rules = [
            r for r in self.rules if r.kind == "guard-escalation"
        ]

    # -- event hooks (called by the serving loop) -----------------------------

    def note_outcome(
        self, kind: str, name: str,
        predicted_ms: float, actual_ms: float, now_ms: float,
    ) -> None:
        """One kernel-launch outcome: predicted vs actual duration."""
        self.recorder.record("outcomes", {
            "at_ms": now_ms, "kind": kind, "name": name,
            "predicted_ms": predicted_ms, "actual_ms": actual_ms,
        })
        if predicted_ms > 0:
            rel_error = abs(actual_ms - predicted_ms) / predicted_ms
            for state in self._ewma:
                hit = state.observe(now_ms, rel_error)
                if hit is not None:
                    self._fire(state.rule, now_ms, state.ewma, hit)

    def note_query(
        self, service: str, arrival_ms: float, latency_ms: float,
        end_ms: float, *, guard_mode: str = "fuse",
        guard_risk: float = 0.0, penalty_ms: float = 0.0,
    ) -> None:
        """One completed LC query."""
        violated = latency_ms > self.qos_ms
        self.recorder.record("queries", {
            "at_ms": end_ms, "service": service, "arrival_ms": arrival_ms,
            "latency_ms": latency_ms, "violated": violated,
            "guard_mode": guard_mode, "guard_risk": guard_risk,
            "penalty_ms": penalty_ms,
        })
        for state in self._burn:
            hit = state.observe(end_ms, 1, int(violated))
            if hit is not None:
                self._fire(state.rule, end_ms, hit["short_burn"], hit)
        for state in self._p99:
            hit = state.observe(end_ms, latency_ms, self.qos_ms)
            if hit is not None:
                at_ms = hit.pop("at_ms")
                self._fire(state.rule, at_ms, hit["p99_ms"], hit)

    def note_guard(
        self, now_ms: float, from_mode: str, to_mode: str, risk: float
    ) -> None:
        """One mispredict-guard mode transition."""
        self.recorder.record("guard", {
            "at_ms": now_ms, "from_mode": from_mode, "to_mode": to_mode,
            "risk": risk,
        })
        try:
            old = _GUARD_LADDER.index(from_mode)
            new = _GUARD_LADDER.index(to_mode)
        except ValueError:
            return
        if new <= old:
            return  # recovery, not escalation
        for rule in self._guard_rules:
            if new >= rule.threshold:
                severity = "page" if to_mode == "exclusive" else rule.severity
                self._fire(
                    rule, now_ms, float(new),
                    {"from_mode": from_mode, "to_mode": to_mode,
                     "risk": risk},
                    severity=severity,
                )

    def note_admission(self, outcome: str, now_ms: float) -> None:
        """One admission-control override (shed/deferred)."""
        self.recorder.record("admission", {
            "at_ms": now_ms, "outcome": outcome,
        })

    def note_fault(self, channel: str, now_ms: float, **detail) -> None:
        """One injected-fault event (drop, delay, crash, reroute, ...)."""
        entry = {"at_ms": now_ms, "channel": channel}
        entry.update(detail)
        self.recorder.record("faults", entry)

    def note_epoch(self, entry: dict) -> None:
        """One autoscale-epoch observation (fleet-level runs).

        Also feeds the burn-rate rules with the epoch's aggregate
        served/violation counts, so fleet monitors fire on the same
        multi-window math as per-query ones.
        """
        self.recorder.record("epochs", entry)
        now_ms = entry.get("end_ms", entry.get("at_ms", 0.0))
        served = int(entry.get("served", 0))
        violations = int(entry.get("violations", 0))
        if served > 0:
            for state in self._burn:
                hit = state.observe(now_ms, served, violations)
                if hit is not None:
                    self._fire(state.rule, now_ms, hit["short_burn"], hit)

    # -- firing ---------------------------------------------------------------

    def _fire(
        self, rule: SLORule, at_ms: float, value: float, context: dict,
        severity: Optional[str] = None,
    ) -> None:
        snapshot = self.recorder.snapshot()
        if self.source:
            context = dict(context)
            context["source"] = self.source
        self.alerts.append(AlertEvent(
            rule_id=rule.rule_id,
            kind=rule.kind,
            severity=severity or rule.severity,
            at_ms=at_ms,
            value=value,
            threshold=rule.threshold,
            context=context,
            snapshot=snapshot,
            snapshot_hash=snapshot_hash(snapshot),
        ))

    def alert_dicts(self) -> "list[dict]":
        """Plain-data alerts (what fleet workers ship to the parent)."""
        return [alert.to_dict() for alert in self.alerts]


def make_monitor(
    rules: Sequence[SLORule], qos_ms: float, *, source: str = "",
) -> Optional[SLOMonitor]:
    """A monitor for one run, or ``None`` for an empty rule set."""
    if not rules:
        return None
    return SLOMonitor(rules, qos_ms, source=source)


def merge_alerts(groups: "Sequence[Sequence[dict]]") -> "list[dict]":
    """Merge per-node alert streams into one deterministic timeline.

    Sorting by (time, source, rule id) makes the merged stream
    independent of worker layout — the fleet twin of the registry's
    submission-order merge.
    """
    merged = [dict(alert) for group in groups for alert in group]
    merged.sort(key=lambda a: (
        a.get("at_ms", 0.0),
        str(a.get("context", {}).get("source", "")),
        str(a.get("rule_id", "")),
    ))
    return merged
