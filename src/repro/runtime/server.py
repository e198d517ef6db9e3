"""The non-preemptive co-location engine.

Plays a scheduling policy forward over a Poisson query trace and an
always-backlogged set of BE applications, on a GPU that runs exactly one
kernel at a time (the non-preemptive premise of the paper — and of the
false-high-utilization problem).  Produces per-query latencies, BE
progress, and the two core types' active timelines (the signal behind
Figs. 1, 2 and 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .. import audit, telemetry
from ..config import GPUConfig
from ..errors import ConfigError, SchedulingError
from ..gpusim.trace import Timeline
from ..telemetry import RunTelemetry
from ..telemetry.slo import SLOMonitor
from .faults import FaultInjector
from .oracle import DurationOracle
from .policies import Action, SchedulerPolicy
from .query import BEApplication, Query
from .runconfig import DEFAULT_RUN_CONFIG, RunConfig

#: Every launch kind the server executes; ``ServerResult`` counts each
#: in its ``n_<kind>_kernels`` field.
LAUNCH_KINDS = ("lc", "be", "fused", "hfused", "spatial", "chain")
_COUNTERS = {kind: f"n_{kind}_kernels" for kind in LAUNCH_KINDS}


@dataclass
class ExecutedKernel:
    """One executed launch, for fine-grained trace consumers (Fig. 15)."""

    start_ms: float
    end_ms: float
    kind: str       # "lc" | "be" | "fused" | "hfused" | "spatial" | "chain"
    name: str
    tc_end_ms: float
    cd_end_ms: float
    #: owning service: the LC model for "lc"/"fused" launches (a fused
    #: launch is charged to the query it carries), the BE app for "be"
    service: str = ""


@dataclass
class ServerResult:
    """Outcome of one co-location run."""

    qos_ms: float
    horizon_ms: float
    end_ms: float
    latencies_ms: list[float]
    be_work_ms: dict[str, float]
    tc_timeline: Timeline
    cd_timeline: Timeline
    #: when the first kernel was launched; the run's busy window is
    #: ``[start_ms, end_ms]``, which metrics normalize against
    start_ms: float = 0.0
    n_lc_kernels: int = 0
    n_be_kernels: int = 0
    n_fused_kernels: int = 0
    #: zoo-policy launches: horizontally-fused BE pairs, SM-partitioned
    #: spatial co-runs, and >2-kernel fusion chains
    n_hfused_kernels: int = 0
    n_spatial_kernels: int = 0
    n_chain_kernels: int = 0
    executed: list[ExecutedKernel] = field(default_factory=list)
    #: per-LC-service latencies (useful under multi-tenant runs)
    latencies_by_model: dict[str, list[float]] = field(default_factory=dict)
    #: BE launches refused by admission control: shed (no Eq. 9 headroom
    #: left at all) and deferred (headroom below the admission margin)
    n_shed_be: int = 0
    n_deferred_be: int = 0
    #: injected BE completion faults that a run endured
    n_dropped_be: int = 0
    n_delayed_be: int = 0
    #: scheduling decisions per guard mode ({} when unguarded)
    guard_mode_decisions: dict[str, int] = field(default_factory=dict)
    #: fault-injector event counters ({} when fault-free)
    fault_events: dict[str, int] = field(default_factory=dict)
    #: the run's telemetry session (None when telemetry was off)
    telemetry: Optional[RunTelemetry] = None
    #: fired SLO alerts, as plain dicts ([] when no monitor attached)
    alerts: list = field(default_factory=list)

    def kernel_counts(self) -> dict[str, int]:
        """Executed launches per kind, in :data:`LAUNCH_KINDS` order."""
        return {kind: getattr(self, _COUNTERS[kind]) for kind in LAUNCH_KINDS}

    def p99_by_model(self) -> dict[str, float]:
        """99th-percentile latency per LC service."""
        return {
            name: float(np.percentile(values, 99))
            for name, values in self.latencies_by_model.items()
        }

    @property
    def total_be_work_ms(self) -> float:
        return sum(self.be_work_ms.values())

    @property
    def be_throughput(self) -> float:
        """BE work completed per wall millisecond within the horizon."""
        if self.horizon_ms <= 0:
            raise SchedulingError("horizon must be positive")
        return self.total_be_work_ms / self.horizon_ms

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_ms:
            return float("nan")
        return float(np.mean(self.latencies_ms))

    @property
    def p99_latency_ms(self) -> float:
        if not self.latencies_ms:
            return float("nan")
        return float(np.percentile(self.latencies_ms, 99))

    @property
    def qos_violation_rate(self) -> float:
        if not self.latencies_ms:
            return float("nan")
        violations = sum(1 for l in self.latencies_ms if l > self.qos_ms)
        return violations / len(self.latencies_ms)

    @property
    def qos_satisfied(self) -> bool:
        """The paper's criterion: the 99th percentile meets the target."""
        return self.p99_latency_ms <= self.qos_ms * 1.0001

    # -- event hooks ----------------------------------------------------------
    #
    # The server mutates its result only through these three methods, so
    # a constant-memory fold (``repro.runtime.replay.StreamingResult``)
    # can substitute incremental accumulators for the per-query lists by
    # overriding them — the scheduling loop itself is shared verbatim.

    def note_kernel(
        self, start: float, end: float, kind: str, name: str,
        tc_end: float, cd_end: float, service: str, keep: bool,
    ) -> None:
        """Record one executed launch (timelines + optional trace row)."""
        if tc_end > start:
            self.tc_timeline.add(start, tc_end)
        if cd_end > start:
            self.cd_timeline.add(start, cd_end)
        if keep:
            self.executed.append(
                ExecutedKernel(start, end, kind, name, tc_end, cd_end,
                               service)
            )

    def note_query_latency(
        self, model_name: str, latency_ms: float,
        end_ms: Optional[float] = None,
    ) -> None:
        """Record one completed LC query's end-to-end latency.

        ``end_ms`` (the completion instant) feeds time-windowed folds
        (see :class:`repro.runtime.replay.StreamingResult`); the
        list-based result has no use for it.
        """
        self.latencies_ms.append(latency_ms)
        self.latencies_by_model.setdefault(model_name, []).append(latency_ms)

    def note_be_credit(self, app_name: str, solo_ms: float,
                       end_ms: float) -> None:
        """Credit one retired BE kernel's work (within the horizon)."""
        if end_ms <= self.horizon_ms:
            self.be_work_ms[app_name] += solo_ms


class ColocationServer:
    """Executes a policy over one query trace."""

    def __init__(
        self,
        gpu: GPUConfig,
        *,
        oracle: DurationOracle,
        policy: SchedulerPolicy,
        config: Optional[RunConfig] = None,
        slow_factor: float = 1.0,
        record_kernels: bool = False,
        faults: Optional[FaultInjector] = None,
        audit_run: Optional[bool] = None,
        telemetry_run: Optional[bool] = None,
        monitor: Optional[SLOMonitor] = None,
        metric_labels: Optional[dict] = None,
    ):
        if not slow_factor > 0:
            raise ConfigError(f"slow_factor must be positive: {slow_factor}")
        self.config = config or DEFAULT_RUN_CONFIG
        self.gpu = gpu
        self.oracle = oracle
        self.policy = policy
        self.qos_ms = self.config.qos_ms
        #: actual-duration multiplier of a silently degraded node: every
        #: served duration (solo, co-run, and the ground-truth admission
        #: accounting) runs this many times longer and retired BE kernels
        #: credit their scaled solo time, while the policy's predictor
        #: keeps believing healthy durations
        self.slow_factor = slow_factor
        self.record_kernels = record_kernels
        #: injected faults for this run (None = the paper's happy path)
        self.faults = faults
        #: invariant auditing: True/False overrides, None follows the
        #: process-wide switch (see :mod:`repro.audit`)
        self.audit_run = audit_run
        self._auditor: Optional[audit.ServerAuditor] = None
        #: telemetry collection: True/False overrides, None follows the
        #: run config and the process-wide switch (:mod:`repro.telemetry`)
        self.telemetry_run = telemetry_run
        self._telemetry: Optional[RunTelemetry] = None
        #: online SLO monitor (observe-only; None = unmonitored run)
        self.monitor = monitor
        #: extra label values stamped on every metric family the run's
        #: telemetry session publishes (e.g. ``{"node": "node2"}``)
        self.metric_labels = dict(metric_labels or {})
        self._guard_seen = 0

    def serve(
        self,
        queries: Iterable[Query],
        be_apps: Sequence[BEApplication],
        horizon_ms: Optional[float] = None,
        result: Optional[ServerResult] = None,
    ) -> ServerResult:
        """Run until every query completes.

        BE work is credited only for completions within the horizon
        (default: last arrival + QoS target), so throughput comparisons
        between policies cover identical wall-clock windows.  Without
        ``horizon_ms`` the queries are sorted by arrival; with one,
        ``queries`` must yield in arrival order and is consumed lazily
        (one-element lookahead), so a 10^6–10^7-query replay holds only
        the in-flight queries in memory — provided ``result`` folds
        incrementally too (see
        :class:`repro.runtime.replay.StreamingResult`; the default is a
        list-based :class:`ServerResult`).  The run sets the result's
        horizon and keys its BE work by the served applications.

        An empty trace is allowed only with an explicit ``horizon_ms``
        (a replica that received no routed LC traffic): the server then
        drains the BE streams until the horizon.  A server holding a
        :class:`FaultInjector` installs its prediction perturbation on
        ``policy.models`` for the run and restores the previous one.
        """
        if horizon_ms is None:
            queries = sorted(queries, key=lambda q: q.arrival_ms)
            if not queries:
                raise SchedulingError("need at least one query")
            horizon_ms = queries[-1].arrival_ms + self.qos_ms
        elif horizon_ms <= 0:
            raise SchedulingError("serving needs a positive horizon")
        if result is None:
            result = ServerResult(
                qos_ms=self.qos_ms,
                horizon_ms=horizon_ms,
                end_ms=0.0,
                latencies_ms=[],
                be_work_ms={},
                tc_timeline=Timeline(),
                cd_timeline=Timeline(),
            )
        result.horizon_ms = horizon_ms
        result.be_work_ms = {app.name: 0.0 for app in be_apps}
        if self.faults is None:
            return self._loop(iter(queries), be_apps, result)
        models = self.policy.models
        previous = models.perturb
        models.perturb = self.faults.perturb_prediction
        try:
            return self._loop(iter(queries), be_apps, result)
        finally:
            models.perturb = previous

    def _loop(
        self,
        queries: Iterator[Query],
        be_apps: Sequence[BEApplication],
        result: ServerResult,
    ) -> ServerResult:
        """The scheduling loop: decide, admit, price, commit."""
        horizon_ms = result.horizon_ms
        auditing = (
            self.audit_run if self.audit_run is not None else audit.active()
        )
        self._auditor = (
            audit.ServerAuditor(self.policy, self.qos_ms, horizon_ms)
            if auditing else None
        )
        tracing = (
            self.telemetry_run
            if self.telemetry_run is not None
            else (self.config.telemetry or telemetry.active())
        )
        self._telemetry = (
            RunTelemetry(
                policy=self.policy.policy_name,
                scenario=self.config.scenario,
                extra_labels=dict(self.metric_labels),
            )
            if tracing else None
        )
        self.policy.telemetry = self._telemetry
        guard = self.policy.guard
        self._guard_seen = len(guard.transitions) if guard is not None else 0
        now = 0.0
        start_ms: Optional[float] = None
        active: list[Query] = []
        next_query = next(queries, None)
        saw_query = next_query is not None

        while True:
            while next_query is not None and next_query.arrival_ms <= now:
                active.append(next_query)
                next_query = next(queries, None)

            action = self.policy.decide(now, active, be_apps)
            if action is None:
                if next_query is not None:
                    now = next_query.arrival_ms
                    continue
                break

            action = self._admit(action, now, active, result)
            if self._auditor is not None:
                self._auditor.on_action(now, action, active)
            if start_ms is None:
                start_ms = now
            now = self._commit(
                action, now, active, result, self._price(action, now)
            )

            if not active and next_query is None:
                if not saw_query and now < horizon_ms:
                    continue  # BE-only run: keep draining to the horizon
                break
        result.end_ms = now
        result.start_ms = start_ms if start_ms is not None else 0.0
        guard = self.policy.guard
        if guard is not None:
            result.guard_mode_decisions = dict(guard.mode_decisions)
        if self.faults is not None:
            result.fault_events = self.faults.counters()
        if self._auditor is not None:
            self._auditor.on_run_complete(result)
            self._auditor = None
        if self._telemetry is not None:
            session = self._telemetry
            session.publish_result(result, guard=guard)
            result.telemetry = session
            telemetry.merge_session(session, telemetry.registry())
            self.policy.telemetry = None
            self._telemetry = None
        return result

    # -- admission control ----------------------------------------------------

    def _true_remaining_ms(self, query: Query) -> float:
        """Ground-truth GPU time of a query's unexecuted kernels."""
        return query.plan.remaining_ms(
            self.oracle, self.slow_factor
        )[query.cursor]

    def true_headroom_ms(self, now: float, active: list[Query]) -> float:
        """Eq. 9 headroom computed from *actual* durations, not predictions.

        This is the server's own accounting of the reserved LC time: the
        measured history a deployment accumulates, which the simulator's
        oracle stands in for.  Under predictor faults it diverges from
        the policy's (predicted) headroom — that divergence is what
        admission control acts on.
        """
        slack = float("inf")
        reserved_ahead = 0.0
        internal_qos = self.policy.headroom.qos_ms
        oracle, factor = self.oracle, self.slow_factor
        for query in active:
            remaining = query.plan.remaining_ms(oracle, factor)[query.cursor]
            elapsed = now - query.arrival_ms
            slack = min(
                slack, internal_qos - elapsed - reserved_ahead - remaining
            )
            reserved_ahead += remaining
        return slack

    def _admit(
        self,
        action: Action,
        now: float,
        active: list[Query],
        result: ServerResult,
    ) -> Action:
        """Overload admission control for launches without an LC kernel.

        Only active for guarded policies.  When the ground-truth Eq. 9
        accounting says the reserved LC time leaves no headroom, a
        policy-approved launch that carries no LC kernel (``be``,
        ``hfused``) is refused — *shed* when the slack is gone,
        *deferred* when it is merely below the admission margin — and
        the LC query runs instead.  The BE kernels stay at the head of
        their streams, so deferral is a reordering, not a loss.  A
        launch carrying an LC kernel was priced against Eq. 9 when the
        policy chose it.
        """
        guard = self.policy.guard
        if guard is None or action.query is not None or not active:
            return action
        slack = self.true_headroom_ms(now, active)
        if slack <= 0:
            result.n_shed_be += 1
            override = "shed"
        elif slack < guard.config.admission_margin_ms:
            result.n_deferred_be += 1
            override = "deferred"
        else:
            return action
        if self._telemetry is not None:
            self._telemetry.note_admission_override(override)
        if self.monitor is not None:
            self.monitor.note_admission(override, now)
        query = active[0]
        return Action(
            kind="lc", query=query,
            predicted_lc_ms=self.policy.predict_lc_ms(query),
        )

    # -- the launch path: price, then commit ----------------------------------

    def _solo_ms(self, instance) -> float:
        """Served solo duration of one kernel instance on this node."""
        return (
            self.oracle.solo_ms(instance.kernel, instance.grid)
            * self.slow_factor
        )

    def _corun_ms(self, cycles: float) -> float:
        """Served wall time of a profiled co-run's cycle count."""
        return self.gpu.cycles_to_ms(cycles * self.slow_factor)

    def _price(self, action: Action, now: float) -> tuple:
        """What a launch starting at ``now`` runs (the only step that
        depends on the launch kind).

        Returns ``(name, duration, end, tc_end, cd_end, lc_end,
        predicted, parts, observed)``: the served duration and end, the
        TC and CD pipe ends, when the LC kernel completes (``None``: at
        the launch end), the prediction covering the whole launch, the
        BE ``parts`` it retires as ``(stream, solo ms, finish offset
        from now)`` in retire order, and for ``fused`` only the online
        fused model's observation of the co-run (``observe_fused``
        arguments).  Co-run durations replay the oracle record the
        policy priced at decision time.
        """
        kind = action.kind
        if kind == "lc" or kind == "be":
            lc = kind == "lc"
            if lc:
                query = action.query
                instance = query.current
                served = query.plan.served_ms(self.oracle, self.slow_factor)
                duration = served[query.cursor]
            else:
                instance = action.be_app.head
                duration = self._solo_ms(instance)
            end = now + duration
            tc = instance.kind == "tc"
            return (
                instance.name, duration, end,
                end if tc else now, now if tc else end, None,
                action.predicted_lc_ms if lc else action.predicted_be_ms,
                () if lc else ((action.be_app, duration, duration),),
                None,
            )
        if kind == "fused" or kind == "chain":
            app, fused = action.be_app, action.fused
            lc_instance, be_instance = action.query.current, app.head
            lc_is_tc = lc_instance.kind == "tc"
            if lc_is_tc:
                tc_grid, cd_grid = lc_instance.grid, be_instance.grid
            else:
                tc_grid, cd_grid = be_instance.grid, lc_instance.grid
            corun = self.oracle.fused(fused, tc_grid, cd_grid)
            tc_offset = self._corun_ms(corun.finish_a_cycles)
            cd_offset = self._corun_ms(corun.finish_b_cycles)
            duration = self._corun_ms(corun.duration_cycles)
            end = now + duration
            tc_end, cd_end = now + tc_offset, now + cd_offset
            be_offset = cd_offset if lc_is_tc else tc_offset
            if kind == "fused":
                to_cycles = self.gpu.ms_to_cycles
                lc_cycles = to_cycles(action.predicted_lc_ms)
                be_cycles = to_cycles(action.predicted_be_ms)
                observed = (
                    fused,
                    lc_cycles if lc_is_tc else be_cycles,
                    be_cycles if lc_is_tc else lc_cycles,
                    corun.duration_cycles * self.slow_factor,
                )
                parts = ((app, self._solo_ms(be_instance), be_offset),)
                return (fused.name, duration, end, tc_end, cd_end, None,
                        action.predicted_fused_ms, parts, observed)
            # CD riders extend the CD pipe behind the pair's CD half,
            # exactly as the policy priced them.  The online fused model
            # is not trained on chain makespans: they would bias the
            # pair model the Eq. 8 gate relies on.
            riders = []
            for rider in action.riders:
                solo = self._solo_ms(rider.head)
                cd_end += solo
                end = max(end, cd_end)
                riders.append((rider, solo, cd_end - now))
            name = "+".join(
                [fused.name] + [rider.head.name for rider in action.riders]
            )
            parts = ((app, self._solo_ms(be_instance), be_offset), *riders)
            return (name, end - now, end, tc_end, cd_end, None,
                    action.predicted_fused_ms, parts, None)
        if kind == "hfused" or kind == "spatial":
            policy_name, launch_a, launch_b, params = action.corun
            corun = self.oracle.corun_policy(
                policy_name, launch_a, launch_b, **dict(params)
            )
            duration = self._corun_ms(corun.duration_cycles)
            offset_a = self._corun_ms(corun.finish_a_cycles)
            offset_b = self._corun_ms(corun.finish_b_cycles)
            end = now + duration
            finish_a, finish_b = now + offset_a, now + offset_b
            if kind == "hfused":
                app_a, app_b = action.be_app, action.be_app2
                inst_a, inst_b = app_a.head, app_b.head
                name = f"{inst_a.name}+{inst_b.name}"
                lc_end = None
                parts = ((app_a, self._solo_ms(inst_a), offset_a),
                         (app_b, self._solo_ms(inst_b), offset_b))
            else:
                # The LC kernel finishes at its own partition's finish
                # time; the GPU stays busy until the longer one drains.
                app = action.be_app
                inst_a, inst_b = action.query.current, app.head
                name = f"{inst_a.name}|{inst_b.name}"
                lc_end = finish_a
                parts = ((app, self._solo_ms(inst_b), offset_b),)
            tc_end = cd_end = now
            for instance, finish in ((inst_a, finish_a), (inst_b, finish_b)):
                if instance.kind == "tc":
                    tc_end = max(tc_end, finish)
                else:
                    cd_end = max(cd_end, finish)
            return (name, duration, end, tc_end, cd_end, lc_end,
                    action.predicted_fused_ms, parts, None)
        raise SchedulingError(f"unknown action kind {action.kind!r}")

    def _commit(
        self,
        action: Action,
        now: float,
        active: list[Query],
        result: ServerResult,
        priced: tuple,
    ) -> float:
        """Run one priced launch; returns when the GPU frees up.

        One set of rules for every kind: a BE completion fault hits a
        BE part (a drop leaves its head un-retired, a delay stretches
        its finish and, if later, the launch end); then the launch is
        recorded and audited, counted, reported to the policy and the
        monitor, its surviving BE heads retire and its query advances.
        """
        (name, duration, end, tc_end, cd_end, lc_end, predicted, parts,
         observed) = priced
        kind = action.kind
        query = action.query
        if (self._telemetry is not None and query is not None
                and query.cursor == 0):
            self._telemetry.note_first_launch(query.qid, now)
        events = ()
        if self.faults is not None:
            retired, events = [], []
            for part in parts:
                app, _, offset = part
                actual, dropped = self.faults.be_outcome(offset)
                if dropped:
                    result.n_dropped_be += 1
                    events.append(("be_drop", app.head.name))
                else:
                    retired.append(part)
                if actual > offset:
                    result.n_delayed_be += 1
                    events.append(("be_delay", app.head.name))
                    finish = now + actual
                    if app.head.kind == "tc":
                        tc_end = max(tc_end, finish)
                    else:
                        cd_end = max(cd_end, finish)
                    if actual > duration:
                        duration, end = actual, finish
            parts = retired
        service = (
            query.model.name if query is not None else action.be_app.name
        )
        if self._auditor is not None:
            self._auditor.on_kernel(now, end, kind, name)
        result.note_kernel(now, end, kind, name, tc_end, cd_end, service,
                           self.record_kernels)
        counter = _COUNTERS[kind]
        setattr(result, counter, getattr(result, counter) + 1)
        self.policy.note_outcome(kind, name, predicted, duration)
        if self.monitor is not None:
            self.monitor.note_outcome(kind, name, predicted, duration, end)
            self._sync_guard(end)
            for fault, part_name in events:
                self.monitor.note_fault(fault, end, name=part_name)
        if observed is not None:
            # Online model maintenance (Section VI-C).
            self.policy.models.observe_fused(*observed)
        for app, solo, _ in parts:
            app.complete_head(solo)
            if self._auditor is not None:
                self._auditor.on_be_retired(app.name, solo, end)
            result.note_be_credit(app.name, solo, end)
        if query is not None:
            self._finish_query_kernel(
                query, end if lc_end is None else lc_end, active, result
            )
        return end

    def _finish_query_kernel(
        self, query: Query, end: float, active: list[Query],
        result: ServerResult,
    ) -> None:
        query.advance(end)
        if query.done:
            active.remove(query)
            result.note_query_latency(query.model.name, query.latency_ms, end)
            self.policy.note_query_done(query.latency_ms)
            if self._telemetry is not None:
                self._telemetry.note_query_complete(query, end)
            if self.monitor is not None:
                guard = self.policy.guard
                self.monitor.note_query(
                    query.model.name, query.arrival_ms, query.latency_ms,
                    end,
                    guard_mode=guard.mode if guard is not None else "fuse",
                    guard_risk=guard.risk if guard is not None else 0.0,
                    penalty_ms=getattr(query, "penalty_ms", 0.0),
                )
                self._sync_guard(end)

    def _sync_guard(self, now: float) -> None:
        """Forward any new guard-ladder transitions to the monitor."""
        guard = self.policy.guard
        if guard is None or self.monitor is None:
            return
        transitions = guard.transitions
        risks = guard.transition_risks
        while self._guard_seen < len(transitions):
            index = self._guard_seen
            _, old_mode, new_mode = transitions[index]
            risk = risks[index] if index < len(risks) else 0.0
            self.monitor.note_guard(now, old_mode, new_mode, risk)
            self._guard_seen += 1
