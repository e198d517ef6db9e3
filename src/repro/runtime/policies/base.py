"""The slim :class:`SchedulerPolicy` protocol and its one decision.

A scheduler policy is a plugin.  The protocol is
:meth:`SchedulerPolicy.decide`, :meth:`SchedulerPolicy.note_outcome`,
:meth:`SchedulerPolicy.note_query_done`,
:meth:`SchedulerPolicy.current_thr_ms` (which the auditor recomputes)
and the :attr:`SchedulerPolicy.policy_name` stamp.  Beyond it, the
server reads ``policy.guard`` (the mispredict guard, or None),
``policy.headroom.qos_ms`` (the internal target of its ground-truth
admission control), ``policy.predict_lc_ms`` (to price the LC launch
that replaces a refused BE launch) and ``policy.models.observe_fused``
(online fused-model maintenance), and sets ``policy.telemetry`` to the
run's session and ``policy.models.perturb`` for a faulted run.
Concrete policies register themselves with
:mod:`repro.runtime.policies.registry` and are built through
:func:`~repro.runtime.policies.registry.policy_from_name`.

:meth:`SchedulerPolicy.decide` is the decision every built-in policy
runs at an LC kernel boundary (Section VII-B): the Eq. 9 threshold
``Thr``, the policy's co-location step (:meth:`SchedulerPolicy._colocate`:
an Eq. 8 fusion, an HFuse pair, an SM partition), otherwise its
fallback (:meth:`SchedulerPolicy._fallback`: Baymax's reorder, else
the LC kernel alone).  It is also the one place that reads the
telemetry session and writes the decision record.  The reorder and
pure-BE helpers are shared machinery the hooks reuse.

:meth:`SchedulerPolicy.predict_ms` is memoized per (kernel name, grid)
and model version: a decision prices the same few kernels over and over,
and the models only change on an online refit or a bundle load, which
advance ``models.version`` and empty the policy's tables.  While a
prediction perturbation is installed (``models.perturb``, the
fault-injection hook) the memo is bypassed, because the perturbation
draws from its RNG on every prediction; the same holds for the LC
kernel's price read off its query's plan and a BE head's, priced once
per stream cursor (:meth:`SchedulerPolicy.predict_lc_ms`,
:meth:`SchedulerPolicy.predict_head_ms`).  An :class:`Action` is a
plain mutable record, cheap to build once per decision; the server
reads it after ``decide`` returns, so a policy must not change an
``Action`` it has returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ...config import GPUConfig
from ...errors import ConfigError
from ...fusion.fuser import FusedKernel
from ...predictor.online import OnlineModelManager, PredictionErrorTracker
from ...telemetry.decisions import DecisionRecord, ReservationRecord
from ..headroom import HeadroomTracker
from ..query import BEApplication, KernelInstance, Query

#: Modelled per-decision scheduler latencies (Section VIII-I): static
#: reorder-only scheduling costs ~0.5 ms with 60 co-running apps, and
#: considering one fusion pair per BE app adds ~14 us per pair, giving
#: the paper's ~1.2 ms at 50 candidate pairs.
STATIC_SCHEDULING_BASE_MS = 0.5
FUSION_CHECK_MS_PER_PAIR = 0.014


def scheduling_overhead_ms(n_fusion_pairs: int, fusion: bool = True) -> float:
    """Modelled cost of one scheduling decision (overhead study)."""
    if n_fusion_pairs < 0:
        raise ValueError("pair count cannot be negative")
    if not fusion:
        return STATIC_SCHEDULING_BASE_MS
    return STATIC_SCHEDULING_BASE_MS + FUSION_CHECK_MS_PER_PAIR * n_fusion_pairs


@dataclass
class Action:
    """One scheduling decision (not frozen: see the module docstring).

    ``kind`` is ``"lc"`` (run the LC query's current kernel), ``"be"``
    (run a BE app's head kernel), ``"fused"`` (run ``fused`` covering
    both the LC kernel and the BE head), ``"hfused"`` (one launch
    horizontally fusing the heads of ``be_app`` and ``be_app2``),
    ``"spatial"`` (the LC kernel and the BE head sharing the GPU on a
    fixed SM partition, described by ``corun``), or ``"chain"`` (a
    fused pair extended with extra CD ``riders`` packed into the same
    launch).
    """

    kind: str
    query: Optional[Query] = None
    be_app: Optional[BEApplication] = None
    fused: Optional[FusedKernel] = None
    #: predicted durations backing the decision (ms), for bookkeeping
    predicted_lc_ms: float = 0.0
    predicted_be_ms: float = 0.0
    predicted_fused_ms: float = 0.0
    #: second BE stream of an "hfused" launch
    be_app2: Optional[BEApplication] = None
    #: extra BE streams whose heads ride a "chain" launch's CD pipe
    riders: tuple = ()
    #: profiled co-run recipe of "spatial"/"hfused" launches:
    #: (oracle corun policy, launch_a, launch_b, sorted param items)
    corun: Optional[tuple] = None


# -- mispredict detection and graceful degradation ---------------------------


@dataclass(frozen=True)
class GuardConfig:
    """Knobs of the guarded (fault-tolerant) kernel manager.

    The guard inflates the Eq. 8 headroom threshold ``Thr`` by the
    observed prediction-error band and degrades the scheduling mode when
    the violation-risk estimate crosses a rail: fusion -> Baymax-style
    reordering -> LC-exclusive.  Hysteresis (``recover_ratio``) keeps
    the mode from flapping around a rail.
    """

    #: multiplier on (error band x predicted remaining LC work) that is
    #: subtracted from the headroom threshold
    margin_factor: float = 1.5
    #: violation risk above which fusion is abandoned for reordering
    reorder_risk: float = 0.08
    #: violation risk above which all BE scheduling stops while LC runs
    exclusive_risk: float = 0.20
    #: a mode is re-escalated once risk falls below rail * recover_ratio
    recover_ratio: float = 0.5
    #: EWMA smoothing of the per-query violation-risk estimate
    risk_alpha: float = 0.08
    #: latencies above near_violation * QoS count toward the risk.
    #: The healthy operating point sits near QOS_GUARD (0.9) times the
    #: target, so the rail sits above it — only the band between the
    #: internal target and the real one signals danger.
    near_violation: float = 0.96
    #: server-side admission control: BE launches are deferred when the
    #: ground-truth Eq. 9 headroom is below this margin, and shed when
    #: it is gone entirely
    admission_margin_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.margin_factor < 0:
            raise ConfigError("margin_factor must be non-negative")
        if not 0 < self.reorder_risk <= self.exclusive_risk:
            raise ConfigError(
                "need 0 < reorder_risk <= exclusive_risk, got "
                f"{self.reorder_risk} / {self.exclusive_risk}"
            )
        if not 0 < self.recover_ratio < 1:
            raise ConfigError("recover_ratio must be in (0, 1)")
        if not 0 < self.risk_alpha <= 1:
            raise ConfigError("risk_alpha must be in (0, 1]")


#: Degradation ladder, most to least aggressive co-location.
GUARD_MODES = ("fuse", "reorder", "exclusive")


class MispredictGuard:
    """Runtime state of the guarded kernel manager.

    Owns the per-run prediction-error tracker, the violation-risk EWMA
    and the current degradation mode, and translates the observed error
    band into a headroom margin.  One instance guards one policy for
    one run — per-run state keeps guarded runs independent and
    reproducible regardless of what else ran in the process.
    """

    def __init__(self, config: GuardConfig):
        self.config = config
        self.errors = PredictionErrorTracker()
        self.mode = "fuse"
        self.risk = 0.0
        self.queries_observed = 0
        #: decisions taken in each mode (robustness reporting)
        self.mode_decisions = {mode: 0 for mode in GUARD_MODES}
        #: (query index, old mode, new mode) transitions
        self.transitions: list[tuple[int, str, str]] = []
        #: risk value that fired each transition (parallel to
        #: ``transitions``; lets the auditor re-check the hysteresis
        #: rails without changing the transition tuples' shape)
        self.transition_risks: list[float] = []

    def margin_ms(self, remaining_ms: float) -> float:
        """Headroom to withhold, given predicted remaining LC work.

        The threshold inflation of the tentpole: ``Thr`` shrinks by the
        error band times the work the band applies to, so a predictor
        that is off by 20% on average leaves 20%-sized margins.
        """
        return (
            self.config.margin_factor
            * self.errors.band()
            * remaining_ms
        )

    def note_launch(
        self, name: str, predicted_ms: float, actual_ms: float
    ) -> float:
        """Fold one launch's predicted-vs-actual pair into the band."""
        return self.errors.record(name, predicted_ms, actual_ms)

    def note_decision(self) -> None:
        self.mode_decisions[self.mode] += 1

    def note_query(self, latency_ms: float, qos_ms: float) -> None:
        """Fold one completed query into the violation-risk estimate."""
        near = 1.0 if latency_ms > self.config.near_violation * qos_ms else 0.0
        alpha = self.config.risk_alpha
        if self.queries_observed == 0:
            self.risk = near
        else:
            self.risk = alpha * near + (1 - alpha) * self.risk
        self.queries_observed += 1
        self._update_mode()

    def _update_mode(self) -> None:
        cfg = self.config
        new = self.mode
        if self.mode == "fuse":
            if self.risk > cfg.reorder_risk:
                new = "reorder"
        elif self.mode == "reorder":
            if self.risk > cfg.exclusive_risk:
                new = "exclusive"
            elif self.risk < cfg.reorder_risk * cfg.recover_ratio:
                new = "fuse"
        elif self.mode == "exclusive":
            if self.risk < cfg.exclusive_risk * cfg.recover_ratio:
                new = "reorder"
        if new != self.mode:
            self.transitions.append((self.queries_observed, self.mode, new))
            self.transition_risks.append(self.risk)
            self.mode = new


#: Guard band on the internal headroom target: BE admission plans
#: against ``qos * QOS_GUARD`` so that Poisson bursts landing on an
#: already-filled window still finish inside the real target.  The
#: paper's Fig. 16 shows exactly this operating point: 99th-percentile
#: latencies close to, but below, the QoS target.
QOS_GUARD = 0.9


class SchedulerPolicy:
    """Base: owns the duration models and the headroom tracker, and
    makes the decision (:meth:`decide`) whose co-location step and
    fallback a policy overrides."""

    #: name stamped on telemetry decision records
    policy_name = "policy"

    def __init__(
        self,
        gpu: GPUConfig,
        models: OnlineModelManager,
        qos_ms: float,
        guard: Optional[MispredictGuard] = None,
    ):
        self.gpu = gpu
        self.models = models
        self.qos_ms = qos_ms
        #: optional mispredict guard; None reproduces the paper exactly
        self.guard = guard
        self.headroom = HeadroomTracker(
            qos_ms * QOS_GUARD, self.predict_ms,
            version=lambda: models.version,
        )
        self._rr = 0  # round-robin cursor over BE apps
        #: at most one directly-launched BE kernel per LC kernel launch
        #: (Section VII-B's pacing); keyed by (query id, kernel cursor)
        self._reordered_at: Optional[tuple[int, int]] = None
        #: decision counters for the overhead study
        self.decisions = 0
        self.fusions = 0
        #: per-run telemetry session the server attaches; None keeps
        #: every recording site a single attribute check
        self.telemetry = None
        #: (kernel name, grid) -> predicted solo ms (:meth:`predict_ms`)
        self._predicted_ms: dict[tuple[str, int], float] = {}
        #: every table of prediction-derived values; all are emptied
        #: together when the models change (:meth:`_drop_tables`)
        self._tables: list[dict] = [self._predicted_ms]
        #: model version the tables were built against; a reader checks
        #: ``models.version != _tables_version`` before every lookup
        self._tables_version = models.version

    # -- predictions -----------------------------------------------------------

    def _drop_tables(self) -> None:
        """Empty every prediction table: the models changed.

        ``models.version`` advances on an online refit (the >10%-error
        retrain path) and on a bundle load; every value a table holds
        was priced with the coefficients before it.
        """
        self._tables_version = self.models.version
        for table in self._tables:
            table.clear()

    def predict_ms(self, instance: KernelInstance) -> float:
        """Predicted solo duration of one kernel instance (ms).

        Memoized per (kernel name, grid) and model version.  Under a
        prediction perturbation every call goes to the models, so the
        perturbation draws exactly as often as without the memo.
        """
        models = self.models
        if models.perturb is not None:
            return self.gpu.cycles_to_ms(
                models.predict_kernel(instance.kernel, instance.grid)
            )
        if models.version != self._tables_version:
            self._drop_tables()
        key = (instance.kernel.name, instance.grid)
        ms = self._predicted_ms.get(key)
        if ms is None:
            ms = self._predicted_ms[key] = self.gpu.cycles_to_ms(
                models.predict_kernel(instance.kernel, instance.grid)
            )
        return ms

    def predict_lc_ms(self, query: Query) -> float:
        """:meth:`predict_ms` of the query's current kernel, read off
        its plan (one column per headroom tracker and model version)."""
        models = self.models
        if models.perturb is not None:
            return self.predict_ms(query.current)
        return query.plan.predicted_ms(
            self.headroom, models.version, self.predict_ms
        )[query.cursor]

    def predict_head_ms(self, app: BEApplication) -> float:
        """:meth:`predict_ms` of a BE stream's head kernel, priced once
        per stream cursor, policy and model version."""
        models = self.models
        if models.perturb is not None:
            return self.predict_ms(app.head)
        priced = app.head_price
        if (priced is not None and priced[0] == app.cursor
                and priced[1] is self and priced[2] == models.version):
            return priced[3]
        ms = self.predict_ms(app.head)
        app.head_price = (app.cursor, self, models.version, ms)
        return ms

    def predict_fused_ms(
        self, fused: FusedKernel, tc_ms: float, cd_ms: float
    ) -> float:
        cycles = self.models.predict_fused(
            fused,
            self.gpu.ms_to_cycles(tc_ms),
            self.gpu.ms_to_cycles(cd_ms),
        )
        return self.gpu.cycles_to_ms(cycles)

    # -- mispredict feedback -----------------------------------------------------

    def note_outcome(
        self, kind: str, name: str, predicted_ms: float, actual_ms: float
    ) -> None:
        """Record one launch's predicted-vs-actual duration.

        The server calls this after every launch; the base class feeds
        the pair to the mispredict guard's error band (a no-op for an
        unguarded policy).
        """
        if self.guard is not None and predicted_ms > 0 and actual_ms > 0:
            self.guard.note_launch(name, predicted_ms, actual_ms)

    def note_query_done(self, latency_ms: float) -> None:
        """Record one completed LC query (drives the violation risk)."""
        if self.guard is not None:
            self.guard.note_query(latency_ms, self.qos_ms)

    def _guarded_thr(self, thr_ms: float, active: Sequence[Query]) -> float:
        """A headroom threshold after guard inflation (Eq. 8's Thr).

        Subtracts the error band scaled by every active query's
        predicted remaining work — the work the band applies to.
        """
        if self.guard is None:
            return thr_ms
        remaining = sum(
            self.headroom.predicted_remaining_ms(query) for query in active
        )
        return thr_ms - self.guard.margin_ms(remaining)

    def current_thr_ms(
        self, now_ms: float, active: Sequence[Query]
    ) -> float:
        """The BE-admission threshold ``Thr`` at this instant (Eq. 9
        headroom, after guard inflation).  Pure — safe for the auditor
        to recompute alongside a decision.  Equals
        ``_guarded_thr(headroom_ms(...), active)`` in one pass: the
        guard's remaining-work sum is the Eq. 9 loop's ``reserved``."""
        headroom, reserved = self.headroom.reservation(now_ms, active)
        if self.guard is None:
            return headroom
        return headroom - self.guard.margin_ms(reserved)

    # -- decisions --------------------------------------------------------------

    def decide(
        self,
        now_ms: float,
        active: Sequence[Query],
        be_apps: Sequence[BEApplication],
    ) -> Optional[Action]:
        """Choose what to run next; None means nothing is runnable.

        With no LC query active, :meth:`_pure_be`.  Otherwise the guard
        counts the decision and, in its ``exclusive`` mode, the LC
        kernel runs alone.  Else one Eq. 9 pass gives ``Thr`` (the
        headroom less the guard's margin, the value
        :meth:`current_thr_ms` computes); in ``fuse`` mode (always,
        unguarded) the policy's :meth:`_colocate` may pick a
        co-location, and when it picks none :meth:`_fallback` decides.
        With a telemetry session attached, the decision is appended to
        its log, with the Eq. 9 record, the evaluated candidates, the
        reserve and the gain; the record's index is its position in
        the log.
        """
        self.decisions += 1
        session = self.telemetry
        guard = self.guard
        query = guard_mode = thr = reserve = gain = reservation = log = None
        if not active:
            action = self._pure_be(be_apps)
            if action is None:
                return None
        else:
            query = active[0]
            if guard is not None:
                guard.note_decision()
                guard_mode = guard.mode
            if guard_mode == "exclusive":
                action = Action(
                    kind="lc", query=query,
                    predicted_lc_ms=self.predict_lc_ms(query),
                )
            else:
                entries = None if session is None else []
                headroom, reserved = self.headroom.reservation(
                    now_ms, active, entries
                )
                margin = 0.0 if guard is None else guard.margin_ms(reserved)
                thr = headroom - margin
                if session is not None:
                    log = []
                    reservation = ReservationRecord(
                        self.headroom.qos_ms, tuple(entries), headroom,
                        margin, thr,
                    )
                chosen = None
                if guard_mode != "reorder":
                    chosen = self._colocate(query, be_apps, thr, log)
                if chosen is None:
                    action, reserve = self._fallback(query, be_apps, thr)
                else:
                    self.fusions += 1
                    action, gain = chosen
        if session is None:
            return action
        decisions = session.decisions
        if query is None:
            lc_service = lc_arrival_ms = lc_kernel = None
        else:
            lc_service = query.model.name
            lc_arrival_ms = query.arrival_ms
            lc_kernel = query.current.name
        be_app, be_app2, fused = action.be_app, action.be_app2, action.fused
        decisions.append(DecisionRecord(
            len(decisions), now_ms, self.policy_name, action.kind,
            lc_service, lc_arrival_ms, lc_kernel,
            be_app.name if be_app is not None else None,
            be_app2.name if be_app2 is not None else None,
            tuple([rider.name for rider in action.riders]),
            fused.name if fused is not None else None,
            guard_mode, thr, reserve,
            action.predicted_lc_ms, action.predicted_be_ms,
            action.predicted_fused_ms, gain, tuple(log) if log else (),
            reservation,
        ))
        return action

    def _colocate(
        self,
        query: Query,
        be_apps: Sequence[BEApplication],
        thr_ms: float,
        log: Optional[list],
    ) -> Optional[tuple[Action, float]]:
        """The co-location step: a launch sharing the GPU with the LC
        kernel, or BE work packed into one launch, within ``thr_ms``.

        Returns the action and its throughput gain ``Tgain`` (counted
        in :attr:`fusions`), or None to fall back.  ``log`` is None
        unless a telemetry session is attached; it then collects each
        evaluated :class:`~repro.telemetry.FusionCandidate`.  The
        reorder-only base co-locates nothing.
        """
        return None

    def _fallback(
        self,
        query: Query,
        be_apps: Sequence[BEApplication],
        thr_ms: float,
    ) -> tuple[Action, Optional[float]]:
        """The decision when nothing co-locates, with the headroom it
        reserved for later co-locations (None when it reserves none):
        Baymax's reorder, else the LC kernel."""
        return self._reorder_or_lc(query, be_apps, thr_ms), None

    def _be_rotation(
        self, be_apps: Sequence[BEApplication]
    ) -> list[BEApplication]:
        """BE apps starting from the round-robin cursor (fair sharing)."""
        if not be_apps:
            return []
        start = self._rr % len(be_apps)
        return [*be_apps[start:], *be_apps[:start]]

    def _reorder_or_lc(
        self,
        query: Query,
        be_apps: Sequence[BEApplication],
        thr_ms: float,
    ) -> Action:
        """Baymax's move: a fitting BE kernel first, else the LC kernel.

        At most one BE kernel is launched directly per LC kernel launch
        (the per-kernel check of Section VII-B), which paces headroom
        consumption across the whole query instead of draining it at
        the first kernel.
        """
        position = (query.qid, len(query.instances) - query.cursor)
        if position != self._reordered_at:
            for app in self._be_rotation(be_apps):
                be_ms = self.predict_head_ms(app)
                if be_ms < thr_ms:
                    self._rr += 1
                    self._reordered_at = position
                    return Action(
                        kind="be", be_app=app, predicted_be_ms=be_ms
                    )
        return Action(
            kind="lc", query=query, predicted_lc_ms=self.predict_lc_ms(query)
        )

    def _pure_be(
        self, be_apps: Sequence[BEApplication]
    ) -> Optional[Action]:
        """No LC query active: best-effort work runs unconstrained.

        The app at the round-robin cursor (the head of
        :meth:`_be_rotation`) launches.
        """
        if not be_apps:
            return None
        app = be_apps[self._rr % len(be_apps)]
        self._rr += 1
        return Action(
            kind="be", be_app=app, predicted_be_ms=self.predict_head_ms(app)
        )
