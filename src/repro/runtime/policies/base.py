"""The slim :class:`SchedulerPolicy` protocol and shared machinery.

A scheduler policy is a plugin.  The protocol is
:meth:`SchedulerPolicy.decide`, :meth:`SchedulerPolicy.note_outcome`,
:meth:`SchedulerPolicy.note_query_done`,
:meth:`SchedulerPolicy.current_thr_ms` (which the auditor recomputes)
and the :attr:`SchedulerPolicy.policy_name` stamp.  Beyond it, the
server reads ``policy.guard`` (the mispredict guard, or None),
``policy.headroom.qos_ms`` (the internal target of its ground-truth
admission control), ``policy.predict_ms`` (to price the LC launch that
replaces a refused BE launch) and ``policy.models.observe_fused``
(online fused-model maintenance), and sets ``policy.telemetry`` to the
run's session.  Everything else here (the reorder/pure-BE helpers, the
decision recorder) is shared machinery subclasses may reuse but the
server never touches.  Concrete policies register themselves with
:mod:`repro.runtime.policies.registry` and are built through
:func:`~repro.runtime.policies.registry.policy_from_name`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

from ...config import GPUConfig
from ...errors import ConfigError
from ...fusion.fuser import FusedKernel
from ...predictor.online import OnlineModelManager, PredictionErrorTracker
from ...telemetry.decisions import (
    DecisionRecord,
    FusionCandidate,
    ReservationRecord,
)
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


@dataclass(frozen=True)
class Action:
    """One scheduling decision.

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


class SchedulerPolicy(ABC):
    """Base: owns the duration models and the headroom tracker."""

    #: name stamped on telemetry decision records
    policy_name = "policy"

    def __init__(
        self,
        gpu: GPUConfig,
        models: OnlineModelManager,
        qos_ms: float,
        qos_guard: float = QOS_GUARD,
        guard: Optional[MispredictGuard] = None,
    ):
        self.gpu = gpu
        self.models = models
        self.qos_ms = qos_ms
        #: optional mispredict guard; None reproduces the paper exactly
        self.guard = guard
        self.headroom = HeadroomTracker(
            qos_ms * qos_guard, self.predict_ms,
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

    # -- predictions -----------------------------------------------------------

    def predict_ms(self, instance: KernelInstance) -> float:
        cycles = self.models.predict_kernel(instance.kernel, instance.grid)
        return self.gpu.cycles_to_ms(cycles)

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

        The server calls this after every launch; the error EWMA it
        feeds is pure bookkeeping until a guard consumes it.
        """
        if predicted_ms > 0 and actual_ms > 0:
            self.models.record_error(name, predicted_ms, actual_ms)
            if self.guard is not None:
                self.guard.note_launch(name, predicted_ms, actual_ms)

    def note_query_done(self, latency_ms: float) -> None:
        """Record one completed LC query (drives the violation risk)."""
        if self.guard is not None:
            self.guard.note_query(latency_ms, self.qos_ms)

    def _guarded_thr(self, thr_ms: float, active: Sequence[Query]) -> float:
        """The headroom threshold after guard inflation (Eq. 8's Thr).

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
        to recompute alongside a decision."""
        return self._guarded_thr(
            self.headroom.headroom_ms(now_ms, active), active
        )

    # -- telemetry --------------------------------------------------------------

    def _thr_with_reservation(
        self, now_ms: float, active: Sequence[Query]
    ) -> tuple[float, ReservationRecord]:
        """``Thr`` plus the Eq. 9 record backing it (telemetry path).

        Computes the same value as :meth:`current_thr_ms` — the per-query
        reservation entries reuse the identical predicted-remaining sums
        — but keeps the math, so the decision log can show *why* the
        threshold was what it was.
        """
        headroom, entries = self.headroom.headroom_detail(now_ms, active)
        margin = 0.0
        if self.guard is not None:
            margin = self.guard.margin_ms(
                sum(entry.remaining_ms for entry in entries)
            )
        thr = headroom - margin
        record = ReservationRecord(
            qos_ms=self.headroom.qos_ms,
            entries=entries,
            headroom_ms=headroom,
            guard_margin_ms=margin,
            thr_ms=thr,
        )
        return thr, record

    def _record_decision(
        self,
        now_ms: float,
        action: Action,
        *,
        query: Optional[Query] = None,
        thr_ms: Optional[float] = None,
        reserve_ms: Optional[float] = None,
        candidates: Sequence[FusionCandidate] = (),
        reservation: Optional[ReservationRecord] = None,
        gain_ms: Optional[float] = None,
        guard_mode: Optional[str] = None,
    ) -> Action:
        """Append one decision record to the attached session."""
        session = self.telemetry
        session.record_decision(DecisionRecord(
            index=session.next_decision_index(),
            now_ms=now_ms,
            policy=self.policy_name,
            kind=action.kind,
            lc_service=query.model.name if query is not None else None,
            lc_arrival_ms=query.arrival_ms if query is not None else None,
            lc_kernel=query.current.name if query is not None else None,
            be_app=action.be_app.name if action.be_app is not None else None,
            be_app2=(
                action.be_app2.name if action.be_app2 is not None else None
            ),
            riders=tuple(rider.name for rider in action.riders),
            fused_kernel=(
                action.fused.name if action.fused is not None else None
            ),
            guard_mode=guard_mode,
            thr_ms=thr_ms,
            reserve_ms=reserve_ms,
            predicted_lc_ms=action.predicted_lc_ms,
            predicted_be_ms=action.predicted_be_ms,
            predicted_fused_ms=action.predicted_fused_ms,
            gain_ms=gain_ms,
            candidates=tuple(candidates),
            reservation=reservation,
        ))
        return action

    # -- decisions --------------------------------------------------------------

    @abstractmethod
    def decide(
        self,
        now_ms: float,
        active: Sequence[Query],
        be_apps: Sequence[BEApplication],
    ) -> Optional[Action]:
        """Choose what to run next; None means nothing is runnable."""

    def _be_rotation(
        self, be_apps: Sequence[BEApplication]
    ) -> list[BEApplication]:
        """BE apps starting from the round-robin cursor (fair sharing)."""
        if not be_apps:
            return []
        start = self._rr % len(be_apps)
        return list(be_apps[start:]) + list(be_apps[:start])

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
                be_ms = self.predict_ms(app.head)
                if be_ms < thr_ms:
                    self._rr += 1
                    self._reordered_at = position
                    return Action(
                        kind="be", be_app=app, predicted_be_ms=be_ms
                    )
        return Action(
            kind="lc", query=query,
            predicted_lc_ms=self.predict_ms(query.current),
        )

    def _pure_be(
        self, be_apps: Sequence[BEApplication]
    ) -> Optional[Action]:
        """No LC query active: best-effort work runs unconstrained."""
        apps = self._be_rotation(be_apps)
        if not apps:
            return None
        self._rr += 1
        app = apps[0]
        return Action(
            kind="be", be_app=app, predicted_be_ms=self.predict_ms(app.head)
        )
