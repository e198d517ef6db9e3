"""Scheduler and kernel-manager invariants (Eqs. 7–9 bookkeeping).

:class:`ServerAuditor` shadows one
:class:`~repro.runtime.server.ColocationServer` run.  The server calls
its hooks at the natural accounting points; the auditor keeps its own
independent books and raises :class:`~repro.errors.AuditViolation` as
soon as the two diverge.  The invariants:

* **busy-timeline-monotone** — executed kernels never overlap in time on
  the (non-preemptive, single-stream) GPU;
* **eq9-reservation** — each active query's predicted remaining time is
  non-negative and monotonically consumed while the duration models are
  unchanged (a jump upward means a stale or colliding headroom cache —
  exactly the bug class of the headroom suffix-sum key fix);
* **eq8-at-decision** — every fused launch satisfied Eq. 8 when it was
  chosen: the fusion beats sequential execution, and its extra LC time
  fits the headroom threshold recomputed from the policy's own state;
* **be-work-conservation** — BE work credited to the result equals the
  sum of solo durations of BE kernels retired inside the horizon;
* **kernel-count-conservation** — every executed kernel is counted in
  exactly one of the per-kind launch counters;
* **guard-ladder** — degradation transitions are adjacent (fuse ↔
  reorder ↔ exclusive, never a skip) and each recorded transition
  respected its risk rail, including the hysteresis band.

The module is import-light on purpose: the policy and result objects
are duck-typed, so :mod:`repro.runtime` can import the auditor without
a cycle.
"""

from __future__ import annotations

from typing import Optional

from . import core

#: Guard-ladder moves that respect adjacency.
_LADDER_MOVES = {
    ("fuse", "reorder"),
    ("reorder", "fuse"),
    ("reorder", "exclusive"),
    ("exclusive", "reorder"),
}


class ServerAuditor:
    """Independent bookkeeping for one co-location run."""

    def __init__(self, policy, qos_ms: float, horizon_ms: float):
        self.policy = policy
        self.qos_ms = qos_ms
        self.horizon_ms = horizon_ms
        self._tol = core.config().ms_tolerance
        self._last_end_ms = 0.0
        self._kernels_seen = 0
        #: qid -> last observed predicted remaining time
        self._remaining: dict = {}
        #: model version the remaining-time history is valid for
        self._models_version = getattr(policy.models, "version", 0)
        #: independently accredited BE work, per application
        self._be_credit: dict = {}

    # -- per-decision hooks ----------------------------------------------------

    def on_action(self, now_ms: float, action, active) -> None:
        """Audit one admitted scheduling decision before it executes."""
        version = getattr(self.policy.models, "version", 0)
        if version != self._models_version:
            # A duration model was refreshed: predictions may legally
            # move in either direction, so the consumption history
            # restarts from the post-refresh values.
            self._models_version = version
            self._remaining.clear()
        for query in active:
            remaining = self.policy.headroom.predicted_remaining_ms(query)
            core.ensure(
                remaining >= -self._tol,
                "eq9-reservation",
                "negative predicted remaining time reserved for a query",
                qid=query.qid, now_ms=now_ms, remaining_ms=remaining,
            )
            last = self._remaining.get(query.qid)
            if last is not None:
                core.ensure(
                    remaining <= last + self._tol,
                    "eq9-reservation",
                    "a query's Eq. 9 reservation grew without a model "
                    "refresh (stale or colliding headroom cache)",
                    qid=query.qid, now_ms=now_ms,
                    remaining_ms=remaining, previous_ms=last,
                )
            self._remaining[query.qid] = remaining
        if action.kind == "fused":
            self._check_eq8(now_ms, action, active)

    def _check_eq8(self, now_ms: float, action, active) -> None:
        sequential = action.predicted_lc_ms + action.predicted_be_ms
        core.ensure(
            sequential > action.predicted_fused_ms - self._tol,
            "eq8-at-decision",
            "a fused launch was predicted slower than sequential "
            "execution (Eq. 8 gain condition)",
            fused_name=getattr(action.fused, "name", None),
            predicted_fused_ms=action.predicted_fused_ms,
            predicted_sequential_ms=sequential,
        )
        thr_ms = self.policy.current_thr_ms(now_ms, active)
        extra_lc_ms = action.predicted_fused_ms - action.predicted_lc_ms
        core.ensure(
            extra_lc_ms < thr_ms + self._tol,
            "eq8-at-decision",
            "a fused launch's extra LC time exceeds the headroom "
            "threshold it was admitted under (Eq. 8 Thr condition)",
            fused_name=getattr(action.fused, "name", None),
            extra_lc_ms=extra_lc_ms, thr_ms=thr_ms, now_ms=now_ms,
        )

    # -- per-kernel hooks ------------------------------------------------------

    def on_kernel(self, start_ms: float, end_ms: float, kind: str,
                  name: str) -> None:
        """Audit one executed kernel's interval on the GPU timeline."""
        self._kernels_seen += 1
        core.ensure(
            end_ms >= start_ms,
            "busy-timeline-monotone",
            "an executed kernel ends before it starts",
            kernel=name, kind=kind, start_ms=start_ms, end_ms=end_ms,
        )
        core.ensure(
            start_ms >= self._last_end_ms - self._tol,
            "busy-timeline-monotone",
            "an executed kernel overlaps its predecessor on the "
            "non-preemptive GPU",
            kernel=name, kind=kind, start_ms=start_ms,
            previous_end_ms=self._last_end_ms,
        )
        self._last_end_ms = max(self._last_end_ms, end_ms)

    def on_be_retired(self, app_name: str, solo_ms: float,
                      end_ms: float) -> None:
        """Accredit one retired BE kernel in the auditor's own books."""
        core.ensure(
            solo_ms >= 0,
            "be-work-conservation",
            "a BE kernel retired with negative solo work",
            app=app_name, solo_ms=solo_ms,
        )
        if end_ms <= self.horizon_ms:
            self._be_credit[app_name] = (
                self._be_credit.get(app_name, 0.0) + solo_ms
            )

    # -- end-of-run checks -----------------------------------------------------

    def on_run_complete(self, result) -> None:
        """Compare the result's books against the auditor's."""
        for app_name, credited in result.be_work_ms.items():
            expected = self._be_credit.get(app_name, 0.0)
            scale = max(abs(expected), 1.0)
            core.ensure(
                abs(credited - expected) <= self._tol * scale,
                "be-work-conservation",
                "BE work credited to the result diverges from the sum "
                "of retired BE kernel durations",
                app=app_name, credited_ms=credited, expected_ms=expected,
            )
        counted = sum(result.kernel_counts().values())
        core.ensure(
            counted == self._kernels_seen,
            "kernel-count-conservation",
            "executed kernels and per-kind counters disagree",
            counted=counted, executed=self._kernels_seen,
        )
        if result.executed:
            core.ensure(
                len(result.executed) == self._kernels_seen,
                "kernel-count-conservation",
                "the recorded kernel trace dropped or duplicated launches",
                recorded=len(result.executed),
                executed=self._kernels_seen,
            )
        core.ensure(
            result.end_ms >= result.start_ms - self._tol,
            "busy-timeline-monotone",
            "the run ends before it starts",
            start_ms=result.start_ms, end_ms=result.end_ms,
        )
        self._check_guard_ladder()

    def _check_guard_ladder(self) -> None:
        guard = getattr(self.policy, "guard", None)
        if guard is None:
            return
        cfg = guard.config
        risks: Optional[list] = getattr(guard, "transition_risks", None)
        for index, (query_index, old, new) in enumerate(guard.transitions):
            core.ensure(
                (old, new) in _LADDER_MOVES,
                "guard-ladder",
                "a guard transition skipped a rung of the degradation "
                "ladder",
                query_index=query_index, old=old, new=new,
            )
            if risks is None or index >= len(risks):
                continue
            risk = risks[index]
            if (old, new) == ("fuse", "reorder"):
                ok = risk > cfg.reorder_risk
                rail = cfg.reorder_risk
            elif (old, new) == ("reorder", "exclusive"):
                ok = risk > cfg.exclusive_risk
                rail = cfg.exclusive_risk
            elif (old, new) == ("reorder", "fuse"):
                ok = risk < cfg.reorder_risk * cfg.recover_ratio
                rail = cfg.reorder_risk * cfg.recover_ratio
            else:  # exclusive -> reorder
                ok = risk < cfg.exclusive_risk * cfg.recover_ratio
                rail = cfg.exclusive_risk * cfg.recover_ratio
            core.ensure(
                ok,
                "guard-ladder",
                "a guard transition fired on the wrong side of its "
                "risk rail (hysteresis violation)",
                query_index=query_index, old=old, new=new,
                risk=risk, rail=rail,
            )
