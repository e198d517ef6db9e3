"""The reorder-only baseline (Baymax, ref [19])."""

from __future__ import annotations

from .base import Action, SchedulerPolicy
from .registry import register_policy


class BaymaxPolicy(SchedulerPolicy):
    """Reorder-only baseline (Baymax, ref [19])."""

    policy_name = "baymax"

    def decide(self, now_ms, active, be_apps):
        self.decisions += 1
        session = self.telemetry
        if not active:
            action = self._pure_be(be_apps)
            if session is not None and action is not None:
                self._record_decision(now_ms, action)
            return action
        query = active[0]
        guard_mode = None
        if self.guard is not None:
            self.guard.note_decision()
            guard_mode = self.guard.mode
            if guard_mode == "exclusive":
                action = Action(
                    kind="lc", query=query,
                    predicted_lc_ms=self.predict_lc_ms(query),
                )
                if session is not None:
                    self._record_decision(
                        now_ms, action, query=query, guard_mode=guard_mode,
                    )
                return action
        if session is not None:
            thr, reservation = self._thr_with_reservation(now_ms, active)
            action = self._reorder_or_lc(query, be_apps, thr)
            return self._record_decision(
                now_ms, action, query=query, thr_ms=thr,
                reservation=reservation, guard_mode=guard_mode,
            )
        thr = self.current_thr_ms(now_ms, active)
        return self._reorder_or_lc(query, be_apps, thr)


def _factory(system, guard):
    return BaymaxPolicy(system.gpu, system.models, system.qos_ms, guard=guard)


register_policy(
    "baymax", _factory,
    description="reorder-only baseline: direct BE launches that fit the "
                "Eq. 9 headroom (Baymax, ref [19])",
)
