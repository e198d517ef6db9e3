"""MPS-style spatial sharing: a fixed SM-percentage partition.

``SpatialPolicy`` models the operating point of Gilman & Walls (arXiv
2110.00459): instead of fusing instruction streams, the LC kernel and
a BE head run *simultaneously* on disjoint SM partitions — the LC
kernel on some fraction of the SMs, the BE kernel on the rest — the
way an MPS percentage provision or a MIG slice would place them.  The
policy scans a small fixed menu of split fractions per pair and keeps
the best admissible one: symmetric splits lose whenever both kernels
scale linearly with SMs (halving the SMs doubles both durations, so
the makespan always exceeds the serial schedule's LC slowdown budget),
and the profitable operating points are the *asymmetric* ones where
the LC kernel's grid under-fills its partition and barely slows down.

Durations come from the oracle's profiled ``corun_policy="spatial"``
records (memoized and persisted), playing the role of the offline
profiling table a real MPS deployment builds, so the policy's
predictions match the served ground truth by construction.  Admission
is still Eq. 9: the partition-induced LC slowdown (the co-run's
makespan beyond the LC solo time) must fit the headroom threshold.
"""

from __future__ import annotations

from typing import Optional

from ...config import GPUConfig
from ...predictor.online import OnlineModelManager
from .base import QOS_GUARD, Action, MispredictGuard, SchedulerPolicy
from .registry import register_policy


class SpatialPolicy(SchedulerPolicy):
    """Fixed SM-split spatial sharing between the LC query and BE work."""

    policy_name = "spatial"

    #: SM fractions provisioned to the LC kernel, scanned per pair.
    #: LC-favouring splits dominate: the BE squeeze is the point (the
    #: BE kernel harvests leftover SMs), while the LC kernel must barely
    #: slow down for Eq. 9 to admit anything at all.
    fractions = (0.5, 0.75, 0.875)

    def __init__(
        self,
        gpu: GPUConfig,
        models: OnlineModelManager,
        qos_ms: float,
        oracle,
        qos_guard: float = QOS_GUARD,
        guard: Optional[MispredictGuard] = None,
    ):
        super().__init__(gpu, models, qos_ms, qos_guard=qos_guard,
                         guard=guard)
        self.oracle = oracle

    def _profile(self, launch_a, launch_b, fraction: float):
        """The profiled SM-partitioned co-run of one (LC, BE) pair."""
        return self.oracle.corun_policy(
            "spatial", launch_a, launch_b, fraction_a=fraction
        )

    def _spatial_action(self, query, be_apps, thr_ms):
        """Best (BE head, split fraction) whose partition fits Eq. 9."""
        lc_instance = query.current
        launch_a = lc_instance.kernel.launch(lc_instance.grid)
        best = None
        best_gain = 0.0
        for app in self._be_rotation(be_apps):
            head = app.head
            launch_b = head.kernel.launch(head.grid)
            for fraction in self.fractions:
                profile = self._profile(launch_a, launch_b, fraction)
                total_ms = self.gpu.cycles_to_ms(profile.duration_cycles)
                lc_solo_ms = self.gpu.cycles_to_ms(profile.solo_a_cycles)
                be_solo_ms = self.gpu.cycles_to_ms(profile.solo_b_cycles)
                extra_lc_ms = total_ms - lc_solo_ms
                gain_ms = be_solo_ms - extra_lc_ms
                if gain_ms <= best_gain or extra_lc_ms >= thr_ms:
                    continue
                best_gain = gain_ms
                best = Action(
                    kind="spatial",
                    query=query,
                    be_app=app,
                    corun=("spatial", launch_a, launch_b,
                           (("fraction_a", fraction),)),
                    predicted_lc_ms=lc_solo_ms,
                    predicted_be_ms=be_solo_ms,
                    predicted_fused_ms=total_ms,
                )
        if best is not None:
            self._rr += 1
        return best

    def decide(self, now_ms, active, be_apps):
        self.decisions += 1
        session = self.telemetry
        if not active:
            action = self._pure_be(be_apps)
            if session is not None and action is not None:
                self._record_decision(now_ms, action)
            return action
        query = active[0]
        mode = "fuse"
        guard_mode = None
        if self.guard is not None:
            self.guard.note_decision()
            mode = guard_mode = self.guard.mode
            if mode == "exclusive":
                action = Action(
                    kind="lc", query=query,
                    predicted_lc_ms=self.predict_lc_ms(query),
                )
                if session is not None:
                    self._record_decision(
                        now_ms, action, query=query, guard_mode=guard_mode,
                    )
                return action
        reservation = None
        if session is not None:
            thr, reservation = self._thr_with_reservation(now_ms, active)
        else:
            thr = self.current_thr_ms(now_ms, active)
        if mode == "fuse":
            action = self._spatial_action(query, be_apps, thr)
            if action is not None:
                self.fusions += 1
                if session is not None:
                    self._record_decision(
                        now_ms, action, query=query, thr_ms=thr,
                        reservation=reservation, guard_mode=guard_mode,
                        gain_ms=action.predicted_be_ms
                        - (action.predicted_fused_ms
                           - action.predicted_lc_ms),
                    )
                return action
        action = self._reorder_or_lc(query, be_apps, thr)
        if session is not None:
            self._record_decision(
                now_ms, action, query=query, thr_ms=thr,
                reservation=reservation, guard_mode=guard_mode,
            )
        return action


def _factory(system, guard):
    return SpatialPolicy(
        system.gpu, system.models, system.qos_ms, system.oracle, guard=guard,
    )


register_policy(
    "spatial", _factory,
    description="MPS/MIG-style fixed SM-percentage partition between the "
                "LC kernel and a BE head (Gilman & Walls, arXiv 2110.00459)",
)
