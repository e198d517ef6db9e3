"""Horizontal fusion of BE kernels (HFuse, arXiv 2007.01277).

``HFusePolicy`` packs the head kernels of two *BE* streams into one
co-resident launch when their combined occupancy fits — the horizontal
(thread-block level) fusion HFuse automates for kernels that each
underuse the SM.  The building block is the oracle's
``corun_policy="concurrent"`` record over the streams' persistent
thread-block (PTB) transforms: when both fit together the makespan
beats the serial sum, and that profiled makespan is the launch's
duration — so predictions match the served ground truth by
construction (the profiling-table posture of the offline HFuse
compiler).  Like that compiler, the policy profiles each ordered pair
of BE heads once and reads the table on every later decision.

QoS: the whole horizontally-fused launch occupies the GPU before the
LC query's next kernel, so one Eq. 9 admission covers the pair — the
two BE kernels *share a single reservation* instead of spending two
headroom slices.  With no LC query active the pair launches
unconstrained (pure-throughput harvesting).
"""

from __future__ import annotations

from typing import Optional

from ...config import GPUConfig
from ...errors import TackerError
from ...predictor.online import OnlineModelManager
from ..query import KernelInstance
from .base import Action, MispredictGuard, SchedulerPolicy
from .registry import register_policy

#: a pair must beat the serial sum by this factor to count as fused
#: (occupancy that does not fit degrades to serial in the simulator)
_OVERLAP_MARGIN = 0.999


class HFusePolicy(SchedulerPolicy):
    """Horizontally fuse >= 2 BE heads into one launch when they fit."""

    policy_name = "hfuse"

    def __init__(
        self,
        gpu: GPUConfig,
        models: OnlineModelManager,
        qos_ms: float,
        oracle,
        ptb,
        guard: Optional[MispredictGuard] = None,
    ):
        """``ptb`` maps a kernel name to its cached PTB transform (the
        bound :meth:`TackerSystem.ptb`); a pair whose kernel the
        transform rejects is remembered in the pair table."""
        super().__init__(gpu, models, qos_ms, guard=guard)
        self.oracle = oracle
        self._ptb = ptb
        #: (kernel a, grid a, kernel b, grid b) -> (PTB launch a, PTB
        #: launch b, co-run ms, serial ms), or None when the pair cannot
        #: co-reside or a kernel has no PTB form.  It caches profiled
        #: ground truth, not predictions, so no model version guards it.
        self._pairs: dict[tuple, Optional[tuple]] = {}

    def _persistent_launch(self, instance: KernelInstance):
        """The instance's PTB launch, or None when untransformable."""
        try:
            kernel = self._ptb(instance.name)
        except TackerError:
            return None
        return kernel.launch(instance.grid)

    def _pair(self, a: KernelInstance, b: KernelInstance):
        """The ordered pair of BE heads, priced on first use."""
        key = (a.name, a.grid, b.name, b.grid)
        if key in self._pairs:
            return self._pairs[key]
        entry = None
        launch_a = self._persistent_launch(a)
        launch_b = None if launch_a is None else self._persistent_launch(b)
        if launch_b is not None:
            profile = self.oracle.corun_policy(
                "concurrent", launch_a, launch_b
            )
            total_ms = self.gpu.cycles_to_ms(profile.duration_cycles)
            solo_sum_ms = self.gpu.cycles_to_ms(
                profile.solo_a_cycles + profile.solo_b_cycles
            )
            # combined occupancy that does not fit degrades to serial
            if total_ms < _OVERLAP_MARGIN * solo_sum_ms:
                entry = (launch_a, launch_b, total_ms, solo_sum_ms)
        self._pairs[key] = entry
        return entry

    def _hfused_action(self, be_apps, thr_ms):
        """The first rotation pair that genuinely co-resides and fits."""
        apps = self._be_rotation(be_apps)
        for i in range(len(apps)):
            head_a = apps[i].head
            for j in range(i + 1, len(apps)):
                pair = self._pair(head_a, apps[j].head)
                if pair is None:
                    continue
                launch_a, launch_b, total_ms, solo_sum_ms = pair
                if total_ms >= thr_ms:
                    continue
                self._rr += 1
                return Action(
                    kind="hfused",
                    be_app=apps[i],
                    be_app2=apps[j],
                    corun=("concurrent", launch_a, launch_b, ()),
                    predicted_be_ms=solo_sum_ms,
                    predicted_fused_ms=total_ms,
                )
        return None

    def _colocate(self, query, be_apps, thr_ms, log):
        """A BE pair under one reservation; Tgain is the time it saves
        over launching the two heads back to back."""
        action = self._hfused_action(be_apps, thr_ms)
        if action is None:
            return None
        return action, action.predicted_be_ms - action.predicted_fused_ms

    def _pure_be(self, be_apps):
        # No LC query active: a pair launches unconstrained, else one head.
        action = self._hfused_action(be_apps, float("inf"))
        if action is None:
            return super()._pure_be(be_apps)
        self.fusions += 1
        return action


def _factory(system, guard):
    return HFusePolicy(
        system.gpu, system.models, system.qos_ms, system.oracle,
        system.ptb, guard=guard,
    )


register_policy(
    "hfuse", _factory,
    description="horizontally fuse two BE heads into one launch when "
                "their occupancy fits, sharing one Eq. 9 reservation "
                "(HFuse, arXiv 2007.01277)",
)
