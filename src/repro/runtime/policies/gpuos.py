"""Transparent dynamic fusion at every kernel boundary (GPUOS-style).

``GPUOSPolicy`` models a GPU-resident runtime that re-evaluates
co-location *at every kernel boundary* instead of at the BE-admission
instants the Tacker kernel manager plans around.  Three deliberate
differences from :class:`~repro.runtime.policies.tacker.TackerPolicy`:

1. **greedy pairing** — the transparent runtime takes the first
   Eq. 8-admissible fusion it finds (``pair_selection="fifo"``) rather
   than ranking every candidate by Tgain;
2. **no fusion reservation** — nothing is planned ahead, so no Eq. 9
   headroom is withheld for future fusions
   (:meth:`_fusion_reserve_ms` is 0);
3. **unpaced direct launches** — the one-BE-per-LC-kernel pacing is
   dropped: any boundary whose instantaneous headroom fits a BE head
   launches it.

The result is a maximally-eager dynamic fuser: more BE work per
boundary, but the headroom can drain early in a burst — exactly the
risk profile the tournament is meant to expose.
"""

from __future__ import annotations

from typing import Optional

from ...config import GPUConfig
from ...fusion.fuser import FusedKernel
from ...predictor.online import OnlineModelManager
from .base import Action, MispredictGuard
from .registry import register_policy
from .tacker import TackerPolicy


class GPUOSPolicy(TackerPolicy):
    """Eager boundary-by-boundary dynamic fusion without reservations."""

    policy_name = "gpuos"

    def __init__(
        self,
        gpu: GPUConfig,
        models: OnlineModelManager,
        qos_ms: float,
        artifacts: dict[tuple[str, str], FusedKernel],
        guard: Optional[MispredictGuard] = None,
    ):
        super().__init__(
            gpu, models, qos_ms, artifacts,
            pair_selection="fifo", guard=guard,
        )

    def _fusion_reserve_ms(self, query, be_apps) -> float:
        # Nothing is planned ahead: every boundary re-decides from
        # scratch, so no headroom is withheld for future fusions.
        return 0.0

    def _reorder_or_lc(self, query, be_apps, thr_ms):
        # Unpaced: any BE head that fits the instantaneous headroom
        # launches, at every boundary (no one-per-LC-kernel pacing).
        for app in self._be_rotation(be_apps):
            be_ms = self.predict_head_ms(app)
            if be_ms < thr_ms:
                self._rr += 1
                return Action(kind="be", be_app=app, predicted_be_ms=be_ms)
        return Action(
            kind="lc", query=query,
            predicted_lc_ms=self.predict_lc_ms(query),
        )


def _factory(system, guard):
    return GPUOSPolicy(
        system.gpu, system.models, system.qos_ms, system.artifacts,
        guard=guard,
    )


register_policy(
    "gpuos", _factory,
    description="transparent dynamic fusion: greedy first-admissible "
                "pairs, no reservations, re-evaluated at every kernel "
                "boundary (GPUOS-style)",
)
