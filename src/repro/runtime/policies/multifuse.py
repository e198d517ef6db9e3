""">2-kernel fusion chains under a generalized Eq. 8 (FlashFuser-style).

``MultiFusePolicy`` starts from the best Tacker pair — the LC kernel
fused with one BE head under Eq. 8 — and then *extends the launch*:
extra CD heads from other BE streams ride the fused launch's CD pipe
while the TC half still runs, pipelined behind the pair's CD work.

The generalized Eq. 8 gate, applied per rider k over the profiled pair
co-run (finish split from :meth:`DurationOracle.fused`):

* chain CD finish grows by the rider's solo time:
  ``cd_end_k = cd_end_{k-1} + Tcd_k``;
* the chain makespan is ``max(pair makespan, cd_end_k)``, so the
  rider's *marginal* cost is ``delta_k = chain_end_k -
  chain_end_{k-1}`` and its marginal throughput gain is
  ``Tgain_k = Tcd_k - delta_k`` — positive exactly while the rider
  still fits the CD-pipe slack the TC half leaves open;
* the accumulated extra LC time ``chain_end_k - Tlc`` must stay inside
  the Eq. 9 threshold, like any fusion.

Riders stop at the first boundary where the slack is spent (Tgain
drops to ~0 when ``cd_end`` passes the pair makespan), so chains are
self-limiting; ``max_chain`` caps the launch size like FlashFuser's
register/occupancy budget caps real large-scale fusion.
"""

from __future__ import annotations

from typing import Optional

from ...config import GPUConfig
from ...fusion.fuser import FusedKernel
from ...predictor.online import OnlineModelManager
from .base import Action, MispredictGuard
from .registry import register_policy
from .tacker import TackerPolicy


class MultiFusePolicy(TackerPolicy):
    """Fused pair + CD riders, gated by per-rider marginal Tgain."""

    policy_name = "multifuse"

    #: BE kernels per launch (the pair's plus max_chain - 1 riders)
    max_chain = 3

    def __init__(
        self,
        gpu: GPUConfig,
        models: OnlineModelManager,
        qos_ms: float,
        artifacts: dict[tuple[str, str], FusedKernel],
        oracle,
        guard: Optional[MispredictGuard] = None,
    ):
        super().__init__(gpu, models, qos_ms, artifacts, guard=guard)
        self.oracle = oracle

    def _riders(self, lc_instance, quote, base_app, thr_ms, be_apps):
        """Extend an admitted pair with CD riders from other BE streams.

        Returns (riders, chain_ms, chain_gain_ms); an empty rider tuple
        means the plain pair stands.  All durations come from the
        profiled pair co-run plus rider solos, so the server's replay
        of the chain reproduces the prediction exactly.
        """
        be_head = base_app.head
        if quote.lc_is_tc:
            tc_grid, cd_grid = lc_instance.grid, be_head.grid
        else:
            tc_grid, cd_grid = be_head.grid, lc_instance.grid
        profile = self.oracle.fused(quote.fused, tc_grid, cd_grid)
        to_ms = self.gpu.cycles_to_ms
        cd_end = to_ms(profile.finish_b_cycles)
        chain_end = to_ms(profile.duration_cycles)
        lc_solo_ms = to_ms(
            profile.solo_a_cycles if quote.lc_is_tc else profile.solo_b_cycles
        )
        riders = []
        gain_ms = 0.0
        for app in be_apps:
            if len(riders) >= self.max_chain - 1:
                break
            if app is base_app:
                continue
            head = app.head
            if head.kind != "cd":
                continue
            solo = self.oracle.solo_ms(head.kernel, head.grid)
            new_cd_end = cd_end + solo
            new_chain_end = max(chain_end, new_cd_end)
            delta = new_chain_end - chain_end
            marginal_gain = solo - delta
            if marginal_gain <= 0:
                continue
            if new_chain_end - lc_solo_ms >= thr_ms:
                continue
            riders.append(app)
            gain_ms += marginal_gain
            cd_end = new_cd_end
            chain_end = new_chain_end
        return tuple(riders), chain_end, gain_ms

    def _fused_action(self, query, quote, app, thr_ms, be_apps):
        riders, chain_ms, rider_gain = self._riders(
            query.current, quote, app, thr_ms, be_apps
        )
        rider_solo_ms = sum(
            self.oracle.solo_ms(rider.head.kernel, rider.head.grid)
            for rider in riders
        )
        action = Action(
            kind="chain" if riders else "fused",
            query=query,
            be_app=app,
            fused=quote.fused,
            riders=riders,
            predicted_lc_ms=quote.lc_ms,
            predicted_be_ms=quote.be_ms + rider_solo_ms,
            predicted_fused_ms=chain_ms if riders else quote.fused_ms,
        )
        return action, quote.gain_ms + rider_gain


def _factory(system, guard):
    return MultiFusePolicy(
        system.gpu, system.models, system.qos_ms, system.artifacts,
        system.oracle, guard=guard,
    )


register_policy(
    "multifuse", _factory,
    description=">2-kernel fusion chains: the best Eq. 8 pair extended "
                "with CD riders while each marginal Tgain stays positive "
                "(FlashFuser-style)",
)
