"""The Tacker kernel manager: fusion + reorder (Section VII-B).

On every scheduling step for an active LC query the base decision
(:meth:`SchedulerPolicy.decide`) runs its two hooks, which

1. try to *fuse* the query's current kernel with a ready BE kernel —
   admissible when Eq. 8 holds (the fusion beats sequential execution
   and its extra LC time fits the headroom) — picking the BE kernel
   with the largest throughput gain ``Tgain = Tcd - (Tk_fuse - Ttc)``
   (:meth:`TackerPolicy._colocate`);
2. otherwise *reorder*: launch a ready BE kernel whose predicted
   duration fits the headroom beyond the fusion reserve (the Baymax
   behaviour, :meth:`TackerPolicy._fallback`);
3. otherwise launch the LC kernel alone.

Fusion works in both directions ("the LC kernels and BE kernels are not
limited to a specified type"): an LC TC kernel absorbs a BE CD kernel,
and an LC CD kernel rides along a BE TC kernel.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from ...config import GPUConfig
from ...fusion.fuser import FusedKernel
from ...predictor.online import OnlineModelManager
from ...telemetry.decisions import (
    REJECT_EQ8,
    REJECT_KIND_MISMATCH,
    REJECT_NO_ARTIFACT,
    FusionCandidate,
)
from ..query import BEApplication, KernelInstance, Query
from .base import Action, MispredictGuard, SchedulerPolicy
from .registry import register_policy


class Quote(NamedTuple):
    """The Eq. 8 price of fusing an LC kernel with one BE head kernel.

    It holds every term of Eq. 8 except the headroom ``Thr``, so it
    depends only on the two kernels, their grids, the BE head's
    ``fusable`` flag, the artifacts and the model version:
    :class:`TackerPolicy` prices each pair once per model version.
    ``fused`` is None when the pair was rejected before pricing;
    ``reason`` then says why.
    """

    reason: str
    #: True when the LC kernel is the TC half of the pair
    lc_is_tc: bool
    tc: Optional[str] = None
    cd: Optional[str] = None
    fused: Optional[FusedKernel] = None
    #: predicted solo durations (Ttc, Tcd) and fused duration (ms)
    tc_ms: float = 0.0
    cd_ms: float = 0.0
    fused_ms: float = 0.0
    #: LC slowdown the fusion costs: Tk_fuse minus the LC kernel's time
    extra_lc_ms: float = 0.0
    #: Tgain: the BE kernel's time minus the extra LC time
    gain_ms: float = 0.0
    #: Eq. 8's first clause: Ttc + Tcd > Tk_fuse
    beats_sequential: bool = False

    @property
    def lc_ms(self) -> float:
        return self.tc_ms if self.lc_is_tc else self.cd_ms

    @property
    def be_ms(self) -> float:
        return self.cd_ms if self.lc_is_tc else self.tc_ms

    def candidate(self, be_app: str, admissible: bool) -> FusionCandidate:
        """This quote as one decision-log evaluation."""
        if self.fused is None:
            return FusionCandidate(
                be_app, self.tc, self.cd, None, None, None, self.lc_is_tc,
                None, None, False, self.reason,
            )
        return FusionCandidate(
            be_app, self.tc, self.cd, self.tc_ms, self.cd_ms, self.fused_ms,
            self.lc_is_tc, self.extra_lc_ms, self.gain_ms, admissible,
            "" if admissible else REJECT_EQ8,
        )


class TackerPolicy(SchedulerPolicy):
    """Kernel fusion + reorder (Section VII-B).

    ``artifacts`` maps (TC kernel name, CD kernel name) to the compiled
    fused kernel produced by the offline search; pairs the search
    rejected are simply absent, so the runtime never reconsiders them.
    """

    policy_name = "tacker"

    def __init__(
        self,
        gpu: GPUConfig,
        models: OnlineModelManager,
        qos_ms: float,
        artifacts: dict[tuple[str, str], FusedKernel],
        pair_selection: str = "gain",
        enable_reorder: bool = True,
        guard: Optional[MispredictGuard] = None,
    ):
        """``pair_selection``: ``"gain"`` picks the BE kernel with the
        largest Tgain (the paper's rule); ``"fifo"`` takes the first
        admissible one (the ablation baseline).  ``enable_reorder``
        toggles the Baymax-style direct BE launches (fusion-only
        ablation when False)."""
        super().__init__(gpu, models, qos_ms, guard=guard)
        if pair_selection not in ("gain", "fifo"):
            raise ValueError(f"unknown pair selection {pair_selection!r}")
        self.artifacts = artifacts
        self.pair_selection = pair_selection
        self.enable_reorder = enable_reorder
        #: (LC kernel, grid, BE kernel, grid, BE fusable) -> Quote
        self._quotes: dict[tuple, Quote] = {}
        #: (quote key, BE app name, admissible) -> the logged candidate
        self._candidates: dict[tuple, FusionCandidate] = {}
        self._cost_cache: dict[tuple, float] = {}
        self._tables += [self._quotes, self._candidates, self._cost_cache]
        #: identity-keyed memo of the BE-app name tuple — the server
        #: passes the same sequence object on every decision
        self._be_names_cache: Optional[tuple] = None

    def _price(self, lc_instance: KernelInstance, be: KernelInstance) -> Quote:
        """Price fusing the LC kernel with one BE head (Eq. 8's terms)."""
        if lc_instance.kind == "tc" and be.kind == "cd":
            tc_inst, cd_inst, lc_is_tc = lc_instance, be, True
        elif lc_instance.kind == "cd" and be.kind == "tc" and be.fusable:
            tc_inst, cd_inst, lc_is_tc = be, lc_instance, False
        else:
            return Quote(REJECT_KIND_MISMATCH, lc_instance.kind == "tc")
        fused = self.artifacts.get((tc_inst.name, cd_inst.name))
        if fused is None:
            return Quote(
                REJECT_NO_ARTIFACT, lc_is_tc, tc_inst.name, cd_inst.name
            )
        tc_ms = self.predict_ms(tc_inst)
        cd_ms = self.predict_ms(cd_inst)
        fused_ms = self.predict_fused_ms(fused, tc_ms, cd_ms)
        lc_ms, be_ms = (tc_ms, cd_ms) if lc_is_tc else (cd_ms, tc_ms)
        extra_lc_ms = fused_ms - lc_ms
        return Quote(
            "", lc_is_tc, tc_inst.name, cd_inst.name, fused,
            tc_ms, cd_ms, fused_ms, extra_lc_ms, be_ms - extra_lc_ms,
            tc_ms + cd_ms > fused_ms,
        )

    def _fusion_for(
        self,
        lc_instance: KernelInstance,
        app: BEApplication,
        thr_ms: float,
        log: Optional[list] = None,
    ) -> Optional[Quote]:
        """Evaluate fusing the LC kernel with one BE app's head kernel.

        Returns the pair's quote when Eq. 8 admits the fusion: it beats
        sequential execution and its extra LC time fits ``thr_ms``.
        Quotes come from a table per model version (the artifacts are
        fixed for a policy's life), bypassed under a prediction
        perturbation.  When ``log`` is given (telemetry on), every
        evaluation — including rejected ones, with the reason — is
        appended to it, as one shared candidate per (quote, BE app,
        admissible) from a table of the same model version.
        """
        be = app.head
        models = self.models
        key = None
        if models.perturb is not None:
            quote = self._price(lc_instance, be)
        else:
            if models.version != self._tables_version:
                self._drop_tables()
            key = (
                lc_instance.kernel.name, lc_instance.grid,
                be.kernel.name, be.grid, be.fusable,
            )
            quote = self._quotes.get(key)
            if quote is None:
                quote = self._quotes[key] = self._price(lc_instance, be)
        admissible = quote.beats_sequential and quote.extra_lc_ms < thr_ms
        if log is not None:
            if key is None:
                candidate = quote.candidate(app.name, admissible)
            else:
                key = (key, app.name, admissible)
                candidate = self._candidates.get(key)
                if candidate is None:
                    candidate = self._candidates[key] = quote.candidate(
                        app.name, admissible
                    )
            log.append(candidate)
        return quote if admissible else None

    def _fused_action(
        self,
        query: Query,
        quote: Quote,
        app: BEApplication,
        thr_ms: float,
        be_apps: Sequence[BEApplication],
    ) -> tuple[Action, float]:
        """The launch for the winning quote, and its Tgain."""
        action = Action(
            kind="fused",
            query=query,
            be_app=app,
            fused=quote.fused,
            predicted_lc_ms=quote.lc_ms,
            predicted_be_ms=quote.be_ms,
            predicted_fused_ms=quote.fused_ms,
        )
        return action, quote.gain_ms

    def _be_names(self, be_apps: Sequence[BEApplication]) -> tuple:
        cached = self._be_names_cache
        if cached is not None and cached[0] is be_apps:
            return cached[1]
        names = tuple(app.name for app in be_apps)
        self._be_names_cache = (be_apps, names)
        return names

    def _fusion_cost_ms(
        self, lc_name: str, be_apps: Sequence[BEApplication]
    ) -> float:
        """Estimated headroom cost of fusing one LC TC kernel (cached)."""
        key = (lc_name, self._be_names(be_apps))
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        best = float("inf")
        tc_instance = None
        for app in be_apps:
            be = app.head
            if be.kind != "cd":
                continue
            fused = self.artifacts.get((lc_name, be.name))
            if fused is None:
                continue
            if tc_instance is None:
                tc_kernel = fused.tc.ir
                tc_instance = KernelInstance(tc_kernel, tc_kernel.default_grid)
            tc_ms = self.predict_ms(tc_instance)
            cd_ms = self.predict_ms(be)
            fused_ms = self.predict_fused_ms(fused, tc_ms, cd_ms)
            best = min(best, fused_ms - tc_ms)
        cached = 0.0 if best == float("inf") else max(best, 0.0)
        self._cost_cache[key] = cached
        return cached

    def _fusion_reserve_ms(
        self, query: Query, be_apps: Sequence[BEApplication]
    ) -> float:
        """Headroom to keep aside for the query's remaining fusions.

        Section IV: "We prioritize the selection of the fused pair" —
        directly-launched BE kernels must not starve upcoming fusions,
        so reordering only spends headroom beyond this reservation.
        Suffix sums over the (static) kernel sequence, one column of the
        query's plan per (policy, BE-name tuple) and table version, make
        the lookup O(1) per decision.
        """
        if self.models.version != self._tables_version:
            self._drop_tables()

        def cost(instance: KernelInstance) -> float:
            if instance.kind == "tc" and instance.fusable:
                return self._fusion_cost_ms(instance.name, be_apps)
            return 0.0

        return query.plan.suffix_ms(
            (self, self._be_names(be_apps)), self._tables_version, cost
        )[query.cursor]

    def _colocate(self, query, be_apps, thr_ms, log):
        """Eq. 8: fuse the LC kernel with the BE head of largest Tgain
        (the first admissible one under ``pair_selection="fifo"``)."""
        lc_instance = query.current
        if not (lc_instance.fusable or lc_instance.kind == "cd"):
            return None
        best: Optional[tuple[Quote, BEApplication]] = None
        for app in be_apps:
            quote = self._fusion_for(lc_instance, app, thr_ms, log)
            if quote is None or quote.gain_ms <= 0:
                continue
            if best is None or quote.gain_ms > best[0].gain_ms:
                best = (quote, app)
            if self.pair_selection == "fifo":
                break
        if best is None:
            return None
        return self._fused_action(query, best[0], best[1], thr_ms, be_apps)

    def _fallback(self, query, be_apps, thr_ms):
        """Reorder with only the headroom beyond the fusion reserve, or,
        with reordering ablated, the LC kernel alone."""
        if not self.enable_reorder:
            return Action(
                kind="lc", query=query,
                predicted_lc_ms=self.predict_lc_ms(query),
            ), None
        reserve = self._fusion_reserve_ms(query, be_apps)
        return self._reorder_or_lc(query, be_apps, thr_ms - reserve), reserve


def _factory(system, guard):
    return TackerPolicy(
        system.gpu, system.models, system.qos_ms, system.artifacts,
        guard=guard,
    )


register_policy(
    "tacker", _factory,
    description="the paper's kernel manager: Eq. 8 TC+CD fusion by best "
                "Tgain, reserve-aware reordering (Section VII-B)",
)
