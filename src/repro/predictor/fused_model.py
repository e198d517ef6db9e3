"""Two-stage LR duration model for fused kernels (Sections VI-A/VI-B).

The fused kernel's block layout is static, so its duration depends only
on the two components' amounts of work — summarized by the component
solo durations ``Xori_tc`` and ``Xori_cd`` and their *load ratio*
``Xori_cd / Xori_tc`` (Eq. 1).  Profiling shows (Fig. 10):

* fixing ``Xori_tc`` and sweeping the ratio, the normalized duration
  ``Tfuse / Xori_tc`` follows **two** lines: a gentle one while the TC
  branch is the last to finish, then a slope-1 line once the CD branch
  outlives it;
* the inflection is the *opportune* load ratio where both branches
  finish together;
* fixing the ratio and sweeping ``Xori_tc``, the duration scales
  linearly (Fig. 11) — which is why a model in normalized coordinates
  transfers across work sizes.

Training follows Section VI-C: collect the fused duration at load
ratios 10%, 20%, 180% and 190%, fit one line per stage, intersect them
for the inflection, then refine online whenever the error exceeds 10%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import GPUConfig
from ..errors import PredictionError
from ..fusion.fuser import FusedKernel
from .kernel_model import KernelDurationModel, ProfileNoise
from .linear import LinearModel

#: Profiling load ratios of Section VI-C.
PROFILE_LOAD_RATIOS = (0.10, 0.20, 1.80, 1.90)

#: Additional co-running ratios folded in during training — the paper
#: "use[s] online co-running data to update the model"; without them the
#: four canonical points fit each stage's slope from two nearly-adjacent
#: samples, which profiling noise destabilizes.
REFINEMENT_LOAD_RATIOS = (0.60, 1.20, 2.60)

#: Error threshold that triggers an online model update (Section VI-C).
UPDATE_THRESHOLD = 0.10


@dataclass
class _Stage:
    """One stage of the piecewise model: samples plus the fitted line."""

    ratios: list[float] = field(default_factory=list)
    norm_durations: list[float] = field(default_factory=list)
    line: Optional[LinearModel] = None

    def add(self, ratio: float, norm_duration: float) -> None:
        self.ratios.append(ratio)
        self.norm_durations.append(norm_duration)

    def fit(self) -> None:
        self.line = LinearModel.fit(self.ratios, self.norm_durations)

    def copy(self) -> "_Stage":
        return _Stage(list(self.ratios), list(self.norm_durations), self.line)


class FusedDurationModel:
    """Two-stage LR model of one fused kernel's duration.

    Coordinates: ``x`` is the load ratio, ``y`` is the fused duration
    normalized by the TC component's solo duration.  Predictions convert
    back through the caller-supplied ``Xori_tc``.
    """

    def __init__(
        self,
        fused: FusedKernel,
        tc_model: KernelDurationModel,
        cd_model: KernelDurationModel,
        noise: Optional[ProfileNoise] = None,
        oracle=None,
    ):
        self.fused = fused
        self.tc_model = tc_model
        self.cd_model = cd_model
        self.noise = noise if noise is not None else ProfileNoise(
            salt="tacker-fused-profile"
        )
        #: optional DurationOracle for memoized/persistent measurements
        self.oracle = oracle
        self._before = _Stage()
        self._after = _Stage()
        self._inflection: Optional[float] = None
        #: number of online refits performed (for the overhead study)
        self.update_count = 0

    def clone(
        self,
        tc_model: KernelDurationModel,
        cd_model: KernelDurationModel,
        oracle=None,
    ) -> "FusedDurationModel":
        """A private copy of the trained state over the given component
        models; online refits of the copy leave this model untouched."""
        twin = FusedDurationModel(
            self.fused, tc_model, cd_model, noise=self.noise, oracle=oracle
        )
        twin._before = self._before.copy()
        twin._after = self._after.copy()
        twin._inflection = self._inflection
        twin.update_count = self.update_count
        return twin

    # -- profiling ------------------------------------------------------------

    def _cd_grid_for_ratio(self, tc_grid: int, ratio: float,
                           gpu: GPUConfig) -> int:
        """Invert the CD duration model to hit a target load ratio."""
        tc_cycles = self.tc_model.measure(gpu, tc_grid)
        target_cd = ratio * tc_cycles
        line = self.cd_model.model
        if line.slope <= 0:
            raise PredictionError(
                f"{self.cd_model.kernel.name}: non-positive duration slope"
            )
        return max(1, round((target_cd - line.intercept) / line.slope))

    def measure(self, gpu: GPUConfig, tc_grid: int, cd_grid: int) -> float:
        """One noisy fused-duration observation, in cycles."""
        launch = self.fused.launch(tc_grid, cd_grid)
        if self.oracle is not None:
            cycles = self.oracle.launch_cycles(launch)
        else:
            from ..gpusim.gpu import simulate_launch

            cycles = simulate_launch(launch, gpu).duration_cycles
        return self.noise.observe(self.fused.name, tc_grid * 1_000_003 + cd_grid,
                                  cycles)

    def train(self, gpu: GPUConfig, tc_grid: Optional[int] = None) -> None:
        """Initial fit from the four canonical profiling ratios.

        When a profiling ratio maps to an already-profiled CD grid
        (small TC kernels quantize the target), additional ratios are
        probed until each stage of the piecewise model holds at least
        two distinct points.
        """
        if not (self.tc_model.is_trained and self.cd_model.is_trained):
            raise PredictionError(
                "component models must be trained before the fused model"
            )
        tc_grid = (
            self.fused.tc.ir.default_grid if tc_grid is None else tc_grid
        )
        used_grids: set[int] = set()
        backup_ratios = (0.35, 0.55, 1.4, 2.3, 0.75, 2.8, 0.05, 3.5)
        planned = PROFILE_LOAD_RATIOS + REFINEMENT_LOAD_RATIOS
        for index, ratio in enumerate(planned + backup_ratios):
            if index >= len(planned) and self._stages_covered():
                break
            cd_grid = self._cd_grid_for_ratio(tc_grid, ratio, gpu)
            while cd_grid in used_grids:
                cd_grid += 1
            used_grids.add(cd_grid)
            self._add_observation(gpu, tc_grid, cd_grid)
        if not self._stages_covered():
            raise PredictionError(
                f"could not cover both load-ratio stages for "
                f"{self.fused.name}"
            )
        self._refit()

    def _stages_covered(self) -> bool:
        """Both stages hold >= 2 distinct ratios (enough to fit lines)."""
        return (
            len(set(self._before.ratios)) >= 2
            and len(set(self._after.ratios)) >= 2
        )

    def _add_observation(self, gpu: GPUConfig, tc_grid: int,
                         cd_grid: int) -> None:
        tc_cycles = self.tc_model.measure(gpu, tc_grid)
        cd_cycles = self.cd_model.measure(gpu, cd_grid)
        fused_cycles = self.measure(gpu, tc_grid, cd_grid)
        ratio = cd_cycles / tc_cycles
        stage = self._before if ratio <= 1.0 else self._after
        stage.add(ratio, fused_cycles / tc_cycles)

    def _refit(self) -> None:
        """Fit both stages, then reassign samples by the inflection.

        The initial stage split (ratio <= 1) is only a guess; once the
        two lines intersect, every sample is re-binned against the
        actual inflection and the lines are refitted — one fixed-point
        iteration is enough in practice because the stages differ in
        slope by construction.
        """
        self._before.fit()
        self._after.fit()
        inflection = self._intersect()

        ratios = self._before.ratios + self._after.ratios
        norms = self._before.norm_durations + self._after.norm_durations
        before, after = _Stage(), _Stage()
        for ratio, norm in zip(ratios, norms):
            (before if ratio <= inflection else after).add(ratio, norm)
        if (
            len(set(before.ratios)) >= 2
            and len(set(after.ratios)) >= 2
        ):
            before.fit()
            after.fit()
            self._before, self._after = before, after
            inflection = self._intersect()
        self._inflection = inflection

    def _intersect(self) -> float:
        """Inflection point, falling back to the stage boundary when
        noise makes the two fitted lines (near-)parallel."""
        try:
            return self._before.line.intersection_x(self._after.line)
        except PredictionError:
            return (max(self._before.ratios) + min(self._after.ratios)) / 2

    # -- prediction -----------------------------------------------------------

    @property
    def is_trained(self) -> bool:
        return self._inflection is not None

    @property
    def opportune_load_ratio(self) -> float:
        """The inflection: TC and CD branches finish together (Fig. 10)."""
        if self._inflection is None:
            raise PredictionError("fused model is untrained")
        return self._inflection

    def stage_for(self, ratio: float) -> str:
        """Which regime a load ratio falls in."""
        return (
            "before-inflection"
            if ratio <= self.opportune_load_ratio
            else "after-inflection"
        )

    def predict_norm(self, ratio: float) -> float:
        """Normalized fused duration ``Tfuse / Xori_tc`` at a load ratio."""
        if ratio < 0:
            raise PredictionError("load ratio cannot be negative")
        if self._inflection is None:
            raise PredictionError("fused model is untrained")
        line = (
            self._before.line
            if ratio <= self._inflection
            else self._after.line
        )
        # A fused kernel can never beat its longer component.
        return max(line.predict(ratio), 1.0, ratio)

    def predict(self, xori_tc: float, xori_cd: float) -> float:
        """Predicted fused duration in cycles (the runtime's Tk_fuse)."""
        if xori_tc <= 0:
            raise PredictionError("Xori_tc must be positive")
        ratio = xori_cd / xori_tc
        return self.predict_norm(ratio) * xori_tc

    # -- online maintenance ----------------------------------------------------

    def observe(
        self,
        xori_tc: float,
        xori_cd: float,
        actual_cycles: float,
    ) -> float:
        """Feed back a runtime observation; refit if the error is > 10%.

        Returns the relative error of the prediction for bookkeeping.
        """
        predicted = self.predict(xori_tc, xori_cd)
        error = abs(predicted - actual_cycles) / actual_cycles
        if error > UPDATE_THRESHOLD:
            ratio = xori_cd / xori_tc
            stage = (
                self._before if ratio <= self.opportune_load_ratio
                else self._after
            )
            stage.add(ratio, actual_cycles / xori_tc)
            self._refit()
            self.update_count += 1
        return error
