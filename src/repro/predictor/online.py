"""Model bookkeeping for the runtime (Section VI-C's maintenance rule).

The kernel manager owns one duration model per kernel and one per fused
pair; this module centralizes their construction, training and online
refresh, and records the (modelled) training overhead the paper reports
in Section VIII-I (~20 ms per fused-kernel model).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..config import GPUConfig
from ..errors import PredictionError
from ..fusion.fuser import FusedKernel
from ..kernels.ir import KernelIR
from .fused_model import FusedDurationModel
from .kernel_model import KernelDurationModel, ProfileNoise

#: Wall time to train one fused-kernel duration model (Section VIII-I).
FUSED_MODEL_TRAIN_MS = 20.0

#: Smoothing factor of the online prediction-error EWMA.
ERROR_EWMA_ALPHA = 0.15

#: A prediction perturbation: (kernel name, predicted value) -> value.
#: Installed by the fault-injection harness; None = exact predictions.
Perturbation = Callable[[str, float], float]


class PredictionErrorTracker:
    """Online EWMA of relative prediction error, per kernel and overall.

    The runtime compares every launch's predicted duration against the
    simulated (ground-truth) one; the tracked error band is what the
    guarded scheduler inflates its headroom threshold by.  Errors are
    relative (``|predicted - actual| / actual``) so kernels of very
    different durations share one scale.
    """

    def __init__(self, alpha: float = ERROR_EWMA_ALPHA):
        if not 0 < alpha <= 1:
            raise PredictionError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._per_kernel: dict[str, float] = {}
        self._overall: float = 0.0
        self.observations = 0

    def record(self, name: str, predicted: float, actual: float) -> float:
        """Fold one (predicted, actual) pair in; returns the new band."""
        if actual <= 0:
            return self._overall
        error = abs(predicted - actual) / actual
        previous = self._per_kernel.get(name)
        if previous is None:
            # First observation seeds the band directly.  (The old
            # ``get(name, error)`` default blended the error with
            # itself — numerically identical, but it read as a bug and
            # hid the seeding semantics; see tests/runtime/test_faults.py.)
            self._per_kernel[name] = error
        else:
            self._per_kernel[name] = (
                self.alpha * error + (1 - self.alpha) * previous
            )
        if self.observations == 0:
            self._overall = error
        else:
            self._overall = (
                self.alpha * error + (1 - self.alpha) * self._overall
            )
        self.observations += 1
        return self._overall

    def band(self, name: Optional[str] = None) -> float:
        """Current error band: one kernel's, or the overall EWMA."""
        if name is not None:
            return self._per_kernel.get(name, self._overall)
        return self._overall


class OnlineModelManager:
    """Owns and maintains all duration models used by the runtime.

    It trains each kernel's and each fused pair's model lazily (or
    adopts trained copies), refits a fused model online from observed
    co-runs, saves and loads model bundles, and bumps :attr:`version`
    whenever coefficients change.  Predictions are not memoized here:
    the scheduler policies that call them keep their own tables per
    model version.  Prediction-error tracking lives with the consumer
    that acts on it, the mispredict guard.
    """

    def __init__(
        self,
        gpu: GPUConfig,
        noise: Optional[ProfileNoise] = None,
        oracle=None,
    ):
        self._gpu = gpu
        self._noise = noise
        #: optional DurationOracle threaded into every model's profiling
        self._oracle = oracle
        self._kernel_models: dict[str, KernelDurationModel] = {}
        self._fused_models: dict[tuple[str, str], FusedDurationModel] = {}
        #: accumulated modelled training time (overhead experiment)
        self.total_training_ms = 0.0
        #: fault-injection hook applied to every prediction (None = off);
        #: it may be stateful, so consumers must not memoize through it
        self.perturb: Optional[Perturbation] = None
        #: monotone counter bumped whenever any model's coefficients
        #: change after initial training (online refit, bundle load).
        #: Consumers that cache predictions — the headroom tracker's
        #: suffix sums, the scheduler policies' prediction tables —
        #: poll it and rebuild when it advances.
        self.version = 0

    # -- per-kernel models ------------------------------------------------------

    def kernel_model(self, kernel: KernelIR) -> KernelDurationModel:
        """The (lazily trained) duration model of one kernel."""
        model = self._kernel_models.get(kernel.name)
        if model is None:
            model = KernelDurationModel(
                kernel, noise=self._noise, oracle=self._oracle
            )
            model.train(self._gpu)
            self._kernel_models[kernel.name] = model
        return model

    def predict_kernel(self, kernel: KernelIR, grid: int) -> float:
        predicted = self.kernel_model(kernel).predict(grid)
        if self.perturb is not None:
            predicted = self.perturb(kernel.name, predicted)
        return predicted

    # -- fused models -------------------------------------------------------------

    def fused_model(self, fused: FusedKernel) -> FusedDurationModel:
        """The (lazily trained) two-stage model of one fused kernel."""
        key = (fused.tc.ir.name, fused.cd.ir.name)
        model = self._fused_models.get(key)
        if model is None:
            model = FusedDurationModel(
                fused,
                tc_model=self.kernel_model(fused.tc.ir),
                cd_model=self.kernel_model(fused.cd.ir),
                noise=self._noise,
                oracle=self._oracle,
            )
            model.train(self._gpu)
            self._fused_models[key] = model
            self.total_training_ms += FUSED_MODEL_TRAIN_MS
        return model

    def trained_pair(self, fused: FusedKernel) -> tuple:
        """Detached copies of one fused pair's trained models — (TC
        kernel model, CD kernel model, fused model), bound to no oracle —
        for :meth:`adopt_pair` in other managers of the same GPU."""
        pair = self.fused_model(fused)
        tc_model = pair.tc_model.clone()
        cd_model = pair.cd_model.clone()
        return tc_model, cd_model, pair.clone(tc_model, cd_model)

    def adopt_pair(self, fused: FusedKernel, trained: tuple) -> None:
        """Install private copies of a pair's models from :meth:`trained_pair`.

        The result is the state :meth:`fused_model` would have trained —
        same coefficients, same modelled training cost — without the
        profiling runs.  Kernel models this manager already holds are
        kept (kernel models never change after training).
        """
        key = (fused.tc.ir.name, fused.cd.ir.name)
        if key in self._fused_models:
            return
        tc_trained, cd_trained, pair = trained
        for model in (tc_trained, cd_trained):
            if model.kernel.name not in self._kernel_models:
                self._kernel_models[model.kernel.name] = model.clone(
                    self._oracle
                )
        self._fused_models[key] = pair.clone(
            self._kernel_models[fused.tc.ir.name],
            self._kernel_models[fused.cd.ir.name],
            self._oracle,
        )
        self.total_training_ms += FUSED_MODEL_TRAIN_MS

    def predict_fused(
        self, fused: FusedKernel, xori_tc: float, xori_cd: float
    ) -> float:
        predicted = self.fused_model(fused).predict(xori_tc, xori_cd)
        if self.perturb is not None:
            predicted = self.perturb(fused.name, predicted)
        return predicted

    def observe_fused(
        self,
        fused: FusedKernel,
        xori_tc: float,
        xori_cd: float,
        actual_cycles: float,
    ) -> float:
        key = (fused.tc.ir.name, fused.cd.ir.name)
        model = self._fused_models.get(key)
        if model is None:
            raise PredictionError(
                f"no trained fused model for {key}; predict before observing"
            )
        updates_before = model.update_count
        error = model.observe(xori_tc, xori_cd, actual_cycles)
        if model.update_count != updates_before:
            self.version += 1
        return error

    # -- introspection --------------------------------------------------------------

    @property
    def trained_kernel_models(self) -> int:
        return len(self._kernel_models)

    @property
    def trained_fused_models(self) -> int:
        return len(self._fused_models)

    # -- persistence -----------------------------------------------------------------

    def save(self, path: str) -> str:
        """Export every trained model to a JSON bundle at ``path``."""
        from .persistence import save_bundle

        return save_bundle(path, self._kernel_models, self._fused_models)

    def load(self, path: str, fused_kernels: dict) -> int:
        """Restore models from a bundle written by :meth:`save`.

        ``fused_kernels`` maps (TC name, CD name) to the matching
        :class:`FusedKernel` artifacts (models attach to artifacts).
        Returns the number of models restored; kernels or pairs not
        present in this deployment are skipped.
        """
        from .persistence import (
            import_fused_model,
            import_kernel_model,
            load_bundle,
        )

        bundle = load_bundle(path)
        restored = 0
        kernel_irs = {
            fused.tc.ir.name: fused.tc.ir for fused in fused_kernels.values()
        }
        kernel_irs.update(
            (fused.cd.ir.name, fused.cd.ir)
            for fused in fused_kernels.values()
        )
        for name, data in bundle["kernels"].items():
            if name in kernel_irs:
                self._kernel_models[name] = import_kernel_model(
                    kernel_irs[name], data, noise=self._noise
                )
                restored += 1
        for data in bundle["fused"]:
            key = tuple(data["pair"])
            fused = fused_kernels.get(key)
            if fused is None:
                continue
            tc_model = self._kernel_models.get(fused.tc.ir.name)
            cd_model = self._kernel_models.get(fused.cd.ir.name)
            if tc_model is None or cd_model is None:
                continue
            self._fused_models[key] = import_fused_model(
                fused, tc_model, cd_model, data
            )
            restored += 1
        if restored:
            self.version += 1
        return restored
