"""Per-kernel duration models: block count -> duration (Section VI-C).

Each GPU kernel gets its own linear-regression model whose input is the
block number of the launch (in non-PTB terms — the amount of work) and
whose output is the duration.  The paper trains these from historical
profiling data and reports <= 3% error (Fig. 17); the linearity is a
consequence of the repetitive PTB warp pattern of Fig. 12.

Profiling on real hardware is noisy, so the trainer injects a small
deterministic pseudo-noise into the simulated "measurements"; the model
is fitted against noisy observations and evaluated against equally
noisy held-out observations, reproducing the error regime of Fig. 17
instead of a vacuous 0%.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from ..config import GPUConfig
from ..errors import PredictionError
from ..gpusim.gpu import simulate_launch
from ..kernels.ir import KernelIR
from .linear import LinearModel

#: Default relative profiling noise (run-to-run variance of real GPUs).
DEFAULT_NOISE = 0.015


@dataclass(frozen=True)
class ProfileNoise:
    """Deterministic measurement noise, seeded by (kernel, grid).

    The same (kernel, grid) pair always observes the same duration, as a
    stable benchmark harness would after warm-up, but different grids
    scatter independently within ``scale``.
    """

    scale: float = DEFAULT_NOISE
    salt: str = "tacker-profile"

    def factor(self, kernel_name: str, grid: int) -> float:
        if self.scale == 0:
            return 1.0
        digest = hashlib.sha256(
            f"{self.salt}:{kernel_name}:{grid}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return 1.0 + self.scale * (2.0 * unit - 1.0)

    def observe(self, kernel_name: str, grid: int, cycles: float) -> float:
        return cycles * self.factor(kernel_name, grid)


class KernelDurationModel:
    """LR model of one kernel's duration as a function of its grid."""

    def __init__(
        self,
        kernel: KernelIR,
        noise: Optional[ProfileNoise] = None,
        oracle=None,
    ):
        self.kernel = kernel
        self.noise = noise if noise is not None else ProfileNoise()
        #: optional DurationOracle; profiling runs then reuse (and, with
        #: a persistent store, pre-date) the runtime's simulations
        self.oracle = oracle
        self._model: Optional[LinearModel] = None
        self._samples: list[tuple[int, float]] = []

    @property
    def is_trained(self) -> bool:
        return self._model is not None

    @property
    def model(self) -> LinearModel:
        if self._model is None:
            raise PredictionError(
                f"duration model for {self.kernel.name!r} is untrained"
            )
        return self._model

    def clone(self, oracle=None) -> "KernelDurationModel":
        """A private copy of the trained state, profiling through ``oracle``."""
        twin = KernelDurationModel(self.kernel, noise=self.noise, oracle=oracle)
        twin._model = self._model
        twin._samples = list(self._samples)
        return twin

    def measure(self, gpu: GPUConfig, grid: int) -> float:
        """One noisy profiling observation, in cycles."""
        launch = self.kernel.launch(grid)
        if self.oracle is not None:
            cycles = self.oracle.launch_cycles(launch)
        else:
            cycles = simulate_launch(launch, gpu).duration_cycles
        return self.noise.observe(self.kernel.name, grid, cycles)

    def train(
        self,
        gpu: GPUConfig,
        grids: Optional[Sequence[int]] = None,
    ) -> LinearModel:
        """Profile a few grid sizes and fit the line.

        The default sample set spans 25%..200% of the kernel's default
        input — "this model characterization only needs to collect a few
        points" (Section VI-C).
        """
        if grids is None:
            base = self.kernel.default_grid
            grids = sorted(
                {max(1, round(base * s)) for s in (0.25, 0.5, 1.0, 1.5, 2.0)}
            )
        self._samples = [(g, self.measure(gpu, g)) for g in grids]
        xs = [float(g) for g, _ in self._samples]
        ys = [d for _, d in self._samples]
        self._model = LinearModel.fit(xs, ys)
        return self._model

    def predict(self, grid: int) -> float:
        """Predicted duration in cycles for a launch of ``grid`` blocks."""
        return max(0.0, self.model.predict(float(grid)))

    def evaluate(
        self, gpu: GPUConfig, grids: Sequence[int]
    ) -> dict[str, float]:
        """Held-out error against fresh noisy observations (Fig. 17)."""
        actual = [self.measure(gpu, g) for g in grids]
        predicted = [self.predict(g) for g in grids]
        errors = [
            abs(p - a) / a for p, a in zip(predicted, actual) if a > 0
        ]
        if not errors:
            raise PredictionError("no valid evaluation points")
        return {
            "mean_error": sum(errors) / len(errors),
            "max_error": max(errors),
        }
