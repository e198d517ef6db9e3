"""Energy accounting for co-location (Section V-D's consequence).

The paper measures that the GPU already sits at its board power limit
while running a TC kernel and stays clamped when the CUDA cores join in.
The consequence — not spelled out in the paper, but implied — is that
fusion improves *energy per unit of best-effort work*: the same watts
buy more completed kernels.  This experiment quantifies that by feeding
a Tacker and a Baymax run through the power model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.power import PowerModel, PowerSample
from ..models.zoo import model_by_name
from ..runtime.workload import be_application
from .common import default_queries, get_system


@dataclass
class EnergyResult:
    tacker: PowerSample
    baymax: PowerSample

    def rows(self) -> list[list]:
        return [
            ["tacker", round(self.tacker.watts, 1),
             round(self.tacker.work_ms, 1),
             round(self.tacker.energy_per_work, 1)],
            ["baymax", round(self.baymax.watts, 1),
             round(self.baymax.work_ms, 1),
             round(self.baymax.energy_per_work, 1)],
        ]

    def summary(self) -> dict[str, float]:
        return {
            "tacker_watts": self.tacker.watts,
            "baymax_watts": self.baymax.watts,
            "tacker_energy_per_work": self.tacker.energy_per_work,
            "baymax_energy_per_work": self.baymax.energy_per_work,
            "energy_saving": 1.0
            - self.tacker.energy_per_work / self.baymax.energy_per_work,
        }


def run(
    gpu: str = "rtx2080ti",
    lc_name: str = "resnet50",
    be_name: str = "fft",
    n_queries: int | None = None,
) -> EnergyResult:
    system = get_system(gpu)
    n_queries = default_queries(80, 15) if n_queries is None else n_queries
    model = model_by_name(lc_name)
    system.prepare_pair(model, be_application(be_name, system.library))
    power = PowerModel(system.gpu)

    samples = {}
    for policy_name in ("tacker", "baymax"):
        result = system.run_custom(
            model, [be_name], system.make_policy(policy_name),
            n_queries=n_queries,
        )
        samples[policy_name] = power.sample(
            duration_ms=result.end_ms,
            tensor_busy_ms=result.tc_timeline.total(),
            cuda_busy_ms=result.cd_timeline.total(),
            work_ms=result.total_be_work_ms,
        )
    return EnergyResult(tacker=samples["tacker"], baymax=samples["baymax"])
