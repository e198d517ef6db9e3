"""Figs. 1/2: the false high utilization problem under Baymax.

Each LC service is co-located with a BE application under the reorder-
only baseline.  The GPU looks busy the whole time — the *stacked* active
time of the Tensor cores and CUDA cores equals the wall clock — but the
two units are never active simultaneously, which is the paper's
motivating observation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.zoo import model_by_name
from ..runtime.metrics import active_time_breakdown
from .common import default_queries, get_system

#: The BE applications of the Fig. 2 sweep.
FIG2_BE = ("sgemm", "fft", "lbm", "cutcp", "mriq")
FIG2_LC = ("resnet50", "resnext", "vgg16", "vgg19", "inception",
           "densenet")


@dataclass
class MotivationResult:
    #: (lc, be) -> active-time breakdown dict
    breakdowns: dict[tuple[str, str], dict[str, float]]

    def rows(self) -> list[list]:
        return [
            [lc, be,
             round(b["tc_active"], 3), round(b["cd_active"], 3),
             round(b["stacked"], 3), round(b["both_active"], 4)]
            for (lc, be), b in self.breakdowns.items()
        ]

    def summary(self) -> dict[str, float]:
        stacked = [b["stacked"] for b in self.breakdowns.values()]
        both = [b["both_active"] for b in self.breakdowns.values()]
        return {
            "mean_stacked": sum(stacked) / len(stacked),
            "min_stacked": min(stacked),
            "max_both_active": max(both),
        }


def run(
    gpu: str = "rtx2080ti",
    lc_names: tuple[str, ...] = FIG2_LC,
    be_names: tuple[str, ...] = FIG2_BE,
    n_queries: int | None = None,
) -> MotivationResult:
    system = get_system(gpu)
    n_queries = default_queries(60, 12) if n_queries is None else n_queries
    breakdowns: dict[tuple[str, str], dict[str, float]] = {}
    for lc in lc_names:
        model = model_by_name(lc)
        for be in be_names:
            result = system.run_custom(
                model, [be], system.make_policy("baymax"),
                n_queries=n_queries,
            )
            breakdowns[(model.name, be)] = active_time_breakdown(result)
    return MotivationResult(breakdowns=breakdowns)
