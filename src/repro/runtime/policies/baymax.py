"""The reorder-only baseline (Baymax, ref [19])."""

from __future__ import annotations

from .base import SchedulerPolicy
from .registry import register_policy


class BaymaxPolicy(SchedulerPolicy):
    """Reorder-only baseline (Baymax, ref [19]): the base decision,
    which co-locates nothing and reorders a fitting BE kernel ahead of
    the LC kernel."""

    policy_name = "baymax"


def _factory(system, guard):
    return BaymaxPolicy(system.gpu, system.models, system.qos_ms, guard=guard)


register_policy(
    "baymax", _factory,
    description="reorder-only baseline: direct BE launches that fit the "
                "Eq. 9 headroom (Baymax, ref [19])",
)
