"""Scheduling policies: a plugin framework with a competitor zoo.

The package splits the old ``runtime/policies.py`` module into:

* :mod:`~repro.runtime.policies.base` — the slim
  :class:`SchedulerPolicy` protocol (``decide`` / ``note_outcome`` /
  ``note_query_done`` / ``current_thr_ms`` / ``policy_name``) plus the
  shared machinery (actions, guard rails, headroom/telemetry glue);
* :mod:`~repro.runtime.policies.registry` — the string-keyed registry
  every construction site resolves policy names through;
* one module per policy: the paper's
  :class:`~repro.runtime.policies.tacker.TackerPolicy` and the
  :class:`~repro.runtime.policies.baymax.BaymaxPolicy` baseline
  (moved unchanged — bit-identical fig10/fig11), and the zoo —
  :class:`~repro.runtime.policies.hfuse.HFusePolicy`,
  :class:`~repro.runtime.policies.spatial.SpatialPolicy`,
  :class:`~repro.runtime.policies.gpuos.GPUOSPolicy`,
  :class:`~repro.runtime.policies.multifuse.MultiFusePolicy`.

Importing this package registers every builtin policy; third-party
policies join by calling :func:`register_policy` before naming the
policy anywhere (entry-point style).  ``from repro.runtime.policies
import TackerPolicy`` keeps working.
"""

from __future__ import annotations

from .base import (
    FUSION_CHECK_MS_PER_PAIR,
    GUARD_MODES,
    QOS_GUARD,
    STATIC_SCHEDULING_BASE_MS,
    Action,
    GuardConfig,
    MispredictGuard,
    SchedulerPolicy,
    scheduling_overhead_ms,
)
from .registry import (
    PolicyEntry,
    list_policies,
    policy_entries,
    policy_from_name,
    register_policy,
    unregister_policy,
    validate_policy_name,
)
from .baymax import BaymaxPolicy
from .tacker import TackerPolicy
from .hfuse import HFusePolicy
from .spatial import SpatialPolicy
from .gpuos import GPUOSPolicy
from .multifuse import MultiFusePolicy

__all__ = [
    "STATIC_SCHEDULING_BASE_MS",
    "FUSION_CHECK_MS_PER_PAIR",
    "scheduling_overhead_ms",
    "Action",
    "GuardConfig",
    "GUARD_MODES",
    "MispredictGuard",
    "QOS_GUARD",
    "SchedulerPolicy",
    "BaymaxPolicy",
    "TackerPolicy",
    "HFusePolicy",
    "SpatialPolicy",
    "GPUOSPolicy",
    "MultiFusePolicy",
    "PolicyEntry",
    "register_policy",
    "unregister_policy",
    "list_policies",
    "policy_entries",
    "policy_from_name",
    "validate_policy_name",
]
