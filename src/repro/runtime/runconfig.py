"""The consolidated run-level knobs.

Historically the QoS target, the load fraction, the query count and the
arrival seed were scattered as loose keyword arguments across
``TackerSystem``, ``ColocationServer`` and the experiment harnesses,
which meant every new entry point re-declared (and could silently
re-default) the same four numbers.  :class:`RunConfig` is the single
home: one frozen, hashable value object that every layer shares, with
:meth:`RunConfig.with_overrides` as the only way to vary a knob.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from ..errors import ConfigError


@dataclass(frozen=True)
class RunConfig:
    """Run-level knobs shared by every serving and experiment layer.

    Frozen and hashable, so it can key caches (e.g. the experiment
    layer's shared-system registry) and ship to worker processes.
    """

    #: the QoS target (Section VIII-B: 50 ms at the 99th percentile)
    qos_ms: float = 50.0
    #: LC arrival rate as a fraction of the calibrated peak load
    load: float = 0.8
    #: LC queries per run (enough for a stable 99th percentile)
    queries: int = 200
    #: seed of the arrival process (and anything derived from it)
    seed: int = 2022
    #: collect telemetry (spans, decision log, run metrics) for runs
    #: under this config; False keeps the hot path a strict no-op
    telemetry: bool = False
    #: name of the scenario this run belongs to ("" outside scenario
    #: replays); rides into telemetry as the per-scenario metric label
    #: and keys a separate shared system per scenario in the
    #: experiment layer
    scenario: str = ""
    #: registered name of the scheduling policy runs under this config
    #: resolve by default (see :mod:`repro.runtime.policies.registry`);
    #: part of the hash key, so experiment layers that vary the policy
    #: get a fresh shared system per policy
    policy: str = "tacker"

    def __post_init__(self) -> None:
        if self.qos_ms <= 0:
            raise ConfigError(f"qos_ms must be positive, got {self.qos_ms}")
        if not 0 < self.load <= 1:
            raise ConfigError(f"load must be in (0, 1], got {self.load}")
        if self.queries < 1:
            raise ConfigError(f"queries must be >= 1, got {self.queries}")
        if self.policy != "tacker":
            # Lazy import: validating the default at module-import time
            # would drag the whole policy package into this leaf module.
            from .policies.registry import validate_policy_name

            validate_policy_name(self.policy, owner="run policy")

    def with_overrides(self, **overrides) -> "RunConfig":
        """A copy with the given knobs replaced.

        ``None`` values are ignored (so callers can forward optional
        keyword arguments verbatim); unknown knob names raise
        :class:`ConfigError` rather than vanishing silently.
        """
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ConfigError(
                f"unknown run knobs {sorted(unknown)}; known: {sorted(known)}"
            )
        concrete = {k: v for k, v in overrides.items() if v is not None}
        if not concrete:
            return self
        return replace(self, **concrete)


#: The paper's operating point; the default everywhere.
DEFAULT_RUN_CONFIG = RunConfig()
