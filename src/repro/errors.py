"""Exception hierarchy for the Tacker reproduction.

Every error raised by the library derives from :class:`TackerError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the failure domain (simulation, fusion, prediction,
scheduling) when they need to.
"""

from __future__ import annotations


class TackerError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigError(TackerError):
    """A hardware or workload configuration is inconsistent.

    Examples: an SM with zero shared memory, a kernel requesting more
    threads per block than the SM supports.
    """


class SimulationError(TackerError):
    """The event-driven GPU simulation reached an invalid state.

    This signals a bug in the simulator or an impossible schedule (e.g. a
    barrier that can never be satisfied), never a merely slow workload.
    """


class OccupancyError(SimulationError):
    """A kernel cannot fit even a single thread block on an SM."""


class FusionError(TackerError):
    """Kernel fusion was requested but is impossible or ill-formed.

    Raised for attempts such as fusing two kernels whose combined per-block
    resources exceed the SM, fusing a TC kernel with another TC kernel via
    the TC/CD fuser, or fusing kernels that were not PTB-transformed.
    """


class BarrierAllocationError(FusionError):
    """No free ``bar.sync`` id remains for a branch of a fused kernel."""


class PredictionError(TackerError):
    """A duration model is unusable (untrained, or degenerate inputs)."""


class SchedulingError(TackerError):
    """The runtime kernel manager was driven into an invalid state."""


class ParallelMapError(TackerError):
    """An item of a parallel fan-out failed in a worker process.

    ``index`` is the failing item's position in the input; the worker's
    exception is chained as ``__cause__``.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class AuditViolation(TackerError):
    """A runtime invariant check failed (see :mod:`repro.audit`).

    Carries the violated invariant's identifier and the event context —
    the simulation time, kernel names, and bookkeeping values the check
    compared — so a violation localizes the bug instead of merely
    flagging it.
    """

    def __init__(self, invariant: str, message: str, **context):
        self.invariant = invariant
        self.context = dict(context)
        detail = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
        suffix = f" [{detail}]" if detail else ""
        super().__init__(f"[{invariant}] {message}{suffix}")
