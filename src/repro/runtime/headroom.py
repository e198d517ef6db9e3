"""QoS headroom accounting (Eqs. 7 and 9).

A query ``Q`` meets its QoS target iff

    T_queue + T_lc + T_fuse + T_be  <=  T_qos                      (Eq. 7)

so the *headroom* — GPU time the scheduler may hand to best-effort work
while ``Q`` is in flight — is what remains of the target after the time
already spent and the query's own predicted remaining work.  With
several active queries, each earlier query's remaining GPU time is also
reserved (Eq. 9), and the binding constraint is the minimum slack over
all of them: serving FIFO, query ``i`` can only finish after every
earlier query's remaining kernels.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..errors import SchedulingError
from .query import KernelInstance, Query

#: Predicted duration of one kernel instance, in milliseconds.
Predictor = Callable[[KernelInstance], float]

#: lazily bound ReservationEntry (avoids a per-call import in
#: ``headroom_detail`` and an import cycle at module load)
_ReservationEntry = None


class HeadroomTracker:
    """Computes the schedulable BE headroom at a point in time."""

    def __init__(self, qos_ms: float, predictor: Predictor,
                 version: Optional[Callable[[], int]] = None):
        if qos_ms <= 0:
            raise SchedulingError("QoS target must be positive")
        self.qos_ms = qos_ms
        self._predict = predictor
        # Suffix sums of predicted durations per kernel sequence.  The
        # key covers every (kernel, grid) in the sequence — not just the
        # endpoints — so two services sharing model name, length, and
        # first/last kernels never alias each other's sums.
        self._suffix: dict[str, list[float]] = {}
        # The predictor's model-version counter.  Whenever it advances
        # (the online >10%-error retrain path, or a bundle load), every
        # cached suffix sum is stale and must be rebuilt.
        self._version = version
        self._version_seen = version() if version is not None else 0

    def invalidate(self) -> None:
        """Drop all cached suffix sums (call after any model refresh)."""
        self._suffix.clear()

    def _sync_version(self) -> None:
        if self._version is None:
            return
        current = self._version()
        if current != self._version_seen:
            self._version_seen = current
            self.invalidate()

    def predicted_remaining_ms(self, query: Query) -> float:
        """LR-predicted GPU time of a query's unexecuted kernels."""
        self._sync_version()
        key = query.sequence_key
        suffix = self._suffix.get(key)
        if suffix is None:
            suffix = [0.0]
            for instance in reversed(query.instances):
                suffix.append(suffix[-1] + self._predict(instance))
            suffix.reverse()
            self._suffix[key] = suffix
        return suffix[query.cursor]

    def headroom_ms(self, now_ms: float, active: Sequence[Query]) -> float:
        """BE headroom given the FIFO set of active queries (Eq. 9).

        Returns ``+inf`` when no query is active (pure best-effort
        periods are unconstrained) and can go negative when a query is
        already doomed — the scheduler then launches LC kernels back to
        back ("If the Thr of the new query is close to 0, Tacker
        directly launches all the kernels").
        """
        if not active:
            return float("inf")
        slack = float("inf")
        reserved_ahead = 0.0
        for query in active:
            remaining = self.predicted_remaining_ms(query)
            elapsed = now_ms - query.arrival_ms
            slack = min(
                slack, self.qos_ms - elapsed - reserved_ahead - remaining
            )
            reserved_ahead += remaining
        return slack

    def headroom_detail(
        self, now_ms: float, active: Sequence[Query]
    ) -> tuple[float, tuple]:
        """:meth:`headroom_ms` plus the per-query Eq. 9 math.

        Returns ``(headroom, entries)`` where each entry is a
        :class:`repro.telemetry.ReservationEntry` — the elapsed time,
        predicted remaining work, reserved time ahead and resulting
        slack for one active query.  Only called when telemetry is on;
        the plain :meth:`headroom_ms` stays the hot path.
        """
        global _ReservationEntry
        if _ReservationEntry is None:
            from ..telemetry.decisions import ReservationEntry
            _ReservationEntry = ReservationEntry
        ReservationEntry = _ReservationEntry

        slack = float("inf")
        reserved_ahead = 0.0
        entries = []
        for query in active:
            remaining = self.predicted_remaining_ms(query)
            elapsed = now_ms - query.arrival_ms
            own = self.qos_ms - elapsed - reserved_ahead - remaining
            entries.append(ReservationEntry(
                service=query.model.name,
                arrival_ms=query.arrival_ms,
                elapsed_ms=elapsed,
                remaining_ms=remaining,
                reserved_ahead_ms=reserved_ahead,
                slack_ms=own,
            ))
            slack = min(slack, own)
            reserved_ahead += remaining
        return slack, tuple(entries)
