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
from ..telemetry.decisions import ReservationEntry
from .query import KernelInstance, Query

#: Predicted duration of one kernel instance, in milliseconds.
Predictor = Callable[[KernelInstance], float]


class HeadroomTracker:
    """Computes the schedulable BE headroom at a point in time.

    A query's predicted remaining work is its plan's suffix column for
    this tracker at the predictor's model version (``version``; None =
    the predictions never change).  The column is built right to left
    on the first read after the version advances — an online
    >10%-error refit or a bundle load — and indexed by cursor after.
    """

    def __init__(self, qos_ms: float, predictor: Predictor,
                 version: Optional[Callable[[], int]] = None):
        if qos_ms <= 0:
            raise SchedulingError("QoS target must be positive")
        self.qos_ms = qos_ms
        self._predict = predictor
        self._version = version if version is not None else lambda: 0

    def predicted_remaining_ms(self, query: Query) -> float:
        """LR-predicted GPU time of a query's unexecuted kernels."""
        return query.plan.suffix_ms(self, self._version(), self._predict)[
            query.cursor
        ]

    def reservation(
        self, now_ms: float, active: Sequence[Query],
        entries: Optional[list] = None,
    ) -> tuple[float, float]:
        """The Eq. 9 headroom of the FIFO set of active queries and their
        total predicted remaining work, in one pass.

        The headroom is ``+inf`` with no active query and goes negative
        when a query is already doomed — the scheduler then launches LC
        kernels back to back.  ``entries``, when given, receives each
        query's :class:`repro.telemetry.ReservationEntry`.
        """
        version = self._version()
        slack = float("inf")
        reserved_ahead = 0.0
        for query in active:
            remaining = query.plan.suffix_ms(self, version, self._predict)[
                query.cursor
            ]
            elapsed = now_ms - query.arrival_ms
            own = self.qos_ms - elapsed - reserved_ahead - remaining
            if entries is not None:
                entries.append(ReservationEntry(
                    query.model.name, query.arrival_ms, elapsed, remaining,
                    reserved_ahead, own,
                ))
            slack = min(slack, own)
            reserved_ahead += remaining
        return slack, reserved_ahead

    def headroom_ms(self, now_ms: float, active: Sequence[Query]) -> float:
        """BE headroom given the FIFO set of active queries (Eq. 9)."""
        return self.reservation(now_ms, active)[0]

    def headroom_detail(
        self, now_ms: float, active: Sequence[Query]
    ) -> tuple[float, float, tuple]:
        """:meth:`reservation` plus its per-query entries (telemetry)."""
        entries: list = []
        headroom, reserved = self.reservation(now_ms, active, entries)
        return headroom, reserved, tuple(entries)
