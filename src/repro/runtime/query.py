"""Queries and best-effort kernel streams.

An LC *query* executes its model's kernel sequence in order; the query's
latency is the interval from arrival to its last kernel's completion
(Section VII-A).  A *BE application* is an endless stream of kernels
(Parboil kernels repeat one launch; training jobs repeat an iteration
sequence); the runtime may run the stream's head kernel whenever QoS
headroom allows, or fuse it with an LC kernel.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..errors import SchedulingError
from ..kernels.ir import KernelIR
from ..models.zoo import ModelSpec


@dataclass(frozen=True)
class KernelInstance:
    """One concrete kernel execution request."""

    kernel: KernelIR
    grid: int
    fusable: bool = True

    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def kind(self) -> str:
        return self.kernel.kind


class KernelPlan:
    """Per-cursor prices of one kernel-instance sequence.

    A query's kernels and grids are fixed when it arrives, and so are
    their solo, served and predicted durations and every remaining-work
    sum.  A plan builds each as a list indexed by cursor, once, keyed by
    its owner (oracle and slow factor, headroom tracker or policy) and
    stamped with a model version where predictions feed it.  Every
    query of a service shares one plan (``TackerSystem.serve_arrivals``
    and ``PoissonArrivals.queries`` pass it); any other query builds
    its own.
    """

    __slots__ = ("instances", "_served", "_remaining", "_predicted",
                 "_suffix")

    def __init__(self, instances: tuple[KernelInstance, ...]):
        self.instances = instances
        self._served: dict = {}  # (oracle, factor) -> column
        self._remaining: dict = {}  # (oracle, factor) -> column
        self._predicted: dict = {}  # key -> (version, column)
        self._suffix: dict = {}  # key -> (version, column)

    def served_ms(self, oracle, factor: float) -> list[float]:
        """Each kernel's duration on a node ``factor`` times slower (at
        1.0, the oracle's solo duration)."""
        served = self._served.get((oracle, factor))
        if served is None:
            served = self._served[oracle, factor] = [
                oracle.solo_ms(i.kernel, i.grid) * factor
                for i in self.instances
            ]
        return served

    def remaining_ms(self, oracle, factor: float) -> list[float]:
        """Ground-truth remaining work at each cursor, the end included.

        Each sum adds the served terms left to right, as ``sum()`` over
        the remaining kernels does, so admission control stays
        bit-identical: O(n^2) once per (oracle, factor).
        """
        remaining = self._remaining.get((oracle, factor))
        if remaining is None:
            served = self.served_ms(oracle, factor)
            remaining = self._remaining[oracle, factor] = [
                sum(served[cursor:]) for cursor in range(len(served) + 1)
            ]
        return remaining

    def predicted_ms(self, key, version: int, predict) -> list[float]:
        """``predict(instance)`` per kernel, once per (key, version)."""
        entry = self._predicted.get(key)
        if entry is None or entry[0] != version:
            entry = self._predicted[key] = (
                version, [predict(i) for i in self.instances]
            )
        return entry[1]

    def suffix_ms(self, key, version: int, term) -> list[float]:
        """Sums of ``term(instance)`` from each cursor to the end, built
        right to left once per (key, version)."""
        entry = self._suffix.get(key)
        if entry is None or entry[0] != version:
            suffix = [0.0]
            for instance in reversed(self.instances):
                suffix.append(suffix[-1] + term(instance))
            suffix.reverse()
            entry = self._suffix[key] = (version, suffix)
        return entry[1]


class Query:
    """One in-flight LC query: a cursor over its model's kernels, whose
    prices are ``plan``'s columns at ``cursor``."""

    _ids = itertools.count()

    def __init__(self, model: ModelSpec, arrival_ms: float,
                 instances: tuple[KernelInstance, ...],
                 penalty_ms: float = 0.0,
                 plan: Optional[KernelPlan] = None):
        self.qid = next(Query._ids)
        self.model = model
        self.arrival_ms = arrival_ms
        #: latency already accrued before this server saw the query — a
        #: query re-routed off a crashed replica keeps the time it spent
        #: waiting there, so hand-offs cannot launder tail latency
        self.penalty_ms = penalty_ms
        self.instances = instances
        self.plan = plan if plan is not None else KernelPlan(instances)
        #: index of the next kernel to execute
        self.cursor = 0
        self.finish_ms: Optional[float] = None

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.instances)

    @property
    def current(self) -> KernelInstance:
        if self.cursor >= len(self.instances):
            raise SchedulingError(f"query {self.qid} has no pending kernels")
        return self.instances[self.cursor]

    @property
    def remaining(self) -> tuple[KernelInstance, ...]:
        return self.instances[self.cursor:]

    def advance(self, now_ms: float) -> None:
        """Mark the current kernel complete."""
        if self.cursor >= len(self.instances):
            raise SchedulingError(f"query {self.qid} already complete")
        self.cursor += 1
        if self.cursor == len(self.instances):
            self.finish_ms = now_ms

    @property
    def latency_ms(self) -> float:
        if self.finish_ms is None:
            raise SchedulingError(f"query {self.qid} has not finished")
        return self.finish_ms - self.arrival_ms + self.penalty_ms


@dataclass
class BEApplication:
    """A best-effort application: an endless cyclic kernel stream.

    BE tasks have *random inputs* (Section VIII-C: "the opportune load
    ratio may not always be achieved due to the random inputs of BE
    tasks"), modelled by scaling each launch's grid by a factor drawn
    deterministically from ``input_scales``.  The scales are quantized
    so launch shapes repeat and stay memoizable.

    ``head`` is built once per retire: ``sequence[cursor % n]`` with its
    grid scaled by ``_scale_at(cursor)`` (the base instance itself at
    scale 1.0).  Scaled instances are shared per (sequence position,
    scale), so a stream builds at most one per input scale and position.

    ``completed_work_ms`` accumulates the *solo* duration of every
    completed kernel — the progress metric behind Eq. 10's throughput
    comparison (a fused completion contributes the same work as a solo
    completion, in less GPU time).
    """

    name: str
    sequence: tuple[KernelInstance, ...]
    memory_intensive: bool = False
    input_scales: tuple[float, ...] = (1.0,)
    #: index of the head kernel in the endless stream
    cursor: int = 0
    completed_kernels: int = field(default=0)
    completed_work_ms: float = field(default=0.0)
    #: the next kernel the stream wants to run (input-scaled)
    head: KernelInstance = field(init=False, repr=False, compare=False)
    #: (policy, model version, predicted ms) of ``head``, set by
    #: ``SchedulerPolicy.predict_head_ms`` and cleared on retire
    head_price: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )
    #: (sequence position, scale) -> scaled instance
    _scaled: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.sequence:
            raise SchedulingError(f"BE app {self.name} has no kernels")
        if not self.input_scales:
            raise SchedulingError(f"BE app {self.name} has no input scales")
        self.head = self._head_at(self.cursor)

    def _scale_at(self, cursor: int) -> float:
        digest = hashlib.sha256(
            f"be-input:{self.name}:{cursor}".encode()
        ).digest()
        return self.input_scales[
            int.from_bytes(digest[:4], "big") % len(self.input_scales)
        ]

    def _head_at(self, cursor: int) -> KernelInstance:
        position = cursor % len(self.sequence)
        scale = self._scale_at(cursor)
        if scale == 1.0:
            return self.sequence[position]
        instance = self._scaled.get((position, scale))
        if instance is None:
            base = self.sequence[position]
            instance = self._scaled[position, scale] = KernelInstance(
                base.kernel, max(1, round(base.grid * scale)), base.fusable
            )
        return instance

    def complete_head(self, solo_work_ms: float) -> None:
        """Retire the head kernel, crediting its solo-duration work, and
        build the next one."""
        self.cursor += 1
        self.completed_kernels += 1
        self.completed_work_ms += solo_work_ms
        self.head = self._head_at(self.cursor)
        self.head_price = None
