"""Cohort-granular fast path for resident block sets.

Every kernel launch — plain, barriered, multi-group and fused alike —
simulates blocks whose warps move in *cohorts*: warps that enter a pipe
together leave it together (equal service demand), join the memory
system together and — because processor sharing drains equal-sized
transfers identically — complete their transfers together.  Barriers do
not break the cohort property; they *restore* it: all fragments of a
warp group re-align to the max phase-end at every ``bar.sync``, exactly
as the event engine computes it event-by-event.

This module exploits that: instead of one heap event per warp per
segment, it advances whole cohorts ("fragments") through closed-form
phase boundaries

* pipe phase: ``t_end = t_start + cycles`` for every member at once;
* memory phase: piecewise-linear drain at ``bandwidth / n_transfers``,
  next boundary ``t = last_update + min_remaining / rate``;
* barrier phase: arrivals accumulate per block-local barrier; the
  filling arrival releases the waiting cohorts at its own timestamp
  (the cohort re-synchronization boundary);

replicating the event engine's arithmetic operation-for-operation, so
durations agree with :class:`~repro.gpusim.sm.SMSimulation` to within
floating-point noise (the equivalence suite asserts < 1e-9 relative
error across the kernel corpus, barriered and fused shapes included,
and pins the fast path's own output bit for bit).

The loop is kept lean because every cold oracle lookup runs it: events
whose time is fixed when they are scheduled — pipe completions,
latency-stage arrivals, barrier releases — share one heap, the memory
system's moving completion sits beside it, fragments step through
compiled int opcodes, and the memory mirror holds plain lists (the
widest active set over the gpusim, fusion and predictor tests is 16
fragments, too few for vectorized sweeps to pay).

The dispatcher in :mod:`repro.gpusim.gpu` routes any block-set shape
outside :data:`SUPPORTED_SHAPES` to the event engine and records the
reject reason in :data:`STATS`, so coverage regressions are visible in
``report --perf``.  Under auditing, sampled fast-path dispatches are
re-run on the event engine and compared (see :mod:`repro.audit`).

The paper's analogue is its offline/online split (Section VIII-I): all
expensive preparation happens ahead of time so the recurring path is
cheap.  Here the recurring path is the kernel simulation behind every
oracle lookup, profiling sweep and co-location run.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

from ..config import SMConfig
from ..errors import SimulationError
from ..telemetry import core as telemetry
from .sm import BlockSpec, SMResult
from .trace import Timeline
from .warp import ComputeSegment, MemorySegment, SyncSegment

#: Matches the completion epsilon of :mod:`repro.gpusim.memory`.
_EPS = 1e-9

#: Environment switch: set REPRO_FASTPATH=0 to force the event engine.
FASTPATH_ENV = "REPRO_FASTPATH"

#: Block-set shape classes, from narrowest to widest.
SHAPE_PLAIN = "plain"              # single-group, barrier-free
SHAPE_BARRIER = "barrier"          # single-group with bar.sync
SHAPE_MULTI_GROUP = "multi-group"  # multiple warp groups, barrier-free
SHAPE_FUSED = "fused"              # multiple warp groups with bar.sync
SHAPES = (SHAPE_PLAIN, SHAPE_BARRIER, SHAPE_MULTI_GROUP, SHAPE_FUSED)

#: Shape classes the cohort model covers.  A shape removed from this set
#: routes back to the event engine and shows up as a reject reason in
#: ``STATS.rejects`` — the coverage-regression signal ``report --perf``
#: prints.
SUPPORTED_SHAPES = frozenset(SHAPES)

#: Reject reason recorded when REPRO_FASTPATH=0 forces the engine.
REASON_DISABLED = "disabled"


@dataclass
class FastPathStats:
    """Process-wide dispatch counters (surfaced by the report/CLI).

    ``fast_by_shape`` breaks accepted dispatches down by block-set shape
    class and ``rejects`` counts engine fallbacks by reason — either a
    shape outside :data:`SUPPORTED_SHAPES` or ``"disabled"`` when the
    environment kill switch forced the event engine.
    """

    fast: int = 0
    engine: int = 0
    fast_by_shape: dict = field(default_factory=dict)
    rejects: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.fast + self.engine

    @property
    def fast_fraction(self) -> float:
        return self.fast / self.total if self.total else 0.0

    def count_fast(self, shape: str) -> None:
        self.fast += 1
        self.fast_by_shape[shape] = self.fast_by_shape.get(shape, 0) + 1

    def count_engine(self, reason: str) -> None:
        self.engine += 1
        self.rejects[reason] = self.rejects.get(reason, 0) + 1

    def reset(self) -> None:
        self.fast = 0
        self.engine = 0
        self.fast_by_shape = {}
        self.rejects = {}


#: Global dispatch statistics, reset with ``STATS.reset()``.
STATS = FastPathStats()


def enabled() -> bool:
    """Whether fast-path dispatch is allowed (REPRO_FASTPATH toggle)."""
    return os.environ.get(FASTPATH_ENV, "") not in ("0", "false", "off")


def classify(blocks: list[BlockSpec]) -> str:
    """Shape class of a block set (one of :data:`SHAPES`)."""
    multi_group = False
    has_sync = False
    for block in blocks:
        if len(block.warp_groups) != 1:
            multi_group = True
        for programs in block.warp_groups.values():
            for program in programs:
                for segment in program.segments:
                    if isinstance(segment, SyncSegment):
                        has_sync = True
                        break
    if multi_group:
        return SHAPE_FUSED if has_sync else SHAPE_MULTI_GROUP
    return SHAPE_BARRIER if has_sync else SHAPE_PLAIN


def supported(blocks: list[BlockSpec]) -> bool:
    """True when the cohort model covers the block set's shape."""
    return classify(blocks) in SUPPORTED_SHAPES


#: Compiled segment opcodes (``_Frag.ops`` entries, see ``_compile``).
_OP_COMPUTE = 0
_OP_MEMORY = 1
_OP_SYNC = 2

#: Event kinds of the main loop.
_EV_PIPE = 0
_EV_RELEASE = 1
_EV_LATENCY = 2


class _Frag:
    """A cohort of warps marching through the same program in lockstep.

    ``ops`` is the warp program compiled to plain tuples —
    ``(_OP_COMPUTE, pipe_state, cycles)``, ``(_OP_MEMORY, nbytes)`` or
    ``(_OP_SYNC, barrier_id, count)`` — so the event loop dispatches on
    an int instead of an ``isinstance`` chain, with every float taken
    verbatim from the segment (no arithmetic, so nothing can drift from
    the event engine).
    """

    __slots__ = (
        "size", "ops", "iterations", "iteration", "seg_index", "key",
    )

    def __init__(self, size, ops, iterations, key):
        self.size = size
        self.ops = ops
        self.iterations = iterations
        self.iteration = 0
        #: the op in flight; -1 until the kickoff dispatches op 0
        self.seg_index = -1
        #: (block index, group label) for finish attribution and barriers
        self.key = key

    def split(self, head_size: int) -> "_Frag":
        """Carve ``head_size`` members off the front; returns the head."""
        head = _Frag(head_size, self.ops, self.iterations, self.key)
        head.iteration = self.iteration
        head.seg_index = self.seg_index
        self.size -= head_size
        return head


class _PipeState:
    """FIFO pipe mirror: busy slots, and cohorts waiting for one in the
    order the engine's per-warp deque would hold them."""

    __slots__ = ("width", "busy", "waiting", "timeline", "slot_cycles")

    def __init__(self, width: int):
        self.width = width
        self.busy = 0
        self.waiting: deque[_Frag] = deque()
        self.timeline = Timeline()
        self.slot_cycles = 0.0


class _MemMirror:
    """Processor-sharing drain over a parallel remaining-bytes list.

    Mirrors :class:`~repro.gpusim.memory.MemorySystem` at cohort
    granularity: ``rem[i]`` is the per-member remaining byte count of
    fragment ``frags[i]``; all members share the bandwidth equally, so
    one subtraction sweep advances every transfer.  ``next_time`` is the
    pending completion (with ``seq``, the engine's completion-event
    handle, reallocated on every active-set change so tie-breaks match);
    it is recomputed whenever the active set changes.
    """

    __slots__ = ("bandwidth", "frags", "rem", "members", "last_update",
                 "seq", "next_time", "bytes_served")

    def __init__(self, bandwidth: float):
        self.bandwidth = bandwidth
        self.frags: list[_Frag] = []
        self.rem: list[float] = []
        #: total member transfers sharing the bandwidth
        self.members = 0
        self.last_update = 0.0
        self.seq = 0
        self.next_time = 0.0
        self.bytes_served = 0.0

    def _advance(self, now: float) -> None:
        elapsed = now - self.last_update
        if elapsed > 0 and self.rem:
            rate = self.bandwidth / self.members
            drained = rate * elapsed
            self.rem = [r - drained for r in self.rem]
            self.bytes_served += drained * self.members
        self.last_update = now

    def _rekey(self, seq: int) -> None:
        self.seq = seq
        if self.rem:
            shortest = min(self.rem)
            if shortest < 0.0:
                shortest = 0.0
            rate = self.bandwidth / self.members
            self.next_time = self.last_update + shortest / rate

    def join(self, frag: _Frag, nbytes: float, now: float, seq: int) -> None:
        """Advance to ``now`` and add a transfer of ``nbytes`` per member."""
        self._advance(now)
        self.rem.append(nbytes)
        self.frags.append(frag)
        self.members += frag.size
        self._rekey(seq)

    def complete(self, now: float, seq: int) -> list[_Frag]:
        """Advance to ``now`` and detach the completed fragments, in order.

        When rounding leaves no transfer at zero, one member of the
        nearest fragment is nudged over the line, exactly as the event
        engine does (its nudge is per-transfer, so a multi-warp fragment
        sheds a single member).
        """
        self._advance(now)
        rem = self.rem
        frags = self.frags
        shortest = min(rem)
        if shortest <= _EPS:
            # Done fragments detach in list order, survivors keep theirs.
            done = []
            index = 0
            while index < len(rem):
                if rem[index] <= _EPS:
                    del rem[index]
                    frag = frags.pop(index)
                    self.members -= frag.size
                    done.append(frag)
                else:
                    index += 1
        else:
            # Numerical shortfall: nudge the first nearest transfer.
            nearest = rem.index(shortest)
            frag = frags[nearest]
            self.members -= 1
            if frag.size > 1:
                done = [frag.split(1)]
            else:
                done = [frag]
                del frags[nearest]
                del rem[nearest]
        self._rekey(seq)
        return done


class _BarrierMirror:
    """One block-local ``bar.sync`` instance at cohort granularity."""

    __slots__ = ("count", "waiting", "arrived")

    def __init__(self, count: int):
        self.count = count
        self.waiting: list[_Frag] = []
        self.arrived = 0


class _FastSimulation:
    """Fragment-granular replica of the event engine's dynamics.

    Pipe completions, latency-stage arrivals and barrier releases are
    fixed once scheduled, so they share one heap of ``(time, seq, kind,
    frag, arg)`` entries; only the memory completion moves as transfers
    join and leave, so it is kept beside the heap.  Sequence numbers are
    allocated exactly where the engine schedules its events and are
    unique, so ``(time, seq)`` orders every event totally, as in the
    engine.
    """

    def __init__(self, sm: SMConfig, bandwidth: float):
        self._latency = sm.mem_latency_cycles
        self._seq = 0
        self.pipes = {
            "cuda": _PipeState(sm.cuda_pipe_width),
            "tensor": _PipeState(sm.tensor_pipe_width),
        }
        self.events: list[tuple] = []
        self.memory = _MemMirror(bandwidth)
        self.barriers: dict[tuple[int, int], _BarrierMirror] = {}
        self.group_finish: dict[tuple[int, str], float] = {}
        self.group_pending: dict[tuple[int, str], int] = {}
        self.finish = 0.0

    def _alloc(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _start_service(self, pipe: _PipeState, frag: _Frag,
                       now: float) -> None:
        cycles = frag.ops[frag.seg_index][2]
        if pipe.busy == 0:
            pipe.timeline.open(now)
        pipe.busy += frag.size
        pipe.slot_cycles += cycles * frag.size
        seq = self._seq
        self._seq = seq + 1
        heappush(self.events, (now + cycles, seq, _EV_PIPE, frag, pipe))

    def _arrive_barrier(self, frag: _Frag, barrier_id: int, count: int,
                        now: float) -> None:
        """Process a cohort's arrival as ``size`` sequential arrivals.

        The engine sees one arrival per warp and releases the waiting
        set the instant the count-th arrives; a cohort larger than the
        remaining capacity therefore splits — the filling head releases
        with this round, the tail opens the next one.
        """
        key = (frag.key[0], barrier_id)
        barrier = self.barriers.get(key)
        if barrier is None:
            barrier = _BarrierMirror(count)
            self.barriers[key] = barrier
        if count != barrier.count:
            raise SimulationError(
                "warps disagree on bar.sync count "
                f"({count} vs {barrier.count}); "
                "fused-kernel codegen bug"
            )
        while True:
            space = barrier.count - barrier.arrived
            if frag.size < space:
                barrier.waiting.append(frag)
                barrier.arrived += frag.size
                return
            head = frag if frag.size == space else frag.split(space)
            barrier.waiting.append(head)
            released = barrier.waiting
            barrier.waiting = []
            barrier.arrived = 0
            for cohort in released:
                heappush(self.events,
                         (now, self._alloc(), _EV_RELEASE, cohort, None))
            if head is frag:
                return

    def _proceed(self, frag: _Frag, now: float) -> None:
        """Step a fragment's cursor and send it to whatever serves its
        next op, or retire it when its loop is done."""
        index = frag.seg_index + 1
        ops = frag.ops
        if index == len(ops):
            frag.iteration += 1
            if frag.iteration >= frag.iterations:
                key = frag.key
                self.group_pending[key] -= frag.size
                if now > self.group_finish[key]:
                    self.group_finish[key] = now
                return
            index = 0
        frag.seg_index = index
        op = ops[index]
        kind = op[0]
        if kind == _OP_COMPUTE:
            pipe = op[1]
            free = pipe.width - pipe.busy
            if free <= 0:
                pipe.waiting.append(frag)
            elif frag.size <= free:
                self._start_service(pipe, frag, now)
            else:
                self._start_service(pipe, frag.split(free), now)
                pipe.waiting.append(frag)
        elif kind == _OP_MEMORY:
            seq = self._seq
            self._seq = seq + 1
            heappush(self.events, (now + self._latency, seq, _EV_LATENCY,
                                   frag, op[1]))
        else:
            self._arrive_barrier(frag, op[1], op[2], now)

    def run(self, fragments: list[_Frag]) -> None:
        proceed = self._proceed
        for frag in fragments:
            self._alloc()  # the engine's per-warp kickoff event
            proceed(frag, 0.0)
        max_steps = 10_000_000
        steps = 0
        finish = self.finish
        events = self.events
        memory = self.memory
        start_service = self._start_service
        while True:
            # the memory completion fires when its (time, seq) is the
            # smallest, else the heap's head does
            if memory.rem and (
                not events
                or memory.next_time < events[0][0]
                or memory.next_time == events[0][0]
                and memory.seq < events[0][1]
            ):
                now = memory.next_time
                seq = self._seq
                self._seq = seq + 1
                done = memory.complete(now, seq)
                if now > finish:
                    finish = now
                for frag in done:
                    proceed(frag, now)
            elif events:
                now, _, kind, frag, arg = heappop(events)
                if now > finish:
                    finish = now
                if kind == _EV_PIPE:
                    arg.busy -= frag.size
                    # Admit up to one waiting warp per freed slot.
                    slots = frag.size
                    waiting = arg.waiting
                    while slots > 0 and waiting:
                        head = waiting[0]
                        if head.size <= slots:
                            waiting.popleft()
                            slots -= head.size
                            start_service(arg, head, now)
                        else:
                            start_service(arg, head.split(slots), now)
                            slots = 0
                    if arg.busy == 0:
                        arg.timeline.close(now)
                    proceed(frag, now)
                elif kind == _EV_RELEASE or arg <= _EPS:
                    # a released cohort, or a zero-byte transfer, which
                    # bypasses the bandwidth server
                    proceed(frag, now)
                else:
                    seq = self._seq
                    self._seq = seq + 1
                    memory.join(frag, arg, now, seq)
            else:
                break
            steps += 1
            if steps > max_steps:
                raise SimulationError(
                    f"fast path exceeded {max_steps} steps; "
                    "likely a livelock in the modelled kernel"
                )
        self.finish = finish
        stuck = [
            key for key, pending in self.group_pending.items() if pending > 0
        ]
        if stuck:
            raise SimulationError(
                f"warp groups never finished: {stuck}; "
                "a barrier is unsatisfiable (deadlocked fused kernel)"
            )


def _compile(sim: _FastSimulation, segments, cache: dict):
    """Compile a segment tuple to opcodes (see ``_Frag``), memoized."""
    ops = cache.get(id(segments))
    if ops is not None:
        return ops
    compiled = []
    for segment in segments:
        if isinstance(segment, ComputeSegment):
            compiled.append(
                (_OP_COMPUTE, sim.pipes[segment.pipe], segment.cycles)
            )
        elif isinstance(segment, MemorySegment):
            compiled.append((_OP_MEMORY, float(segment.nbytes)))
        elif isinstance(segment, SyncSegment):
            compiled.append((_OP_SYNC, segment.barrier_id, segment.count))
        else:  # pragma: no cover - exhaustive over Segment union
            raise SimulationError(f"unknown segment {segment!r}")
    ops = tuple(compiled)
    cache[id(segments)] = ops
    return ops


def _fragments(sim: _FastSimulation, blocks: list[BlockSpec]) -> list[_Frag]:
    """Contiguous runs of identical warp programs, in engine warp order."""
    fragments: list[_Frag] = []
    group_finish = sim.group_finish
    group_pending = sim.group_pending
    ops_cache: dict = {}
    for block_index, block in enumerate(blocks):
        for group, programs in block.warp_groups.items():
            key = (block_index, group)
            group_finish[key] = 0.0
            group_pending[key] = 0
            run_start = 0
            for i in range(1, len(programs) + 1):
                if (
                    i == len(programs)
                    or programs[i].segments is not programs[run_start].segments
                    and programs[i].segments != programs[run_start].segments
                    or programs[i].iterations != programs[run_start].iterations
                ):
                    prog = programs[run_start]
                    if prog.iterations > 0 and prog.segments:
                        size = i - run_start
                        group_pending[key] += size
                        fragments.append(_Frag(
                            size,
                            _compile(sim, prog.segments, ops_cache),
                            prog.iterations, key,
                        ))
                    run_start = i
    return fragments


def run_blocks(sm: SMConfig, bandwidth_bytes_per_cycle: float,
               blocks: list[BlockSpec]) -> SMResult:
    """Fast-path equivalent of :meth:`SMSimulation.run`.

    Only call for block sets accepted by :func:`supported`; the result
    matches the event engine's within floating-point noise.
    """
    total_warps = sum(b.total_warps for b in blocks)
    if total_warps > sm.max_warps:
        raise SimulationError(
            f"{total_warps} resident warps exceed the SM's "
            f"{sm.max_warps} warp slots; occupancy bug upstream"
        )
    sim = _FastSimulation(sm, bandwidth_bytes_per_cycle)
    sim.run(_fragments(sim, blocks))
    finish = sim.finish
    if telemetry.active():
        telemetry.sim_span(
            "fastpath.run", 0.0, finish, blocks=len(blocks),
        )
    for pipe in sim.pipes.values():
        pipe.timeline.close(finish)
    return SMResult(
        finish_time=finish,
        pipe_timelines={n: p.timeline for n, p in sim.pipes.items()},
        pipe_slot_cycles={n: p.slot_cycles for n, p in sim.pipes.items()},
        group_finish=sim.group_finish,
        bytes_served=sim.memory.bytes_served,
    )
