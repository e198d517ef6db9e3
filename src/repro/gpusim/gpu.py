"""Whole-kernel launches and co-run policies.

This module turns a kernel description into a duration by simulating a
*representative SM*: with PTB every SM hosts the same persistent-block
mix, and for plain grids the per-SM block share differs by at most one
block, so one SM (the most loaded one) bounds the kernel.  Simulating one
SM instead of 68 keeps the reproduction fast without changing any of the
paper's comparisons, all of which are ratios between schedules on the
same hardware.

Co-run policies model the co-running interfaces of Section VIII-G:

``corun_fused_launch``
    Tacker: one kernel, blocks containing both TC and CD warp branches.
``corun_spatial``
    MPS + PTB: the two kernels run on disjoint SM partitions.
``corun_concurrent``
    CUDA streams + PTB: blocks of both kernels co-reside on each SM when
    the leftover resources allow, otherwise execution degrades to serial.
``corun_serial``
    The non-preemptive baseline: strict time multiplexing (what Baymax
    produces, and the paper's Fig. 1 "false high utilization" pattern).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from ..audit import core as audit
from ..audit import des as audit_des
from ..config import GPUConfig
from ..errors import SimulationError
from . import fastpath
from .resources import BlockResources, blocks_per_sm
from .sm import BlockSpec, SMResult, SMSimulation
from .trace import Timeline, overlap_rate
from .warp import WarpProgram

#: PTB warp loops are repetitive (Fig. 12), so simulating more than this
#: many iterations per warp adds cost without adding information.  Longer
#: loops are truncated by an integer factor and the measured duration is
#: extrapolated linearly — exact in steady state, and within a couple of
#: percent even with warm-up effects included.
SIM_ITERATION_CAP = 96


@dataclass(frozen=True)
class KernelLaunch:
    """Everything the simulator needs to run one kernel.

    Attributes
    ----------
    name:
        Kernel identifier (for traces and error messages).
    kind:
        ``"tc"`` for Tensor-core kernels, ``"cd"`` for CUDA-core kernels,
        ``"mixed"`` for fused kernels.
    resources:
        Per-block explicit resource demand.
    grid_blocks:
        Original grid size (number of logical blocks of work).
    block_template:
        Warp programs of one block, keyed by branch label, with
        *per-original-block* iteration counts.
    persistent_blocks_per_sm:
        When set, the kernel is in PTB form: this many persistent blocks
        are issued per SM and the original blocks are distributed among
        them.  When ``None`` the kernel runs its raw grid in waves.
    """

    name: str
    kind: str
    resources: BlockResources
    grid_blocks: int
    block_template: dict[str, tuple[WarpProgram, ...]]
    persistent_blocks_per_sm: Optional[int] = None

    def __post_init__(self) -> None:
        if self.grid_blocks < 0:
            raise SimulationError("grid_blocks cannot be negative")
        if self.kind not in ("tc", "cd", "mixed"):
            raise SimulationError(f"unknown kernel kind {self.kind!r}")
        if not self.block_template:
            raise SimulationError("a kernel needs at least one warp group")
        if (
            self.persistent_blocks_per_sm is not None
            and self.persistent_blocks_per_sm <= 0
        ):
            raise SimulationError("persistent block count must be positive")

    @property
    def is_persistent(self) -> bool:
        return self.persistent_blocks_per_sm is not None

    def with_grid(self, grid_blocks: int) -> "KernelLaunch":
        """The same kernel on a different amount of work."""
        return replace(self, grid_blocks=grid_blocks)

    @cached_property
    def signature(self) -> str:
        """Digest of the whole launch (template, grid, PTB form, all of it).

        The launch is a tree of frozen dataclasses whose ``repr`` is
        deterministic — including exact float reprs — so the digest
        changes whenever anything the simulator reads changes.  It is
        computed on first use and kept on the instance (outside the
        fields, so equality, hashing and ``repr`` ignore it); ``with_grid``
        and ``dataclasses.replace`` build new instances that digest
        afresh.  The duration oracle keys launches by it.
        """
        return hashlib.sha256(repr(self).encode()).hexdigest()[:20]


@dataclass
class LaunchResult:
    """Outcome of a simulated kernel launch."""

    launch_name: str
    duration_cycles: float
    sm_result: SMResult
    waves: int

    def duration_ms(self, gpu: GPUConfig) -> float:
        return gpu.cycles_to_ms(self.duration_cycles)

    def pipe_timeline(self, pipe: str) -> Timeline:
        return self.sm_result.pipe_timelines[pipe]


@dataclass
class CoRunResult:
    """Outcome of co-running two kernels under some policy."""

    policy: str
    duration_cycles: float
    solo_a_cycles: float
    solo_b_cycles: float
    #: finish time of each component within the co-run
    finish_a_cycles: float
    finish_b_cycles: float

    @property
    def overlap(self) -> float:
        """Eq. 11 overlap rate of the co-run."""
        return overlap_rate(
            self.solo_a_cycles, self.solo_b_cycles, self.duration_cycles
        )


def run_blocks(gpu: GPUConfig, blocks: list[BlockSpec]) -> SMResult:
    """Simulate one SM's resident blocks via the cheapest capable engine.

    The vectorized analytic fast path covers every block-set shape —
    plain, barriered, multi-group and fused alike (it batches whole
    launch waves through closed-form cohort boundaries instead of
    per-warp heap events) — so the event engine only runs when the
    fast path is disabled or a future shape falls outside
    ``fastpath.SUPPORTED_SHAPES``.  Dispatch counts accumulate in
    ``fastpath.STATS`` by shape class and reject reason.

    Under auditing, sampled fast-path dispatches are re-run on the
    event engine and the two results compared (the differential check
    of :mod:`repro.audit` — live shapes, not just the static corpus),
    and every result's timelines are structurally validated.
    """
    auditing = audit.active()
    shape = fastpath.classify(blocks)
    if fastpath.enabled() and shape in fastpath.SUPPORTED_SHAPES:
        fastpath.STATS.count_fast(shape)
        result = fastpath.run_blocks(
            gpu.sm, gpu.bytes_per_cycle_per_sm, blocks
        )
        if auditing:
            if audit.take_engine_sample():
                engine_result = SMSimulation(
                    gpu.sm, gpu.bytes_per_cycle_per_sm
                ).run(blocks)
                audit_des.compare_engine_results(
                    result, engine_result, "run_blocks"
                )
            audit_des.check_sm_result(result, "fastpath")
        return result
    fastpath.STATS.count_engine(
        shape if fastpath.enabled() else fastpath.REASON_DISABLED
    )
    sim = SMSimulation(gpu.sm, gpu.bytes_per_cycle_per_sm)
    result = sim.run(blocks)
    if auditing:
        audit_des.check_sm_result(result, "engine")
    return result


def _assignments(total_work: int, workers: int) -> list[int]:
    """Round-robin split of ``total_work`` items over ``workers``."""
    base, extra = divmod(total_work, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def _persistent_blocks(
    launch: KernelLaunch, gpu: GPUConfig, blocks_on_sm: int
) -> list[BlockSpec]:
    """Build the resident blocks of one SM for a PTB kernel.

    Original blocks are distributed round-robin over all persistent
    blocks of the GPU; the simulated SM receives the largest shares, so
    its finish time bounds the kernel.
    """
    per_sm = launch.persistent_blocks_per_sm
    assert per_sm is not None
    total_persistent = per_sm * gpu.num_sms
    shares = _assignments(launch.grid_blocks, total_persistent)[:blocks_on_sm]
    blocks = []
    for share in shares:
        groups = {
            label: tuple(p.scaled_iterations(share) for p in programs)
            for label, programs in launch.block_template.items()
        }
        blocks.append(BlockSpec(groups))
    return blocks


def _cap_iterations(blocks: list[BlockSpec]) -> tuple[list[BlockSpec], int]:
    """Truncate over-long warp loops; returns (blocks, extrapolation factor)."""
    max_iters = max(
        (p.iterations for b in blocks for progs in b.warp_groups.values()
         for p in progs),
        default=0,
    )
    if max_iters <= SIM_ITERATION_CAP:
        return blocks, 1
    factor = -(-max_iters // SIM_ITERATION_CAP)
    capped = []
    for block in blocks:
        groups = {
            label: tuple(
                p.with_iterations(-(-p.iterations // factor) if p.iterations else 0)
                for p in progs
            )
            for label, progs in block.warp_groups.items()
        }
        capped.append(BlockSpec(groups))
    return capped, factor


def _scale_result(result: SMResult, factor: int) -> SMResult:
    """Extrapolate a truncated simulation by an integer factor."""
    if factor == 1:
        return result
    return SMResult(
        finish_time=result.finish_time * factor,
        pipe_timelines=result.pipe_timelines,
        pipe_slot_cycles={
            name: cycles * factor
            for name, cycles in result.pipe_slot_cycles.items()
        },
        group_finish={k: v * factor for k, v in result.group_finish.items()},
        bytes_served=result.bytes_served * factor,
    )


def _audit_occupancy(
    launch: KernelLaunch, gpu: GPUConfig, blocks: list[BlockSpec]
) -> None:
    """Check a resident block set against the SM's explicit limits."""
    total_warps = sum(b.total_warps for b in blocks)
    audit_des.check_sm_occupancy(
        gpu.sm, launch.resources, len(blocks), total_warps, launch.name
    )


#: In-memory launch-result memo: a test session or experiment sweep
#: re-simulates the same (launch, GPU) pair many times — solo baselines
#: inside every co-run policy, repeated fusion-search probes, model
#: training — and launches are frozen value objects whose results are
#: never mutated, so identical launches can share one result.  Keys are
#: the GPU's repr plus the launch's value digest (the signature the
#: oracle's persistent store keys by).  Bypassed under auditing so the
#: sampled fastpath-vs-engine differential always sees live simulations.
_RESULT_MEMO: OrderedDict[tuple[str, str], LaunchResult] = OrderedDict()
_RESULT_MEMO_CAP = 4096


def clear_result_memo() -> None:
    """Drop all memoized launch results (for tests and benchmarks)."""
    _RESULT_MEMO.clear()


def simulate_launch(launch: KernelLaunch, gpu: GPUConfig) -> LaunchResult:
    """Simulate one kernel on the GPU; returns its duration and traces.

    Results are memoized per (launch, GPU) value — see the memo note
    above; the returned object is shared, and consumers treat it as
    immutable.
    """
    if audit.active():
        return _simulate_launch(launch, gpu)
    key = (repr(gpu), launch.signature)
    hit = _RESULT_MEMO.get(key)
    if hit is not None:
        _RESULT_MEMO.move_to_end(key)
        return hit
    result = _simulate_launch(launch, gpu)
    _RESULT_MEMO[key] = result
    if len(_RESULT_MEMO) > _RESULT_MEMO_CAP:
        _RESULT_MEMO.popitem(last=False)
    return result


def _simulate_launch(launch: KernelLaunch, gpu: GPUConfig) -> LaunchResult:
    occupancy = blocks_per_sm(launch.resources, gpu.sm)

    if launch.grid_blocks == 0:
        empty = SMResult(0.0, {"cuda": Timeline(), "tensor": Timeline()},
                         {"cuda": 0.0, "tensor": 0.0}, {}, 0.0)
        return LaunchResult(launch.name, 0.0, empty, waves=0)

    if launch.is_persistent:
        per_sm = min(launch.persistent_blocks_per_sm, occupancy)
        blocks = _persistent_blocks(launch, gpu, per_sm)
        if audit.active():
            _audit_occupancy(launch, gpu, blocks)
        blocks, factor = _cap_iterations(blocks)
        result = _scale_result(run_blocks(gpu, blocks), factor)
        return LaunchResult(launch.name, result.finish_time, result, waves=1)

    per_sm_blocks = -(-launch.grid_blocks // gpu.num_sms)
    waves = -(-per_sm_blocks // occupancy)
    if launch.grid_blocks <= occupancy * gpu.num_sms:
        # The whole per-SM share is resident at once: simulate it exactly.
        blocks = [
            BlockSpec(dict(launch.block_template))
            for _ in range(per_sm_blocks)
        ]
        if audit.active():
            _audit_occupancy(launch, gpu, blocks)
        blocks, factor = _cap_iterations(blocks)
        result = _scale_result(run_blocks(gpu, blocks), factor)
        return LaunchResult(launch.name, result.finish_time, result, waves=1)

    # Steady flow: blocks stream onto the SM as resident blocks retire,
    # so throughput is set by one full-occupancy wave and the duration
    # scales continuously with the block count (no lockstep waves).
    full_wave = [
        BlockSpec(dict(launch.block_template)) for _ in range(occupancy)
    ]
    if audit.active():
        _audit_occupancy(launch, gpu, full_wave)
    full_wave, factor = _cap_iterations(full_wave)
    wave_result = _scale_result(run_blocks(gpu, full_wave), factor)
    scale = launch.grid_blocks / (occupancy * gpu.num_sms)
    duration = wave_result.finish_time * scale
    # Present the final wave's timelines at the end of the launch window
    # for trace consumers; totals are scaled to the whole launch.
    offset = duration - wave_result.finish_time
    stitched = SMResult(
        finish_time=duration,
        pipe_timelines={
            name: tl.shifted(offset)
            for name, tl in wave_result.pipe_timelines.items()
        },
        pipe_slot_cycles={
            name: cycles * scale
            for name, cycles in wave_result.pipe_slot_cycles.items()
        },
        group_finish={
            k: v + offset for k, v in wave_result.group_finish.items()
        },
        bytes_served=wave_result.bytes_served * scale,
    )
    return LaunchResult(launch.name, duration, stitched, waves=waves)


def corun_serial(
    a: KernelLaunch, b: KernelLaunch, gpu: GPUConfig
) -> CoRunResult:
    """Time-multiplexed execution: ``a`` then ``b`` (the Baymax pattern)."""
    res_a = simulate_launch(a, gpu)
    res_b = simulate_launch(b, gpu)
    total = res_a.duration_cycles + res_b.duration_cycles
    return CoRunResult(
        policy="serial",
        duration_cycles=total,
        solo_a_cycles=res_a.duration_cycles,
        solo_b_cycles=res_b.duration_cycles,
        finish_a_cycles=res_a.duration_cycles,
        finish_b_cycles=total,
    )


def corun_spatial(
    a: KernelLaunch,
    b: KernelLaunch,
    gpu: GPUConfig,
    fraction_a: float = 0.5,
) -> CoRunResult:
    """MPS-style spatial partitioning: disjoint SM subsets per kernel."""
    if not 0.0 < fraction_a < 1.0:
        raise SimulationError("fraction_a must be in (0, 1)")
    sms_a = max(1, min(gpu.num_sms - 1, round(gpu.num_sms * fraction_a)))
    part_a = gpu.with_sms(sms_a)
    part_b = gpu.with_sms(gpu.num_sms - sms_a)
    solo_a = simulate_launch(a, gpu).duration_cycles
    solo_b = simulate_launch(b, gpu).duration_cycles
    dur_a = simulate_launch(a, part_a).duration_cycles
    dur_b = simulate_launch(b, part_b).duration_cycles
    return CoRunResult(
        policy="spatial",
        duration_cycles=max(dur_a, dur_b),
        solo_a_cycles=solo_a,
        solo_b_cycles=solo_b,
        finish_a_cycles=dur_a,
        finish_b_cycles=dur_b,
    )


def corun_concurrent(
    a: KernelLaunch, b: KernelLaunch, gpu: GPUConfig
) -> CoRunResult:
    """Stream-style co-residency (the paper's Stream+PTB setup).

    Both kernels are launched in separate streams with their persistent
    issue halved so they *may* co-reside (the "extra synchronization +
    PTB" tuning of Section VIII-G); blocks of ``b`` then fill whatever
    explicit resources remain on each SM, exactly as the hardware block
    scheduler behaves.  When nothing of ``b`` fits (large-footprint
    kernels such as tpacf, cutcp, stencil) execution degrades to serial,
    which reproduces the unstable Stream results of Fig. 20.
    """
    if not (a.is_persistent and b.is_persistent):
        raise SimulationError("concurrent co-run requires PTB kernels")
    solo_a = simulate_launch(a, gpu).duration_cycles
    solo_b = simulate_launch(b, gpu).duration_cycles

    occ_a = min(a.persistent_blocks_per_sm, blocks_per_sm(a.resources, gpu.sm))
    share_a = max(1, occ_a // 2)

    def _fits(na: int, nb: int) -> bool:
        demand_threads = na * a.resources.threads + nb * b.resources.threads
        demand_regs = na * a.resources.registers + nb * b.resources.registers
        demand_shmem = (
            na * a.resources.shared_mem_bytes
            + nb * b.resources.shared_mem_bytes
        )
        return (
            demand_threads <= gpu.sm.max_threads
            and demand_regs <= gpu.sm.registers
            and demand_shmem <= gpu.sm.shared_mem_bytes
            and na + nb <= gpu.sm.max_blocks
        )

    share_b = max(
        1,
        min(b.persistent_blocks_per_sm,
            blocks_per_sm(b.resources, gpu.sm)) // 2,
    )
    while share_b > 0 and not _fits(share_a, share_b):
        share_b -= 1
    if share_b == 0:
        serial = corun_serial(a, b, gpu)
        return replace(serial, policy="concurrent")

    shrunken_a = replace(a, persistent_blocks_per_sm=share_a)
    shrunken_b = replace(b, persistent_blocks_per_sm=share_b)
    blocks = _persistent_blocks(shrunken_a, gpu, share_a)
    blocks += _persistent_blocks(shrunken_b, gpu, share_b)
    blocks, factor = _cap_iterations(blocks)
    result = _scale_result(run_blocks(gpu, blocks), factor)
    finish_a = max(
        t for (i, _), t in result.group_finish.items() if i < share_a
    )
    finish_b = max(
        t for (i, _), t in result.group_finish.items() if i >= share_a
    )
    return CoRunResult(
        policy="concurrent",
        duration_cycles=result.finish_time,
        solo_a_cycles=solo_a,
        solo_b_cycles=solo_b,
        finish_a_cycles=finish_a,
        finish_b_cycles=finish_b,
    )


def corun_fused_launch(
    fused: KernelLaunch,
    gpu: GPUConfig,
    solo_a_cycles: float,
    solo_b_cycles: float,
) -> CoRunResult:
    """Run a Tacker-fused kernel and report it as a co-run."""
    if fused.kind != "mixed":
        raise SimulationError("corun_fused_launch expects a fused kernel")
    result = simulate_launch(fused, gpu)
    finish = {"tc": 0.0, "cd": 0.0}
    for (_, group), time in result.sm_result.group_finish.items():
        if group in finish:
            finish[group] = max(finish[group], time)
    return CoRunResult(
        policy="fused",
        duration_cycles=result.duration_cycles,
        solo_a_cycles=solo_a_cycles,
        solo_b_cycles=solo_b_cycles,
        finish_a_cycles=finish["tc"] or result.duration_cycles,
        finish_b_cycles=finish["cd"] or result.duration_cycles,
    )
