"""Kernel fusion: splicing a TC kernel and a CD kernel into one kernel.

Two fusion modes, as in the paper:

* **Direct fusion** (Section V-A, Fig. 5): block-for-block splicing of
  the original kernels.  It needs both grid sizes at compile time and
  its fused block pays the *sum* of both footprints, which usually
  halves occupancy and erases the benefit (Fig. 3).  We implement it as
  the baseline the paper argues against.
* **Flexible PTB fusion** (Sections V-B/V-C, Fig. 8): both kernels are
  first PTB-transformed, then ``tc_copies`` TC blocks and ``cd_copies``
  CD blocks are folded into one fused block.  TC blocks are packed
  first — Tensor cores are the more powerful unit, so preserving the TC
  kernel's throughput takes priority — and CD blocks fill the leftover
  explicit resources.

Every ``__syncthreads()`` of a component becomes a partial ``bar.sync``
with a branch-copy-local id (:mod:`~repro.fusion.sync`), so copies never
wait on each other.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from ..config import GPUConfig
from ..errors import FusionError
from ..gpusim.gpu import (
    CoRunResult,
    KernelLaunch,
    corun_fused_launch,
    simulate_launch,
)
from ..gpusim.resources import BlockResources, blocks_per_sm, fits
from ..gpusim.warp import WarpProgram
from ..kernels.ir import KernelIR
from ..kernels.source import KernelSource, SourceLine, SyncPoint, THREAD_IDX
from .ptb import PTBKernel
from .sync import BarrierAllocator


def _assignments(total_work: int, workers: int) -> list[int]:
    base, extra = divmod(total_work, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def _branch_source_lines(
    source: KernelSource,
    allocator: BarrierAllocator,
    branch: str,
    copy: int,
    warps: int,
    thread_lo: int,
    thread_hi: int,
    indent: str = "    ",
) -> list[str]:
    """Render one branch copy of the fused kernel body (Fig. 5 shape)."""
    keyword = "if" if thread_lo == 0 else "} else if"
    lines = [f"{keyword} ({THREAD_IDX} < {thread_hi}) {{"]
    if thread_lo > 0:
        lines.append(f"{indent}int thread_id = {THREAD_IDX} - {thread_lo};")
    sync_index = 0
    for stmt in source.body:
        if isinstance(stmt, SyncPoint):
            lines.append(
                indent + allocator.sync_text(branch, copy, sync_index, warps)
            )
            sync_index += 1
        else:
            text = stmt.text
            if thread_lo > 0:
                text = text.replace(THREAD_IDX, "thread_id")
            lines.append(indent + text)
    return lines


@dataclass(frozen=True)
class FusedKernel:
    """A compiled flexible fusion of one TC and one CD kernel.

    The artifact is *static*: the fused block layout, barrier ids and
    source are fixed offline.  Only the two ``original_block_num``
    parameters vary at run time, which :meth:`launch` folds into the
    per-warp iteration counts.
    """

    name: str
    tc: PTBKernel
    cd: PTBKernel
    tc_copies: int
    cd_copies: int
    resources: BlockResources
    persistent_blocks_per_sm: int
    num_sms: int
    tc_programs: tuple[WarpProgram, ...]
    cd_programs: tuple[WarpProgram, ...]
    source: KernelSource

    @cached_property
    def signature(self) -> str:
        """Digest of the artifact's name and both component kernels —
        the oracle's fused-record key, computed once per artifact."""
        payload = f"{self.name}|{self.tc.ir.signature}|{self.cd.ir.signature}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @property
    def tc_workers(self) -> int:
        """GPU-wide persistent TC block copies."""
        return self.tc_copies * self.persistent_blocks_per_sm * self.num_sms

    @property
    def cd_workers(self) -> int:
        return self.cd_copies * self.persistent_blocks_per_sm * self.num_sms

    def launch(self, tc_grid: int, cd_grid: int) -> KernelLaunch:
        """Instantiate the fused kernel for concrete input sizes.

        Each branch copy inside the simulated (worst-case) fused block
        receives its share of original blocks; the share multiplies the
        copy's per-block iteration count.  One launch object per grid
        pair is memoized on the artifact.
        """
        if tc_grid < 0 or cd_grid < 0:
            raise FusionError("grid sizes cannot be negative")
        memo = self.__dict__.setdefault("_launches", {})
        launch = memo.get((tc_grid, cd_grid))
        if launch is None:
            launch = memo[(tc_grid, cd_grid)] = self._launch(tc_grid, cd_grid)
        return launch

    def _launch(self, tc_grid: int, cd_grid: int) -> KernelLaunch:
        per_block_copies_tc = self.tc_copies
        per_block_copies_cd = self.cd_copies
        tc_shares = _assignments(tc_grid, self.tc_workers)[:per_block_copies_tc]
        cd_shares = _assignments(cd_grid, self.cd_workers)[:per_block_copies_cd]

        warps_tc = self.tc.ir.warps_per_block
        warps_cd = self.cd.ir.warps_per_block
        tc_progs = tuple(
            prog.scaled_iterations(tc_shares[i // warps_tc])
            for i, prog in enumerate(self.tc_programs)
        )
        cd_progs = tuple(
            prog.scaled_iterations(cd_shares[i // warps_cd])
            for i, prog in enumerate(self.cd_programs)
        )
        return KernelLaunch(
            name=self.name,
            kind="mixed",
            resources=self.resources,
            grid_blocks=self.persistent_blocks_per_sm * self.num_sms,
            block_template={"tc": tc_progs, "cd": cd_progs},
            persistent_blocks_per_sm=self.persistent_blocks_per_sm,
        )

    def corun(
        self, gpu: GPUConfig, tc_grid: int, cd_grid: int
    ) -> CoRunResult:
        """Simulate the fused kernel and report solo/fused durations."""
        solo_tc = simulate_launch(self.tc.launch(tc_grid), gpu).duration_cycles
        solo_cd = simulate_launch(self.cd.launch(cd_grid), gpu).duration_cycles
        return corun_fused_launch(
            self.launch(tc_grid, cd_grid), gpu, solo_tc, solo_cd
        )


def flexible_fuse(
    tc: PTBKernel,
    cd: PTBKernel,
    gpu: GPUConfig,
    tc_copies: int,
    cd_copies: int,
    persistent_blocks_per_sm: int = 1,
) -> FusedKernel:
    """Fuse ``tc_copies`` TC blocks with ``cd_copies`` CD blocks (Fig. 8).

    Raises :class:`FusionError` when the fused block does not fit on the
    SM — the condition under which Tacker refuses to fuse (VIII-I).
    """
    if tc.ir.kind != "tc" or cd.ir.kind != "cd":
        raise FusionError(
            "flexible_fuse expects (tensor kernel, cuda kernel), got "
            f"({tc.ir.kind}, {cd.ir.kind})"
        )
    if tc_copies < 1 or cd_copies < 1:
        raise FusionError("both branches need at least one block copy")
    fused_res = tc.ir.resources.scaled(tc_copies).combined(
        cd.ir.resources.scaled(cd_copies)
    )
    if not fits(fused_res, gpu.sm):
        raise FusionError(
            f"fused block ({tc.ir.name} x{tc_copies} + {cd.ir.name} "
            f"x{cd_copies}) exceeds SM resources"
        )
    max_per_sm = blocks_per_sm(fused_res, gpu.sm)
    per_sm = min(persistent_blocks_per_sm, max_per_sm)

    allocator = BarrierAllocator()
    tc_programs: list[WarpProgram] = []
    for copy in range(tc_copies):
        body = allocator.rewrite_segments(
            tc.ir.body, "tc", copy, tc.ir.warps_per_block
        )
        program = WarpProgram(body, tc.ir.iters_per_block)
        tc_programs.extend([program] * tc.ir.warps_per_block)
    cd_programs: list[WarpProgram] = []
    for copy in range(cd_copies):
        body = allocator.rewrite_segments(
            cd.ir.body, "cd", copy, cd.ir.warps_per_block
        )
        program = WarpProgram(body, cd.ir.iters_per_block)
        cd_programs.extend([program] * cd.ir.warps_per_block)

    name = f"fused_{tc.ir.name}_{cd.ir.name}_{tc_copies}x{cd_copies}"
    source = _fused_source(name, tc, cd, tc_copies, cd_copies, allocator)
    return FusedKernel(
        name=name,
        tc=tc,
        cd=cd,
        tc_copies=tc_copies,
        cd_copies=cd_copies,
        resources=fused_res,
        persistent_blocks_per_sm=per_sm,
        num_sms=gpu.num_sms,
        tc_programs=tuple(tc_programs),
        cd_programs=tuple(cd_programs),
        source=source,
    )


def _fused_source(
    name: str,
    tc: PTBKernel,
    cd: PTBKernel,
    tc_copies: int,
    cd_copies: int,
    allocator: BarrierAllocator,
) -> KernelSource:
    """Emit the fused kernel's source (the Fig. 5 branch ladder)."""
    lines: list[str] = []
    threads_tc = tc.ir.resources.threads
    threads_cd = cd.ir.resources.threads
    lo = 0
    for copy in range(tc_copies):
        hi = lo + threads_tc
        lines.extend(
            _branch_source_lines(
                tc.source, allocator, "tc", copy,
                tc.ir.warps_per_block, lo, hi,
            )
        )
        lo = hi
    for copy in range(cd_copies):
        hi = lo + threads_cd
        lines.extend(
            _branch_source_lines(
                cd.source, allocator, "cd", copy,
                cd.ir.warps_per_block, lo, hi,
            )
        )
        lo = hi
    lines.append("}")
    params = tuple(f"tc_{p}" for p in tc.source.params) + tuple(
        f"cd_{p}" for p in cd.source.params
    )
    return KernelSource(
        name=name,
        params=params,
        body=tuple(SourceLine(text) for text in lines),
    )


@dataclass(frozen=True)
class DirectFusion:
    """A direct (non-PTB) fusion, kept as the paper's strawman.

    Blocks with id below ``min(tc_grid, cd_grid)`` run both branches;
    the surplus blocks of the larger grid run their branch alone.  The
    grids are burned into the binary, which is exactly the limitation
    the PTB transform removes.  Barriers are branch-local ``bar.sync``
    partial barriers, as in the flexible form.
    """

    name: str
    tc: KernelIR
    cd: KernelIR
    source: KernelSource
    tc_program: WarpProgram
    cd_program: WarpProgram

    @property
    def resources(self) -> BlockResources:
        return self.tc.resources.combined(self.cd.resources)

    def simulate(
        self, gpu: GPUConfig, tc_grid: int, cd_grid: int
    ) -> CoRunResult:
        """Duration of the direct fused kernel at fixed grid sizes."""
        if not fits(self.resources, gpu.sm):
            raise FusionError(
                f"direct fusion {self.name} does not fit on one SM"
            )
        solo_tc = simulate_launch(self.tc.launch(tc_grid), gpu).duration_cycles
        solo_cd = simulate_launch(self.cd.launch(cd_grid), gpu).duration_cycles

        shared = min(tc_grid, cd_grid)
        dual = KernelLaunch(
            name=self.name,
            kind="mixed",
            resources=self.resources,
            grid_blocks=shared,
            block_template={
                "tc": (self.tc_program,) * self.tc.warps_per_block,
                "cd": (self.cd_program,) * self.cd.warps_per_block,
            },
        )
        duration = simulate_launch(dual, gpu).duration_cycles
        finish_tc = finish_cd = duration
        if tc_grid > shared:
            # The fused binary still reserves both footprints per block.
            tail = KernelLaunch(
                name=f"{self.name}_tc_tail",
                kind="mixed",
                resources=self.resources,
                grid_blocks=tc_grid - shared,
                block_template={
                    "tc": (self.tc_program,) * self.tc.warps_per_block
                },
            )
            duration += simulate_launch(tail, gpu).duration_cycles
            finish_tc = duration
        elif cd_grid > shared:
            tail = KernelLaunch(
                name=f"{self.name}_cd_tail",
                kind="mixed",
                resources=self.resources,
                grid_blocks=cd_grid - shared,
                block_template={
                    "cd": (self.cd_program,) * self.cd.warps_per_block
                },
            )
            duration += simulate_launch(tail, gpu).duration_cycles
            finish_cd = duration
        return CoRunResult(
            policy="direct-fused",
            duration_cycles=duration,
            solo_a_cycles=solo_tc,
            solo_b_cycles=solo_cd,
            finish_a_cycles=finish_tc,
            finish_b_cycles=finish_cd,
        )


def direct_fuse(tc: KernelIR, cd: KernelIR) -> DirectFusion:
    """Build the direct fusion of two kernels (Fig. 5)."""
    if tc.kind != "tc" or cd.kind != "cd":
        raise FusionError(
            f"direct_fuse expects (tc, cd) kernels, got ({tc.kind}, {cd.kind})"
        )
    allocator = BarrierAllocator()
    name = f"direct_{tc.name}_{cd.name}"
    lines = _branch_source_lines(
        tc.source, allocator, "tc", 0, tc.warps_per_block,
        0, tc.resources.threads,
    )
    lines += _branch_source_lines(
        cd.source, allocator, "cd", 0, cd.warps_per_block,
        tc.resources.threads, tc.resources.threads + cd.resources.threads,
    )
    lines.append("}")
    params = tuple(f"tc_{p}" for p in tc.source.params) + tuple(
        f"cd_{p}" for p in cd.source.params
    )
    source = KernelSource(
        name=name, params=params,
        body=tuple(SourceLine(t) for t in lines),
    )
    tc_program = WarpProgram(
        allocator.rewrite_segments(tc.body, "tc", 0, tc.warps_per_block),
        tc.iters_per_block,
    )
    cd_program = WarpProgram(
        allocator.rewrite_segments(cd.body, "cd", 0, cd.warps_per_block),
        cd.iters_per_block,
    )
    return DirectFusion(
        name=name, tc=tc, cd=cd, source=source,
        tc_program=tc_program, cd_program=cd_program,
    )
