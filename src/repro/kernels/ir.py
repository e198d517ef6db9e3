"""Kernel IR: the executable description of a kernel.

The IR carries everything the simulator, the fuser and the predictor need
to know about a kernel:

* static per-block resources (threads, registers, shared memory) —
  occupancy inputs;
* the per-warp segment loop body and how many loop iterations one
  original block performs — the execution semantics of Fig. 12;
* the default grid and a mapping from a workload *scale* to a grid size —
  the "dynamic inputs" that motivate PTB fusion;
* the miniature source form the transforms rewrite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from ..errors import ConfigError
from ..gpusim.gpu import KernelLaunch
from ..gpusim.resources import BlockResources
from ..gpusim.warp import (
    ComputeSegment,
    MemorySegment,
    Segment,
    SyncSegment,
    WarpProgram,
)
from .source import KernelSource

#: Workload intensity tags used by the evaluation (Section VIII-B).
COMPUTE_INTENSIVE = "compute-intensive"
MEMORY_INTENSIVE = "memory-intensive"


@dataclass(frozen=True)
class KernelIR:
    """A complete kernel model.

    Attributes
    ----------
    name:
        Unique kernel identifier (``"mriq"``, ``"tgemm_l"``, ...).
    kind:
        ``"tc"`` for Tensor-core kernels, ``"cd"`` for CUDA-core kernels.
    resources:
        Per-block explicit resource demand.
    warps_per_block:
        Warps in one thread block.
    body:
        Per-warp segment loop body for one loop iteration.
    iters_per_block:
        How many times a warp runs ``body`` to finish one original block.
    default_grid:
        Grid size at the kernel's default input.
    source:
        Miniature CUDA-like source the transforms rewrite.
    tags:
        Classification tags (compute-/memory-intensive, dnn-op, ...).
    """

    name: str
    kind: str
    resources: BlockResources
    warps_per_block: int
    body: tuple[Segment, ...]
    iters_per_block: int
    default_grid: int
    source: KernelSource
    tags: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in ("tc", "cd"):
            raise ConfigError(f"kernel kind must be 'tc' or 'cd', not {self.kind!r}")
        if self.warps_per_block != self.resources.warps:
            raise ConfigError(
                f"{self.name}: warps_per_block={self.warps_per_block} "
                f"disagrees with resources ({self.resources.warps} warps)"
            )
        if self.iters_per_block <= 0:
            raise ConfigError("iters_per_block must be positive")
        if self.default_grid <= 0:
            raise ConfigError("default_grid must be positive")
        used = {
            s.pipe for s in self.body if isinstance(s, ComputeSegment)
        }
        expected = "tensor" if self.kind == "tc" else "cuda"
        if used - {expected}:
            raise ConfigError(
                f"{self.name}: a {self.kind} kernel may only issue to the "
                f"{expected} pipe, found {sorted(used)}"
            )

    # -- derived quantities --------------------------------------------------

    @cached_property
    def warp_program(self) -> WarpProgram:
        """Per-warp program for one original block (one shared object)."""
        return WarpProgram(self.body, self.iters_per_block)

    @cached_property
    def signature(self) -> str:
        """Digest of the whole kernel model, computed once per instance.

        Like :attr:`KernelLaunch.signature` it is kept outside the
        fields, so ``dataclasses.replace`` variants digest afresh.
        """
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]

    @property
    def compute_cycles_per_block(self) -> float:
        """Pipe cycles one block demands across all its warps."""
        per_iter = sum(
            s.cycles for s in self.body if isinstance(s, ComputeSegment)
        )
        return per_iter * self.iters_per_block * self.warps_per_block

    @property
    def bytes_per_block(self) -> float:
        """DRAM bytes one block demands across all its warps."""
        per_iter = sum(
            s.nbytes for s in self.body if isinstance(s, MemorySegment)
        )
        return per_iter * self.iters_per_block * self.warps_per_block

    @property
    def memory_intensity(self) -> float:
        """Bytes per compute cycle — the compute/memory balance."""
        cycles = self.compute_cycles_per_block
        if cycles == 0:
            return float("inf")
        return self.bytes_per_block / cycles

    @property
    def is_memory_intensive(self) -> bool:
        return MEMORY_INTENSIVE in self.tags

    @property
    def uses_sync(self) -> bool:
        return any(isinstance(s, SyncSegment) for s in self.body)

    # -- launches ------------------------------------------------------------

    def grid_for_scale(self, scale: float) -> int:
        """Grid size for a workload ``scale`` × the default input."""
        if scale <= 0:
            raise ConfigError("workload scale must be positive")
        return max(1, round(self.default_grid * scale))

    def launch(self, grid_blocks: Optional[int] = None) -> KernelLaunch:
        """A plain (non-PTB) launch of this kernel.

        One launch object per grid, memoized on the instance, so its
        signature is digested once however often the grid recurs.
        """
        grid = self.default_grid if grid_blocks is None else grid_blocks
        memo = self.__dict__.setdefault("_launches", {})
        launch = memo.get(grid)
        if launch is None:
            launch = memo[grid] = KernelLaunch(
                name=self.name,
                kind=self.kind,
                resources=self.resources,
                grid_blocks=grid,
                block_template={
                    "main": (self.warp_program,) * self.warps_per_block
                },
            )
        return launch

    def scaled_work(self, factor: float) -> "KernelIR":
        """A variant whose default input is ``factor`` × as much work."""
        return replace(
            self, default_grid=max(1, round(self.default_grid * factor))
        )


def make_kernel(
    name: str,
    kind: str,
    *,
    threads: int,
    regs: int,
    shared_mem: int,
    compute_cycles: float,
    mem_bytes: float,
    iters_per_block: int,
    default_grid: int,
    source: KernelSource,
    tags: frozenset[str] = frozenset(),
    syncs_per_iter: int = 0,
) -> KernelIR:
    """Convenience constructor assembling the standard loop body.

    The body is ``[compute, memory, (sync)*]`` — the canonical instruction
    loop of Fig. 12; ``syncs_per_iter`` inserts block-wide barriers (as
    the tiled kernels do between load and compute phases).
    """
    resources = BlockResources(
        threads=threads, regs_per_thread=regs, shared_mem_bytes=shared_mem
    )
    pipe = "tensor" if kind == "tc" else "cuda"
    body: list[Segment] = [ComputeSegment(pipe, compute_cycles)]
    if mem_bytes > 0:
        body.append(MemorySegment(mem_bytes))
    for _ in range(syncs_per_iter):
        body.append(SyncSegment(0, resources.warps))
    return KernelIR(
        name=name,
        kind=kind,
        resources=resources,
        warps_per_block=resources.warps,
        body=tuple(body),
        iters_per_block=iters_per_block,
        default_grid=default_grid,
        source=source,
        tags=tags,
    )
