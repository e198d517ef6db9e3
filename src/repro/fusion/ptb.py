"""Persistent-Thread-Block (PTB) transformation (Section V-B, Fig. 7).

Direct fusion needs both kernels' grid sizes at compile time, but grid
sizes depend on runtime inputs; JIT-fusing online costs ~900 ms and blows
the QoS budget (Section VIII-I).  The PTB transform removes the
dependence: the transformed kernel launches a *fixed* number of
persistent blocks, and each persistent block loops over the original
block ids it is assigned::

    __global__ void ptb_CD_kernel(..., int original_block_num,
                                       int issued_block_num) {
        for (int block_pos = blockIdx.x;
             block_pos < original_block_num;
             block_pos += issued_block_num) {
            int i = block_pos;   // original body, blockIdx.x -> block_pos
            ...
        }
    }

With the grid static, fused kernels can be compiled offline once and
reused for every input size.

The transform here does both halves of what the paper's source-to-source
compiler does: it rewrites the miniature source text, and it produces
the execution-model counterpart (a launch whose per-warp iteration count
folds in the number of assigned original blocks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import GPUConfig
from ..errors import FusionError
from ..gpusim.gpu import KernelLaunch, simulate_launch
from ..gpusim.resources import blocks_per_sm
from ..kernels.ir import KernelIR
from ..kernels.source import BLOCK_IDX, KernelSource, SourceLine, SyncPoint

#: Extra parameters every PTB kernel gains.
PTB_PARAMS = ("int original_block_num", "int issued_block_num")


def ptb_source(source: KernelSource) -> KernelSource:
    """Rewrite a kernel source into its PTB form (Fig. 7)."""
    body: list = [
        SourceLine(f"for (int block_pos = {BLOCK_IDX};"),
        SourceLine("     block_pos < original_block_num;"),
        SourceLine("     block_pos += issued_block_num) {"),
    ]
    inner = source.substituted(BLOCK_IDX, "block_pos")
    for stmt in inner.body:
        if isinstance(stmt, SyncPoint):
            body.append(stmt)
        else:
            body.append(SourceLine("    " + stmt.text))
    body.append(SourceLine("}"))
    return KernelSource(
        name=f"ptb_{source.name}",
        params=source.params + PTB_PARAMS,
        body=tuple(body),
    )


@dataclass(frozen=True)
class PTBKernel:
    """A kernel in PTB form: fixed issued grid, input-sized loop.

    Attributes
    ----------
    ir:
        The original kernel model (resources and loop body are unchanged;
        PTB only restructures the grid).
    source:
        The transformed source text.
    persistent_blocks_per_sm:
        Profiled-optimal number of persistent blocks issued per SM.
    """

    ir: KernelIR
    source: KernelSource
    persistent_blocks_per_sm: int

    @property
    def name(self) -> str:
        return self.source.name

    def launch(self, grid_blocks: Optional[int] = None) -> KernelLaunch:
        """A PTB launch covering ``grid_blocks`` original blocks (one
        memoized object per grid, like :meth:`KernelIR.launch`)."""
        grid = self.ir.default_grid if grid_blocks is None else grid_blocks
        memo = self.__dict__.setdefault("_launches", {})
        launch = memo.get(grid)
        if launch is None:
            launch = memo[grid] = KernelLaunch(
                name=self.name,
                kind=self.ir.kind,
                resources=self.ir.resources,
                grid_blocks=grid,
                block_template={
                    "main": (self.ir.warp_program,) * self.ir.warps_per_block
                },
                persistent_blocks_per_sm=self.persistent_blocks_per_sm,
            )
        return launch


def profile_persistent_blocks(
    ir: KernelIR, gpu: GPUConfig, oracle=None
) -> int:
    """Find the persistent block count with the best solo performance.

    The paper's fuser "profiles each kernel's persistent block number,
    which has the optimal performance" (Section VIII-A); we do the same
    by simulating each feasible count at the kernel's default input.
    With an ``oracle``, probe durations are memoized (and persisted, if
    the oracle has a store) instead of re-simulated every process.
    """
    occupancy = blocks_per_sm(ir.resources, gpu.sm)
    best_count, best_time = 1, float("inf")
    for count in range(1, occupancy + 1):
        launch = KernelLaunch(
            name=f"probe_{ir.name}_{count}",
            kind=ir.kind,
            resources=ir.resources,
            grid_blocks=ir.default_grid,
            block_template={
                "main": (ir.warp_program,) * ir.warps_per_block
            },
            persistent_blocks_per_sm=count,
        )
        if oracle is not None:
            duration = oracle.launch_cycles(launch)
        else:
            duration = simulate_launch(launch, gpu).duration_cycles
        if duration < best_time - 1e-9:
            best_count, best_time = count, duration
    return best_count


def transform(
    ir: KernelIR,
    gpu: GPUConfig,
    persistent_blocks_per_sm: Optional[int] = None,
    oracle=None,
) -> PTBKernel:
    """PTB-transform a kernel, profiling the issue count unless given."""
    occupancy = blocks_per_sm(ir.resources, gpu.sm)
    if persistent_blocks_per_sm is None:
        persistent_blocks_per_sm = profile_persistent_blocks(
            ir, gpu, oracle=oracle
        )
    if not 1 <= persistent_blocks_per_sm <= occupancy:
        raise FusionError(
            f"{ir.name}: {persistent_blocks_per_sm} persistent blocks/SM "
            f"is outside the feasible range [1, {occupancy}]"
        )
    return PTBKernel(
        ir=ir,
        source=ptb_source(ir.source),
        persistent_blocks_per_sm=persistent_blocks_per_sm,
    )
