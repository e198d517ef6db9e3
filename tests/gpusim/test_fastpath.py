"""Equivalence suite for the analytic fast path.

The fast path now covers every block-set shape — plain, barriered,
multi-group and fused alike; these tests prove it is a drop-in
replacement by comparing both engines across the full kernel corpus
(barriered GEMMs included), a grid sweep, and fused co-run blocks, and
pin the property that ``supported()`` never accepts a shape the
analytic path mis-simulates.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import SimulationError
from repro.fusion.fuser import flexible_fuse
from repro.fusion.ptb import transform
from repro.gpusim import fastpath
from repro.gpusim.gpu import (
    _cap_iterations,
    _persistent_blocks,
    blocks_per_sm,
    run_blocks,
)
from repro.gpusim.sm import BlockSpec, SMSimulation
from repro.gpusim.validate import fastpath_reference_blocks
from repro.gpusim.warp import (
    ComputeSegment,
    MemorySegment,
    SyncSegment,
    WarpProgram,
)

REL_TOL = 1e-9

GRID_MULTIPLIERS = (0.25, 0.5, 1.0, 1.7, 3.0)


def _resident_blocks(ir, gpu, mult):
    """The exact block set ``simulate_launch`` would put on one SM."""
    grid = max(1, int(ir.default_grid * mult))
    launch = ir.launch(grid)
    occupancy = blocks_per_sm(launch.resources, gpu.sm)
    if launch.is_persistent:
        per_sm = min(launch.persistent_blocks_per_sm, occupancy)
        blocks = _persistent_blocks(launch, gpu, per_sm)
    else:
        per_sm_blocks = -(-launch.grid_blocks // gpu.num_sms)
        blocks = [
            BlockSpec(dict(launch.block_template))
            for _ in range(min(per_sm_blocks, occupancy))
        ]
    blocks, _ = _cap_iterations(blocks)
    return blocks


def _fused_blocks(fused, gpu, tc_grid, cd_grid):
    """The resident block set of a fused co-run launch."""
    return _persistent_resident(fused.launch(tc_grid, cd_grid), gpu)


def _persistent_resident(launch, gpu):
    """The resident block set of a PTB launch."""
    occupancy = blocks_per_sm(launch.resources, gpu.sm)
    per_sm = min(launch.persistent_blocks_per_sm, occupancy)
    blocks, _ = _cap_iterations(_persistent_blocks(launch, gpu, per_sm))
    return blocks


def _assert_equivalent(gpu, blocks):
    engine = SMSimulation(gpu.sm, gpu.bytes_per_cycle_per_sm).run(blocks)
    fast = fastpath.run_blocks(gpu.sm, gpu.bytes_per_cycle_per_sm, blocks)
    assert fast.finish_time == pytest.approx(
        engine.finish_time, rel=REL_TOL
    )
    for pipe in ("cuda", "tensor"):
        assert fast.pipe_timelines[pipe].total() == pytest.approx(
            engine.pipe_timelines[pipe].total(), rel=1e-9, abs=1e-6
        )
        assert fast.pipe_slot_cycles[pipe] == pytest.approx(
            engine.pipe_slot_cycles[pipe], rel=1e-9, abs=1e-6
        )
    assert fast.bytes_served == pytest.approx(
        engine.bytes_served, rel=1e-9, abs=1e-6
    )
    assert set(fast.group_finish) == set(engine.group_finish)
    for key, value in engine.group_finish.items():
        assert fast.group_finish[key] == pytest.approx(
            value, rel=REL_TOL, abs=1e-9
        )


class TestCorpusEquivalence:
    """Fast path matches the event engine across library x grid sweep."""

    def test_full_library_grid_sweep(self, gpu, library):
        checked = 0
        barriered = 0
        for ir in library:
            for mult in GRID_MULTIPLIERS:
                blocks = _resident_blocks(ir, gpu, mult)
                assert fastpath.supported(blocks)
                if fastpath.classify(blocks) == fastpath.SHAPE_BARRIER:
                    barriered += 1
                checked += 1
                _assert_equivalent(gpu, blocks)
        # the corpus must exercise the fast path broadly, and the
        # barriered GEMMs must be part of the sweep, not skipped
        assert checked >= 100
        assert barriered >= 10

    def test_v100_preset(self, v100, library):
        for name in ("mriq", "fft", "lbm", "relu", "sgemm", "wmma_gemm"):
            blocks = _resident_blocks(library.get(name), v100, 1.0)
            assert fastpath.supported(blocks)
            _assert_equivalent(v100, blocks)

    def test_mixed_heterogeneous_blocks(self, gpu):
        heavy = WarpProgram(
            (ComputeSegment("cuda", 170.0), MemorySegment(96.0)), 12
        )
        light = WarpProgram(
            (ComputeSegment("tensor", 90.0), MemorySegment(288.0)), 9
        )
        memory_only = WarpProgram((MemorySegment(512.0),), 5)
        blocks = [
            BlockSpec({"m": (heavy,) * 13}),
            BlockSpec({"m": (light,) * 7}),
            BlockSpec({"m": (memory_only,) * 3}),
        ]
        assert fastpath.supported(blocks)
        _assert_equivalent(gpu, blocks)

    def test_zero_byte_memory_segments(self, gpu):
        program = WarpProgram(
            (ComputeSegment("cuda", 50.0), MemorySegment(0.0)), 4
        )
        blocks = [BlockSpec({"m": (program,) * 6})]
        assert fastpath.supported(blocks)
        _assert_equivalent(gpu, blocks)


class TestWidenedShapes:
    """Barriered, multi-group and fused shapes now take the fast path."""

    def test_full_block_barrier(self, gpu):
        program = WarpProgram(
            (ComputeSegment("cuda", 10.0), MemorySegment(32.0),
             SyncSegment(0, 4)), 2
        )
        blocks = [BlockSpec({"m": (program,) * 4})]
        assert fastpath.classify(blocks) == fastpath.SHAPE_BARRIER
        assert fastpath.supported(blocks)
        _assert_equivalent(gpu, blocks)

    def test_partial_barrier(self, gpu):
        """Partial bar.sync (count < group warps) rounds interleave."""
        program = WarpProgram(
            (ComputeSegment("cuda", 35.0), MemorySegment(48.0),
             SyncSegment(0, 2)), 6
        )
        blocks = [BlockSpec({"m": (program,) * 6})]
        assert fastpath.supported(blocks)
        _assert_equivalent(gpu, blocks)

    def test_multi_group_barrier_free(self, gpu):
        tc = WarpProgram(
            (ComputeSegment("tensor", 110.0), MemorySegment(64.0)), 7
        )
        cd = WarpProgram(
            (ComputeSegment("cuda", 95.0), MemorySegment(96.0)), 5
        )
        blocks = [BlockSpec({"tc": (tc,) * 2, "cd": (cd,) * 2})]
        assert fastpath.classify(blocks) == fastpath.SHAPE_MULTI_GROUP
        assert fastpath.supported(blocks)
        _assert_equivalent(gpu, blocks)

    def test_barriered_library_kernels(self, gpu, library):
        for name in ("sgemm", "tgemm_l", "wmma_gemm"):
            blocks = _resident_blocks(library.get(name), gpu, 1.0)
            assert fastpath.classify(blocks) == fastpath.SHAPE_BARRIER
            assert fastpath.supported(blocks)
            _assert_equivalent(gpu, blocks)

    def test_fused_corun_blocks(self, gpu, library):
        """Real fused co-run blocks (per-copy partial barriers) match."""
        tc_ptb = transform(library.get("tgemm_l"), gpu)
        cd_ptb = transform(library.get("fft"), gpu)
        fused = flexible_fuse(tc_ptb, cd_ptb, gpu, 2, 1)
        for tc_grid, cd_grid in ((512, 256), (96, 1024)):
            blocks = _fused_blocks(fused, gpu, tc_grid, cd_grid)
            assert fastpath.classify(blocks) == fastpath.SHAPE_FUSED
            assert fastpath.supported(blocks)
            _assert_equivalent(gpu, blocks)

    def test_reference_shapes_sweep(self, gpu, v100):
        """Per-shape references (shared with validate.py) on both GPUs."""
        for shape, blocks in fastpath_reference_blocks().items():
            assert fastpath.classify(blocks) == shape
            assert fastpath.supported(blocks)
            _assert_equivalent(gpu, blocks)
            _assert_equivalent(v100, blocks)


#: sha256 of every ``SMResult`` field of the fast path over the corpus of
#: ``TestExactOutput``.  A change to the fast path that keeps this digest
#: keeps every IEEE-754 operation and every tie-break of the event loop.
EXACT_OUTPUT_SHA256 = (
    "b8aae8d0466fcbf25e74d5910841c454bef9625c74433650e38d88d577f00d38"
)


class TestExactOutput:
    """Pins the fast path's output bit for bit, not within a tolerance.

    The equivalence tests above allow 1e-9 relative error, so a one-ulp
    drift in the event loop would pass them; this digest would not.
    ``Timeline.total()`` is left out on purpose: its ``sum`` is
    compensated from Python 3.12 on, so it is not bit-stable across
    interpreters, while the interval endpoints are.
    """

    @staticmethod
    def _corpus(gpu, library):
        sets = []
        for ir in library:
            for mult in (0.5, 1.0, 3.0):
                sets.append(_resident_blocks(ir, gpu, mult))
            occupancy = blocks_per_sm(ir.resources, gpu.sm)
            for count in sorted({1, occupancy}):
                ptb = transform(ir, gpu, persistent_blocks_per_sm=count)
                sets.append(_persistent_resident(ptb.launch(), gpu))
        for tc_name, cd_name in (("tgemm_l", "fft"), ("tgemm_m", "mriq"),
                                 ("wmma_gemm", "sgemm"), ("tgemm_s", "lbm")):
            tc = transform(library.get(tc_name), gpu, persistent_blocks_per_sm=1)
            cd = transform(library.get(cd_name), gpu, persistent_blocks_per_sm=1)
            for copies in ((1, 1), (2, 1), (1, 2)):
                fused = flexible_fuse(tc, cd, gpu, *copies)
                for tc_grid, cd_grid in ((512, 256), (96, 1024)):
                    sets.append(_fused_blocks(fused, gpu, tc_grid, cd_grid))
        sets += fastpath_reference_blocks().values()
        return sets

    def test_digest_of_every_result_field(self, gpu, library):
        digest = hashlib.sha256()
        corpus = self._corpus(gpu, library)
        assert len(corpus) == 175
        for blocks in corpus:
            result = fastpath.run_blocks(
                gpu.sm, gpu.bytes_per_cycle_per_sm, blocks
            )
            for field in (
                result.finish_time,
                result.pipe_slot_cycles,
                result.group_finish,
                result.bytes_served,
                {name: timeline.intervals
                 for name, timeline in result.pipe_timelines.items()},
            ):
                digest.update(repr(field).encode())
        assert digest.hexdigest() == EXACT_OUTPUT_SHA256


class TestProperties:
    """``supported()`` must never cover a shape the model mis-simulates."""

    def test_supported_implies_equivalent(self, gpu, library):
        """Every supported resident block set simulates identically."""
        for ir in library:
            blocks = _resident_blocks(ir, gpu, 1.3)
            if fastpath.supported(blocks):
                _assert_equivalent(gpu, blocks)

    def test_supported_shapes_is_classify_range(self):
        """Coverage is decided by shape class alone, so narrowing
        SUPPORTED_SHAPES is the one switch that reroutes a class."""
        for shape, blocks in fastpath_reference_blocks().items():
            assert fastpath.classify(blocks) == shape
            assert fastpath.supported(blocks) == (
                shape in fastpath.SUPPORTED_SHAPES
            )

    def test_barrier_count_mismatch_raises_like_engine(self, gpu):
        """Malformed barriers fail identically on both engines."""
        good = WarpProgram((SyncSegment(0, 4),), 1)
        bad = WarpProgram((SyncSegment(0, 3),), 1)
        blocks = [BlockSpec({"m": (good, good, bad, good)})]
        with pytest.raises(SimulationError, match="disagree on bar.sync"):
            SMSimulation(gpu.sm, gpu.bytes_per_cycle_per_sm).run(blocks)
        with pytest.raises(SimulationError, match="disagree on bar.sync"):
            fastpath.run_blocks(gpu.sm, gpu.bytes_per_cycle_per_sm, blocks)

    def test_unsatisfiable_barrier_raises_like_engine(self, gpu):
        """A deadlocked block raises the engine's deadlock error."""
        program = WarpProgram((SyncSegment(0, 4),), 1)
        blocks = [BlockSpec({"m": (program,) * 3})]
        with pytest.raises(SimulationError, match="never finished"):
            SMSimulation(gpu.sm, gpu.bytes_per_cycle_per_sm).run(blocks)
        with pytest.raises(SimulationError, match="never finished"):
            fastpath.run_blocks(gpu.sm, gpu.bytes_per_cycle_per_sm, blocks)


class TestDispatch:
    """run_blocks routes by shape class and records reasons."""

    def test_dispatch_counts_by_shape(self, gpu, library):
        fastpath.STATS.reset()
        sgemm = _resident_blocks(library.get("sgemm"), gpu, 1.0)
        mriq = _resident_blocks(library.get("mriq"), gpu, 1.0)
        run_blocks(gpu, mriq)
        run_blocks(gpu, sgemm)
        assert fastpath.STATS.fast == 2
        assert fastpath.STATS.engine == 0
        assert fastpath.STATS.total == 2
        assert fastpath.STATS.fast_fraction == pytest.approx(1.0)
        assert fastpath.STATS.fast_by_shape == {
            fastpath.SHAPE_PLAIN: 1,
            fastpath.SHAPE_BARRIER: 1,
        }
        assert fastpath.STATS.rejects == {}

    def test_env_toggle_disables_fastpath(self, gpu, library, monkeypatch):
        monkeypatch.setenv(fastpath.FASTPATH_ENV, "0")
        fastpath.STATS.reset()
        run_blocks(gpu, _resident_blocks(library.get("mriq"), gpu, 1.0))
        assert fastpath.STATS.fast == 0
        assert fastpath.STATS.engine == 1
        assert fastpath.STATS.rejects == {fastpath.REASON_DISABLED: 1}

    def test_unsupported_shape_records_reject_reason(
        self, gpu, monkeypatch
    ):
        """A shape outside SUPPORTED_SHAPES routes to the engine and
        shows up as a reject reason (the coverage-regression signal)."""
        monkeypatch.setattr(
            fastpath, "SUPPORTED_SHAPES",
            frozenset(fastpath.SHAPES) - {fastpath.SHAPE_FUSED},
        )
        fastpath.STATS.reset()
        blocks = fastpath_reference_blocks()["fused"]
        result = run_blocks(gpu, blocks)
        assert result.finish_time > 0
        assert fastpath.STATS.fast == 0
        assert fastpath.STATS.rejects == {fastpath.SHAPE_FUSED: 1}
