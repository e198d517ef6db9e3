"""The in-process SM-result memo behind ``simulate_launch``.

Different launches that put the same capped block set on the SM share
one simulation; the memo must never change a duration, must step aside
under auditing and when the fast path is switched off, and must stay
within its LRU bound.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import audit
from repro.fusion.ptb import transform
from repro.gpusim import fastpath, gpu as gpu_module
from repro.gpusim.gpu import clear_result_memo, simulate_launch
from repro.gpusim.resources import blocks_per_sm
from repro.kernels.parboil import mriq


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_result_memo()
    fastpath.STATS.reset()
    audit.reset()
    yield
    audit.reset()
    clear_result_memo()


def _probe_and_ptb(library, gpu, name="mriq", count=2):
    """A profiling probe and the PTB launch it stands for: different
    launches (names, signatures) with one resident block set."""
    ir = library.get(name)
    launch = transform(ir, gpu, persistent_blocks_per_sm=count).launch()
    probe = replace(launch, name=f"probe_{name}_{count}")
    assert probe.signature != launch.signature
    return probe, launch


def _steady_flow_grids(gpu, kernel):
    """Two grids past one full wave: both run the same full-wave set."""
    launch = kernel.launch()
    wave = blocks_per_sm(launch.resources, gpu.sm) * gpu.num_sms
    return kernel.launch(wave + 1), kernel.launch(3 * wave)


def _fresh_cycles(launch, gpu):
    clear_result_memo()
    return simulate_launch(launch, gpu).duration_cycles


class TestSharedBlockSets:
    def test_probe_and_ptb_launch_simulate_once(self, gpu, library):
        probe, launch = _probe_and_ptb(library, gpu)
        a = simulate_launch(probe, gpu).duration_cycles
        b = simulate_launch(launch, gpu).duration_cycles
        assert fastpath.STATS.fast == 1
        assert a == _fresh_cycles(probe, gpu)
        assert b == _fresh_cycles(launch, gpu)

    def test_steady_flow_grids_simulate_once(self, gpu):
        small, large = _steady_flow_grids(gpu, mriq())
        a = simulate_launch(small, gpu)
        b = simulate_launch(large, gpu)
        assert fastpath.STATS.fast == 1
        assert a.duration_cycles < b.duration_cycles
        assert a.duration_cycles == _fresh_cycles(small, gpu)
        assert b.duration_cycles == _fresh_cycles(large, gpu)

    def test_each_key_part_separates_sets(self, gpu, v100, library):
        """Iterations, group labels and the GPU are all in the key."""
        _, ptb = _probe_and_ptb(library, gpu)
        # one and two original blocks per persistent block: both loops
        # stay under the iteration cap, so the capped sets differ
        launch = ptb.with_grid(2 * gpu.num_sms)
        longer = ptb.with_grid(4 * gpu.num_sms)
        relabelled = replace(launch, block_template={
            "other": launch.block_template["main"]
        })
        runs = [(launch, gpu), (longer, gpu), (relabelled, gpu),
                (launch, v100)]
        results = [simulate_launch(item, on) for item, on in runs]
        assert fastpath.STATS.fast == len(runs)
        assert results[1].duration_cycles > results[0].duration_cycles
        assert {g for _, g in results[2].sm_result.group_finish} == {"other"}
        for (item, on), result in zip(runs, results):
            clear_result_memo()
            assert simulate_launch(item, on).duration_cycles == (
                result.duration_cycles
            )

    def test_repeated_launch_hits(self, gpu):
        launch = mriq().launch(1000)
        first = simulate_launch(launch, gpu)
        again = simulate_launch(launch, gpu)
        assert fastpath.STATS.fast == 1
        assert again.duration_cycles == first.duration_cycles


class TestBypass:
    def test_audit_simulates_every_call(self, gpu, library):
        audit.enable()
        probe, launch = _probe_and_ptb(library, gpu)
        for item in (probe, launch, probe):
            simulate_launch(item, gpu)
        assert fastpath.STATS.fast == 3
        assert len(gpu_module._SM_MEMO) == 0

    def test_kill_switch_reaches_the_engine(self, gpu, monkeypatch):
        """REPRO_FASTPATH=0 is never answered from the memo."""
        launch = mriq().launch(1000)
        fast = simulate_launch(launch, gpu)
        assert fastpath.STATS.fast == 1
        monkeypatch.setenv(fastpath.FASTPATH_ENV, "0")
        engine = simulate_launch(launch, gpu)
        assert fastpath.STATS.engine == 1
        assert fastpath.STATS.rejects == {fastpath.REASON_DISABLED: 1}
        assert engine is not fast
        assert engine.duration_cycles == pytest.approx(
            fast.duration_cycles, rel=1e-9
        )


class TestBound:
    def test_lru_eviction(self, gpu, monkeypatch):
        monkeypatch.setattr(gpu_module, "_SM_MEMO_CAP", 2)
        kernel = mriq()
        # 1, 2 and 3 resident blocks per SM: three distinct block sets
        first, second, third = (
            kernel.launch(gpu.num_sms * k) for k in (1, 2, 3)
        )
        for launch in (first, second, first, third):
            simulate_launch(launch, gpu)
        assert fastpath.STATS.fast == 3
        assert len(gpu_module._SM_MEMO) == 2
        simulate_launch(first, gpu)  # refreshed by its hit: still held
        assert fastpath.STATS.fast == 3
        simulate_launch(second, gpu)  # least recently used: evicted
        assert fastpath.STATS.fast == 4
        assert len(gpu_module._SM_MEMO) == 2
