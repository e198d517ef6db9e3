"""Tests for the duration oracle."""

import dataclasses

import pytest

from repro.fusion.ptb import transform
from repro.fusion.search import FusionSearch
from repro.kernels.gemm import canonical_gemms
from repro.kernels.parboil import fft, mriq
from repro.runtime.oracle import CACHE_ENV, DurationOracle, OracleStore


@pytest.fixture(scope="module")
def fused_kernel(gpu):
    tc = transform(canonical_gemms()["tgemm_l"], gpu)
    cd = transform(fft(), gpu)
    return FusionSearch(gpu).search(tc, cd).best.fused


class TestSoloCache:
    def test_memoized(self, gpu):
        oracle = DurationOracle(gpu)
        kernel = mriq()
        first = oracle.solo_ms(kernel)
        misses = oracle.misses
        second = oracle.solo_ms(kernel, kernel.default_grid)
        assert second == first
        assert oracle.misses == misses

    def test_distinct_grids_distinct_entries(self, gpu):
        oracle = DurationOracle(gpu)
        kernel = mriq()
        a = oracle.solo_ms(kernel, 1000)
        b = oracle.solo_ms(kernel, 4000)
        assert b > a
        assert oracle.misses == 2


class TestFusedCache:
    def test_memoized(self, gpu, fused_kernel):
        oracle = DurationOracle(gpu)
        first = oracle.fused(fused_kernel, 1000, 2000)
        misses = oracle.misses
        second = oracle.fused(fused_kernel, 1000, 2000)
        assert second is first
        assert oracle.misses == misses

    def test_fused_ms_consistent(self, gpu, fused_kernel):
        oracle = DurationOracle(gpu)
        result = oracle.fused(fused_kernel, 1000, 2000)
        assert oracle.fused_ms(fused_kernel, 1000, 2000) == pytest.approx(
            gpu.cycles_to_ms(result.duration_cycles)
        )

    def test_fused_beats_serial_for_good_pair(self, gpu, fused_kernel):
        oracle = DurationOracle(gpu)
        tc_grid = fused_kernel.tc.ir.default_grid
        cd_grid = fused_kernel.cd.ir.default_grid
        result = oracle.fused(fused_kernel, tc_grid, cd_grid)
        assert result.duration_cycles < (
            result.solo_a_cycles + result.solo_b_cycles
        )


class TestCorunPolicyCache:
    def test_memoized(self, gpu):
        from repro.gpusim.gpu import corun_spatial
        oracle = DurationOracle(gpu)
        a = mriq().launch(1000)
        b = fft().launch(800)
        first = oracle.corun_policy("spatial", a, b)
        misses = oracle.misses
        second = oracle.corun_policy("spatial", a, b)
        assert second is first
        assert oracle.misses == misses
        # The memo answers with exactly what the policy computes.
        direct = corun_spatial(a, b, gpu)
        assert first.duration_cycles == direct.duration_cycles
        assert first.overlap == direct.overlap

    def test_policies_do_not_alias(self, gpu):
        oracle = DurationOracle(gpu)
        a = transform(mriq(), gpu).launch()
        b = transform(fft(), gpu).launch()
        serial = oracle.corun_policy("serial", a, b)
        concurrent = oracle.corun_policy("concurrent", a, b)
        assert serial.policy == "serial"
        assert concurrent.policy == "concurrent"
        assert oracle.misses == 2

    def test_grid_share_changes_the_key(self, gpu):
        oracle = DurationOracle(gpu)
        a = mriq().launch(1000)
        oracle.corun_policy("spatial", a, fft().launch(800))
        oracle.corun_policy("spatial", a, fft().launch(1600))
        assert oracle.misses == 2

    def test_unknown_policy_rejected(self, gpu):
        oracle = DurationOracle(gpu)
        with pytest.raises(KeyError, match="unknown co-run policy"):
            oracle.corun_policy("mps", mriq().launch(), fft().launch())

    def test_round_trip(self, gpu, tmp_path):
        store = OracleStore.for_gpu(gpu, directory=tmp_path)
        oracle = DurationOracle(gpu, store=store)
        a = transform(mriq(), gpu).launch()
        b = transform(fft(), gpu).launch()
        result = oracle.corun_policy("concurrent", a, b)
        assert oracle.misses == 1
        oracle.flush()

        # A fresh process answers from disk, policy label restored.
        oracle2 = DurationOracle(gpu, store=OracleStore(store.path))
        again = oracle2.corun_policy("concurrent", a, b)
        assert oracle2.misses == 0
        assert oracle2.persistent_hits == 1
        assert again.policy == "concurrent"
        assert again.duration_cycles == result.duration_cycles
        assert again.solo_a_cycles == result.solo_a_cycles
        assert again.solo_b_cycles == result.solo_b_cycles
        assert again.finish_a_cycles == result.finish_a_cycles
        assert again.finish_b_cycles == result.finish_b_cycles
        assert again.overlap == result.overlap


class TestPersistence:
    def test_round_trip(self, gpu, tmp_path):
        store = OracleStore.for_gpu(gpu, directory=tmp_path)
        oracle = DurationOracle(gpu, store=store)
        kernel = mriq()
        cycles = oracle.solo_cycles(kernel)
        assert oracle.misses == 1
        oracle.flush()
        assert store.path.exists()

        # A fresh process (fresh store + oracle) answers from disk.
        reloaded = OracleStore(store.path)
        assert reloaded is not store
        assert len(reloaded) == 1
        oracle2 = DurationOracle(gpu, store=reloaded)
        assert oracle2.solo_cycles(kernel) == cycles
        assert oracle2.misses == 0
        assert oracle2.persistent_hits == 1

    def test_fused_round_trip(self, gpu, tmp_path, fused_kernel):
        store = OracleStore.for_gpu(gpu, directory=tmp_path)
        oracle = DurationOracle(gpu, store=store)
        result = oracle.fused(fused_kernel, 1000, 2000)
        oracle.flush()

        oracle2 = DurationOracle(gpu, store=OracleStore(store.path))
        again = oracle2.fused(fused_kernel, 1000, 2000)
        assert again.duration_cycles == result.duration_cycles
        assert again.solo_a_cycles == result.solo_a_cycles
        assert again.finish_b_cycles == result.finish_b_cycles
        assert oracle2.persistent_hits == 1
        assert oracle2.misses == 0

    def test_one_store_per_path(self, gpu, v100, tmp_path, monkeypatch):
        store = OracleStore.for_gpu(gpu, directory=tmp_path)
        assert OracleStore.for_gpu(gpu, directory=tmp_path) is store
        # another spelling of the same directory resolves to one file
        monkeypatch.chdir(tmp_path)
        assert OracleStore.for_gpu(gpu, directory=".") is store
        # every system of the process sees what any of them simulated
        DurationOracle(gpu, store=store).solo_cycles(mriq())
        shared = DurationOracle(
            gpu, store=OracleStore.for_gpu(gpu, directory=tmp_path)
        )
        shared.solo_cycles(mriq())
        assert (shared.misses, shared.persistent_hits) == (0, 1)
        # another process's save is read in; unsaved entries stay
        elsewhere = DurationOracle(gpu, store=OracleStore(store.path))
        elsewhere.solo_cycles(fft())
        elsewhere.flush()
        assert OracleStore.for_gpu(gpu, directory=tmp_path) is store
        assert len(store) == 2 and store._dirty

        other_dir = OracleStore.for_gpu(gpu, directory=tmp_path / "other")
        other_gpu = OracleStore.for_gpu(v100, directory=tmp_path)
        assert other_dir is not store and other_gpu is not store
        assert other_gpu.path != store.path
        assert len(other_dir) == len(other_gpu) == 0

    def test_gpu_config_change_invalidates(self, gpu, tmp_path):
        store = OracleStore.for_gpu(gpu, directory=tmp_path)
        oracle = DurationOracle(gpu, store=store)
        oracle.solo_cycles(mriq())
        oracle.flush()

        other = dataclasses.replace(gpu, clock_ghz=gpu.clock_ghz * 2)
        other_store = OracleStore.for_gpu(other, directory=tmp_path)
        # A different GPU config fingerprints to a different file, so
        # stale durations can never leak across configs.
        assert other_store.path != store.path
        assert len(other_store) == 0
        oracle2 = DurationOracle(other, store=other_store)
        oracle2.solo_cycles(mriq())
        assert oracle2.misses == 1
        assert oracle2.persistent_hits == 0
        oracle2.flush()

    def test_corrupted_file_falls_back_to_simulation(self, gpu, tmp_path):
        store = OracleStore.for_gpu(gpu, directory=tmp_path)
        oracle = DurationOracle(gpu, store=store)
        cycles = oracle.solo_cycles(mriq())
        oracle.flush()

        store.path.write_text("{this is not json")
        fresh = OracleStore(store.path)
        assert len(fresh) == 0
        oracle2 = DurationOracle(gpu, store=fresh)
        assert oracle2.solo_cycles(mriq()) == cycles
        assert oracle2.misses == 1  # re-simulated, same answer
        oracle2.flush()

        # The rewrite leaves a healthy store behind.
        healed = OracleStore(store.path)
        assert len(healed) == 1

    def test_stale_schema_ignored(self, gpu, tmp_path):
        store = OracleStore.for_gpu(gpu, directory=tmp_path)
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text(
            '{"schema": -1, "solo": {"x": 1.0}, "fused": {}}'
        )
        assert len(OracleStore(store.path)) == 0

    def test_env_kill_switch(self, gpu, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, "0")
        assert OracleStore.for_gpu(gpu, directory=tmp_path) is None
