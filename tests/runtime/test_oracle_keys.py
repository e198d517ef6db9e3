"""Launch identity: cached signatures equal the digest formula they replace.

The oracle keys every launch by ``sha256(repr(launch))[:20]``.  Launches
now digest themselves once and keep the value; these tests pin that the
cached value is exactly the formula's (so persistent store keys and
files do not change), that memoized launches are shared per grid, that
derived launches digest afresh, and that a cold ``prepare_pair`` writes
the same store keys the formula gives.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import pytest

from repro.fusion.ptb import profile_persistent_blocks, transform
from repro.models.zoo import model_by_name
from repro.runtime import system as system_module
from repro.runtime.oracle import DurationOracle, OracleStore
from repro.runtime.system import TackerSystem
from repro.runtime.workload import be_application


def launch_digest(launch) -> str:
    return hashlib.sha256(repr(launch).encode()).hexdigest()[:20]


def kernel_digest(kernel) -> str:
    return hashlib.sha256(repr(kernel).encode()).hexdigest()[:16]


def fused_digest(fused) -> str:
    payload = (
        f"{fused.name}|{kernel_digest(fused.tc.ir)}|{kernel_digest(fused.cd.ir)}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class _LaunchSpy:
    """An oracle front that records every launch priced through it."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.launches = []

    def launch_cycles(self, launch):
        self.launches.append(launch)
        return self._oracle.launch_cycles(launch)


@pytest.fixture(scope="module")
def prepared(gpu):
    system = TackerSystem(gpu=gpu, store=None)
    model = model_by_name("resnet50")
    for be_name in ("mriq", "fft", "sgemm"):
        system.prepare_pair(model, be_application(be_name, system.library))
    assert system.artifacts
    return system


class TestSignatureFormula:
    def test_plain_and_ptb_launches(self, gpu, library):
        oracle = DurationOracle(gpu)
        for kernel in library:
            plain = kernel.launch()
            assert plain.signature == launch_digest(plain)
            assert kernel.signature == kernel_digest(kernel)
            ptb = transform(kernel, gpu, oracle=oracle)
            for grid in (1, kernel.default_grid, 3 * kernel.default_grid):
                launch = ptb.launch(grid)
                assert launch.signature == launch_digest(launch)

    def test_profiling_probes(self, gpu, library):
        spy = _LaunchSpy(DurationOracle(gpu))
        for kernel in library:
            profile_persistent_blocks(kernel, gpu, oracle=spy)
        assert spy.launches
        for launch in spy.launches:
            assert launch.signature == launch_digest(launch)

    def test_fused_artifact_launches(self, prepared):
        for fused in prepared.artifacts.values():
            assert fused.signature == fused_digest(fused)
            tc_default = fused.tc.ir.default_grid
            cd_default = fused.cd.ir.default_grid
            for tc_grid, cd_grid in (
                (tc_default, cd_default), (1, 2 * cd_default), (0, cd_default),
            ):
                launch = fused.launch(tc_grid, cd_grid)
                assert launch.signature == launch_digest(launch)


class TestMemoizedLaunches:
    def test_plain_launch_shared_per_grid(self, library):
        kernel = library.get("mriq")
        assert kernel.launch(64) is kernel.launch(64)
        assert kernel.launch() is kernel.launch(kernel.default_grid)
        assert kernel.launch(64) is not kernel.launch(65)
        assert kernel.warp_program is kernel.warp_program

    def test_ptb_launch_shared_per_grid(self, gpu, library):
        ptb = transform(library.get("fft"), gpu)
        assert ptb.launch(100) is ptb.launch(100)
        assert ptb.launch(100) is not ptb.launch(101)

    def test_fused_launch_shared_per_grid(self, prepared):
        fused = next(iter(prepared.artifacts.values()))
        assert fused.launch(40, 50) is fused.launch(40, 50)
        assert fused.launch(40, 50) is not fused.launch(50, 40)

    def test_with_grid_and_replace_digest_afresh(self, library):
        launch = library.get("sgemm").launch(32)
        before = launch.signature
        for derived in (
            launch.with_grid(33),
            dataclasses.replace(launch, persistent_blocks_per_sm=2),
        ):
            assert "signature" not in vars(derived)
            assert derived.signature == launch_digest(derived)
            assert derived.signature != before
        assert launch.with_grid(32).signature == before

    def test_pickle_round_trip_keeps_signature(self, library):
        launch = library.get("lbm").launch(48)
        signature = launch.signature
        copy = pickle.loads(pickle.dumps(launch))
        assert copy == launch
        assert vars(copy)["signature"] == signature
        assert copy.signature == launch_digest(copy)


class TestColdStoreKeys:
    def test_prepare_pair_writes_formula_keys(self, gpu, tmp_path, monkeypatch):
        """A cold preparation keys every store entry by the old formulas."""
        monkeypatch.setattr(system_module, "_PTB_MEMO", {})
        monkeypatch.setattr(system_module, "_PAIR_MEMO", {})
        store = OracleStore(tmp_path / "oracle.json")
        system = TackerSystem(gpu=gpu, store=store)
        launches, solos, fused_calls = [], [], []
        oracle = system.oracle
        for name, log in (("launch_cycles", launches),
                          ("solo_cycles", solos), ("corun", fused_calls)):
            original = getattr(oracle, name)

            def spy(*args, _original=original, _log=log):
                _log.append(args)
                return _original(*args)

            monkeypatch.setattr(oracle, name, spy)
        model = model_by_name("resnet50")
        system.prepare_pair(model, be_application("mriq", system.library))
        assert system.artifacts and launches

        expected = {f"launch|{launch_digest(launch)}" for (launch,) in launches}
        expected |= {
            f"{kernel.name}|{kernel_digest(kernel)}|"
            f"{kernel.default_grid if grid is None else grid}"
            for kernel, *rest in solos for grid in (rest or [None])
        }
        expected_fused = {
            f"{fused.name}|{fused_digest(fused)}|ptb|{tc_grid}|{cd_grid}"
            for fused, tc_grid, cd_grid in fused_calls
        }
        assert set(store.solo) == expected
        assert set(store.fused) == expected_fused
