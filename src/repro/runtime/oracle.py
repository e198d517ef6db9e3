"""Ground-truth kernel durations, memoized — in memory and on disk.

In the paper, real silicon decides how long every launch takes; here the
GPU simulator does.  The oracle memoizes simulations — PTB makes every
launch of a given (kernel, grid) identical, and fused launches repeat
for a given (artifact, tc grid, cd grid) — so a long co-location run
costs one simulation per distinct launch shape, not per launch.

The optional :class:`OracleStore` extends the memo across processes:
durations are persisted to a JSON file keyed by a fingerprint of the
GPU configuration plus a per-kernel launch signature, so repeat
benchmark runs and CI skip re-simulation entirely.  This is the
simulator analogue of the paper shipping pre-compiled fused ``.so``
files (Section VIII-I): all expensive preparation is paid once,
offline.  A store entry is invalidated automatically when either the
GPU config or the kernel's launch shape changes, because both are part
of the key; files written by older schema versions or corrupted files
are ignored wholesale.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from ..config import GPUConfig
from ..fusion.fuser import FusedKernel
from ..gpusim.gpu import (
    CoRunResult,
    KernelLaunch,
    corun_concurrent,
    corun_fused_launch,
    corun_serial,
    corun_spatial,
    simulate_launch,
)
from ..kernels.ir import KernelIR

#: Bumped whenever the persisted layout or simulator semantics change in
#: a way that invalidates old durations.
STORE_SCHEMA = 1

#: Environment override for the cache directory ("" disables persistence).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Kill switch: REPRO_ORACLE_CACHE=0 disables on-disk persistence even
#: when a store path is configured.
CACHE_ENV = "REPRO_ORACLE_CACHE"


def gpu_fingerprint(gpu: GPUConfig) -> str:
    """Stable digest of everything the simulator reads from the config."""
    payload = f"schema={STORE_SCHEMA}|{gpu!r}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class OracleStats:
    """Lookup totals over every oracle of the process.

    Each oracle keeps its own counters; this module-level tally (like
    ``fastpath.STATS``) also counts oracles that no shared system owns
    — the fresh systems of scenario, cluster and autoscale runs — so
    ``--perf`` reports every lookup the process made.
    """

    hits: int = 0
    misses: int = 0
    persistent_hits: int = 0


STATS = OracleStats()


def persistence_enabled() -> bool:
    return os.environ.get(CACHE_ENV, "") not in ("0", "false", "off")


def default_cache_dir() -> Optional[Path]:
    """Resolve the cache directory (env override, else repo-local)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override is not None:
        return Path(override) if override else None
    return Path(__file__).resolve().parents[3] / ".repro_cache"


class OracleStore:
    """On-disk duration cache shared by every oracle of one GPU config.

    One JSON file per GPU fingerprint; entries map
    ``"<signature>|<grid spec>"`` to duration cycles (solo launches) or
    to the full co-run tuple (fused launches).  Writes go through a
    temp-file rename so concurrent writers can never corrupt the store,
    and :meth:`save` merges with whatever is on disk so parallel
    workers only add entries, never clobber each other's.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.solo: dict[str, float] = {}
        self.fused: dict[str, list[float]] = {}
        #: new entries since load/save exist (controls whether save writes)
        self._dirty = False
        self.load()
        # Persist whatever this process simulated even if nobody calls
        # save() explicitly; save() merges and is a no-op when clean.
        atexit.register(self.save)

    @classmethod
    def for_gpu(
        cls, gpu: GPUConfig, directory: Union[str, Path, None] = None
    ) -> Optional["OracleStore"]:
        """The process's store for one GPU fingerprint, or None if disabled.

        One parsed instance per resolved path, re-read only when another
        process has rewritten the file: the store only memoizes simulator
        results, so every system of the process can share it.
        """
        if not persistence_enabled():
            return None
        base = Path(directory) if directory else default_cache_dir()
        if base is None:
            return None
        path = base / f"oracle-{gpu_fingerprint(gpu)}.json"
        key = path.resolve()
        store = _STORES.get(key)
        if store is None:
            store = _STORES[key] = cls(path)
        elif store._stamp != _file_stamp(path):
            store.load()  # another process saved entries since
        return store

    def load(self) -> None:
        """Merge the file's entries in; a missing or corrupted file adds none."""
        self._stamp = _file_stamp(self.path)
        try:
            raw = json.loads(self.path.read_text())
            if raw.get("schema") != STORE_SCHEMA:
                raise ValueError("schema mismatch")
            solo = raw["solo"]
            fused = raw["fused"]
            if not isinstance(solo, dict) or not isinstance(fused, dict):
                raise ValueError("malformed sections")
            solo = {str(k): float(v) for k, v in solo.items()}
            fused = {str(k): [float(x) for x in v] for k, v in fused.items()}
        except (OSError, ValueError, KeyError, TypeError):
            # Missing, unreadable or stale-schema stores fall back to
            # re-simulation; the next save rewrites them.
            return
        self.solo = {**solo, **self.solo}
        self.fused = {**fused, **self.fused}

    def save(self) -> None:
        """Merge this process's entries into the on-disk file atomically."""
        if not self._dirty:
            return
        try:
            self.load()
            payload = json.dumps(
                {
                    "schema": STORE_SCHEMA,
                    "solo": self.solo,
                    "fused": self.fused,
                },
                sort_keys=True,
            )
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.path.parent, prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, self.path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            self._stamp = _file_stamp(self.path)
            self._dirty = False
        except OSError:
            # Persistence is an optimization; never let it break a run.
            pass

    def __len__(self) -> int:
        return len(self.solo) + len(self.fused)


#: :meth:`OracleStore.for_gpu`'s instances, by resolved path
_STORES: dict[Path, OracleStore] = {}


def _file_stamp(path: Path) -> Optional[tuple]:
    """Identity of a store file's contents, None when there is none: every
    save replaces the file, so a save by any process changes it."""
    try:
        stat = path.stat()
    except OSError:
        return None
    return stat.st_ino, stat.st_mtime_ns, stat.st_size


class DurationOracle:
    """Memoized simulator frontend used by the co-location server.

    ``store`` is optional: without one the oracle is a pure in-process
    memo (the seed behavior, and what most unit tests use); with one,
    memo misses consult the persistent store before simulating, and
    fresh simulations are recorded for :meth:`flush` to persist.
    """

    def __init__(
        self, gpu: GPUConfig, store: Optional[OracleStore] = None
    ):
        self.gpu = gpu
        self.store = store
        self._solo_cycles: dict[tuple[str, int], float] = {}
        self._launches: dict[str, float] = {}
        self._fused: dict[tuple, CoRunResult] = {}
        self._signatures: dict[str, str] = {}
        #: simulator invocations, for cache-effectiveness reporting
        self.misses = 0
        #: in-memory memo hits
        self.hits = 0
        #: misses answered by the persistent store (no simulation)
        self.persistent_hits = 0

    # -- keys ----------------------------------------------------------------

    def _signature(self, kernel: KernelIR) -> str:
        sig = self._signatures.get(kernel.name)
        if sig is None:
            sig = kernel.signature
            self._signatures[kernel.name] = sig
        return sig

    def _solo_store_key(self, kernel: KernelIR, grid: int) -> str:
        return f"{kernel.name}|{self._signature(kernel)}|{grid}"

    def _fused_store_key(
        self, fused: FusedKernel, flavor: str, tc_grid: int, cd_grid: int
    ) -> str:
        return (
            f"{fused.name}|{fused.signature}|{flavor}"
            f"|{tc_grid}|{cd_grid}"
        )

    # -- generic launches -----------------------------------------------------

    def launch_cycles(self, launch: KernelLaunch) -> float:
        """Duration of an arbitrary launch, memoized by launch signature.

        The lowest-level entry: PTB profiling probes, fusion-search
        candidates and model-training sweeps all reduce to it, so their
        simulations persist across processes like everything else.
        """
        key = launch.signature
        cached = self._launches.get(key)
        if cached is not None:
            self.hits += 1
            STATS.hits += 1
            return cached
        if self.store is not None:
            persisted = self.store.solo.get(f"launch|{key}")
            if persisted is not None:
                self.persistent_hits += 1
                STATS.persistent_hits += 1
                self._launches[key] = persisted
                return persisted
        self.misses += 1
        STATS.misses += 1
        cycles = simulate_launch(launch, self.gpu).duration_cycles
        self._launches[key] = cycles
        if self.store is not None:
            self.store.solo[f"launch|{key}"] = cycles
            self.store._dirty = True
        return cycles

    # -- solo ----------------------------------------------------------------

    def solo_cycles(
        self, kernel: KernelIR, grid: Optional[int] = None
    ) -> float:
        """Actual solo duration of one launch, in cycles."""
        grid = kernel.default_grid if grid is None else grid
        key = (kernel.name, grid)
        cached = self._solo_cycles.get(key)
        if cached is not None:
            self.hits += 1
            STATS.hits += 1
            return cached
        if self.store is not None:
            store_key = self._solo_store_key(kernel, grid)
            persisted = self.store.solo.get(store_key)
            if persisted is not None:
                self.persistent_hits += 1
                STATS.persistent_hits += 1
                self._solo_cycles[key] = persisted
                return persisted
        self.misses += 1
        STATS.misses += 1
        result = simulate_launch(kernel.launch(grid), self.gpu)
        cycles = result.duration_cycles
        self._solo_cycles[key] = cycles
        if self.store is not None:
            self.store.solo[self._solo_store_key(kernel, grid)] = cycles
            self.store._dirty = True
        return cycles

    def solo_ms(self, kernel: KernelIR, grid: Optional[int] = None) -> float:
        """Actual solo duration of one launch, in milliseconds."""
        return self.gpu.cycles_to_ms(self.solo_cycles(kernel, grid))

    # -- fused ---------------------------------------------------------------

    def _fused_result(
        self,
        fused: FusedKernel,
        flavor: str,
        tc_grid: int,
        cd_grid: int,
        solo_tc,
        solo_cd,
    ) -> CoRunResult:
        """Shared memo/persist logic behind :meth:`fused` and :meth:`corun`.

        ``solo_tc``/``solo_cd`` are thunks, only evaluated on a full
        miss (they may trigger their own solo simulations).
        """
        key = (fused.name, flavor, tc_grid, cd_grid)
        cached = self._fused.get(key)
        if cached is not None:
            self.hits += 1
            STATS.hits += 1
            return cached
        if self.store is not None:
            store_key = self._fused_store_key(
                fused, flavor, tc_grid, cd_grid
            )
            persisted = self.store.fused.get(store_key)
            if persisted is not None and len(persisted) == 5:
                self.persistent_hits += 1
                STATS.persistent_hits += 1
                result = CoRunResult(
                    policy="fused",
                    duration_cycles=persisted[0],
                    solo_a_cycles=persisted[1],
                    solo_b_cycles=persisted[2],
                    finish_a_cycles=persisted[3],
                    finish_b_cycles=persisted[4],
                )
                self._fused[key] = result
                return result
        self.misses += 1
        STATS.misses += 1
        result = corun_fused_launch(
            fused.launch(tc_grid, cd_grid), self.gpu,
            solo_tc(), solo_cd(),
        )
        self._fused[key] = result
        if self.store is not None:
            self.store.fused[
                self._fused_store_key(fused, flavor, tc_grid, cd_grid)
            ] = [
                result.duration_cycles,
                result.solo_a_cycles,
                result.solo_b_cycles,
                result.finish_a_cycles,
                result.finish_b_cycles,
            ]
            self.store._dirty = True
        return result

    def fused(
        self, fused: FusedKernel, tc_grid: int, cd_grid: int
    ) -> CoRunResult:
        """Actual co-run outcome of one fused launch.

        Solo baselines come from the components' *plain* (non-PTB)
        launches — the durations the co-location server compares
        against.
        """
        return self._fused_result(
            fused, "ir", tc_grid, cd_grid,
            lambda: self.solo_cycles(fused.tc.ir, tc_grid),
            lambda: self.solo_cycles(fused.cd.ir, cd_grid),
        )

    def corun(
        self, fused: FusedKernel, tc_grid: int, cd_grid: int
    ) -> CoRunResult:
        """:meth:`FusedKernel.corun` semantics, memoized and persistent.

        Solo baselines come from the components' *PTB* launches — what
        the offline fusion search ranks candidates against.
        """
        return self._fused_result(
            fused, "ptb", tc_grid, cd_grid,
            lambda: self.launch_cycles(fused.tc.launch(tc_grid)),
            lambda: self.launch_cycles(fused.cd.launch(cd_grid)),
        )

    def fused_ms(
        self, fused: FusedKernel, tc_grid: int, cd_grid: int
    ) -> float:
        return self.gpu.cycles_to_ms(
            self.fused(fused, tc_grid, cd_grid).duration_cycles
        )

    # -- co-run policies ------------------------------------------------------

    _POLICIES = {
        "serial": corun_serial,
        "spatial": corun_spatial,
        "concurrent": corun_concurrent,
    }

    def corun_policy(
        self,
        policy: str,
        a: KernelLaunch,
        b: KernelLaunch,
        **params,
    ) -> CoRunResult:
        """A baseline co-run policy outcome, memoized at the pair level.

        The key is (policy, launch signature a, launch signature b,
        extra parameters) — the (kernel-pair, ratio, config) identity of
        a co-run, since each launch signature pins the kernel *and* its
        grid share.  Entries persist in the store alongside fused
        co-runs, so policy sweeps (Fig. 20 and the co-location
        baselines) skip re-simulation across processes.
        """
        if policy not in self._POLICIES:
            raise KeyError(f"unknown co-run policy {policy!r}")
        extra = repr(sorted(params.items()))
        key = (policy, a.signature, b.signature, extra)
        cached = self._fused.get(key)
        if cached is not None:
            self.hits += 1
            STATS.hits += 1
            return cached
        store_key = f"corun|{policy}|{key[1]}|{key[2]}|{extra}"
        if self.store is not None:
            persisted = self.store.fused.get(store_key)
            if persisted is not None and len(persisted) == 5:
                self.persistent_hits += 1
                STATS.persistent_hits += 1
                result = CoRunResult(
                    policy=policy,
                    duration_cycles=persisted[0],
                    solo_a_cycles=persisted[1],
                    solo_b_cycles=persisted[2],
                    finish_a_cycles=persisted[3],
                    finish_b_cycles=persisted[4],
                )
                self._fused[key] = result
                return result
        self.misses += 1
        STATS.misses += 1
        result = self._POLICIES[policy](a, b, self.gpu, **params)
        self._fused[key] = result
        if self.store is not None:
            self.store.fused[store_key] = [
                result.duration_cycles,
                result.solo_a_cycles,
                result.solo_b_cycles,
                result.finish_a_cycles,
                result.finish_b_cycles,
            ]
            self.store._dirty = True
        return result

    # -- persistence ---------------------------------------------------------

    def flush(self) -> None:
        """Persist any fresh simulations to the store, if one is attached."""
        if self.store is not None:
            self.store.save()
