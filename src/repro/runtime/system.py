"""End-to-end system glue: offline preparation + co-location runs.

``TackerSystem`` owns everything that persists across experiments, the
way the paper's deployment does in a private datacenter (Section IV):

* the kernel library and the duration oracle (the "hardware");
* PTB transforms of every fusable kernel (cached);
* the fusion search results and compiled artifacts per (TC, CD) pair
  (cached — one artifact serves every co-location that meets the pair);
* the trained duration models (kernel LR + fused two-stage LR).

Offline preparation depends only on the GPU and the two kernels, so it
is also memoized per process (:class:`PreparedPair`): the first system
to prepare a (TC, CD) pair pays for the search and the training, and
every later system of the same GPU — each node-epoch of an autoscale
run, each replica of a cluster run — adopts the frozen artifacts and a
private copy of the freshly trained model state.

``run_pair`` then evaluates one LC service co-located with one BE
application under Tacker and under Baymax on identical arrival traces,
yielding the per-pair numbers behind Figs. 14, 16 and 19.
``serve_arrivals`` is the one replica recipe that cluster nodes,
autoscale node-epochs and scenario replays serve routed arrivals
through.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from ..config import GPUConfig, RTX2080TI
from ..errors import OccupancyError, SchedulingError
from ..fusion.compiler import FusionCompiler
from ..fusion.fuser import FusedKernel
from ..fusion.ptb import PTBKernel, transform as ptb_transform
from ..fusion.search import FusionDecision, FusionSearch
from ..kernels.library import KernelLibrary, default_library
from ..models.zoo import ModelSpec, model_by_name
from ..predictor.online import OnlineModelManager
from .faults import FaultPlan, make_injector
from .oracle import DurationOracle, OracleStore, gpu_fingerprint
from .policies import GuardConfig, SchedulerPolicy, policy_from_name
from .query import BEApplication, KernelPlan, Query
from .runconfig import DEFAULT_RUN_CONFIG, RunConfig
from .server import ColocationServer, ServerResult
from .workload import PoissonArrivals, be_application, query_instances
from .metrics import throughput_improvement

#: The paper's QoS target (Section VIII-B).
DEFAULT_QOS_MS = DEFAULT_RUN_CONFIG.qos_ms
#: Queries per co-location run: enough for a stable 99th percentile.
DEFAULT_QUERIES = DEFAULT_RUN_CONFIG.queries


@dataclass(frozen=True)
class PreparedPair:
    """One (TC, CD) pair's offline preparation, shared process-wide.

    Nothing here is mutated after preparation: the search decision
    stripped to its winner (None when the pair does not fit on an SM at
    all), whose best candidate is the artifact the compiler registers,
    and the freshly trained models (None when sequential execution won),
    which adopting systems copy (:meth:`OnlineModelManager.adopt_pair`)
    before refitting them online.  The PTB transforms are memoized per
    kernel alongside.
    """

    decision: Optional[FusionDecision]
    trained: Optional[tuple] = None


#: (GPU fingerprint, kernel signature) -> PTB transform
_PTB_MEMO: dict[tuple[str, str], PTBKernel] = {}
#: (GPU fingerprint, TC kernel signature, CD kernel signature) -> preparation
_PAIR_MEMO: dict[tuple[str, str, str], PreparedPair] = {}


@dataclass
class PairOutcome:
    """One co-location pair's evaluation (a Fig. 14 bar)."""

    lc_name: str
    be_name: str
    tacker: ServerResult
    baymax: ServerResult

    @property
    def improvement(self) -> float:
        """Eq. 10 throughput improvement of Tacker over Baymax."""
        return throughput_improvement(self.tacker, self.baymax)

    @property
    def qos_satisfied(self) -> bool:
        return self.tacker.qos_satisfied


class TackerSystem:
    """The full Tacker deployment over the simulated GPU."""

    def __init__(
        self,
        gpu: GPUConfig = RTX2080TI,
        *,
        config: Optional[RunConfig] = None,
        library: Optional[KernelLibrary] = None,
        store: "OracleStore | str | None" = "auto",
        faults: Optional[FaultPlan] = None,
        guard: Optional[GuardConfig] = None,
        audit: Optional[bool] = None,
        telemetry: Optional[bool] = None,
    ):
        #: run-level knobs (QoS target, load, query count, seed)
        self.config = config or DEFAULT_RUN_CONFIG
        self.gpu = gpu
        #: system-wide fault plan applied to every run (None = clean)
        self.faults = faults
        #: guard-rail config attached to every policy (None = unguarded)
        self.guard = guard
        #: invariant auditing for every run this system launches:
        #: True/False overrides, None follows the process-wide switch
        self.audit = audit
        #: telemetry for every run this system launches: True/False
        #: overrides, None follows ``config.telemetry`` / the switch
        self.telemetry = telemetry
        self.library = library if library is not None else default_library()
        if store == "auto":
            # Default deployment: durations persist across processes
            # (disable with REPRO_ORACLE_CACHE=0 or store=None).
            store = OracleStore.for_gpu(gpu)
        self.oracle = DurationOracle(gpu, store=store)
        self.models = OnlineModelManager(gpu, oracle=self.oracle)
        self.compiler = FusionCompiler()
        self._search = FusionSearch(gpu, oracle=self.oracle)
        self._fingerprint = gpu_fingerprint(gpu)
        self._ptb: dict[str, PTBKernel] = {}
        self.artifacts: dict[tuple[str, str], FusedKernel] = {}
        self._searched: set[tuple[str, str]] = set()

    # -- run-level knobs (views over ``self.config``) -----------------------------

    @property
    def qos_ms(self) -> float:
        return self.config.qos_ms

    @property
    def load(self) -> float:
        return self.config.load

    @property
    def seed(self) -> int:
        return self.config.seed

    # -- offline preparation -----------------------------------------------------

    def ptb(self, kernel_name: str) -> PTBKernel:
        """PTB transform of a kernel, cached (and memoized per process)."""
        cached = self._ptb.get(kernel_name)
        if cached is None:
            kernel = self.library.get(kernel_name)
            key = (self._fingerprint, kernel.signature)
            cached = _PTB_MEMO.get(key)
            if cached is None:
                cached = ptb_transform(kernel, self.gpu, oracle=self.oracle)
                _PTB_MEMO[key] = cached
            self._ptb[kernel_name] = cached
        return cached

    def flush(self) -> None:
        """Persist any fresh oracle simulations to the on-disk store."""
        self.oracle.flush()

    def prepare_fusion(self, tc_name: str, cd_name: str) -> Optional[FusedKernel]:
        """Search + compile + train models for one (TC, CD) pair, cached.

        Returns the fused kernel, or None when the offline search found
        sequential execution faster (the pair is never fused online).
        """
        key = (tc_name, cd_name)
        if key in self._searched:
            return self.artifacts.get(key)
        self._searched.add(key)
        memo_key = (
            self._fingerprint,
            self.library.get(tc_name).signature,
            self.library.get(cd_name).signature,
        )
        prepared = _PAIR_MEMO.get(memo_key)
        if prepared is None:
            prepared = _PAIR_MEMO[memo_key] = self._prepare(tc_name, cd_name)
        if prepared.decision is None:
            return None
        artifact = self.compiler.compile(prepared.decision)
        if artifact is None:
            return None
        self.artifacts[key] = artifact.fused
        self.models.adopt_pair(artifact.fused, prepared.trained)
        return artifact.fused

    def _prepare(self, tc_name: str, cd_name: str) -> PreparedPair:
        """Search and train one pair from scratch (the memo's miss path)."""
        try:
            decision = self._search.search(self.ptb(tc_name), self.ptb(cd_name))
        except OccupancyError:
            return PreparedPair(None)
        # Only the winner outlives the search; the memo would otherwise
        # pin every measured candidate artifact for the process lifetime.
        decision = replace(decision, candidates=())
        if not decision.should_fuse:
            return PreparedPair(decision)
        # Train the two-stage duration model now, as the paper does
        # offline with the four canonical load ratios.
        return PreparedPair(
            decision, self.models.trained_pair(decision.best.fused)
        )

    def _candidate_pairs(
        self, model: ModelSpec, be_app: BEApplication
    ) -> set[tuple[str, str]]:
        """All (TC, CD) kernel-name pairs this co-location could fuse."""
        pairs: set[tuple[str, str]] = set()
        lc_tc = {k.kernel for k in model.kernels if k.is_tc and k.fusable}
        lc_cd = {k.kernel for k in model.kernels if not k.is_tc}
        be_tc = {
            i.name for i in be_app.sequence
            if i.kind == "tc" and i.fusable
        }
        be_cd = {i.name for i in be_app.sequence if i.kind == "cd"}
        pairs.update((t, c) for t in lc_tc for c in be_cd)
        pairs.update((t, c) for t in be_tc for c in lc_cd)
        return pairs

    def prepare_pair(self, model: ModelSpec, be_app: BEApplication) -> int:
        """Prepare every fusion candidate of one co-location pair.

        Returns the number of usable fused artifacts.
        """
        usable = 0
        for tc_name, cd_name in sorted(self._candidate_pairs(model, be_app)):
            if self.prepare_fusion(tc_name, cd_name) is not None:
                usable += 1
        return usable

    # -- model persistence ------------------------------------------------------------

    def save_models(self, path: str) -> str:
        """Export every trained duration model to a JSON bundle.

        A deployment ships this bundle alongside the fused libraries so
        restarted runtimes skip the profiling passes.
        """
        return self.models.save(path)

    def load_models(self, path: str) -> int:
        """Restore duration models for the fusion pairs prepared so far.

        Returns the number of models restored.
        """
        return self.models.load(path, self.artifacts)

    # -- co-location runs -----------------------------------------------------------

    def make_policy(
        self,
        name: str,
        guard: "GuardConfig | bool | None" = None,
    ) -> SchedulerPolicy:
        """Build a registered policy bound to this system's models.

        Resolves ``name`` through the policy registry
        (:mod:`repro.runtime.policies.registry`), so third-party
        policies registered with ``register_policy`` work here — and
        everywhere this method backs — without touching this class.

        ``guard`` enables the mispredict guard rails: a
        :class:`GuardConfig`, ``True`` (defaults), or None/False for
        the paper's unguarded kernel manager.  Passing None falls back
        to the system-wide guard configuration.
        """
        if guard is None:
            guard = self.guard
        return policy_from_name(name, self, guard=guard)

    def run_custom(
        self,
        model: ModelSpec,
        be_names: Sequence[str],
        policy: SchedulerPolicy,
        n_queries: Optional[int] = None,
        record_kernels: bool = False,
        faults: "FaultPlan | bool | None" = None,
    ) -> ServerResult:
        """Run an arbitrary policy instance over a standard trace.

        The arrival trace depends only on (model, seed, load, QoS), so
        runs with different policies are directly comparable.

        ``faults`` injects perturbations for this run: a
        :class:`FaultPlan`, or None to fall back to the system-wide
        plan (``False`` forces a clean run).  Each run gets a fresh,
        identically seeded injector, so fault sequences are reproducible
        and independent across runs.
        """
        if n_queries is None:
            n_queries = self.config.queries
        if faults is None:
            faults = self.faults
        if faults is False:
            faults = None
        injector = make_injector(faults)
        arrivals = PoissonArrivals(
            model, self.library, self.oracle,
            load=self.load, seed=self.seed, qos_ms=self.qos_ms,
        )
        queries = arrivals.queries(
            n_queries,
            gap_filter=injector.perturb_gaps if injector else None,
        )
        be_apps = [be_application(name, self.library) for name in be_names]
        server = ColocationServer(
            self.gpu, oracle=self.oracle, policy=policy,
            config=self.config, record_kernels=record_kernels,
            faults=injector, audit_run=self.audit,
            telemetry_run=self.telemetry,
        )
        return server.serve(queries, be_apps)

    def serve_arrivals(
        self,
        policy_name: str,
        services: Iterable[str],
        arrivals: Iterable[tuple],
        be_names: Sequence[str],
        *,
        guard: "GuardConfig | bool | None" = None,
        faults: Optional[FaultPlan] = None,
        horizon_ms: Optional[float] = None,
        result: Optional[ServerResult] = None,
        **server_options,
    ) -> ServerResult:
        """Serve one replica's routed arrivals under a registered policy.

        The recipe every replica shares — a cluster node, an autoscale
        node-epoch, a scenario replay: prepare each (service, BE) pair,
        build the policy with ``guard`` (see :meth:`make_policy`) and a
        fresh injector for ``faults``, and serve the BE applications
        with the queries of ``arrivals``.  ``arrivals`` yields
        ``(service, arrival_ms[, penalty_ms])`` tuples in arrival order
        and is turned into queries lazily, sharing one kernel plan per
        service; ``services`` names every service it may
        carry.  ``horizon_ms`` and ``result`` go to
        :meth:`ColocationServer.serve`, the other keywords to the
        server (``slow_factor``, ``record_kernels``, ``monitor``,
        ``metric_labels``).
        """
        models = {name: model_by_name(name) for name in services}
        be_apps = [be_application(name, self.library) for name in be_names]
        for model in models.values():
            for app in be_apps:
                self.prepare_pair(model, app)
        plans = {
            name: KernelPlan(query_instances(model, self.library))
            for name, model in models.items()
        }
        queries = (
            Query(models[name], arrival_ms, plans[name].instances, *penalty,
                  plan=plans[name])
            for name, arrival_ms, *penalty in arrivals
        )
        server = ColocationServer(
            self.gpu, oracle=self.oracle,
            policy=self.make_policy(policy_name, guard=guard),
            config=self.config, faults=make_injector(faults),
            audit_run=self.audit, telemetry_run=self.telemetry,
            **server_options,
        )
        return server.serve(queries, be_apps, horizon_ms, result)

    def run_multi(
        self,
        lc_names: Sequence[str],
        be_names: Sequence[str],
        n_queries: Optional[int] = None,
        policy_name: str = "tacker",
        load_split: Optional[Sequence[float]] = None,
    ) -> ServerResult:
        """Co-locate several LC services and BE applications on one GPU.

        Each service keeps its own arrival process; since the GPU is
        shared, every service runs at a *fraction* of its solo-calibrated
        load (default: an equal split), mirroring how a multi-tenant
        deployment divides capacity.  Queries from all services merge
        into one FIFO trace; the Eq. 9 headroom already reserves earlier
        queries' remaining time regardless of which service they belong
        to.
        """
        if not lc_names:
            raise SchedulingError("need at least one LC service")
        if n_queries is None:
            n_queries = self.config.queries
        if load_split is None:
            load_split = [1.0 / len(lc_names)] * len(lc_names)
        if len(load_split) != len(lc_names) or sum(load_split) > 1.0 + 1e-9:
            raise SchedulingError(
                "load_split must match lc_names and sum to at most 1"
            )
        queries: list = []
        for index, (lc_name, share) in enumerate(
            zip(lc_names, load_split)
        ):
            model = model_by_name(lc_name)
            for be_name in be_names:
                self.prepare_pair(
                    model, be_application(be_name, self.library)
                )
            arrivals = PoissonArrivals(
                model, self.library, self.oracle,
                load=self.load * share,
                seed=self.seed + index,
                qos_ms=self.qos_ms,
            )
            queries.extend(arrivals.queries(n_queries))
        be_apps = [be_application(name, self.library) for name in be_names]
        server = ColocationServer(
            self.gpu, oracle=self.oracle,
            policy=self.make_policy(policy_name),
            config=self.config, audit_run=self.audit,
            telemetry_run=self.telemetry,
        )
        return server.serve(queries, be_apps)

    def run_pair(
        self,
        lc_name: "str | ModelSpec",
        be_name: str,
        n_queries: Optional[int] = None,
        record_kernels: bool = False,
    ) -> PairOutcome:
        """Evaluate one LC x BE co-location under Tacker and Baymax.

        ``lc_name`` is a model name from the zoo, or a ready-made
        :class:`ModelSpec` (e.g. a custom-batch variant).
        """
        model = (
            lc_name if isinstance(lc_name, ModelSpec)
            else model_by_name(lc_name)
        )
        be_app = be_application(be_name, self.library)
        self.prepare_pair(model, be_app)
        tacker = self.run_custom(
            model, [be_name], self.make_policy("tacker"),
            n_queries=n_queries, record_kernels=record_kernels,
        )
        baymax = self.run_custom(
            model, [be_name], self.make_policy("baymax"),
            n_queries=n_queries, record_kernels=record_kernels,
        )
        return PairOutcome(
            lc_name=model.name, be_name=be_app.name,
            tacker=tacker, baymax=baymax,
        )
