"""Tests for the policy plugin framework: the registry and the zoo.

Covers the package split's contract: the registry rejects collisions
and mistypes early (with a did-you-mean), late registrations are
immediately visible everywhere names resolve, the moved Tacker/Baymax
policies serve byte-identical runs through the registry and through
direct construction, heterogeneous per-node clusters work, and each
zoo policy survives a served run under the full invariant auditor.
"""

from __future__ import annotations

import pytest

from repro import audit
from repro.errors import ConfigError, SchedulingError
from repro.models.zoo import model_by_name
from repro.runtime.cluster import ClusterSpec, NodeSpec, serve_cluster
from repro.runtime.autoscale import AutoscaleSpec
from repro.runtime.policies import (
    BaymaxPolicy,
    TackerPolicy,
    list_policies,
    policy_from_name,
    register_policy,
    unregister_policy,
)
from repro.runtime.query import BEApplication, KernelInstance, Query
from repro.runtime.runconfig import RunConfig
from repro.runtime.server import ColocationServer
from repro.runtime.system import TackerSystem

BUILTINS = ("baymax", "gpuos", "hfuse", "multifuse", "spatial", "tacker")


@pytest.fixture(scope="module")
def system(gpu):
    sys_ = TackerSystem(gpu=gpu, config=RunConfig(queries=30))
    model = model_by_name("resnet50")
    for be_name in ("sgemm", "mriq"):
        sys_.prepare_pair(
            model,
            BEApplication(be_name, (
                KernelInstance(sys_.library.get(be_name),
                               sys_.library.get(be_name).default_grid),
            )),
        )
    return sys_


def be_app(system, name):
    kernel = system.library.get(name)
    return BEApplication(
        name, (KernelInstance(kernel, kernel.default_grid),)
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert list_policies() == BUILTINS

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SchedulingError, match="already registered"):
            register_policy("tacker", lambda system, guard: None)

    def test_replace_allows_override(self):
        sentinel = object()
        try:
            register_policy(
                "tacker", lambda system, guard: sentinel, replace=True
            )
            assert policy_from_name("tacker", system=None) is sentinel
        finally:
            from repro.runtime.policies.tacker import _factory

            register_policy("tacker", _factory, replace=True)

    def test_unknown_name_lists_registry_with_hint(self):
        with pytest.raises(SchedulingError) as info:
            policy_from_name("tackr", system=None)
        message = str(info.value)
        assert "did you mean 'tacker'?" in message
        for name in BUILTINS:
            assert name in message

    def test_late_registration_visible(self, system):
        def factory(system, guard):
            return BaymaxPolicy(
                system.gpu, system.models, system.qos_ms, guard=guard
            )

        try:
            register_policy("baymax-clone", factory)
            assert "baymax-clone" in list_policies()
            policy = system.make_policy("baymax-clone")
            assert isinstance(policy, BaymaxPolicy)
        finally:
            unregister_policy("baymax-clone")
        assert "baymax-clone" not in list_policies()

    def test_rejects_bad_registrations(self):
        with pytest.raises(SchedulingError):
            register_policy("", lambda system, guard: None)
        with pytest.raises(SchedulingError):
            register_policy("not-callable", "nope")


class TestEarlyValidation:
    def test_run_config_validates_policy(self):
        with pytest.raises(SchedulingError, match="registered policies"):
            RunConfig(policy="bogus")
        assert RunConfig(policy="hfuse").policy == "hfuse"

    def test_cluster_spec_validates_policy_and_baseline(self):
        with pytest.raises(SchedulingError, match="cluster policy"):
            ClusterSpec(nodes=(NodeSpec("n0"),), policy="bogus")
        with pytest.raises(SchedulingError, match="cluster baseline"):
            ClusterSpec(nodes=(NodeSpec("n0"),), baseline="bogus")

    def test_node_spec_validates_policy(self):
        with pytest.raises(SchedulingError, match="node policy"):
            NodeSpec("n0", policy="tackr")

    def test_autoscale_spec_validates_policy(self):
        with pytest.raises(SchedulingError, match="autoscale policy"):
            AutoscaleSpec(policy="bogus")
        with pytest.raises(ConfigError):
            AutoscaleSpec(epoch_ms=-1)


class TestSplitIsByteIdentical:
    """make_policy (registry path) == direct construction, run for run."""

    def _run(self, system, policy):
        server = ColocationServer(
            system.gpu, oracle=system.oracle, policy=policy,
            config=system.config,
        )
        model = model_by_name("resnet50")
        instances = tuple(
            KernelInstance(system.library.get(n),
                           system.library.get(n).default_grid)
            for n in ("tgemm_l", "relu", "tgemm_l", "bn")
        )
        queries = [
            Query(model, i * 12.0, instances) for i in range(20)
        ]
        apps = [be_app(system, "sgemm"), be_app(system, "mriq")]
        return server.serve(queries, apps)

    @pytest.mark.parametrize("name,cls", [
        ("baymax", BaymaxPolicy), ("tacker", TackerPolicy),
    ])
    def test_registry_and_direct_runs_match(self, gpu, name, cls):
        # Fresh systems per arm: served runs mutate predictor state.
        results = []
        for arm in ("registry", "direct"):
            system = TackerSystem(gpu=gpu, config=RunConfig(queries=20))
            model = model_by_name("resnet50")
            for be_name in ("sgemm", "mriq"):
                system.prepare_pair(model, be_app(system, be_name))
            if arm == "registry":
                policy = system.make_policy(name)
            elif cls is TackerPolicy:
                policy = TackerPolicy(
                    system.gpu, system.models, system.qos_ms,
                    system.artifacts,
                )
            else:
                policy = BaymaxPolicy(
                    system.gpu, system.models, system.qos_ms
                )
            results.append(self._run(system, policy))
        registry_run, direct_run = results
        assert registry_run.latencies_ms == direct_run.latencies_ms
        assert registry_run.total_be_work_ms == direct_run.total_be_work_ms
        assert registry_run.n_fused_kernels == direct_run.n_fused_kernels


class TestZooUnderAudit:
    """Each zoo policy serves a run with every invariant checked."""

    @pytest.fixture(autouse=True)
    def audited(self):
        audit.reset()
        audit.enable()
        yield
        audit.reset()

    @pytest.mark.parametrize(
        "name", ["hfuse", "spatial", "gpuos", "multifuse"]
    )
    def test_zoo_policy_run_passes_audit(self, gpu, name):
        system = TackerSystem(gpu=gpu, config=RunConfig(queries=15))
        model = model_by_name("resnet50")
        for be_name in ("sgemm", "mriq"):
            system.prepare_pair(model, be_app(system, be_name))
        policy = system.make_policy(name)
        result = system.run_custom(
            model, ("sgemm", "mriq"), policy, n_queries=15
        )
        assert len(result.latencies_ms) == 15
        assert result.total_be_work_ms > 0
        checks = audit.summary()
        assert checks.get("eq9-reservation", 0) > 0
        assert checks.get("kernel-count-conservation", 0) >= 1

    def test_hfuse_actually_hfuses(self, gpu):
        system = TackerSystem(gpu=gpu, config=RunConfig(queries=10))
        model = model_by_name("resnet50")
        for be_name in ("sgemm", "mriq"):
            system.prepare_pair(model, be_app(system, be_name))
        policy = system.make_policy("hfuse")
        result = system.run_custom(
            model, ("sgemm", "mriq"), policy, n_queries=10
        )
        assert result.n_hfused_kernels > 0

    def test_spatial_server_path(self, gpu):
        """Small-grid kernels under-fill their partitions, so the
        spatial co-run genuinely overlaps and the server's kind=
        "spatial" path executes (saturating kernels never admit: with
        linear SM scaling the balanced split's gain is exactly zero).
        """
        system = TackerSystem(gpu=gpu, config=RunConfig(queries=8))
        model = model_by_name("resnet50")
        small_be = BEApplication("mriq", (
            KernelInstance(system.library.get("mriq"), 6),
        ))
        system.prepare_pair(model, small_be)
        policy = system.make_policy("spatial")
        instances = (
            KernelInstance(system.library.get("tgemm_l"), 4),
            KernelInstance(system.library.get("relu"), 4),
        )
        queries = [
            Query(model, i * 10.0, instances) for i in range(8)
        ]
        server = ColocationServer(
            system.gpu, oracle=system.oracle, policy=policy,
            config=system.config,
        )
        result = server.serve(queries, [small_be])
        assert result.n_spatial_kernels > 0
        assert all(q.done for q in queries)


class TestHeterogeneousCluster:
    def test_per_node_policy_overrides(self, gpu):
        spec = ClusterSpec(
            nodes=(
                NodeSpec("n0", be_names=("sgemm",)),
                NodeSpec("n1", be_names=("mriq",), policy="hfuse"),
                NodeSpec("n2", be_names=("fft",), policy="baymax"),
            ),
            lc_names=("resnet50",),
            run=RunConfig(queries=24),
            steal=False,
        )
        result = serve_cluster(spec, gpu="rtx2080ti")
        by_name = {node.name: node for node in result.nodes}
        assert by_name["n0"].policy == "tacker"
        assert by_name["n1"].policy == "hfuse"
        assert by_name["n2"].policy == "baymax"
        assert all(node.baseline == "baymax" for node in result.nodes)
        # n2 ran policy == baseline: both slots are one (deduped) run.
        n2 = by_name["n2"]
        assert n2.tacker.latencies_ms == n2.baymax.latencies_ms
