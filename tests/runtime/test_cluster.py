"""Tests for the cluster-level deployment mode (Section IV)."""

import pytest

from repro.errors import SchedulingError
from repro.models.zoo import model_by_name
from repro.runtime.cluster import (
    ClusterDispatcher,
    ClusterManager,
    ClusterSpec,
    NodeSpec,
    ReplicaState,
    default_cluster_spec,
    routing_strategy,
    serve_cluster,
)
from repro.runtime.replay import Trace, serve_trace
from repro.runtime.runconfig import RunConfig
from repro.runtime.system import TackerSystem
from repro.runtime.workload import merged_arrival_stream


@pytest.fixture(scope="module")
def system(gpu):
    return TackerSystem(gpu=gpu)


def manager(system, threshold=2):
    return ClusterManager(system, occurrence_threshold=threshold)


class TestPlacement:
    def test_node_registration(self, system):
        cluster = manager(system)
        cluster.add_node("gpu0")
        with pytest.raises(SchedulingError):
            cluster.add_node("gpu0")
        with pytest.raises(SchedulingError):
            cluster.node("gpu9")

    def test_occurrence_counting(self, system):
        cluster = manager(system, threshold=3)
        for name in ("gpu0", "gpu1"):
            cluster.add_node(name)
            cluster.place_be(name, "fft")
        assert cluster.occurrences("be", "fft") == 2
        assert not cluster.is_long_running("be", "fft")

    def test_threshold_validation(self, system):
        with pytest.raises(SchedulingError):
            ClusterManager(system, occurrence_threshold=0)


class TestFusionStaging:
    def test_below_threshold_prepares_nothing(self, system):
        cluster = manager(system, threshold=5)
        cluster.add_node("gpu0")
        cluster.place_lc("gpu0", "vgg16")
        cluster.place_be("gpu0", "mriq")
        assert cluster.staging_report()["gpu0"] == 0

    def test_long_running_pair_gets_artifacts(self, system):
        cluster = manager(system, threshold=1)
        cluster.add_node("gpu0")
        cluster.place_lc("gpu0", "vgg16")
        cluster.place_be("gpu0", "mriq")
        assert cluster.staging_report()["gpu0"] > 0
        libraries = cluster.distributed["gpu0"]
        assert all(lib.endswith(".so") for lib in libraries)
        assert any("mriq" in lib for lib in libraries)

    def test_distribution_follows_be_location(self, system):
        """Artifacts land only on nodes hosting the relevant BE app."""
        cluster = manager(system, threshold=1)
        cluster.add_node("gpu0")
        cluster.add_node("gpu1")
        cluster.place_lc("gpu0", "vgg16")
        cluster.place_lc("gpu1", "vgg16")
        cluster.place_be("gpu0", "mriq")
        # gpu1 hosts no BE app, so nothing is shipped there.
        assert cluster.staging_report()["gpu0"] > 0
        assert cluster.staging_report()["gpu1"] == 0

    def test_artifacts_shared_across_nodes(self, system):
        """The same fused library serves every node with the pair."""
        cluster = manager(system, threshold=1)
        cluster.add_node("gpu0")
        cluster.add_node("gpu1")
        for name in ("gpu0", "gpu1"):
            cluster.place_lc(name, "vgg16")
            cluster.place_be(name, "mriq")
        compiled_once = len(cluster.system.compiler)
        assert cluster.distributed["gpu0"] == cluster.distributed["gpu1"]
        # Re-placing does not recompile.
        cluster.place_be("gpu0", "mriq")
        assert len(cluster.system.compiler) == compiled_once

    def test_crossing_threshold_unlocks_other_nodes(self, system):
        """A workload becoming long-running retroactively stages fused
        kernels on every node that already co-hosts the pair."""
        cluster = manager(system, threshold=2)
        cluster.add_node("gpu0")
        cluster.add_node("gpu1")
        cluster.place_lc("gpu0", "vgg16")
        cluster.place_be("gpu0", "mriq")
        assert cluster.staging_report()["gpu0"] == 0  # occurrences = 1
        # Second occurrences land on another node entirely...
        cluster.place_lc("gpu1", "vgg16")
        cluster.place_be("gpu1", "mriq")
        # ...and both nodes get the shared libraries.
        assert cluster.staging_report()["gpu0"] > 0
        assert cluster.distributed["gpu0"] == cluster.distributed["gpu1"]


class TestThresholdBoundaries:
    def test_threshold_exactly_met_stages(self, system):
        """Staging fires at occurrences == threshold, not beyond it."""
        cluster = manager(system, threshold=2)
        for name in ("gpu0", "gpu1"):
            cluster.add_node(name)
            cluster.place_lc(name, "vgg16")
            cluster.place_be(name, "mriq")
        assert cluster.occurrences("lc", "vgg16") == 2
        assert cluster.occurrences("be", "mriq") == 2
        assert cluster.is_long_running("be", "mriq")
        assert cluster.staging_report()["gpu0"] > 0
        assert cluster.staging_report()["gpu1"] > 0

    def test_be_crossing_threshold_retroactively_stages(self, system):
        """The BE app reaching the threshold *after* the LC service
        unlocks staging on nodes placed earlier."""
        cluster = manager(system, threshold=2)
        cluster.add_node("gpu0")
        cluster.add_node("gpu1")
        cluster.place_lc("gpu0", "vgg16")
        cluster.place_lc("gpu1", "vgg16")   # LC long-running already
        cluster.place_be("gpu0", "mriq")    # BE occurrence 1: no staging
        assert cluster.staging_report()["gpu0"] == 0
        cluster.place_be("gpu1", "mriq")    # BE occurrence 2: both stage
        assert cluster.staging_report()["gpu0"] > 0
        assert cluster.staging_report()["gpu1"] > 0


class TestRoutingStrategies:
    def replicas(self, n=3, qos=50.0):
        return [ReplicaState(index, qos) for index in range(n)]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SchedulingError):
            routing_strategy("random")

    def test_roundrobin_cycles(self):
        strategy = routing_strategy("roundrobin")
        replicas = self.replicas(3)
        chosen = [
            strategy.choose(0.0, 10.0, replicas).index for _ in range(5)
        ]
        assert chosen == [0, 1, 2, 0, 1]

    def test_least_prefers_fewest_outstanding(self):
        replicas = self.replicas(2)
        replicas[0].assign(0.0, 10.0, seq=0)
        chosen = routing_strategy("least").choose(1.0, 10.0, replicas)
        assert chosen.index == 1

    def test_headroom_weighs_reserved_milliseconds(self):
        """Two light in-flight queries reserve less than one heavy one —
        headroom sees milliseconds where least-outstanding sees counts."""
        replicas = self.replicas(2)
        replicas[0].assign(0.0, 5.0, seq=0)
        replicas[0].assign(0.0, 5.0, seq=1)   # 10 ms reserved
        replicas[1].assign(0.0, 25.0, seq=2)  # 25 ms reserved
        assert routing_strategy("least").choose(
            0.0, 10.0, replicas
        ).index == 1
        assert routing_strategy("headroom").choose(
            0.0, 10.0, replicas
        ).index == 0

    def test_new_query_slack_is_tail_join_eq9(self):
        replica = ReplicaState(0, 50.0)
        replica.assign(0.0, 20.0, seq=0)
        assert replica.new_query_slack_ms(0.0, 10.0) == pytest.approx(
            50.0 - 20.0 - 10.0
        )

    def test_reservations_drain_over_time(self):
        replica = ReplicaState(0, 50.0)
        replica.assign(0.0, 20.0, seq=0)
        replica.drain(30.0)   # finished at 20 ms
        assert replica.outstanding() == 0
        assert replica.new_query_slack_ms(30.0, 10.0) == pytest.approx(40.0)


class TestDispatcherPlanning:
    def plan(self, system, routing="headroom", nodes=3, steal=True,
             queries=12, be_every=2):
        spec = default_cluster_spec(
            nodes, routing=routing,
            run=RunConfig(queries=queries), steal=steal, be_every=be_every,
        )
        dispatcher = ClusterDispatcher(spec, system=system)
        return dispatcher.dispatch()

    def test_every_query_routed_exactly_once(self, system):
        plan = self.plan(system)
        routed = [a for node in plan.assignments for a in node]
        assert len(routed) == 12
        assert plan.horizon_ms == pytest.approx(
            max(t for _, t in routed) + plan.spec.run.qos_ms
        )

    def test_dispatch_deterministic_under_fixed_seed(self, system):
        first = self.plan(system)
        second = self.plan(system)
        assert first.assignments == second.assignments
        assert first.steals == second.steals
        assert first.utilization == second.utilization

    def test_beless_nodes_always_steal(self, system):
        plan = self.plan(system)
        # be_every=2 leaves node1 BE-less; it adopts the donor's stream.
        assert plan.stolen[1] != ()
        assert plan.be_names[1] == plan.stolen[1]
        assert all(
            (thief, donor) != (donor, thief) for thief, donor, _ in plan.steals
        )

    def test_no_steal_flag_disables_stealing(self, system):
        plan = self.plan(system, steal=False)
        assert plan.steals == ()
        assert all(s == () for s in plan.stolen)

    def test_hosting_nodes_steal_only_past_gap(self, system):
        spec = default_cluster_spec(3, run=RunConfig(queries=6), be_every=1)
        dispatcher = ClusterDispatcher(spec, system=system)
        # Node0 is the hot donor; node1 trails it beyond the 0.15 gap,
        # node2 sits within it.
        be_names, stolen, steals = dispatcher._plan_steals((0.9, 0.5, 0.85))
        assert stolen[1] != () and stolen[2] == ()
        assert all(donor == "node0" for _, donor, _ in steals)


class TestServeCluster:
    def test_serve_deterministic_and_consistent(self, system):
        spec = default_cluster_spec(
            2, routing="headroom", run=RunConfig(queries=8), be_every=1,
        )
        first = serve_cluster(spec, system=system)
        second = serve_cluster(spec, system=system)
        assert [n.tacker.latencies_ms for n in first.nodes] == [
            n.tacker.latencies_ms for n in second.nodes
        ]
        assert first.fleet_be_work_ms == second.fleet_be_work_ms
        assert first.fleet_be_work_ms == pytest.approx(
            sum(n.tacker.total_be_work_ms for n in first.nodes)
        )
        assert sum(n.n_queries for n in first.nodes) == 8
        assert first.fleet_p99_ms > 0

    @pytest.mark.parametrize("policy", ["tacker", "baymax", "multifuse"])
    def test_one_node_cluster_is_a_plain_server(self, gpu, policy):
        """A one-node fleet serves the whole merged stream exactly as a
        plain trace replay on a fresh system does."""
        run = RunConfig(queries=40)
        lc_names = ("resnet50", "vgg19")
        spec = ClusterSpec(
            nodes=(NodeSpec(name="node0", be_names=("fft", "mriq")),),
            lc_names=lc_names, run=run, policy=policy,
        )
        node = serve_cluster(spec).nodes[0].tacker
        fresh = TackerSystem(gpu=gpu, config=run)
        stream = merged_arrival_stream(
            [model_by_name(name) for name in lc_names], fresh.library,
            fresh.oracle, count=run.queries, seed=run.seed, load=run.load,
            qos_ms=run.qos_ms, rate_scale=1 / len(lc_names),
        )
        plain = serve_trace(
            fresh, Trace.from_stream(stream), ("fft", "mriq"), policy,
            streaming=False,
        )
        assert node.horizon_ms == plain.horizon_ms
        assert node.latencies_ms == plain.latencies_ms
        assert node.be_work_ms == plain.be_work_ms
        assert node.kernel_counts() == plain.kernel_counts()
        assert node.end_ms == plain.end_ms

    def test_fault_plans_reseed_per_node(self, system):
        from repro.runtime.faults import FaultPlan

        plan = FaultPlan(be_drop=0.5, seed=7)
        spec = ClusterSpec(
            nodes=(
                NodeSpec(name="node0", be_names=("fft",), faults=plan),
                NodeSpec(name="node1", faults=plan),
            ),
            run=RunConfig(queries=4),
        )
        routed = ClusterDispatcher(spec, system=system).dispatch()
        specs = routed.node_run_specs("rtx2080ti")
        # Replicas endure independent but reproducible fault streams.
        assert specs[0].faults.seed == 7
        assert specs[1].faults.seed == 8
