"""Tests for the policies' prediction tables.

Every policy prices kernels through ``SchedulerPolicy.predict_ms`` and
Tacker-family policies price each (LC kernel, BE head) pair through a
table of Eq. 8 quotes; both tables hold one model version's values.
These tests pin that the tables change no decision: a replay whose
predictions all go through the models (an identity perturbation
bypasses the tables) serves exactly what the memoized replay serves,
and a refit or a bundle load re-prices the next decision.  HFuse's
table of profiled pair co-runs is pinned the same way, against a
replay that prices every pair afresh.
"""

from __future__ import annotations

import json

import pytest

from repro.models.zoo import model_by_name
from repro.runtime.policies import HFusePolicy, TackerPolicy, list_policies
from repro.runtime.query import BEApplication, KernelInstance, Query
from repro.runtime.replay import load_scenario, serve_trace, synthesize_trace
from repro.runtime.system import TackerSystem
from repro.runtime.workload import be_application
from repro.telemetry import RunTelemetry

N_QUERIES = 60


def _identity(name, value):
    return value


def replay(gpu, policy_name, perturb, **kwargs):
    """A short ``steady`` replay on a fresh system.

    ``perturb`` is installed on the models for the run; a fresh system
    keeps one run's online refits out of the other's models.
    """
    scenario = load_scenario("steady")
    system = TackerSystem(
        gpu=gpu, config=scenario.run_config(n_queries=N_QUERIES)
    )
    for service in scenario.lc_services:
        for be_name in scenario.be_apps:
            system.prepare_pair(
                model_by_name(service),
                be_application(be_name, system.library),
            )
    trace = synthesize_trace(
        scenario, system.library, system.oracle, n_queries=N_QUERIES
    )
    system.models.perturb = perturb
    try:
        return serve_trace(
            system, trace, scenario.be_apps, policy_name, **kwargs
        )
    finally:
        system.models.perturb = None


class TestMemoizedEqualsCallThrough:
    @pytest.mark.parametrize("policy_name", list_policies())
    def test_same_summary_and_kernel_counts(self, gpu, policy_name):
        memoized = replay(gpu, policy_name, None)
        through = replay(gpu, policy_name, _identity)
        assert memoized.summary_dict() == through.summary_dict()
        assert memoized.kernel_counts() == through.kernel_counts()

    @pytest.mark.parametrize("policy_name", ("tacker", "multifuse"))
    def test_same_executed_launches(self, gpu, policy_name):
        memoized = replay(
            gpu, policy_name, None, streaming=False, record_kernels=True
        )
        through = replay(
            gpu, policy_name, _identity, streaming=False, record_kernels=True
        )
        assert memoized.executed == through.executed
        # the quote path is exercised, riders included
        assert memoized.n_fused_kernels > 0
        if policy_name == "multifuse":
            assert memoized.n_chain_kernels > 0


class TestHFusePairTable:
    @staticmethod
    def serve(gpu):
        """The folded and the listed ``hfuse`` replay."""
        return (
            replay(gpu, "hfuse", None),
            replay(gpu, "hfuse", None, streaming=False, record_kernels=True),
        )

    def test_fresh_pricing_serves_the_same(self, gpu, monkeypatch):
        folded, listed = self.serve(gpu)
        decide = HFusePolicy.decide

        def decide_afresh(policy, *args):
            policy._pairs.clear()
            return decide(policy, *args)

        monkeypatch.setattr(HFusePolicy, "decide", decide_afresh)
        fresh_folded, fresh_listed = self.serve(gpu)
        assert folded.summary_dict() == fresh_folded.summary_dict()
        assert folded.kernel_counts() == fresh_folded.kernel_counts()
        assert listed.kernel_counts() == fresh_listed.kernel_counts()
        assert listed.executed == fresh_listed.executed
        # the table is exercised: pairs co-reside and launch
        assert listed.n_hfused_kernels > 0


@pytest.fixture()
def system(gpu):
    """A private system: these tests refit and reload its models."""
    sys_ = TackerSystem(gpu=gpu)
    sys_.prepare_fusion("tgemm_l", "fft")
    return sys_


def lc_and_be(system):
    """A tgemm_l LC query and an fft BE stream (a fusable pair)."""
    tgemm = system.library.get("tgemm_l")
    fft = system.library.get("fft")
    query = Query(
        model_by_name("resnet50"), 0.0,
        (KernelInstance(tgemm, tgemm.default_grid),),
    )
    app = BEApplication("fft", (KernelInstance(fft, fft.default_grid),))
    return query, app


def decide_fused(policy, system):
    query, app = lc_and_be(system)
    action = policy.decide(0.0, [query], [app])
    assert action.kind == "fused"
    return action


def quote(action):
    """(Tk_fuse, Tgain) behind a fused action."""
    extra_lc_ms = action.predicted_fused_ms - action.predicted_lc_ms
    return action.predicted_fused_ms, action.predicted_be_ms - extra_lc_ms


class TestModelChangeReprices:
    def make(self, gpu, system):
        return TackerPolicy(gpu, system.models, 50.0, system.artifacts)

    def test_online_refit(self, gpu, system):
        policy = self.make(gpu, system)
        before = decide_fused(policy, system)
        version = system.models.version
        # an observation 20% above the prediction triggers the refit
        system.models.observe_fused(
            before.fused,
            gpu.ms_to_cycles(before.predicted_lc_ms),
            gpu.ms_to_cycles(before.predicted_be_ms),
            1.2 * gpu.ms_to_cycles(before.predicted_fused_ms),
        )
        assert system.models.version == version + 1
        fresh = decide_fused(self.make(gpu, system), system)
        # the quote table re-prices on its own, not only when a
        # prediction lookup happens to empty it first
        query, app = lc_and_be(system)
        requoted = policy._fusion_for(query.current, app, float("inf"))
        assert requoted.fused_ms == fresh.predicted_fused_ms
        after = decide_fused(policy, system)
        assert quote(after) == quote(fresh)
        assert quote(after)[0] > quote(before)[0]
        assert quote(after)[1] < quote(before)[1]

    def test_bundle_load(self, gpu, system, tmp_path):
        policy = self.make(gpu, system)
        before = decide_fused(policy, system)
        lc_instance = lc_and_be(system)[0].current
        lc_ms = policy.predict_ms(lc_instance)
        # a bundle whose kernel models predict 10% faster
        path = tmp_path / "models.json"
        system.models.save(str(path))
        bundle = json.loads(path.read_text())
        for data in bundle["kernels"].values():
            data["line"]["slope"] *= 0.9
            data["line"]["intercept"] *= 0.9
        path.write_text(json.dumps(bundle))
        version = system.models.version
        assert system.models.load(str(path), system.artifacts) > 0
        assert system.models.version == version + 1
        fresh_policy = self.make(gpu, system)
        assert policy.predict_ms(lc_instance) == pytest.approx(0.9 * lc_ms)
        assert policy.predict_ms(lc_instance) == fresh_policy.predict_ms(
            lc_instance
        )
        after = decide_fused(policy, system)
        assert quote(after) == quote(decide_fused(fresh_policy, system))
        assert quote(after) != quote(before)


class TestSharedCandidates:
    """The decision log shares one candidate per Eq. 8 evaluation."""

    def logged(self, policy, system):
        """The candidate of one logged fused decision."""
        session = policy.telemetry = RunTelemetry(policy=policy.policy_name)
        try:
            decide_fused(policy, system)
        finally:
            policy.telemetry = None
        (record,) = session.decisions
        (candidate,) = record.candidates
        assert record.chosen_candidate() is candidate
        return candidate

    def test_same_evaluation_same_candidate(self, gpu, system):
        policy = TackerPolicy(gpu, system.models, 50.0, system.artifacts)
        first = self.logged(policy, system)
        assert self.logged(policy, system) is first
        action = decide_fused(policy, system)
        # a refit advances the model version: a new candidate, re-priced
        system.models.observe_fused(
            action.fused,
            gpu.ms_to_cycles(action.predicted_lc_ms),
            gpu.ms_to_cycles(action.predicted_be_ms),
            1.2 * gpu.ms_to_cycles(action.predicted_fused_ms),
        )
        refit = self.logged(policy, system)
        assert refit is not first
        assert refit.tk_fuse_ms > first.tk_fuse_ms
        assert self.logged(policy, system) is refit

    def test_perturbed_evaluations_log_fresh_candidates(self, gpu, system):
        policy = TackerPolicy(gpu, system.models, 50.0, system.artifacts)
        system.models.perturb = _identity
        try:
            first = self.logged(policy, system)
            again = self.logged(policy, system)
        finally:
            system.models.perturb = None
        assert again == first and again is not first
