"""Tests for the Tacker and Baymax scheduling policies."""

import pytest

from repro.models.zoo import model_by_name
from repro.runtime.policies import (
    Action,
    BaymaxPolicy,
    TackerPolicy,
    scheduling_overhead_ms,
)
from repro.runtime.query import BEApplication, KernelInstance, Query
from repro.runtime.system import TackerSystem


@pytest.fixture(scope="module")
def system(gpu):
    sys_ = TackerSystem(gpu=gpu)
    sys_.prepare_fusion("tgemm_l", "fft")
    return sys_


def lc_query(system, arrival=0.0, kernels=("tgemm_l", "relu")):
    instances = tuple(
        KernelInstance(system.library.get(name),
                       system.library.get(name).default_grid)
        for name in kernels
    )
    return Query(model_by_name("resnet50"), arrival, instances)


def be_fft(system):
    kernel = system.library.get("fft")
    return BEApplication(
        "fft", (KernelInstance(kernel, kernel.default_grid),)
    )


class TestSchedulingOverhead:
    def test_paper_anchors(self):
        # Section VIII-I: ~0.5 ms static, ~1.2 ms with 50 fusion pairs.
        assert scheduling_overhead_ms(0, fusion=False) == pytest.approx(0.5)
        assert scheduling_overhead_ms(50) == pytest.approx(1.2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scheduling_overhead_ms(-1)


class TestAction:
    FIELDS = (
        "kind", "query", "be_app", "fused", "predicted_lc_ms",
        "predicted_be_ms", "predicted_fused_ms", "be_app2", "riders",
        "corun",
    )

    def test_slotted_record(self, system):
        action = Action("be", be_app=be_fft(system))
        assert not hasattr(action, "__dict__")
        with pytest.raises(AttributeError):
            action.note = "no such field"

    def test_positional_equals_keyword(self, system):
        query, app = lc_query(system), be_fft(system)
        values = ("chain", query, app, None, 1.0, 2.0, 3.0, app, (app,),
                  ("concurrent", None, None, ()))
        positional = Action(*values)
        keyword = Action(**dict(zip(self.FIELDS, values)))
        for name, value in zip(self.FIELDS, values):
            assert getattr(positional, name) is value
            assert getattr(keyword, name) is value
        defaults = Action("lc")
        assert [getattr(defaults, name) for name in self.FIELDS] == [
            "lc", None, None, None, 0.0, 0.0, 0.0, None, (), None,
        ]


class TestBaymaxPolicy:
    def test_pure_be_when_idle(self, gpu, system):
        policy = BaymaxPolicy(gpu, system.models, 50.0)
        action = policy.decide(0.0, [], [be_fft(system)])
        assert action.kind == "be"

    def test_nothing_runnable_returns_none(self, gpu, system):
        policy = BaymaxPolicy(gpu, system.models, 50.0)
        assert policy.decide(0.0, [], []) is None

    def test_reorders_into_headroom(self, gpu, system):
        policy = BaymaxPolicy(gpu, system.models, 50.0)
        query = lc_query(system)
        action = policy.decide(0.0, [query], [be_fft(system)])
        assert action.kind == "be"

    def test_no_headroom_runs_lc(self, gpu, system):
        policy = BaymaxPolicy(gpu, system.models, 50.0)
        query = lc_query(system, arrival=-49.0)  # elapsed ~ QoS
        action = policy.decide(0.0, [query], [be_fft(system)])
        assert action.kind == "lc"

    def test_one_reorder_per_lc_kernel(self, gpu, system):
        policy = BaymaxPolicy(gpu, system.models, 50.0)
        query = lc_query(system)
        app = be_fft(system)
        first = policy.decide(0.0, [query], [app])
        assert first.kind == "be"
        second = policy.decide(1.0, [query], [app])
        assert second.kind == "lc"

    def test_never_fuses(self, gpu, system):
        policy = BaymaxPolicy(gpu, system.models, 50.0)
        query = lc_query(system)
        app = be_fft(system)
        for now in (0.0, 1.0, 2.0):
            action = policy.decide(now, [query], [app])
            assert action.kind != "fused"


class TestTackerPolicy:
    def make(self, gpu, system):
        return TackerPolicy(gpu, system.models, 50.0, system.artifacts)

    def test_fuses_tc_kernel_with_be_cd(self, gpu, system):
        policy = self.make(gpu, system)
        query = lc_query(system)
        action = policy.decide(0.0, [query], [be_fft(system)])
        assert action.kind == "fused"
        assert action.fused.tc.ir.name == "tgemm_l"
        assert policy.fusions == 1

    def test_eq8_blocks_fusion_without_headroom(self, gpu, system):
        policy = self.make(gpu, system)
        query = lc_query(system, arrival=-49.5)
        action = policy.decide(0.0, [query], [be_fft(system)])
        assert action.kind == "lc"

    def test_unfusable_kernel_falls_back(self, gpu, system):
        policy = self.make(gpu, system)
        kernel = system.library.get("tgemm_l")
        instances = (
            KernelInstance(kernel, kernel.default_grid, fusable=False),
        )
        query = Query(model_by_name("resnet50"), 0.0, instances)
        action = policy.decide(0.0, [query], [be_fft(system)])
        assert action.kind in ("be", "lc")

    def test_missing_artifact_falls_back(self, gpu, system):
        policy = TackerPolicy(gpu, system.models, 50.0, artifacts={})
        query = lc_query(system)
        action = policy.decide(0.0, [query], [be_fft(system)])
        assert action.kind != "fused"

    def test_pure_be_when_idle(self, gpu, system):
        policy = self.make(gpu, system)
        action = policy.decide(0.0, [], [be_fft(system)])
        assert action.kind == "be"

    def test_predictions_attached_to_fused_action(self, gpu, system):
        policy = self.make(gpu, system)
        action = policy.decide(0.0, [lc_query(system)], [be_fft(system)])
        assert action.predicted_fused_ms > action.predicted_lc_ms > 0
        assert action.predicted_be_ms > 0


class TestReverseFusion:
    """Section IV: "The LC kernels and BE kernels are not limited to a
    specified type" — a BE Tensor-core kernel can ride under an LC
    CUDA-core kernel."""

    def test_be_tc_fuses_under_lc_cd(self, gpu, system):
        system.prepare_fusion("tgemm_l", "relu")
        policy = TackerPolicy(gpu, system.models, 50.0, system.artifacts)
        relu = system.library.get("relu")
        query = Query(
            model_by_name("resnet50"), 0.0,
            (KernelInstance(relu, relu.default_grid),),
        )
        gemm = system.library.get("tgemm_l")
        be_train = BEApplication(
            "Res-T-like",
            (KernelInstance(gemm, gemm.default_grid, fusable=True),),
        )
        action = policy.decide(0.0, [query], [be_train])
        assert action.kind == "fused"
        assert action.fused.tc.ir.name == "tgemm_l"
        assert action.fused.cd.ir.name == "relu"

    def test_unfusable_be_tc_is_skipped(self, gpu, system):
        system.prepare_fusion("tgemm_l", "relu")
        policy = TackerPolicy(gpu, system.models, 50.0, system.artifacts)
        relu = system.library.get("relu")
        query = Query(
            model_by_name("resnet50"), 0.0,
            (KernelInstance(relu, relu.default_grid),),
        )
        gemm = system.library.get("tgemm_l")
        blackbox = BEApplication(
            "cudnn-like",
            (KernelInstance(gemm, gemm.default_grid, fusable=False),),
        )
        action = policy.decide(0.0, [query], [blackbox])
        assert action.kind != "fused"

    def test_reverse_fusion_cost_accounted_against_lc(self, gpu, system):
        """The headroom cost of a reverse fusion is the fused time minus
        the LC (CD) kernel's own time — the whole BE GEMM rides inside
        the query's budget."""
        system.prepare_fusion("tgemm_l", "relu")
        policy = TackerPolicy(gpu, system.models, 50.0, system.artifacts)
        relu = system.library.get("relu")
        # Query with nearly no headroom: the reverse fusion's extra LC
        # time (~0.5 ms, the whole BE GEMM) no longer fits and must be
        # refused.
        query = Query(
            model_by_name("resnet50"), -44.8,
            (KernelInstance(relu, relu.default_grid),),
        )
        gemm = system.library.get("tgemm_l")
        be_train = BEApplication(
            "Res-T-like",
            (KernelInstance(gemm, gemm.default_grid, fusable=True),),
        )
        action = policy.decide(0.0, [query], [be_train])
        assert action.kind == "lc"
