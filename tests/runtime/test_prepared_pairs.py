"""The process-wide prepared-pair memo shares artifacts, never model state.

Systems of one process adopt the first system's search decision and
compiled artifact, and a private copy of the freshly trained models:
online refits on one system must not reach another, and an adopted
model must equal one trained from scratch.
"""

from __future__ import annotations

import pytest

from repro.models.zoo import model_by_name
from repro.runtime import system as system_module
from repro.runtime.system import TackerSystem
from repro.runtime.workload import be_application

BE_NAMES = ("mriq", "fft")


def prepare(gpu) -> TackerSystem:
    system = TackerSystem(gpu=gpu, store=None)
    model = model_by_name("resnet50")
    for be_name in BE_NAMES:
        system.prepare_pair(model, be_application(be_name, system.library))
    return system


def state(fused_model):
    """Everything a fused model's predictions depend on."""
    return (
        fused_model._before.ratios, fused_model._before.norm_durations,
        fused_model._before.line, fused_model._after.ratios,
        fused_model._after.norm_durations, fused_model._after.line,
        fused_model._inflection, fused_model.update_count,
    )


@pytest.fixture()
def fresh_memo(monkeypatch):
    """Preparation from scratch, as if no system had prepared before."""
    monkeypatch.setattr(system_module, "_PTB_MEMO", {})
    monkeypatch.setattr(system_module, "_PAIR_MEMO", {})


def test_systems_share_artifacts_not_models(gpu):
    a, b = prepare(gpu), prepare(gpu)
    assert a.artifacts and a.artifacts.keys() == b.artifacts.keys()
    for key, fused in a.artifacts.items():
        assert b.artifacts[key] is fused
        model_a = a.models.fused_model(fused)
        model_b = b.models.fused_model(fused)
        assert model_a is not model_b
        assert model_a.tc_model is not model_b.tc_model
        assert model_b.oracle is b.oracle
        assert model_b.tc_model.oracle is b.oracle


def test_refit_on_one_system_leaves_the_other_unchanged(gpu):
    a, b = prepare(gpu), prepare(gpu)
    key, fused = next(iter(a.artifacts.items()))
    xori_tc, xori_cd = 50_000.0, 40_000.0
    before = b.models.predict_fused(fused, xori_tc, xori_cd)
    predicted = a.models.predict_fused(fused, xori_tc, xori_cd)
    a.models.observe_fused(fused, xori_tc, xori_cd, 2.0 * predicted)
    assert a.models.fused_model(fused).update_count == 1
    assert a.models.predict_fused(fused, xori_tc, xori_cd) != predicted
    assert b.models.predict_fused(fused, xori_tc, xori_cd) == before
    assert b.models.fused_model(fused).update_count == 0
    # a system built after the refit still adopts the pristine state
    c = prepare(gpu)
    assert state(c.models.fused_model(c.artifacts[key])) == state(
        b.models.fused_model(fused)
    )


def test_adopted_models_equal_fresh_training(gpu, monkeypatch):
    prepare(gpu)  # warm the memo, so the next system adopts
    adopted = prepare(gpu)
    monkeypatch.setattr(system_module, "_PTB_MEMO", {})
    monkeypatch.setattr(system_module, "_PAIR_MEMO", {})
    fresh = prepare(gpu)
    assert fresh.artifacts.keys() == adopted.artifacts.keys()
    for key, fused in fresh.artifacts.items():
        assert state(adopted.models.fused_model(adopted.artifacts[key])) == state(
            fresh.models.fused_model(fused)
        )
    assert adopted.models.trained_kernel_models == fresh.models.trained_kernel_models
    for name in ("tgemm_l", "mriq", "fft"):
        kernel = fresh.library.get(name)
        assert adopted.models.kernel_model(kernel).model == (
            fresh.models.kernel_model(kernel).model
        )


def test_training_cost_matches_fresh_preparation(gpu, fresh_memo):
    first, second = prepare(gpu), prepare(gpu)
    assert first.models.total_training_ms > 0
    assert second.models.total_training_ms == first.models.total_training_ms
    assert second.compiler.total_compile_ms == first.compiler.total_compile_ms
