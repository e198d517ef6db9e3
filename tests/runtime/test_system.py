"""End-to-end tests for the TackerSystem glue."""

import pytest

from repro.errors import SchedulingError
from repro.models.zoo import model_by_name
from repro.runtime.system import TackerSystem
from repro.runtime.workload import be_application


@pytest.fixture(scope="module")
def system(gpu):
    return TackerSystem(gpu=gpu)


class TestOfflinePreparation:
    def test_ptb_cached(self, system):
        first = system.ptb("fft")
        assert system.ptb("fft") is first

    def test_prepare_fusion_caches_decision(self, system):
        fused = system.prepare_fusion("tgemm_l", "mriq")
        assert fused is not None
        again = system.prepare_fusion("tgemm_l", "mriq")
        assert again is fused
        assert ("tgemm_l", "mriq") in system.artifacts

    def test_candidate_pairs_cover_both_directions(self, system):
        model = model_by_name("resnet50")
        app = be_application("Res-T", system.library)
        pairs = system._candidate_pairs(model, app)
        # LC TC x BE CD.
        assert any(t.startswith("tgemm") and c == "weight_update"
                   for t, c in pairs)
        # BE TC x LC CD (reverse fusion).
        assert any(c in ("relu", "bn", "relu_s", "bn_s")
                   for _, c in pairs)

    def test_unfusable_tc_kernels_excluded(self, system):
        model = model_by_name("resnet50")
        app = be_application("fft", system.library)
        pairs = system._candidate_pairs(model, app)
        fusable_tc = {
            k.kernel for k in model.kernels if k.is_tc and k.fusable
        }
        assert {t for t, _ in pairs} == fusable_tc


class TestRunPair:
    def test_unknown_policy_rejected(self, system):
        with pytest.raises(SchedulingError):
            system.make_policy("laius")

    def test_small_pair_run(self, system):
        outcome = system.run_pair("resnet50", "fft", n_queries=15)
        assert outcome.lc_name == "Resnet50"
        assert outcome.be_name == "fft"
        # Same arrival trace for both policies.
        assert outcome.tacker.horizon_ms == outcome.baymax.horizon_ms
        assert len(outcome.tacker.latencies_ms) == 15
        # Tacker fuses; Baymax never does.
        assert outcome.tacker.n_fused_kernels > 0
        assert outcome.baymax.n_fused_kernels == 0
        # Fusion can only help BE throughput.
        assert outcome.improvement > 0
        assert outcome.qos_satisfied


class TestRunMulti:
    def test_merged_services_hold_qos(self, system):
        result = system.run_multi(
            ("vgg16", "densenet"), ("mriq",),
            n_queries=12, load_split=(0.12, 0.12),
        )
        by_model = result.p99_by_model()
        assert set(by_model) == {"VGG16", "Densenet"}
        assert len(result.latencies_ms) == 24
        assert all(p <= system.qos_ms for p in by_model.values())

    def test_default_split_is_equal(self, system):
        result = system.run_multi(
            ("vgg16", "densenet"), ("mriq",), n_queries=6
        )
        assert len(result.latencies_ms) == 12

    def test_bad_split_rejected(self, system):
        with pytest.raises(SchedulingError):
            system.run_multi(("vgg16",), ("mriq",), n_queries=4,
                             load_split=(0.5, 0.5))
        with pytest.raises(SchedulingError):
            system.run_multi((), ("mriq",), n_queries=4)

    def test_per_model_latencies_partition_total(self, system):
        result = system.run_multi(
            ("vgg16", "densenet"), ("mriq",),
            n_queries=8, load_split=(0.15, 0.15),
        )
        total = sum(len(v) for v in result.latencies_by_model.values())
        assert total == len(result.latencies_ms)


class TestModelPersistence:
    def test_save_load_through_system(self, system, tmp_path):
        system.prepare_fusion("tgemm_l", "mriq")
        path = system.save_models(str(tmp_path / "models.json"))
        fresh = TackerSystem(gpu=system.gpu)
        fresh.artifacts.update(system.artifacts)
        restored = fresh.load_models(path)
        assert restored > 0
