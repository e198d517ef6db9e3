"""The stable ``repro.api`` facade and the RunConfig consolidation."""

import pytest

from repro import api
from repro.config import RTX2080TI
from repro.errors import ConfigError
from repro.runtime.runconfig import DEFAULT_RUN_CONFIG, RunConfig
from repro.runtime.system import TackerSystem


class TestFacade:
    def test_every_exported_symbol_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_matches_package_root(self):
        """The facade and the package root agree on shared symbols."""
        import repro

        for name in set(api.__all__) & set(repro.__all__):
            assert getattr(api, name) is getattr(repro, name)

    def test_cluster_surface_present(self):
        for name in ("ClusterSpec", "NodeSpec", "default_cluster_spec",
                     "serve_cluster", "ClusterDispatcher", "ClusterResult"):
            assert name in api.__all__


class TestRunConfig:
    def test_defaults_are_the_papers_operating_point(self):
        assert DEFAULT_RUN_CONFIG == RunConfig(
            qos_ms=50.0, load=0.8, queries=200, seed=2022
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(qos_ms=0.0)
        with pytest.raises(ConfigError):
            RunConfig(load=0.0)
        with pytest.raises(ConfigError):
            RunConfig(load=1.2)
        with pytest.raises(ConfigError):
            RunConfig(queries=0)

    def test_with_overrides_ignores_none(self):
        base = RunConfig(qos_ms=40.0)
        assert base.with_overrides(qos_ms=None, load=None) is base
        assert base.with_overrides(load=0.9) == RunConfig(
            qos_ms=40.0, load=0.9
        )

    def test_with_overrides_rejects_unknown_knobs(self):
        with pytest.raises(ConfigError):
            RunConfig().with_overrides(qps=3)

    def test_hashable_cache_key(self):
        assert RunConfig(load=0.9) in {RunConfig(load=0.9)}


class TestKeywordOnlySignatures:
    def test_system_rejects_positional_knobs(self):
        with pytest.raises(TypeError):
            TackerSystem(RTX2080TI, 50.0)

    def test_server_rejects_positional_knobs(self):
        with pytest.raises(TypeError):
            api.ColocationServer(RTX2080TI, object(), object())
