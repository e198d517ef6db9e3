"""Tests for the command-line interface."""

import json
import sys

import pytest

from repro.cli import main


class TestInformational:
    def test_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "tgemm_l" in out and "mriq" in out
        assert "30 kernels" in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "Resnet50" in out and "Densenet" in out


class TestFuse:
    def test_fusable_pair(self, capsys):
        assert main(["fuse", "tgemm_l", "fft"]) == 0
        out = capsys.readouterr().out
        assert "fused at ratio" in out

    def test_source_flag(self, capsys):
        main(["fuse", "tgemm_l", "fft", "--source"])
        assert "bar.sync" in capsys.readouterr().out


class TestRunPair(object):
    def test_run_pair(self, capsys):
        code = main(["run-pair", "vgg16", "mriq", "--queries", "15"])
        out = capsys.readouterr().out
        assert code == 0
        assert "improvement over Baymax" in out
        assert "QoS satisfied: yes" in out


class TestRunCluster:
    def test_no_sweep_serves_the_fleet_only(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["run-cluster", "--nodes", "2", "--queries", "40",
                     "--no-sweep"])
        out = capsys.readouterr().out
        assert code == 0
        rows = [line.split()[0] for line in out.splitlines()
                if line.startswith("node")]
        assert rows == ["node", "node0", "node1"]  # the header, two nodes
        assert "fleet: be work" in out
        # without the sweep no results table is written
        assert list(tmp_path.iterdir()) == []


class TestTrace:
    def test_trace_export(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = main([
            "trace", "vgg16", "mriq", str(path), "--queries", "4"
        ])
        assert code == 0
        with open(path) as handle:
            trace = json.load(handle)
        assert trace["traceEvents"]

    def test_v100_preset_flag(self, capsys):
        assert main(["--gpu", "v100", "kernels"]) == 0
        assert "V100" in capsys.readouterr().out


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def clean_telemetry(self, monkeypatch):
        """The CLI flips process-global switches; contain the blast."""
        from repro.telemetry import core

        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        core.reset()
        yield
        core.reset()

    def test_metrics_command(self, tmp_path, capsys):
        decisions = tmp_path / "decisions.jsonl"
        code = main([
            "metrics", "vgg16", "mriq", "--queries", "6",
            "--decisions", str(decisions),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "# TYPE repro_runs_total counter" in out
        assert 'repro_runs_total{policy="tacker"} 1' in out
        from repro.telemetry import validate_decision_jsonl

        assert validate_decision_jsonl(str(decisions)) > 0

    def test_metrics_json_output(self, capsys):
        assert main(["metrics", "vgg16", "mriq", "--queries", "6",
                     "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "repro_runs_total" in snapshot

    def test_telemetry_flag_prints_summary(self, capsys):
        code = main([
            "--telemetry", "run-pair", "vgg16", "mriq", "--queries", "6",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry:" in out and "metric families" in out

    def test_trace_cluster_mode(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        code = main([
            "--telemetry", "trace", "vgg16", "mriq", str(path),
            "--queries", "4", "--nodes", "2",
        ])
        assert code == 0
        with open(path) as handle:
            trace = json.load(handle)
        assert trace["otherData"]["n_nodes"] == 2
        assert {e["pid"] for e in trace["traceEvents"]} == {1, 2}


class TestPolicies:
    def test_policies_lists_registry(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ("tacker", "baymax", "hfuse", "spatial", "gpuos",
                     "multifuse"):
            assert name in out
        assert "repro.runtime.policies.tacker" in out

    def test_run_scenario_rejects_unknown_policy_early(self):
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError, match="did you mean"):
            main(["run-scenario", "steady", "--quick",
                  "--policy", "tackr"])

    def test_run_tournament_quick(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_QUICK", "1")
        out_path = tmp_path / "tournament.txt"
        code = main([
            "run-tournament", "--quick", "--scenario", "steady",
            "--policy", "tacker", "--policy", "baymax",
            "--out", str(out_path),
        ])
        assert code == 0
        text = out_path.read_text()
        assert "steady" in text and "tacker" in text
        assert "zoo_beats_baymax_cells" in text


class TestParsing:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_gpu(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["--gpu", "a100", "kernels"])


class TestPeakRss:
    """The --max-rss-mb gate must read ru_maxrss in platform units."""

    class _Usage:
        def __init__(self, ru_maxrss):
            self.ru_maxrss = ru_maxrss

    def test_linux_reports_kilobytes(self, monkeypatch):
        import resource

        from repro.cli import _peak_rss_mb

        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(
            resource, "getrusage", lambda who: self._Usage(512 * 1024)
        )
        assert _peak_rss_mb() == pytest.approx(512.0)

    def test_darwin_reports_bytes(self, monkeypatch):
        import resource

        from repro.cli import _peak_rss_mb

        monkeypatch.setattr(sys, "platform", "darwin")
        monkeypatch.setattr(
            resource,
            "getrusage",
            lambda who: self._Usage(512 * 1024 * 1024),
        )
        # same physical 512 MB peak, darwin's bytes convention
        assert _peak_rss_mb() == pytest.approx(512.0)

    def test_same_peak_reads_identically_across_platforms(self, monkeypatch):
        """The regression: a darwin peak read with the linux divisor
        would report 1024x too large and trip any sane gate."""
        import resource

        from repro.cli import _peak_rss_mb

        physical_mb = 100.0
        readings = {}
        for platform, maxrss in (
            ("linux", physical_mb * 1024),
            ("darwin", physical_mb * 1024 * 1024),
        ):
            monkeypatch.setattr(sys, "platform", platform)
            monkeypatch.setattr(
                resource, "getrusage", lambda who, m=maxrss: self._Usage(m)
            )
            readings[platform] = _peak_rss_mb()
        assert readings["linux"] == pytest.approx(readings["darwin"])
        assert readings["linux"] == pytest.approx(physical_mb)


class TestRunAutoscale:
    def test_smoke(self, capsys):
        code = main([
            "run-autoscale", "diurnal", "--scaler", "static",
            "--rate-nodes", "2", "--span-ms", "4000",
            "--epoch-ms", "2000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "scaler static" in out
        assert "fleet:" in out and "node-s" in out

    def test_perf_counts_every_oracle(self, capsys, monkeypatch):
        """Node-epoch systems are not shared systems, yet --perf
        counts their oracle lookups."""
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        code = main([
            "--perf", "run-autoscale", "diurnal", "--scaler", "static",
            "--rate-nodes", "2", "--span-ms", "4000",
            "--epoch-ms", "2000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        perf = dict(
            line.strip().split(" = ")
            for line in out.split("\nperf:", 1)[1].splitlines()[1:]
            if " = " in line
        )
        lookups = sum(
            int(perf.get(key, 0)) for key in
            ("oracle_hits", "oracle_misses", "oracle_persistent_hits")
        )
        assert lookups > 0

    def test_crash_flag(self, capsys):
        code = main([
            "run-autoscale", "diurnal", "--scaler", "static",
            "--rate-nodes", "2", "--span-ms", "4000",
            "--epoch-ms", "2000",
            "--crash", "0@1500",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "rerouted" in out
