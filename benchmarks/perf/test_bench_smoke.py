"""Smoke test of the perf benchmark, not part of tier-1::

    PYTHONPATH=src python -m pytest benchmarks/perf

Runs ``bench.py --smoke --trace`` once (tiny sizes, one repeat, about
30 s) and checks the harness against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OBSERVED = "diurnal-observed"


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--smoke", "--trace",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout, json.loads((out / "results.json").read_text())


def test_every_benchmark_metric_printed_with_its_unit(smoke):
    stdout, results = smoke
    assert sorted(results["workloads"]) == sorted(
        w["name"] for w in SPEC["workloads"]
    )
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        pattern = rf"^\s*{re.escape(metric['name'])}\s.*\s{re.escape(metric['unit'])}\s"
        assert re.search(pattern, stdout, re.MULTILINE), metric


def test_traced_digest_equals_untraced(smoke):
    _, results = smoke
    for name, entry in results["workloads"].items():
        # cold, warm, and for autoscale the 2-worker fan-out
        assert len(entry["traced_digests"]) >= 2, name
        assert set(entry["traced_digests"]) == {entry["sim_digest"]}, name
        assert entry["ops_failed"] == 0, name


def test_observers_silent_unless_observed(smoke):
    _, results = smoke
    for name, entry in results["workloads"].items():
        calls = entry["layers"]["observers.calls"]
        assert (calls > 0) if name == OBSERVED else (calls == 0), name
