"""Compare two ``bench.py`` results, workload by workload.

    python benchmarks/perf/compare.py PARENT CHANGE

Each side is a ``results.json`` file, or a directory whose
``**/results.json`` files (in sorted order, e.g. one per alternating
run) are pooled.  For every (workload, end-to-end metric) it prints
both sides' medians and quartiles over every sample and a verdict,
with the bound and direction taken from ``BENCHMARK.json``:

* ``unresolved`` -- either side's spread (quartile distance / median)
  exceeds the bound, and not every change run beats every parent run;
* ``regressed`` -- the change's median is worse by more than the bound;
* ``improved`` -- better by more than the parent's own spread, winning
  at least nine tenths of the index-aligned pairs (ties count for
  neither), or beating every parent run outright;
* ``unchanged`` -- otherwise.

Samples of every set are pooled.  It also prints whether each
workload's simulated-outcome digest is the same on both sides, and
exits 1 when any metric regressed or a digest differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _load(side: str) -> dict:
    """workload -> {"digests": set, "ops_failed": int, metric: samples}."""
    path = Path(side)
    files = sorted(path.glob("**/results.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no results.json under {side}")
    pooled: dict = {}
    for file in files:
        for name, entry in json.loads(file.read_text())["workloads"].items():
            into = pooled.setdefault(name, {"digests": set(), "ops_failed": 0})
            into["digests"].add(entry["sim_digest"])
            into["ops_failed"] += entry["ops_failed"]
            for per_set in entry["sets"]:
                for metric, stats in per_set.items():
                    into.setdefault(metric, []).extend(stats["samples"])
    return pooled


def _spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def verdict(parent: list, change: list, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = sign * (c_med - p_med) / p_med  # > 0: the change is worse
    beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
    if max(_spread(parent), _spread(change)) > bound:
        return "improved" if beats_all else "unresolved"
    if worse > bound:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    if beats_all or (-worse > _spread(parent) and wins >= 0.9 * len(pairs)):
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (_load(side) for side in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for name, p_entry in parent.items():
        if name not in change:
            print(f"{name}: missing from {argv[1]}")
            continue
        c_entry = change[name]
        same = p_entry["digests"] == c_entry["digests"]
        failed |= not same
        print(f"{name}: sim_digest {'same' if same else 'DIFFERS'}; "
              f"ops_failed {p_entry['ops_failed']} -> {c_entry['ops_failed']}")
        for metric in spec["end_to_end"]:
            p = p_entry.get(metric["name"], [])
            c = c_entry.get(metric["name"], [])
            if not p or not c:
                continue
            result = verdict(p, c, metric["bound"], metric["better"])
            failed |= result == "regressed"
            quart = [statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
                     for v in (p, c)]
            print(f"  {metric['name']:<8}"
                  f"{quart[0][1]:10.4f} [{quart[0][0]:.4f}, {quart[0][2]:.4f}] n={len(p)}"
                  f"  ->{quart[1][1]:10.4f} [{quart[1][0]:.4f}, {quart[1][2]:.4f}] n={len(c)}"
                  f" {metric['unit']:<3} {result} (bound {metric['bound']:.0%})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
