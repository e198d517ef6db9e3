"""Layered host-time benchmark of the Tacker reproduction.

Every workload runs in fresh, serial processes against a private
duration store, with tracing off; a separate traced pass gives the
per-layer numbers.  See ``README.md`` for what each metric, workload
and layer means.

Full run, every workload in two interleaved sets of five repeats::

    python benchmarks/perf/bench.py [--trace] [--seed N] [--sets 2] [--repeats 5]

One workload, for a harness that varies the seed and the run length;
the last line of stdout is one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)::

    python benchmarks/perf/bench.py --workload steady-tacker --seed 7 --seconds 15 --trace 0

``--smoke`` shrinks every workload and makes one repeat.  Results go to
``OUT/results.json`` (default ``benchmarks/perf/out``) and traced spans
to ``OUT/trace.jsonl``; ``compare.py`` compares two results files.
Exits non-zero when a correctness check fails: a run raised, a query
went missing, or the simulated outcome's digest differed between runs
that must agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, LAYER_TARGETS, layer_metrics, layer_shares
from workloads import WORKLOADS, WORKLOADS_BY_NAME

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: end-to-end metric -> (unit, the statistic a run reports over its
#: samples); bounds and directions are in BENCHMARK.json.  Host noise
#: on a shared machine only ever adds time, in episodes of seconds, so
#: a run's wall_s is its fastest sample: on a shared 2-core host the
#: median's spread across seeds was 0.23 where the best's was 0.085.
END_TO_END = {"wall_s": ("s", "best"), "setup_s": ("s", "median"),
              "rss_mb": ("MB", "median")}
#: a run makes at least this many repeats, whatever its --seconds; the
#: first this-many repeats of each workload also time a cold setup
MIN_REPEATS = 3
#: wall-clock limit of one child process
CHILD_TIMEOUT_S = 60


def _env(store: Path, tmp: Path) -> dict:
    """The pinned child environment: private store, one BLAS thread,
    no inherited ``REPRO_*``/``AUDIT`` switches, bytecode caching on."""
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")
        and key not in ("AUDIT", "PYTHONDONTWRITEBYTECODE")
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=str(store),
        REPRO_WORKERS="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        TMPDIR=str(tmp),
    )
    return env


def _child(args: list, store: Path, tmp: Path) -> dict:
    """Run ``workloads.py ARGS`` in a fresh process; its JSON record."""
    label = " ".join(args[:2])
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args],
        cwd=ROOT, env=_env(store, tmp), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its workers
        proc.communicate()
        return {"errors": [f"{label}: timed out after {CHILD_TIMEOUT_S} s"]}
    except BaseException:  # interrupted or terminated: stop them too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"errors": []}
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        record["errors"] = record.get("errors") or [
            f"{label}: exit code {proc.returncode}"
        ]
    return record


def _stats(metric: str, values: list) -> dict:
    """Quartiles of one metric's samples, and the value a run reports."""
    if not values:
        return {"value": None, "n": 0, "samples": []}
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    best = min(values)
    value = best if END_TO_END[metric][1] == "best" else median
    return {"value": value, "best": best, "median": median, "q1": q1,
            "q3": q3, "n": len(values), "samples": values}


class Slot:
    """One workload in one set: its private store, samples and checks."""

    def __init__(self, workload, set_index: int, out: Path,
                 seed: "int | None", smoke: bool):
        self.workload = workload
        self.dir = out / f"{workload.name}-set{set_index}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.tmp = self.dir / "tmp"
        self.tmp.mkdir(parents=True)
        scenario = json.loads(
            (ROOT / "scenarios" / f"{workload.scenario}.json").read_text()
        )
        if seed is not None:
            scenario["seed"] = seed
        path = self.dir / f"{workload.scenario}-seed{scenario['seed']}.json"
        path.write_text(json.dumps(scenario, indent=2))
        self.args = [workload.name, str(path)] + (["--smoke"] if smoke else [])
        self.samples: dict = {name: [] for name in END_TO_END}
        self.digests: set = set()
        self.traced_digests: list = []
        self.errors: list = []
        self.record: dict = {}  # the warm-up's simulated outcome
        self.attempted = 0
        self.failed = 0

    def _run(self, mode: str, store: Path, *flags: str) -> dict:
        record = _child([mode, *self.args, *flags], store, self.tmp)
        self.errors.extend(
            f"{self.workload.name}: {error}" for error in record["errors"]
        )
        if mode == "run":
            if "sim_digest" in record:
                self.digests.add(record["sim_digest"])
                self.attempted += record["ops_attempted"]
                self.failed += record["ops_failed"]
            else:  # the run raised: every query of it failed
                per_run = self.record.get("ops_attempted", 1)
                self.attempted += per_run
                self.failed += per_run
        return record

    def warm_up(self) -> None:
        """Untimed run that fills the private store."""
        self.record = self._run("run", self.dir / "store")

    def sample(self, with_setup: bool) -> float:
        """One warm timed run, after a cold setup if asked; returns the
        seconds the warm run's process took, which --seconds budgets."""
        if with_setup:
            store = self.dir / "setup-store"
            shutil.rmtree(store, ignore_errors=True)
            record = self._run("setup", store)
            if "setup_s" in record:
                self.samples["setup_s"].append(record["setup_s"])
        start = time.perf_counter()
        record = self._run("run", self.dir / "store")
        if "wall_s" in record:
            self.samples["wall_s"].append(record["wall_s"])
            self.samples["rss_mb"].append(record["rss_mb"])
        return time.perf_counter() - start

    def trace_pass(self, trace_file: Path) -> "dict | None":
        """One traced cold run (empty store) and one traced warm run;
        an autoscale workload also repeats the warm run over 2 workers."""
        store = self.dir / "trace-store"
        shutil.rmtree(store, ignore_errors=True)
        runs = {"cold": (), "warm": ()}
        if self.workload.autoscale:
            runs["fanout"] = ("--workers", "2")
        passes = {}
        for name, flags in runs.items():
            record = self._run("run", store, "--trace", *flags)
            if "trace" not in record:
                return None
            passes[name] = record["trace"]
            self.traced_digests.append(record["sim_digest"])
        with trace_file.open("a") as handle:
            for name, summary in passes.items():
                for span in summary["spans"]:
                    handle.write(json.dumps(
                        {"workload": self.workload.name, "pass": name, **span}
                    ) + "\n")
        walls = self.samples["wall_s"]
        untraced = min(walls) if walls else 0.0
        return {
            "metrics": layer_metrics(passes["cold"], passes["warm"], untraced,
                                     passes.get("fanout")),
            "shares": layer_shares(passes["warm"]),
        }


def _digest_errors(slots: list) -> list:
    """Every run of a workload must simulate the same: the warm-up, each
    repeat of every set, and the traced runs, 2-worker fan-out included."""
    digests: dict = {}
    for slot in slots:
        digests.setdefault(slot.workload.name, set()).update(slot.digests)
    return [f"{name}: sim_digest differs between runs ({len(seen)} distinct)"
            for name, seen in digests.items() if len(seen) > 1]


def _bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def _report(results: dict, sets: int) -> None:
    bounds = _bounds()
    for name, entry in results["workloads"].items():
        print(f"\n{name}: ops_attempted={entry['ops_attempted']} "
              f"ops_failed={entry['ops_failed']} launches={entry['launches']} "
              f"sim_digest={(entry['sim_digest'] or '-')[:16]}")
        for metric, (unit, statistic) in END_TO_END.items():
            values = []
            for index, per_set in enumerate(entry["sets"]):
                s = per_set[metric]
                if s["n"]:
                    values.append(s["value"])
                    print(f"  {metric:<8} set{index} {s['value']:10.4f} {unit:<3}"
                          f" {statistic:<6} of n={s['n']}: median {s['median']:.4f}"
                          f" [q1 {s['q1']:.4f}, q3 {s['q3']:.4f}]")
            if sets > 1 and len(values) == sets:
                gap = (max(values) - min(values)) / min(values)
                verdict = "agree" if gap <= bounds[metric] else "DIFFER"
                print(f"  {metric:<8} sets {verdict}: gap {gap:+.1%} "
                      f"(bound {bounds[metric]:.0%})")
        if "layers" in entry:
            print("  per-layer (traced; cold: gpusim.*, oracle.store_save_s):")
            for metric, unit, _, layer, _ in LAYER_METRICS:
                print(f"    {metric:<28}{entry['layers'][metric]:14.4f} "
                      f"{unit:<6} {layer:<13} moves {LAYER_TARGETS[layer]}")
            shares = ", ".join(f"{layer} {share:.0%}"
                               for layer, share in entry["shares"].items())
            print(f"  inclusive shares of traced warm wall: {shares}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]),
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS_BY_NAME),
                        help="run one workload and print one JSON line last")
    parser.add_argument("--seed", type=int, default=None,
                        help="rewrite every scenario's seed (default: its own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"repeat until the warm runs have taken this "
                             f"long (at least {MIN_REPEATS} repeats)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run the traced pass")
    parser.add_argument("--sets", type=int, default=2,
                        help="interleaved sets of the whole-suite run")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one set, one repeat")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so _child stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    driver = args.workload is not None
    workloads = [WORKLOADS_BY_NAME[args.workload]] if driver else list(WORKLOADS)
    sets = 1 if driver or args.smoke else args.sets
    args.out.mkdir(parents=True, exist_ok=True)
    trace_file = args.out / "trace.jsonl"
    if args.trace:
        trace_file.unlink(missing_ok=True)
    started = time.perf_counter()
    slots = [[Slot(w, index, args.out, args.seed, args.smoke) for w in workloads]
             for index in range(sets)]
    flat = [slot for row in slots for slot in row]
    for slot in flat:
        slot.warm_up()

    def more(repeat: int, spent: float) -> bool:
        if args.smoke:
            return repeat < 1
        if args.seconds is not None:
            return repeat < MIN_REPEATS or spent < args.seconds
        return repeat < args.repeats

    # A driver's traced run reports per-layer metrics only: its untraced
    # repeats exist for the overhead ratio and the digest check.
    with_setup = not (driver and args.trace)
    repeat, spent = 0, 0.0
    while more(repeat, spent):
        # alternate which set goes first, so drift hits every set alike
        for row in (slots if repeat % 2 == 0 else slots[::-1]):
            for slot in row:
                spent += slot.sample(with_setup and repeat < MIN_REPEATS)
        repeat += 1
        print(f"repeat {repeat} done at {time.perf_counter() - started:.1f} s",
              flush=True)
    layers = {}
    if args.trace:
        for slot in slots[0]:
            layers[slot.workload.name] = slot.trace_pass(trace_file)
    errors = [e for slot in flat for e in slot.errors] + _digest_errors(flat)

    results: dict = {
        "schema": "repro-perfbench/1",
        "seed": args.seed,
        "sets": sets,
        "repeats": repeat,
        "smoke": args.smoke,
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "elapsed_s": time.perf_counter() - started,
        "ok": not errors,
        "errors": errors,
        "workloads": {},
    }
    for index, slot in enumerate(slots[0]):
        entry = results["workloads"][slot.workload.name] = {
            "ops_attempted": slot.record.get("ops_attempted"),
            "ops_failed": sum(row[index].failed for row in slots),
            "launches": slot.record.get("launches"),
            "sim_digest": slot.record.get("sim_digest"),
            "sets": [{metric: _stats(metric, row[index].samples[metric])
                      for metric in END_TO_END} for row in slots],
        }
        if layers.get(slot.workload.name):
            entry["layers"] = layers[slot.workload.name]["metrics"]
            entry["shares"] = layers[slot.workload.name]["shares"]
            entry["traced_digests"] = slot.traced_digests
    (args.out / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    _report(results, sets)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(f"\ntotal {results['elapsed_s']:.1f} s; results in "
          f"{args.out / 'results.json'}")

    if driver:
        slot = slots[0][0]
        entry = results["workloads"][slot.workload.name]
        if args.trace:
            values = entry.get("layers", {})
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _, _, _ in LAYER_METRICS if name in values}
        else:
            metrics = {name: {"value": entry["sets"][0][name]["value"],
                              "unit": unit}
                       for name, (unit, _) in END_TO_END.items()
                       if slot.samples[name]}
        print(json.dumps({"correct": not errors, "attempted": slot.attempted,
                          "failed": slot.failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
