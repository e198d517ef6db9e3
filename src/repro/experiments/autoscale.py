"""Autoscaling study: scaler policy × the scenario library.

The cluster-scale experiment (PR 4) serves a *static* fleet; this one
closes the loop.  Each cell runs :func:`repro.runtime.autoscale.
run_autoscale` — the deterministic epoch control loop — for one
(scenario, scaler policy) pair at fleet scale (50–100+ replicas on the
full diurnal shape), and the table answers the provisioning question:
how much fleet capacity does each policy bill to serve the same trace,
and what does its merged p99 look like next to static provisioning?

The headline comparison is burn-rate vs. static on the diurnal
scenario: the burn-rate scaler should save node-time by draining the
trough while keeping the fleet-merged p99 at or below static's (its
packed replicas never exceed the per-node load static reaches at the
sine crest) with zero QoS violations in both arms.  Flash-crowd shows
the honest limit of reactive capacity — no scaler can provision ahead
of an unforecast surge — and tenant-churn exercises scaling across
membership changes.

A canary-rollout demo rides along: two small control loops roll out a
predictor refit behind the QoS gate, one benign (completes) and one
mis-calibrated (aborts at the canary epoch).

The controller itself is serial; the per-replica epoch simulations fan
out via ``parallel_map`` inside each cell, and the rendered table is
byte-identical serial vs. parallel — the property the CI determinism
gate checks for ``benchmarks/results/autoscale.txt``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..runtime.autoscale import (
    AutoscaleSpec,
    RefitPlan,
    ScalerConfig,
    run_autoscale,
)
from .common import format_table, parallel_map, quick_mode, register_cache

#: The fleet-sizing policies ranked against each other.
SCALERS = ("static", "reactive", "burnrate")

#: Scenarios with a shape worth scaling over (steady is a no-op).
SCENARIOS = ("diurnal", "flash-crowd", "tenant-churn")

#: (rate_nodes, span_ms, epoch_ms) per scenario.  Diurnal covers one
#: full period at 56 node-worths of traffic (the fleet peaks near 70
#: replicas); the others are sized to their transient.
FULL_SHAPES = {
    "diurnal": (56, 20000.0, 1000.0),
    "flash-crowd": (16, 8000.0, 1000.0),
    "tenant-churn": (12, 15000.0, 1500.0),
}
QUICK_SHAPES = {
    "diurnal": (4, 20000.0, 2000.0),
    "flash-crowd": (4, 6000.0, 1000.0),
    "tenant-churn": (4, 9000.0, 1500.0),
}

HEADERS = [
    "scenario", "scaler", "nodes", "peak", "min", "node-s", "saved %",
    "queries", "p99 ms", "+/-tol", "viol", "qos", "rerouted", "be work ms",
]

_CACHE: dict = register_cache({})


@dataclass
class AutoscaleCell:
    """One (scenario, scaler) control-loop run, reduced to the table."""

    scenario: str
    scaler: str
    rate_nodes: int
    peak_nodes: int
    min_nodes: int
    node_seconds: float
    #: vs. the *measured* static arm of the same scenario
    saved_pct: float
    queries: int
    violations: int
    p99_ms: float
    p99_tol_ms: float
    qos_ok: bool
    rerouted: int
    be_work_ms: float


@dataclass
class AutoscaleSweepResult:
    cells: list
    scenario_names: tuple
    #: canary-rollout demo: tag -> (status, canary p99, control p99)
    rollouts: dict

    def cell(self, scenario: str, scaler: str) -> AutoscaleCell:
        for cell in self.cells:
            if cell.scenario == scenario and cell.scaler == scaler:
                return cell
        raise KeyError((scenario, scaler))

    def rows(self) -> list:
        out = []
        for cell in self.cells:
            out.append([
                cell.scenario,
                cell.scaler,
                cell.rate_nodes,
                cell.peak_nodes,
                cell.min_nodes,
                round(cell.node_seconds, 1),
                round(cell.saved_pct, 1),
                cell.queries,
                round(cell.p99_ms, 2),
                round(cell.p99_tol_ms, 3),
                cell.violations,
                "yes" if cell.qos_ok else "no",
                cell.rerouted,
                round(cell.be_work_ms, 1),
            ])
        return out

    def summary(self) -> dict:
        summary: dict = {"n_cells": len(self.cells)}
        for scenario in self.scenario_names:
            try:
                static = self.cell(scenario, "static")
                burn = self.cell(scenario, "burnrate")
            except KeyError:
                continue
            summary[f"saved[{scenario}]"] = f"{burn.saved_pct:.1f}%"
            summary[f"p99_vs_static[{scenario}]"] = (
                f"{burn.p99_ms:.2f}/{static.p99_ms:.2f}"
            )
        diurnal = [c for c in self.cells if c.scenario == "diurnal"]
        if diurnal:
            summary["diurnal_zero_violations"] = (
                "yes" if all(
                    c.violations == 0 for c in diurnal
                    if c.scaler in ("static", "burnrate")
                ) else "no"
            )
        summary["qos_ok_cells"] = sum(1 for c in self.cells if c.qos_ok)
        for tag, (status, canary_p99, control_p99) in self.rollouts.items():
            summary[f"rollout[{tag}]"] = (
                f"{status} (canary {canary_p99:.2f} vs {control_p99:.2f})"
            )
        return summary


def _canary_gate(result) -> tuple:
    """(status, canary p99, control p99) of one rollout demo run."""
    canary = next(
        (e for e in result.rollout_events if e.action == "canary"),
        None,
    )
    if canary is None:
        return result.rollout_status, float("nan"), float("nan")
    return result.rollout_status, canary.canary_p99_ms, canary.control_p99_ms


def run(
    gpu: str = "rtx2080ti",
    scenario_names: "tuple[str, ...] | None" = None,
    scalers: "tuple[str, ...]" = SCALERS,
    workers: "int | None" = None,
    shapes: "dict | None" = None,
    quick: "bool | None" = None,
    rollouts: bool = True,
) -> AutoscaleSweepResult:
    """The sweep.  ``shapes`` overrides the per-scenario
    (rate_nodes, span_ms, epoch_ms) triples — the determinism test uses
    tiny ones — ``workers`` sizes each cell's epoch fan-out, and
    ``rollouts=False`` skips the canary demo runs."""
    if quick is None:
        quick = quick_mode()
    names = (
        tuple(scenario_names) if scenario_names is not None
        else SCENARIOS
    )
    shape_map = dict(shapes) if shapes is not None else (
        QUICK_SHAPES if quick else FULL_SHAPES
    )
    key = (
        gpu, names, tuple(scalers), quick, workers, rollouts,
        tuple(sorted((k, tuple(v)) for k, v in shape_map.items())),
    )
    if key in _CACHE:
        return _CACHE[key]

    def map_fn(fn, items):
        return parallel_map(fn, items, workers=workers)

    cells = []
    for scenario in names:
        rate_nodes, span_ms, epoch_ms = shape_map[scenario]
        arm_results = {}
        for scaler in scalers:
            spec = AutoscaleSpec(
                scenario=scenario,
                rate_nodes=int(rate_nodes),
                span_ms=float(span_ms),
                epoch_ms=float(epoch_ms),
                scaler=ScalerConfig(policy=scaler),
            )
            arm_results[scaler] = run_autoscale(
                spec, gpu=gpu, map_fn=map_fn
            )
        static_seconds = (
            arm_results["static"].node_seconds
            if "static" in arm_results
            else float(rate_nodes) * span_ms / 1000.0
        )
        for scaler in scalers:
            result = arm_results[scaler]
            saved = (
                (static_seconds - result.node_seconds)
                / static_seconds * 100.0
                if static_seconds > 0 else float("nan")
            )
            cells.append(AutoscaleCell(
                scenario=scenario,
                scaler=scaler,
                rate_nodes=int(rate_nodes),
                peak_nodes=result.peak_nodes,
                min_nodes=result.min_nodes,
                node_seconds=result.node_seconds,
                saved_pct=saved,
                queries=result.total_queries,
                violations=result.total_violations,
                p99_ms=result.merged_p99_ms,
                p99_tol_ms=result.p99_tolerance_ms,
                qos_ok=bool(result.qos_satisfied),
                rerouted=result.n_rerouted,
                be_work_ms=result.total_be_work_ms,
            ))

    # Canary-rollout demo: a benign refit completes, a mis-calibrated
    # one (systematic under-prediction + noise) aborts at the gate.
    demo_rollouts: dict = {}
    demo_nodes = 3 if quick else 8
    # sized so the benign rollout converts the whole demo fleet within
    # the span: canary epoch + ceil((nodes - 1) / batch) rolling epochs
    demo_batch = 2 if quick else 4
    demo_plans = (
        (("good", 1.0, 0.05), ("bad", 0.45, 0.8)) if rollouts else ()
    )
    for tag, bias, noise in demo_plans:
        spec = AutoscaleSpec(
            scenario="diurnal",
            rate_nodes=demo_nodes,
            span_ms=8000.0,
            epoch_ms=2000.0,
            scaler=ScalerConfig(policy="static"),
            refit=RefitPlan(
                bias=bias, noise=noise,
                batch=demo_batch, regression_pct=5.0,
            ),
        )
        demo_rollouts[tag] = _canary_gate(
            run_autoscale(spec, gpu=gpu, map_fn=map_fn)
        )

    result = AutoscaleSweepResult(
        cells=cells, scenario_names=names, rollouts=demo_rollouts
    )
    _CACHE[key] = result
    return result


def render(result: AutoscaleSweepResult) -> str:
    """The sweep as the exact text the benchmark suite writes."""
    lines = [format_table(HEADERS, result.rows()), "", "summary:"]
    lines.extend(
        f"  {key} = {value}" for key, value in result.summary().items()
    )
    return "\n".join(lines) + "\n"


def main(argv: "list[str]") -> int:
    """CLI entry (the CI smoke job runs ``--quick --scenario diurnal``
    under ``AUDIT=1`` and uploads the ``--out`` table)."""
    import argparse

    from .. import audit

    parser = argparse.ArgumentParser(prog="repro.experiments.autoscale")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--scenario", action="append", default=None, choices=SCENARIOS,
        help="restrict the sweep to one scenario (repeatable)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the rendered table to this file",
    )
    args = parser.parse_args(argv)
    result = run(
        scenario_names=(
            tuple(args.scenario) if args.scenario else None
        ),
        quick=args.quick,
    )
    text = render(result)
    print(text)
    if args.out:
        import pathlib

        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    if audit.active():
        checks = audit.summary()
        print("audit:")
        for invariant, count in checks.items():
            print(f"  {invariant} = {count}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
