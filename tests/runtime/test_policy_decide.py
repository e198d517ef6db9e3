"""The one decision every policy runs, with and without a session.

:meth:`SchedulerPolicy.decide` takes ``Thr`` and the decision record
from one Eq. 9 pass, and collects the per-query entries and the
evaluated candidates only when a telemetry session is attached.  So
attaching a session must change nothing a run serves, for every
registered policy, plain and guarded under faults.  Each cell runs on
two fresh, identically prepared systems, one with telemetry off and
one with it on: online refits would make a shared system drift between
the two runs.  The pinned-mode checks hold the guard's degradation
ladder to the decision it takes in each mode.
"""

from __future__ import annotations

import pytest

from repro.models.zoo import model_by_name
from repro.runtime.faults import FaultPlan
from repro.runtime.policies import TackerPolicy, list_policies
from repro.runtime.runconfig import RunConfig
from repro.runtime.system import TackerSystem
from repro.runtime.workload import be_application
from repro.telemetry import RunTelemetry

BE_APPS = ("sgemm", "mriq", "fft")
N_QUERIES = 12
FAULTS = FaultPlan(predictor_bias=0.5, be_drop=0.05, be_delay=0.1)
#: Tacker's ablations, built directly (the registry has no name for them)
TACKER_VARIANTS = {
    "tacker-fifo": {"pair_selection": "fifo"},
    "tacker-no-reorder": {"enable_reorder": False},
}
CELLS = [
    *((name, guarded) for name in list_policies() for guarded in (False, True)),
    *((name, False) for name in TACKER_VARIANTS),
]


def serve(gpu, name, guarded, telemetry):
    system = TackerSystem(
        gpu=gpu, config=RunConfig(queries=N_QUERIES), telemetry=telemetry
    )
    model = model_by_name("resnet50")
    for be_name in BE_APPS:
        system.prepare_pair(model, be_application(be_name, system.library))
    if name in TACKER_VARIANTS:
        policy = TackerPolicy(
            system.gpu, system.models, system.qos_ms, system.artifacts,
            **TACKER_VARIANTS[name],
        )
    else:
        policy = system.make_policy(name, guard=guarded)
    result = system.run_custom(
        model, list(BE_APPS), policy, n_queries=N_QUERIES,
        record_kernels=True, faults=FAULTS if guarded else False,
    )
    return policy, result


@pytest.mark.parametrize(
    ("name", "guarded"), CELLS,
    ids=[f"{name}-{'guarded' if guarded else 'plain'}"
         for name, guarded in CELLS],
)
def test_a_session_changes_nothing_served(gpu, name, guarded):
    plain_policy, plain = serve(gpu, name, guarded, telemetry=False)
    observed_policy, observed = serve(gpu, name, guarded, telemetry=True)
    assert plain.telemetry is None
    assert len(observed.telemetry.decisions) == observed_policy.decisions
    assert observed.executed == plain.executed
    assert observed.latencies_ms == plain.latencies_ms
    assert observed.be_work_ms == plain.be_work_ms
    assert observed.kernel_counts() == plain.kernel_counts()
    assert observed.n_shed_be == plain.n_shed_be
    assert observed.n_deferred_be == plain.n_deferred_be
    assert observed.guard_mode_decisions == plain.guard_mode_decisions
    assert observed_policy.decisions == plain_policy.decisions
    assert observed_policy.fusions == plain_policy.fusions


#: launches that put BE work beside the LC kernel or pack BE heads
CO_LOCATED = ("fused", "hfused", "spatial", "chain")


@pytest.mark.parametrize("mode", ("fuse", "reorder", "exclusive"))
@pytest.mark.parametrize("name", list_policies())
def test_pinned_guard_mode_decisions(every_kind_colocation, name, mode):
    system, _, queries, be_apps = every_kind_colocation(name)
    policy = system.make_policy(name, guard=True)
    policy.guard.mode = mode
    policy.telemetry = RunTelemetry(policy=name)
    query = queries[0]
    actions = [policy.decide(now, [query], be_apps) for now in (0.0, 1.0, 2.0)]
    kinds = [action.kind for action in actions]
    if mode == "exclusive":
        assert kinds == ["lc"] * 3
        assert all(action.query is query for action in actions)
    elif mode == "reorder":
        assert set(kinds) <= {"lc", "be"}
    elif name != "baymax":
        # The control: in fuse mode this state co-locates, so the
        # reorder check above has something to refuse.
        assert set(kinds) <= set(CO_LOCATED)
    records = policy.telemetry.decisions
    assert [record.kind for record in records] == kinds
    assert {record.guard_mode for record in records} == {mode}
    assert policy.guard.mode_decisions[mode] == 3
