"""Conservation law: the decision log accounts for every launch, per kind.

Each executed launch is preceded by exactly one scheduling decision, and
admission control rewrites a refused BE decision's ``final_kind`` to the
LC launch that replaced it.  So for every registered policy, counting
the log by ``final_kind`` must reproduce the server's per-kind kernel
counts, and the session registry's ``repro_decisions_total`` must agree
with both.  The guarded, faulted cells exercise admission overrides,
predictor bias and BE drop/delay faults.
"""

from __future__ import annotations

import pytest

from repro.models.zoo import model_by_name
from repro.runtime.faults import FaultPlan
from repro.runtime.policies import list_policies
from repro.runtime.runconfig import RunConfig
from repro.runtime.server import LAUNCH_KINDS
from repro.runtime.system import TackerSystem
from repro.runtime.workload import be_application

BE_APPS = ("sgemm", "mriq")
#: fft's CD head gives multifuse a rider, so this mix launches chains
CHAIN_BE_APPS = ("sgemm", "mriq", "fft")
N_QUERIES = 12
FAULTS = FaultPlan(predictor_bias=0.5, be_drop=0.05, be_delay=0.1)


def prepared_system(gpu, be_apps) -> TackerSystem:
    system = TackerSystem(
        gpu=gpu, config=RunConfig(queries=N_QUERIES), telemetry=True
    )
    model = model_by_name("resnet50")
    for name in be_apps:
        system.prepare_pair(model, be_application(name, system.library))
    return system


@pytest.fixture(scope="module")
def system(gpu):
    return prepared_system(gpu, BE_APPS)


@pytest.fixture(scope="module")
def chain_system(gpu):
    return prepared_system(gpu, CHAIN_BE_APPS)


def serve(system, policy_name, be_apps, guarded):
    return system.run_custom(
        model_by_name("resnet50"), list(be_apps),
        system.make_policy(policy_name, guard=guarded),
        n_queries=N_QUERIES, faults=FAULTS if guarded else False,
    )


def assert_every_launch_accounted(result, policy_name) -> None:
    session = result.telemetry
    by_kind: dict = {}
    for record in session.decisions:
        kind = record.final_kind or record.kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
    counts = {
        kind: count for kind, count in result.kernel_counts().items()
        if count
    }
    assert by_kind == counts
    assert len(session.decisions) == sum(counts.values())
    for kind in LAUNCH_KINDS:
        assert session.registry.value(
            "repro_decisions_total", kind=kind, policy=policy_name,
        ) == counts.get(kind, 0)
    overrides = [record for record in session.decisions if record.admission]
    assert result.n_shed_be + result.n_deferred_be == len(overrides)


@pytest.mark.parametrize("guarded", (False, True), ids=("plain", "guarded"))
@pytest.mark.parametrize("policy_name", list_policies())
def test_decisions_account_for_every_launch(system, policy_name, guarded):
    result = serve(system, policy_name, BE_APPS, guarded)
    assert_every_launch_accounted(result, policy_name)


@pytest.mark.parametrize("guarded", (False, True), ids=("plain", "guarded"))
def test_chain_launches_are_accounted(chain_system, guarded):
    result = serve(chain_system, "multifuse", CHAIN_BE_APPS, guarded)
    assert result.n_chain_kernels > 0
    assert_every_launch_accounted(result, "multifuse")
