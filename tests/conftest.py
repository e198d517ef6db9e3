"""Shared fixtures.

Heavy objects (kernel library, simulators' result caches, PTB
transforms) are session-scoped: they are immutable or append-only
caches, so sharing them across tests only saves time.
"""

from __future__ import annotations

import pytest

from repro.config import RTX2080TI, V100
from repro.kernels.library import default_library
from repro.runtime.oracle import DurationOracle


@pytest.fixture(scope="session")
def gpu():
    return RTX2080TI


@pytest.fixture(scope="session")
def v100():
    return V100


@pytest.fixture(scope="session")
def library():
    return default_library()


@pytest.fixture(scope="session")
def oracle(gpu):
    return DurationOracle(gpu)


@pytest.fixture()
def every_kind_colocation(gpu):
    """Factory of a small co-location where each policy launches its kind.

    ``build(policy_name)`` returns a fresh ``(system, policy, queries,
    be_apps)``: two-kernel resnet50 queries every 10 ms against three BE
    streams.  The small mriq grid under-fills its SM partition, so
    ``spatial`` admits; three streams give ``hfuse`` a pair and
    ``multifuse`` a CD rider; ``tacker`` fuses and ``baymax`` reorders.
    """
    from repro.models.zoo import model_by_name
    from repro.runtime.query import BEApplication, KernelInstance, Query
    from repro.runtime.runconfig import RunConfig
    from repro.runtime.system import TackerSystem

    def build(policy_name):
        system = TackerSystem(gpu=gpu, config=RunConfig(queries=8), store=None)
        library = system.library
        model = model_by_name("resnet50")
        be_apps = [
            BEApplication(name, (KernelInstance(
                library.get(name), grid or library.get(name).default_grid
            ),))
            for name, grid in (("mriq", 6), ("sgemm", None), ("fft", None))
        ]
        for app in be_apps:
            system.prepare_pair(model, app)
        instances = (
            KernelInstance(library.get("tgemm_l"), 4),
            KernelInstance(library.get("relu"), 4),
        )
        queries = [Query(model, i * 10.0, instances) for i in range(8)]
        return system, system.make_policy(policy_name), queries, be_apps

    return build
