"""Tests for queries and BE streams."""

import hashlib
from collections import Counter

import pytest

from repro.errors import SchedulingError
from repro.kernels.parboil import fft, mriq
from repro.models.zoo import model_by_name
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.policies import BaymaxPolicy
from repro.runtime.query import BEApplication, KernelInstance, Query
from repro.runtime.server import ColocationServer
from repro.runtime.system import TackerSystem
from repro.runtime.workload import BE_INPUT_SCALES, be_application

#: The first 64 input scales of five BE streams, as indices into
#: ``BE_INPUT_SCALES``.  sha256 and integer arithmetic draw the same
#: values on every Python version, so these literals pin the draw.
FIRST_SCALES = {
    "sgemm": "3231333032401401212433112244440232240014231034424212413233301334",
    "mriq": "1212414102121441311202433203404220331131111331001214034213043314",
    "lbm": "2300314444241141344342121432421113003030211340440434200103031143",
    "fft": "2310444024323343321401232324303200300340234123323142210000210411",
    "Res-T": "3143412310200401322130032314411341223304233200434112411041402044",
}


def instances():
    return (
        KernelInstance(mriq(), 100),
        KernelInstance(fft(), 200, fusable=False),
    )


class TestKernelInstance:
    def test_delegates_to_kernel(self):
        inst = KernelInstance(mriq(), 50)
        assert inst.name == "mriq"
        assert inst.kind == "cd"


class TestQuery:
    def test_cursor_walks_sequence(self):
        q = Query(model_by_name("resnet50"), 5.0, instances())
        assert q.current.name == "mriq"
        assert len(q.remaining) == 2
        q.advance(10.0)
        assert q.current.name == "fft"
        assert not q.done
        q.advance(12.0)
        assert q.done
        assert q.finish_ms == 12.0
        assert q.latency_ms == 7.0

    def test_overrun_raises(self):
        q = Query(model_by_name("resnet50"), 0.0, instances())
        q.advance(1.0)
        q.advance(2.0)
        with pytest.raises(SchedulingError):
            q.advance(3.0)
        with pytest.raises(SchedulingError):
            _ = q.current

    def test_latency_before_finish_raises(self):
        q = Query(model_by_name("resnet50"), 0.0, instances())
        with pytest.raises(SchedulingError):
            _ = q.latency_ms

    def test_unique_ids(self):
        a = Query(model_by_name("resnet50"), 0.0, instances())
        b = Query(model_by_name("resnet50"), 0.0, instances())
        assert a.qid != b.qid


class TestBEApplication:
    def app(self, scales=(1.0,)):
        return BEApplication(
            "fft", (KernelInstance(fft(), 1000),), input_scales=scales
        )

    def test_cyclic_stream(self):
        app = self.app()
        first = app.head
        app.complete_head(0.5)
        assert app.head.name == first.name
        assert app.completed_kernels == 1
        assert app.completed_work_ms == 0.5

    def test_input_scaling_is_deterministic(self):
        a = self.app(scales=(0.5, 1.0, 1.5))
        b = self.app(scales=(0.5, 1.0, 1.5))
        grids_a = []
        for _ in range(10):
            grids_a.append(a.head.grid)
            a.complete_head(0.1)
        grids_b = []
        for _ in range(10):
            grids_b.append(b.head.grid)
            b.complete_head(0.1)
        assert grids_a == grids_b

    def test_input_scaling_varies_grids(self):
        app = self.app(scales=(0.5, 1.0, 1.5))
        grids = set()
        for _ in range(20):
            grids.add(app.head.grid)
            app.complete_head(0.1)
        assert len(grids) > 1
        assert grids <= {500, 1000, 1500}

    def test_unit_scale_returns_base_instance(self):
        app = self.app(scales=(1.0,))
        assert app.head is app.sequence[0]

    def test_validation(self):
        with pytest.raises(SchedulingError):
            BEApplication("empty", ())
        with pytest.raises(SchedulingError):
            BEApplication("x", (KernelInstance(fft(), 1),), input_scales=())


class TestBEStreamContract:
    """The head is built once per retire, as the docstring derives it."""

    def test_scales_are_pinned(self, library):
        assert BE_INPUT_SCALES == (0.5, 0.75, 1.0, 1.25, 1.5)
        for name, indices in FIRST_SCALES.items():
            app = be_application(name, library)
            assert [app._scale_at(cursor) for cursor in range(64)] == [
                BE_INPUT_SCALES[int(index)] for index in indices
            ], name

    @pytest.mark.parametrize("name", ("fft", "Res-T"))
    def test_head_follows_the_derivation_and_is_shared(self, library, name):
        app = be_application(name, library)
        n = len(app.sequence)
        shared = {}
        for cursor in range(2000):
            assert app.cursor == cursor
            digest = hashlib.sha256(
                f"be-input:{app.name}:{cursor}".encode()
            ).digest()
            scale = BE_INPUT_SCALES[
                int.from_bytes(digest[:4], "big") % len(BE_INPUT_SCALES)
            ]
            base = app.sequence[cursor % n]
            head = app.head
            if scale == 1.0:
                assert head is base
            else:
                assert head == KernelInstance(
                    base.kernel, max(1, round(base.grid * scale)),
                    base.fusable,
                )
                assert shared.setdefault((cursor % n, scale), head) is head
            app.complete_head(0.0)
        assert cursor >= n  # the stream wrapped around its sequence
        per_position = Counter(position for position, _ in shared)
        assert max(per_position.values()) <= len(BE_INPUT_SCALES) - 1

    def test_retire_clears_the_head_price(self):
        app = BEApplication(
            "fft", (KernelInstance(fft(), 1000),),
            input_scales=BE_INPUT_SCALES,
        )
        app.head_price = ("policy", 0, 1.0)
        app.complete_head(0.5)
        assert app.head_price is None

    def test_dropped_launches_keep_the_head_and_its_price(self, gpu):
        system = TackerSystem(gpu=gpu)
        policy = BaymaxPolicy(system.gpu, system.models, 50.0)
        server = ColocationServer(
            system.gpu, oracle=system.oracle, policy=policy,
            faults=FaultInjector(FaultPlan(be_drop=1.0)),
        )
        app = be_application("mriq", system.library)
        head = app.head
        assert head is not app.sequence[0]  # cursor 0 scales mriq's grid
        tgemm = system.library.get("tgemm_l")
        kernels = (KernelInstance(tgemm, tgemm.default_grid),) * 3
        queries = [
            Query(model_by_name("resnet50"), i * 100.0, kernels)
            for i in range(3)
        ]
        price = policy.predict_head_ms(app)
        priced = app.head_price
        assert priced == (policy, system.models.version, price)
        result = server.serve(queries, [app])
        assert result.n_dropped_be == result.n_be_kernels > 0
        assert app.cursor == app.completed_kernels == 0
        assert app.head is head
        assert app.head_price is priced
