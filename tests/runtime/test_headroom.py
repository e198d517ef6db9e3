"""Tests for QoS headroom accounting (Eqs. 7/9)."""

import pytest

from repro.errors import SchedulingError
from repro.kernels.parboil import fft, mriq
from repro.models.zoo import model_by_name
from repro.runtime.headroom import HeadroomTracker
from repro.runtime.query import KernelInstance, Query


def query(arrival, n_kernels=4):
    return Query(
        model_by_name("resnet50"), arrival,
        tuple(KernelInstance(mriq(), 100) for _ in range(n_kernels)),
    )


def tracker(qos=50.0, per_kernel_ms=5.0):
    return HeadroomTracker(qos, lambda inst: per_kernel_ms)


class TestSingleQuery:
    def test_eq7_headroom(self):
        t = tracker()
        q = query(arrival=10.0, n_kernels=4)  # 20 ms predicted
        # At t=15: 50 - 5 elapsed - 20 remaining = 25.
        assert t.headroom_ms(15.0, [q]) == pytest.approx(25.0)

    def test_headroom_shrinks_with_time(self):
        t = tracker()
        q = query(arrival=0.0)
        early = t.headroom_ms(5.0, [q])
        late = t.headroom_ms(15.0, [q])
        assert late == pytest.approx(early - 10.0)

    def test_headroom_grows_as_kernels_finish(self):
        t = tracker()
        q = query(arrival=0.0, n_kernels=4)
        before = t.headroom_ms(10.0, [q])
        q.advance(10.0)
        after = t.headroom_ms(10.0, [q])
        assert after == pytest.approx(before + 5.0)

    def test_can_go_negative(self):
        t = tracker()
        q = query(arrival=0.0, n_kernels=12)  # 60 ms predicted work
        assert t.headroom_ms(0.0, [q]) < 0


class TestMultipleQueries:
    def test_eq9_reserves_earlier_queries(self):
        t = tracker()
        q1 = query(arrival=0.0, n_kernels=4)   # 20 ms
        q2 = query(arrival=5.0, n_kernels=4)   # 20 ms
        # q2's slack: 50 - 5 elapsed - 20 (q1 ahead) - 20 own = 5.
        assert t.headroom_ms(10.0, [q1, q2]) == pytest.approx(5.0)

    def test_binding_constraint_is_minimum(self):
        t = tracker()
        q1 = query(arrival=0.0, n_kernels=1)
        q2 = query(arrival=0.0, n_kernels=9)
        thr = t.headroom_ms(0.0, [q1, q2])
        slack_q1 = 50.0 - 5.0
        slack_q2 = 50.0 - 5.0 - 45.0
        assert thr == pytest.approx(min(slack_q1, slack_q2))

    def test_no_queries_unconstrained(self):
        assert tracker().headroom_ms(123.0, []) == float("inf")


class TestSuffixCacheKey:
    """The cache key must cover the full sequence, not its endpoints."""

    @staticmethod
    def sandwich(middle, arrival=0.0, grid=100):
        # Both variants share model, length, first and last kernel —
        # the exact shape that collided under the old (model, len,
        # first, last) key.
        return Query(
            model_by_name("resnet50"), arrival,
            (
                KernelInstance(mriq(), 100),
                KernelInstance(middle, grid),
                KernelInstance(mriq(), 100),
            ),
        )

    def test_interior_kernel_distinguishes_sequences(self):
        t = HeadroomTracker(
            50.0, lambda inst: 5.0 if inst.name == "mriq" else 9.0
        )
        with_mriq = self.sandwich(mriq())
        with_fft = self.sandwich(fft())
        assert t.predicted_remaining_ms(with_mriq) == pytest.approx(15.0)
        assert t.predicted_remaining_ms(with_fft) == pytest.approx(19.0)

    def test_interior_grid_distinguishes_sequences(self):
        t = HeadroomTracker(50.0, lambda inst: inst.grid / 100.0)
        small = self.sandwich(mriq(), grid=100)
        large = self.sandwich(mriq(), grid=300)
        assert t.predicted_remaining_ms(small) == pytest.approx(3.0)
        assert t.predicted_remaining_ms(large) == pytest.approx(5.0)

    def test_model_version_bump_invalidates(self):
        state = {"ms": 5.0, "version": 0}
        t = HeadroomTracker(
            50.0, lambda inst: state["ms"],
            version=lambda: state["version"],
        )
        q = query(arrival=0.0, n_kernels=2)
        assert t.predicted_remaining_ms(q) == pytest.approx(10.0)
        # A model refresh (the online >10%-error retrain path) bumps
        # the version; stale suffix sums must be rebuilt unprompted.
        state["ms"] = 8.0
        state["version"] = 1
        assert t.predicted_remaining_ms(q) == pytest.approx(16.0)

    def test_eq9_remaining_monotone_within_query(self):
        t = tracker()
        q = query(arrival=0.0, n_kernels=4)
        seen = [t.predicted_remaining_ms(q)]
        for step in range(4):
            q.advance(float(step))
            seen.append(t.predicted_remaining_ms(q))
        assert seen == sorted(seen, reverse=True)
        assert seen[-1] == 0.0


class TestValidation:
    def test_qos_must_be_positive(self):
        with pytest.raises(SchedulingError):
            HeadroomTracker(0.0, lambda inst: 1.0)

    def test_predicted_remaining(self):
        t = tracker()
        q = query(arrival=0.0, n_kernels=3)
        assert t.predicted_remaining_ms(q) == pytest.approx(15.0)
