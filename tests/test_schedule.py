"""Unit tests for schedules and fairness measurement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExplicitSchedule,
    LassoSchedule,
    RandomRFairSchedule,
    RoundRobinSchedule,
    SynchronousSchedule,
    is_r_fair,
    minimal_fairness,
)
from repro.core.schedule import ShiftedSchedule
from repro.exceptions import ValidationError


class TestSynchronous:
    def test_all_nodes_every_step(self):
        sched = SynchronousSchedule(4)
        assert sched.active(0) == frozenset(range(4))
        assert sched.active(99) == frozenset(range(4))
        assert sched.period == 1

    def test_is_one_fair(self):
        assert is_r_fair(SynchronousSchedule(3), 1, 50)
        assert minimal_fairness(SynchronousSchedule(3), 50) == 1


class TestRoundRobin:
    def test_rotation(self):
        sched = RoundRobinSchedule(3)
        assert [sched.active(t) for t in range(4)] == [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({0}),
        ]

    def test_is_exactly_n_fair(self):
        sched = RoundRobinSchedule(5)
        assert is_r_fair(sched, 5, 100)
        assert not is_r_fair(sched, 4, 100)
        assert minimal_fairness(sched, 100) == 5


class TestExplicit:
    def test_cycles(self):
        sched = ExplicitSchedule(3, [{0}, {1, 2}])
        assert sched.active(0) == frozenset({0})
        assert sched.active(3) == frozenset({1, 2})
        assert sched.period == 2

    def test_empty_step_rejected(self):
        with pytest.raises(ValidationError):
            ExplicitSchedule(2, [set()])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            ExplicitSchedule(2, [{5}])


class TestLasso:
    def test_prefix_then_loop(self):
        sched = LassoSchedule(3, prefix=[{0}], loop=[{1}, {2}])
        assert sched.active(0) == frozenset({0})
        assert sched.active(1) == frozenset({1})
        assert sched.active(2) == frozenset({2})
        assert sched.active(3) == frozenset({1})
        assert sched.preperiod == 1
        assert sched.period == 2

    def test_empty_loop_rejected(self):
        with pytest.raises(ValidationError):
            LassoSchedule(2, prefix=[{0}], loop=[])


class TestRandomRFair:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_always_r_fair(self, n, r, seed):
        sched = RandomRFairSchedule(n, r=r, seed=seed, p=0.3)
        assert is_r_fair(sched, r, 200)

    def test_memoized_and_deterministic(self):
        a = RandomRFairSchedule(5, r=3, seed=42)
        b = RandomRFairSchedule(5, r=3, seed=42)
        trace_a = [a.active(t) for t in range(50)]
        # query out of order to exercise memoization
        assert b.active(49) == trace_a[49]
        assert [b.active(t) for t in range(50)] == trace_a
        assert [a.active(t) for t in range(50)] == trace_a

    def test_nonempty_steps(self):
        sched = RandomRFairSchedule(4, r=10, seed=0, p=0.0)
        assert all(sched.active(t) for t in range(100))

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            RandomRFairSchedule(3, r=0)
        with pytest.raises(ValidationError):
            RandomRFairSchedule(3, r=2, p=1.5)


class TestShiftedPhase:
    def test_phase_aligns_with_base_loop_past_preperiod(self):
        # Regression: with offset > base.preperiod the clamped preperiod is
        # 0, and the default phase formula decoupled from the base loop —
        # shifted.phase(0) reported 0 even though the view starts mid-loop.
        base = LassoSchedule(2, prefix=[{0}], loop=[{0}, {1}, {0, 1}])
        shifted = base.shifted(2)  # offset 2 > preperiod 1
        for t in range(12):
            assert shifted.phase(t) == base.phase(t + 2)
        assert shifted.phase(0) == 1  # mid-loop, not 0

    def test_phase_matches_base_when_offset_within_preperiod(self):
        base = LassoSchedule(2, prefix=[{0}, {1}, {0}], loop=[{0}, {1}])
        shifted = base.shifted(1)
        for t in range(12):
            assert shifted.phase(t) == base.phase(t + 1)

    def test_phase_consistent_with_active(self):
        # Equal phases (past the preperiod) must mean equal activation sets.
        base = LassoSchedule(3, prefix=[{0}], loop=[{1}, {2}])
        shifted = ShiftedSchedule(base, 3)
        for t in range(1, 10):
            for u in range(1, 10):
                if shifted.phase(t) == shifted.phase(u):
                    assert shifted.active(t) == shifted.active(u)


class TestFairnessMeasures:
    def test_minimal_fairness_counts_tail_gap(self):
        # node 1 is never activated after step 0 within the horizon
        sched = ExplicitSchedule(2, [{1}] + [{0}] * 9)
        assert minimal_fairness(sched, 10) == 10

    def test_is_r_fair_window_semantics(self):
        sched = ExplicitSchedule(2, [{0}, {1}])
        assert is_r_fair(sched, 2, 100)
        assert not is_r_fair(sched, 1, 100)

    def test_minimal_fairness_none_when_node_never_activated(self):
        # Regression: this used to return horizon + 1 — an r no
        # horizon-length run can actually certify.
        sched = ExplicitSchedule(2, [{0}])  # node 1 never runs
        assert minimal_fairness(sched, 10) is None

    def test_minimal_fairness_finite_once_every_node_seen(self):
        sched = ExplicitSchedule(2, [{0}])
        # shrinking horizon does not resurrect a bound
        assert minimal_fairness(sched, 1) is None
        # a schedule touching both nodes reports the real gap
        both = ExplicitSchedule(2, [{0, 1}])
        assert minimal_fairness(both, 10) == 1
