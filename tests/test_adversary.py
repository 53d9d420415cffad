"""Adversarial schedules: fairness guarantees and exactness.

The satellite contract for PR 2: the greedy adversary never violates its
declared r-fairness bound, and on a paper-sized clique its delay matches the
exhaustive worst case computed from the Theorem 3.1 states-graph.
"""

import pytest

from repro.core import (
    Labeling,
    RunOutcome,
    Simulator,
    default_inputs,
    is_r_fair,
)
from repro.exceptions import ValidationError
from repro.faults import (
    GreedyAdversarySchedule,
    MinimaxAdversarySchedule,
    adversary,
    exhaustive_worst_case_delay,
)
from repro.graphs import clique
from repro.stabilization import (
    example1_protocol,
    one_token_labeling,
    stable_labeling_pair,
)

from tests.helpers import copy_ring_protocol, or_clique_protocol, random_bit_labeling


class TestGreedyFairness:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_declared_r_fairness_never_violated(self, r):
        protocol = or_clique_protocol(clique(4))
        schedule = GreedyAdversarySchedule(
            protocol,
            default_inputs(protocol),
            random_bit_labeling(protocol.topology, seed=r),
            r=r,
        )
        assert is_r_fair(schedule, r, horizon=80)

    def test_fairness_holds_past_the_candidate_cap(self, monkeypatch):
        # With the cap forcing the sampled candidate family, forced nodes
        # must still always be included.
        monkeypatch.setattr(adversary, "DEFAULT_CANDIDATE_CAP", 1)
        protocol = or_clique_protocol(clique(6))
        schedule = GreedyAdversarySchedule(
            protocol,
            default_inputs(protocol),
            random_bit_labeling(protocol.topology, seed=0),
            r=2,
        )
        assert is_r_fair(schedule, 2, horizon=60)

    def test_memoized_steps_are_stable(self):
        protocol = or_clique_protocol(clique(3))
        schedule = GreedyAdversarySchedule(
            protocol,
            default_inputs(protocol),
            one_token_labeling(3),
            r=2,
        )
        first = [schedule.active(t) for t in range(20)]
        again = [schedule.active(t) for t in range(20)]
        assert first == again

    def test_invalid_parameters_rejected(self):
        protocol = or_clique_protocol(clique(3))
        labeling = one_token_labeling(3)
        with pytest.raises(ValidationError):
            GreedyAdversarySchedule(protocol, (0,) * 3, labeling, r=0)
        with pytest.raises(ValidationError):
            GreedyAdversarySchedule(protocol, (0,) * 2, labeling, r=1)


class TestExhaustiveWorstCase:
    def test_example1_unbounded_at_n_minus_1_fairness(self):
        # The paper's tightness direction for Theorem 3.1: on K_3, a
        # 2-fair adversary can rotate the token forever.
        protocol = example1_protocol(3)
        worst = exhaustive_worst_case_delay(
            protocol, default_inputs(protocol), one_token_labeling(3), r=2
        )
        assert worst.delay is None
        assert not worst.bounded
        assert len(worst.loop) > 0

    def test_example1_bounded_under_synchrony(self):
        # r=1 forces full activation every step: token -> two tokens ->
        # all-one, exactly 2 steps, no adversarial freedom at all.
        protocol = example1_protocol(3)
        worst = exhaustive_worst_case_delay(
            protocol, default_inputs(protocol), one_token_labeling(3), r=1
        )
        assert worst.delay == 2
        assert worst.prefix == (frozenset({0, 1, 2}),) * 2
        assert worst.loop == ()

    def test_stable_start_has_zero_delay(self):
        protocol = example1_protocol(3)
        zero, _ = stable_labeling_pair(3)
        worst = exhaustive_worst_case_delay(
            protocol, default_inputs(protocol), zero, r=2
        )
        assert worst.delay == 0
        assert worst.prefix == ()

    def test_copy_ring_rotation_is_unbounded(self):
        protocol = copy_ring_protocol(3)
        mixed = Labeling(protocol.topology, (1, 0, 0))
        worst = exhaustive_worst_case_delay(
            protocol, default_inputs(protocol), mixed, r=2
        )
        assert worst.delay is None

    def test_witness_schedule_realizes_the_delay(self):
        # Replaying the bounded witness through the engine stabilizes in
        # exactly the computed number of rounds.
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        worst = exhaustive_worst_case_delay(
            protocol, inputs, one_token_labeling(3), r=1
        )
        report = Simulator(protocol, inputs).run(
            one_token_labeling(3), worst.schedule(), max_steps=100
        )
        assert report.outcome is RunOutcome.LABEL_STABLE
        assert report.label_rounds == worst.delay

    def test_unbounded_witness_oscillates_forever(self):
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        worst = exhaustive_worst_case_delay(
            protocol, inputs, one_token_labeling(3), r=2
        )
        report = Simulator(protocol, inputs).run(
            one_token_labeling(3), worst.schedule(), max_steps=500
        )
        assert report.outcome is RunOutcome.OSCILLATING
        # and the witness itself honors the fairness bound
        assert is_r_fair(worst.schedule(), 2, horizon=100)


class TestGreedyMatchesExhaustive:
    """The PR-2 satellite: greedy delay == states-graph worst case on K_3."""

    def test_unbounded_case_matches(self):
        # Exhaustive: unbounded (r = n-1).  The greedy adversary must also
        # sustain the oscillation — it never stabilizes within any budget.
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        token = one_token_labeling(3)
        worst = exhaustive_worst_case_delay(protocol, inputs, token, r=2)
        assert worst.delay is None
        schedule = GreedyAdversarySchedule(protocol, inputs, token, r=2)
        report = Simulator(protocol, inputs).run(token, schedule, max_steps=400)
        assert report.outcome is RunOutcome.TIMEOUT

    def test_bounded_case_matches(self):
        # Exhaustive: delay 2 under r=1 (forced synchrony).  The greedy
        # adversary has the same single choice per step.
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        token = one_token_labeling(3)
        worst = exhaustive_worst_case_delay(protocol, inputs, token, r=1)
        schedule = GreedyAdversarySchedule(protocol, inputs, token, r=1)
        report = Simulator(protocol, inputs).run(token, schedule, max_steps=100)
        assert report.outcome is RunOutcome.LABEL_STABLE
        assert report.label_rounds == worst.delay == 2


class TestMinimaxAdversarySchedule:
    def test_replays_unbounded_witness(self):
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        schedule = MinimaxAdversarySchedule(
            protocol, inputs, one_token_labeling(3), r=2
        )
        assert schedule.delay is None
        report = Simulator(protocol, inputs).run(
            one_token_labeling(3), schedule, max_steps=300
        )
        # eventually periodic => the engine proves the oscillation exactly
        assert report.outcome is RunOutcome.OSCILLATING

    def test_replays_bounded_witness(self):
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        schedule = MinimaxAdversarySchedule(
            protocol, inputs, one_token_labeling(3), r=1
        )
        assert schedule.delay == 2
        report = Simulator(protocol, inputs).run(
            one_token_labeling(3), schedule, max_steps=100
        )
        assert report.outcome is RunOutcome.LABEL_STABLE
        assert report.label_rounds == 2

    def test_is_r_fair(self):
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        schedule = MinimaxAdversarySchedule(
            protocol, inputs, one_token_labeling(3), r=2
        )
        assert is_r_fair(schedule, 2, horizon=100)
