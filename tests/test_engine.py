"""Unit and property tests for the simulation engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Labeling,
    LambdaReaction,
    RandomRFairSchedule,
    RoundRobinSchedule,
    RunOutcome,
    Simulator,
    StatelessProtocol,
    SynchronousSchedule,
    UniformReaction,
    binary,
    synchronous_run,
)
from repro.exceptions import ValidationError
from repro.graphs import clique, unidirectional_ring

from tests.helpers import (
    ScriptedAperiodicSchedule,
    constant_protocol,
    copy_ring_protocol,
    or_clique_protocol,
    random_bit_labeling,
)


class TestStep:
    def test_only_active_nodes_update(self):
        proto = constant_protocol(unidirectional_ring(3), label=1)
        sim = Simulator(proto, (0, 0, 0))
        config = sim.initial_configuration(Labeling.uniform(proto.topology, 0))
        nxt = sim.step(config, frozenset({0}))
        assert nxt.labeling[(0, 1)] == 1
        assert nxt.labeling[(1, 2)] == 0
        assert nxt.outputs == (1, None, None)

    def test_activated_nodes_read_previous_labeling(self):
        # Synchronous step of the copy ring rotates the labeling by one hop.
        proto = copy_ring_protocol(4)
        sim = Simulator(proto, (0,) * 4)
        values = (1, 0, 0, 0)  # edge (0,1) carries 1
        config = sim.initial_configuration(Labeling(proto.topology, values))
        nxt = sim.step(config, frozenset(range(4)))
        assert nxt.labeling.values == (0, 1, 0, 0)

    def test_reaction_must_label_all_out_edges(self):
        topo = unidirectional_ring(3)

        def bad(incoming, x):
            return {}, 0

        proto = StatelessProtocol(topo, binary(), [LambdaReaction(bad)] * 3)
        sim = Simulator(proto, (0, 0, 0))
        config = sim.initial_configuration(Labeling.uniform(topo, 0))
        with pytest.raises(ValidationError):
            sim.step(config, frozenset({0}))

    def test_input_arity_checked(self):
        proto = constant_protocol(unidirectional_ring(3))
        with pytest.raises(ValidationError):
            Simulator(proto, (0, 0))


class TestPeriodicRuns:
    def test_constant_protocol_label_stabilizes_immediately(self):
        proto = constant_protocol(unidirectional_ring(4), label=0)
        report = synchronous_run(proto, (0,) * 4, Labeling.uniform(proto.topology, 0))
        assert report.outcome is RunOutcome.LABEL_STABLE
        assert report.label_rounds == 0
        assert report.output_rounds == 1  # outputs settle at the first step

    def test_copy_ring_oscillates_from_mixed_labeling(self):
        proto = copy_ring_protocol(4)
        labeling = Labeling(proto.topology, (1, 0, 0, 0))
        report = synchronous_run(proto, (0,) * 4, labeling)
        # The single 1 rotates forever: labels and outputs both cycle.
        assert report.outcome is RunOutcome.OSCILLATING
        assert report.cycle_length == 4

    def test_copy_ring_stable_from_uniform_labeling(self):
        proto = copy_ring_protocol(4)
        report = synchronous_run(proto, (0,) * 4, Labeling.uniform(proto.topology, 1))
        assert report.outcome is RunOutcome.LABEL_STABLE

    def test_output_stable_without_label_stable(self):
        # Node outputs constant 0 but labels rotate: output stabilization only.
        topo = unidirectional_ring(3)

        def rotate_out_zero(i):
            def fn(incoming, x):
                (value,) = incoming.values()
                return value, 0

            return UniformReaction(topo.out_edges(i), fn)

        proto = StatelessProtocol(
            topo, binary(), [rotate_out_zero(i) for i in range(3)]
        )
        labeling = Labeling(topo, (1, 0, 0))
        report = synchronous_run(proto, (0,) * 3, labeling)
        assert report.outcome is RunOutcome.OUTPUT_STABLE
        assert report.outputs == (0, 0, 0)

    def test_round_robin_runs_use_phase(self):
        proto = or_clique_protocol(clique(3))
        sim = Simulator(proto, (0,) * 3)
        report = sim.run(Labeling.uniform(proto.topology, 1), RoundRobinSchedule(3))
        assert report.outcome is RunOutcome.LABEL_STABLE
        assert report.outputs == (1, 1, 1)

    def test_label_rounds_counts_last_change(self):
        proto = or_clique_protocol(clique(3))
        sim = Simulator(proto, (0,) * 3)
        # one token: converges to all-ones under the synchronous schedule
        values = tuple(1 if u == 0 else 0 for (u, _) in proto.topology.edges)
        report = sim.run(Labeling(proto.topology, values), SynchronousSchedule(3))
        assert report.outcome is RunOutcome.LABEL_STABLE
        assert report.label_rounds == 2
        final = report.final.labeling
        assert all(final[e] == 1 for e in proto.topology.edges)

    def test_timeout(self):
        proto = copy_ring_protocol(4)
        labeling = Labeling(proto.topology, (1, 0, 0, 0))
        sim = Simulator(proto, (0,) * 4)
        report = sim.run(labeling, SynchronousSchedule(4), max_steps=2)
        assert report.outcome is RunOutcome.TIMEOUT


class TestAperiodicRuns:
    def test_certifies_stability_via_witnessed_fixed_point(self):
        proto = or_clique_protocol(clique(4))
        sim = Simulator(proto, (0,) * 4)
        report = sim.run(
            random_bit_labeling(proto.topology, seed=5),
            RandomRFairSchedule(4, r=3, seed=11),
        )
        assert report.outcome is RunOutcome.LABEL_STABLE
        outputs = set(report.outputs)
        assert outputs == {0} or outputs == {1}

    def test_timeout_when_oscillating(self):
        proto = copy_ring_protocol(3)
        labeling = Labeling(proto.topology, (1, 0, 0))
        sim = Simulator(proto, (0,) * 3)
        report = sim.run(labeling, RandomRFairSchedule(3, r=1, seed=0), max_steps=200)
        assert report.outcome is RunOutcome.TIMEOUT

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_runs_deterministic_for_fixed_seed(self, seed):
        proto = or_clique_protocol(clique(3))
        sim = Simulator(proto, (0,) * 3)
        labeling = random_bit_labeling(proto.topology, seed=seed)
        a = sim.run(labeling, RandomRFairSchedule(3, r=2, seed=seed))
        b = sim.run(labeling, RandomRFairSchedule(3, r=2, seed=seed))
        assert a.outcome == b.outcome
        assert a.final == b.final


class TestAperiodicCertification:
    def test_activation_at_change_step_is_not_a_witness(self):
        # clique(2): edges ((0,1), (1,0)).  Initial labeling 1 on (0,1), 0 on
        # (1,0).  Step 0 activates node 0, whose incoming edge (1,0) carries
        # 0, so it broadcasts 0 and the labeling *changes* to all-zero.  That
        # activation reacted to a pre-fixed-point labeling and must not count
        # as a fixed-point witness: certification needs the later quiet
        # activations of both nodes (steps 1 and 2), so the run takes 3 steps.
        proto = or_clique_protocol(clique(2))
        sim = Simulator(proto, (0, 0))
        labeling = Labeling(proto.topology, (1, 0))
        schedule = ScriptedAperiodicSchedule(2, [{0}, {1}, {0}])
        report = sim.run(labeling, schedule, max_steps=50)
        assert report.outcome is RunOutcome.LABEL_STABLE
        assert report.steps_executed == 3  # not 2: step-0 witness discarded
        assert report.label_rounds == 1
        assert report.final.labeling.values == (0, 0)

    def test_empty_activation_set_does_not_advance_witnesses(self):
        # Steps that activate nobody leave the labeling unchanged but must
        # not contribute witnesses; only the two real activations certify.
        proto = or_clique_protocol(clique(2))
        sim = Simulator(proto, (0, 0))
        labeling = Labeling.uniform(proto.topology, 0)  # already a fixed point
        schedule = ScriptedAperiodicSchedule(2, [set(), set(), {0}, set(), {1}])
        report = sim.run(labeling, schedule, max_steps=50)
        assert report.outcome is RunOutcome.LABEL_STABLE
        assert report.steps_executed == 5  # certified only once node 1 acted
        assert report.label_rounds == 0

    def test_all_empty_schedule_times_out_without_certifying(self):
        proto = or_clique_protocol(clique(2))
        sim = Simulator(proto, (0, 0))
        labeling = Labeling.uniform(proto.topology, 0)
        schedule = ScriptedAperiodicSchedule(2, [set()])
        report = sim.run(labeling, schedule, max_steps=20)
        assert report.outcome is RunOutcome.TIMEOUT
        assert report.steps_executed == 20


class TestDeterminism:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_synchronous_trace_reproducible(self, seed):
        proto = or_clique_protocol(clique(3))
        sim = Simulator(proto, (0,) * 3)
        labeling = random_bit_labeling(proto.topology, seed=seed)
        t1 = sim.run_trace(labeling, SynchronousSchedule(3), steps=10)
        t2 = sim.run_trace(labeling, SynchronousSchedule(3), steps=10)
        assert t1 == t2
