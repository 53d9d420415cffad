"""Global model invariants, hypothesis-tested.

These pin down semantic facts every construction in the library relies on:

* a stable labeling is absorbing under *every* schedule;
* the engine's periodic and trace semantics agree;
* states-graph paths are exactly the r-fair runs (fairness of every emitted
  path; the proof's initialization vertices are in the graph);
* label stabilization implies output stabilization (Section 2.2's hierarchy).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExplicitSchedule,
    Labeling,
    RandomRFairSchedule,
    RoundRobinSchedule,
    Simulator,
    SynchronousSchedule,
    default_inputs,
    minimal_fairness,
)
from repro.graphs import clique
from repro.stabilization import (
    StatesGraph,
    broadcast_labelings,
    is_stable_labeling,
    stable_labelings,
)

from tests.helpers import or_clique_protocol, random_bit_labeling


def random_schedule(n, seed, steps=12):
    rng = random.Random(seed)
    plan = []
    for _ in range(steps):
        active = {i for i in range(n) if rng.random() < 0.6}
        if not active:
            active = {rng.randrange(n)}
        plan.append(active)
    return ExplicitSchedule(n, plan)


class TestStableLabelingsAbsorbing:
    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_stable_labelings_never_move(self, seed):
        protocol = or_clique_protocol(clique(3))
        inputs = default_inputs(protocol)
        stables = stable_labelings(
            protocol,
            inputs,
            broadcast_labelings(protocol.topology, protocol.label_space),
        )
        schedule = random_schedule(3, seed)
        simulator = Simulator(protocol, inputs)
        for labeling in stables:
            trace = simulator.run_trace(labeling, schedule, steps=10)
            assert all(config.labeling == labeling for config in trace)

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_runs_that_stabilize_end_in_fixed_points(self, seed):
        protocol = or_clique_protocol(clique(3))
        inputs = default_inputs(protocol)
        labeling = random_bit_labeling(protocol.topology, seed)
        report = Simulator(protocol, inputs).run(
            labeling, RandomRFairSchedule(3, r=2, seed=seed), max_steps=4000
        )
        if report.label_stable:
            assert is_stable_labeling(protocol, inputs, report.final.labeling)


class TestEngineSemanticsAgree:
    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_run_and_run_trace_agree(self, seed):
        protocol = or_clique_protocol(clique(3))
        inputs = default_inputs(protocol)
        labeling = random_bit_labeling(protocol.topology, seed)
        schedule = RoundRobinSchedule(3)
        report = Simulator(protocol, inputs).run(labeling, schedule)
        trace = Simulator(protocol, inputs).run_trace(
            labeling, schedule, steps=report.steps_executed
        )
        # the config at `steps` is the detected repeat of the cycle-start
        # config, and the report's final config is that cycle start
        assert report.final == trace[report.cycle_start]
        assert trace[-1] == trace[report.cycle_start]

    def test_label_stable_implies_output_stable(self):
        protocol = or_clique_protocol(clique(4))
        inputs = default_inputs(protocol)
        for seed in range(10):
            labeling = random_bit_labeling(protocol.topology, seed)
            report = Simulator(protocol, inputs).run(
                labeling, SynchronousSchedule(4)
            )
            if report.label_stable:
                assert report.output_stable
                assert report.output_rounds is not None


class TestStatesGraphIsTheRunSpace:
    def test_paths_are_fair_runs(self):
        protocol = or_clique_protocol(clique(3))
        inputs = default_inputs(protocol)
        graph = StatesGraph(
            protocol,
            inputs,
            r=2,
            initial_labelings=broadcast_labelings(
                protocol.topology, protocol.label_space
            ),
        )
        # every state's path from its root forms a valid r-fair prefix:
        # replaying the actions through the engine reaches the same labeling
        simulator = Simulator(protocol, inputs)
        checked = 0
        for k in range(len(graph)):
            actions = graph.path_to(k)
            if not actions or len(actions) > 6:
                continue
            root = graph.root_of(k)
            labeling = Labeling(protocol.topology, graph.labeling_of(root))
            schedule = ExplicitSchedule(3, actions)
            trace = simulator.run_trace(labeling, schedule, steps=len(actions))
            assert trace[-1].labeling.values == graph.labeling_of(k)
            checked += 1
        assert checked > 10

    def test_initialization_vertices_have_full_countdowns(self):
        protocol = or_clique_protocol(clique(3))
        inputs = default_inputs(protocol)
        graph = StatesGraph(
            protocol,
            inputs,
            r=2,
            initial_labelings=broadcast_labelings(
                protocol.topology, protocol.label_space
            ),
        )
        for k in graph.initial_indices:
            assert graph.countdown_of(k) == (2, 2, 2)

    def test_witness_schedules_are_r_fair(self):
        from repro.stabilization import decide_label_r_stabilizing

        protocol = or_clique_protocol(clique(4))
        inputs = default_inputs(protocol)
        verdict = decide_label_r_stabilizing(
            protocol,
            inputs,
            3,
            initial_labelings=broadcast_labelings(
                protocol.topology, protocol.label_space
            ),
        )
        assert not verdict.stabilizing
        schedule = verdict.witness.to_schedule(4)
        assert minimal_fairness(schedule, 500) <= 3
