"""Tests for fixed points, the states-graph, the model checker, and Example 1.

These machine-verify the Part I results of the paper on small instances:

* Theorem 3.1: two stable labelings => not label (n-1)-stabilizing.
* Example 1 tightness: the clique protocol is label (n-2)-stabilizing.
"""

import pytest

from repro.core import (
    RunOutcome,
    Simulator,
    default_inputs,
    minimal_fairness,
)
from repro.exceptions import SearchBudgetExceeded
from repro.graphs import clique
from repro.stabilization import (
    StatesGraph,
    all_labelings,
    broadcast_labelings,
    decide_label_r_stabilizing,
    decide_output_r_stabilizing,
    example1_protocol,
    is_stable_labeling,
    one_token_labeling,
    oscillating_schedule,
    stable_labeling_pair,
    stable_labelings,
    valid_activation_sets,
)

from tests.helpers import copy_ring_protocol, graph_lists, or_clique_protocol


class TestFixedPoints:
    def test_example1_stable_pair(self):
        proto = example1_protocol(3)
        inputs = default_inputs(proto)
        zero, one = stable_labeling_pair(3)
        assert is_stable_labeling(proto, inputs, zero)
        assert is_stable_labeling(proto, inputs, one)

    def test_token_labeling_not_stable(self):
        proto = example1_protocol(3)
        assert not is_stable_labeling(
            proto, default_inputs(proto), one_token_labeling(3)
        )

    def test_full_enumeration_on_tiny_ring(self):
        proto = copy_ring_protocol(3)
        stables = stable_labelings(proto, default_inputs(proto))
        # copy ring: stable iff the labeling is uniform
        assert len(stables) == 2

    def test_broadcast_enumeration_matches_full_on_clique(self):
        proto = example1_protocol(3)
        inputs = default_inputs(proto)
        full = stable_labelings(proto, inputs)
        broadcast = stable_labelings(
            proto, inputs, broadcast_labelings(proto.topology, proto.label_space)
        )
        assert set(full) == set(broadcast)
        assert len(broadcast) == 2

    def test_budget_guard(self):
        proto = example1_protocol(5)  # K_5 has 20 edges: 2^20 labelings
        with pytest.raises(SearchBudgetExceeded):
            list(all_labelings(proto.topology, proto.label_space, budget=1000))


class TestValidActivationSets:
    def test_forced_nodes_always_included(self):
        sets = valid_activation_sets((1, 3, 2), 3)
        assert all(0 in t for t in sets)

    def test_no_empty_set(self):
        sets = valid_activation_sets((5, 5, 5), 3)
        assert frozenset() not in sets
        assert len(sets) == 7  # 2^3 - 1

    def test_all_forced(self):
        sets = valid_activation_sets((1, 1), 2)
        assert sets == [frozenset({0, 1})]


class TestStatesGraph:
    def test_every_run_is_a_path(self):
        proto = example1_protocol(3)
        inputs = default_inputs(proto)
        graph = StatesGraph(
            proto,
            inputs,
            r=2,
            initial_labelings=broadcast_labelings(proto.topology, proto.label_space),
        )
        # all states have at least one successor (schedules never stall)
        assert all(graph_lists(graph).successors)

    def test_attractor_of_stable_set_covers_initials_when_stabilizing(self):
        # r = n-2 = 2 on K_4: the protocol stabilizes, so from every initial
        # vertex every path inevitably reaches a stable labeling.
        proto = example1_protocol(4)
        inputs = default_inputs(proto)
        graph = StatesGraph(
            proto,
            inputs,
            r=2,
            initial_labelings=broadcast_labelings(proto.topology, proto.label_space),
        )
        zero, one = stable_labeling_pair(4)
        region = graph.attractor_region({zero.values, one.values})
        assert all(k in region for k in graph.initial_indices)

    def test_initial_vertex_escapes_attractors_when_not_stabilizing(self):
        # r = n-1 = 2 on K_3: some initialization vertex admits a run that
        # avoids both stable labelings forever (Lemma 3.2 / Theorem 3.1).
        proto = example1_protocol(3)
        inputs = default_inputs(proto)
        graph = StatesGraph(
            proto,
            inputs,
            r=2,
            initial_labelings=broadcast_labelings(proto.topology, proto.label_space),
        )
        zero, one = stable_labeling_pair(3)
        region = graph.attractor_region({zero.values, one.values})
        assert any(k not in region for k in graph.initial_indices)

    def test_single_labeling_attractors_are_disjoint_on_stables(self):
        proto = example1_protocol(3)
        inputs = default_inputs(proto)
        graph = StatesGraph(
            proto,
            inputs,
            r=1,
            initial_labelings=broadcast_labelings(proto.topology, proto.label_space),
        )
        zero, one = stable_labeling_pair(3)
        attractor_zero = graph.attractor_region({zero.values})
        attractor_one = graph.attractor_region({one.values})
        assert not (attractor_zero & attractor_one)


class TestModelChecker:
    @pytest.mark.parametrize("n", [3, 4])
    def test_example1_not_label_n_minus_1_stabilizing(self, n):
        proto = example1_protocol(n)
        inputs = default_inputs(proto)
        verdict = decide_label_r_stabilizing(
            proto,
            inputs,
            n - 1,
            initial_labelings=broadcast_labelings(proto.topology, proto.label_space),
        )
        assert not verdict.stabilizing
        assert verdict.witness is not None

    @pytest.mark.parametrize("n", [3, 4])
    def test_example1_is_label_n_minus_2_stabilizing(self, n):
        proto = example1_protocol(n)
        inputs = default_inputs(proto)
        verdict = decide_label_r_stabilizing(
            proto,
            inputs,
            max(n - 2, 1),
            initial_labelings=broadcast_labelings(proto.topology, proto.label_space),
        )
        assert verdict.stabilizing

    def test_witness_replays_as_oscillation(self):
        proto = example1_protocol(4)
        inputs = default_inputs(proto)
        verdict = decide_label_r_stabilizing(
            proto,
            inputs,
            3,
            initial_labelings=broadcast_labelings(proto.topology, proto.label_space),
        )
        witness = verdict.witness
        schedule = witness.to_schedule(proto.n)
        # the witness schedule respects (n-1)-fairness
        assert minimal_fairness(schedule, 300) <= 3
        sim = Simulator(proto, inputs)
        report = sim.run(witness.initial_labeling, schedule, max_steps=3000)
        assert report.outcome is RunOutcome.OSCILLATING

    def test_full_space_check_on_k3(self):
        # exhaustive (non-broadcast) initial labelings on K_3 agree
        proto = example1_protocol(3)
        inputs = default_inputs(proto)
        verdict = decide_label_r_stabilizing(proto, inputs, 2)
        assert not verdict.stabilizing
        verdict_sync = decide_label_r_stabilizing(proto, inputs, 1)
        assert verdict_sync.stabilizing

    def test_copy_ring_never_label_stabilizing(self):
        proto = copy_ring_protocol(3)
        verdict = decide_label_r_stabilizing(proto, default_inputs(proto), 1)
        assert not verdict.stabilizing

    def test_output_checker_detects_output_oscillation(self):
        proto = copy_ring_protocol(3)
        verdict = decide_output_r_stabilizing(proto, default_inputs(proto), 1)
        assert not verdict.stabilizing

    def test_output_checker_accepts_or_clique_synchronous(self):
        proto = or_clique_protocol(clique(3))
        verdict = decide_output_r_stabilizing(proto, default_inputs(proto), 1)
        assert verdict.stabilizing


class TestExample1Schedule:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_schedule_is_exactly_n_minus_1_fair(self, n):
        schedule = oscillating_schedule(n)
        assert minimal_fairness(schedule, 20 * n) == n - 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_oscillates_forever(self, n):
        proto = example1_protocol(n)
        sim = Simulator(proto, default_inputs(proto))
        report = sim.run(one_token_labeling(n), oscillating_schedule(n), max_steps=5000)
        assert report.outcome is RunOutcome.OSCILLATING
        assert report.cycle_length == n

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_converges_under_synchronous_schedule(self, n):
        from repro.core import SynchronousSchedule

        proto = example1_protocol(n)
        sim = Simulator(proto, default_inputs(proto))
        report = sim.run(one_token_labeling(n), SynchronousSchedule(n))
        assert report.outcome is RunOutcome.LABEL_STABLE
