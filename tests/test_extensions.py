"""Tests for the future-work extensions (Section 7).

* Almost-stateless computation: the memory model, the mirror-node compiler,
  and step-for-step equivalence between the two semantics.
* Randomized reactions: Example 1 with coin-flip tie-breaking defeats the
  adversarial (n-1)-fair schedule almost surely.
"""


import pytest

from repro.core import (
    ExplicitSchedule,
    Labeling,
    Simulator,
    SynchronousSchedule,
    minimal_fairness,
)
from repro.exceptions import ValidationError
from repro.extensions import (
    MemoryProtocol,
    RandomizedSimulator,
    compile_to_stateless,
    counter_with_memory,
    expand_memory_inputs,
    mirror_schedule_steps,
    mirror_topology,
    randomized_example1,
)
from repro.graphs import unidirectional_ring
from repro.stabilization import one_token_labeling, oscillating_schedule


class TestMirrorTopology:
    def test_structure(self):
        base = unidirectional_ring(3)
        big = mirror_topology(base)
        assert big.n == 6
        assert big.has_edge(0, 3) and big.has_edge(3, 0)
        assert big.has_edge(1, 4) and big.has_edge(4, 1)
        # original edges preserved
        for edge in base.edges:
            assert big.has_edge(*edge)


class TestAlmostStateless:
    def test_memory_protocol_reference_semantics(self):
        protocol = counter_with_memory(3, modulus=4)
        schedule = SynchronousSchedule(3)
        trace = protocol.run_trace(
            [0, 0, 0], [0, 0, 0], (0, 0, 0), schedule, steps=5
        )
        # after t steps each node's memory is t mod 4
        _, memories = trace[5]
        assert memories == (1, 2, 3, 0)[1:4] or memories == (5 % 4,) * 3
        assert memories == (1, 1, 1) or memories == (5 % 4,) * 3

    def test_compiled_matches_reference_synchronously(self):
        protocol = counter_with_memory(3, modulus=5)
        compiled = compile_to_stateless(protocol)
        assert compiled.n == 6
        source_steps = [set(range(3))] * 7
        lifted = mirror_schedule_steps(source_steps, 3)
        simulator = Simulator(compiled, expand_memory_inputs((0, 0, 0)))
        initial = Labeling.uniform(compiled.topology, (0, 0))
        trace = simulator.run_trace(
            initial, ExplicitSchedule(6, lifted), steps=len(lifted)
        )
        reference = protocol.run_trace(
            [0, 0, 0], [0, 0, 0], (0, 0, 0), SynchronousSchedule(3), steps=7
        )
        for t in range(1, 8):
            # one source step = two compiled steps
            _, memories = reference[t]
            assert trace[2 * t].outputs[:3] == memories

    def test_compiled_respects_partial_schedules(self):
        protocol = counter_with_memory(3, modulus=3)
        compiled = compile_to_stateless(protocol)
        steps = [{0}, {1}, {2}, {0, 1}]
        lifted = mirror_schedule_steps(steps, 3)
        simulator = Simulator(compiled, expand_memory_inputs((0, 0, 0)))
        initial = Labeling.uniform(compiled.topology, (0, 0))
        trace = simulator.run_trace(
            initial, ExplicitSchedule(6, lifted), steps=len(lifted)
        )
        reference = protocol.run_trace(
            [0, 0, 0],
            [0, 0, 0],
            (0, 0, 0),
            ExplicitSchedule(3, steps),
            steps=4,
        )
        for t in range(5):
            _, memories = reference[t]
            for i in range(3):
                # after the mirror phase the echo edge carries i's memory
                assert trace[2 * t].labeling[(3 + i, i)][1] == memories[i]

    def test_memory_counter_counts_activations(self):
        protocol = counter_with_memory(4, modulus=10)
        compiled = compile_to_stateless(protocol)
        simulator = Simulator(compiled, expand_memory_inputs((0,) * 4))
        initial = Labeling.uniform(compiled.topology, (0, 0))
        # node 0 is activated three times, others once (two-phase lift)
        steps = mirror_schedule_steps([{0}, {0}, {0}, {1}, {2}, {3}], 4)
        schedule = ExplicitSchedule(8, steps)
        config = simulator.initial_configuration(initial)
        for t in range(len(steps)):
            config = simulator.step(config, schedule.active(t))
        assert config.outputs[0] == 3
        assert config.outputs[1] == 1

    def test_wrong_arity_rejected(self):
        from repro.core import binary

        with pytest.raises(ValidationError):
            MemoryProtocol(
                unidirectional_ring(3), binary(), binary(), [lambda *a: None]
            )


class TestRandomizedExample1:
    def test_deterministic_schedule_defeated(self):
        """The Theorem 3.1 adversarial schedule loses against coin flips:
        across seeds, the randomized protocol converges well within budget."""
        n = 4
        protocol = randomized_example1(n)
        schedule = oscillating_schedule(n)
        assert minimal_fairness(schedule, 100) == n - 1
        converged = 0
        for seed in range(20):
            simulator = RandomizedSimulator(protocol, (0,) * n, seed=seed)
            ok, _ = simulator.run_until_label_constant(
                one_token_labeling(n), schedule, max_steps=400, quiet_window=3 * n
            )
            converged += ok
        assert converged == 20

    def test_converged_runs_end_in_uniform_labeling(self):
        from repro.core import Configuration

        n = 4
        protocol = randomized_example1(n)
        schedule = oscillating_schedule(n)
        simulator = RandomizedSimulator(protocol, (0,) * n, seed=5)
        config = Configuration(one_token_labeling(n), (None,) * n)
        for t in range(400):
            config = simulator.step(config, schedule.active(t))
        # both absorbing labelings are uniform; after a long run we are there
        assert len(set(config.labeling.values)) == 1

    def test_join_probability_one_recovers_determinism(self):
        # with p = 1 the protocol is the deterministic Example 1 and the
        # adversarial schedule keeps it oscillating for the whole budget
        n = 4
        protocol = randomized_example1(n, join_probability=1.0)
        schedule = oscillating_schedule(n)
        simulator = RandomizedSimulator(protocol, (0,) * n, seed=0)
        ok, _ = simulator.run_until_label_constant(
            one_token_labeling(n), schedule, max_steps=300, quiet_window=2 * n
        )
        assert not ok

    def test_survival_decays_with_time(self):
        """The fraction of seeds still oscillating decays as the budget grows
        (geometric-decay signature)."""
        n = 4
        protocol = randomized_example1(n)
        schedule = oscillating_schedule(n)

        def surviving(budget):
            alive = 0
            for seed in range(30):
                simulator = RandomizedSimulator(protocol, (0,) * n, seed=seed)
                ok, _ = simulator.run_until_label_constant(
                    one_token_labeling(n),
                    schedule,
                    max_steps=budget,
                    quiet_window=2 * n,
                )
                alive += 0 if ok else 1
            return alive

        assert surviving(16) >= surviving(64) >= surviving(400)

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            randomized_example1(2)
        with pytest.raises(ValidationError):
            randomized_example1(4, join_probability=0.0)
