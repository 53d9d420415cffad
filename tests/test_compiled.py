"""Equivalence and unit tests for the compiled fast-path engine.

The compiled path must be observationally identical to the reference
dict-based semantics of the paper's global transition: build both, drive them
with random activation sequences, and compare configuration-for-configuration.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CompiledProtocol,
    Configuration,
    ConstantReaction,
    Labeling,
    LambdaReaction,
    LambdaStatefulReaction,
    RoundRobinSchedule,
    Simulator,
    StatefulProtocol,
    StatelessProtocol,
    SynchronousSchedule,
    TabularReaction,
    UniformReaction,
    binary,
    compile_protocol,
)
from repro.exceptions import ValidationError
from repro.graphs import bidirectional_ring, clique, unidirectional_ring

from tests.helpers import or_clique_protocol, random_bit_labeling


def reference_step(protocol, inputs, config, active):
    """The original object-based global transition, kept as the test oracle."""
    labeling = config.labeling
    updates = {}
    outputs = list(config.outputs)
    for i in active:
        incoming = labeling.incoming(i)
        if protocol.is_stateful:
            outgoing, y = protocol.reaction(i)(
                incoming, labeling.outgoing(i), inputs[i]
            )
        else:
            outgoing, y = protocol.reaction(i)(incoming, inputs[i])
        expected = protocol.topology.out_edges(i)
        if set(outgoing) != set(expected):
            raise ValidationError(f"node {i} labeled the wrong edge set")
        updates.update(outgoing)
        outputs[i] = y
    new_labeling = labeling.replace(updates) if updates else labeling
    return Configuration(new_labeling, tuple(outputs))


def assert_equivalent_on_random_runs(protocol, inputs, seed, steps=25):
    rng = random.Random(seed)
    simulator = Simulator(protocol, inputs)
    labeling = Labeling(
        protocol.topology,
        tuple(
            protocol.label_space.sample(rng) for _ in range(protocol.topology.m)
        ),
    )
    config = simulator.initial_configuration(labeling)
    n = protocol.n
    for _ in range(steps):
        active = frozenset(
            i for i in range(n) if rng.random() < 0.6
        ) or frozenset({rng.randrange(n)})
        expected = reference_step(protocol, simulator.inputs, config, active)
        actual = simulator.step(config, active)
        assert actual == expected
        config = actual


def tabular_xor_ring(n):
    """Bidirectional ring where each node broadcasts the XOR of its inputs."""
    topology = bidirectional_ring(n)
    reactions = []
    for i in range(n):
        in_edges = topology.in_edges(i)
        out_edges = topology.out_edges(i)
        table = {}
        for a in (0, 1):
            for b in (0, 1):
                for x in (0, 1):
                    bit = a ^ b ^ x
                    table[((a, b), x)] = ((bit,) * len(out_edges), bit)
        reactions.append(TabularReaction(in_edges, out_edges, table))
    return StatelessProtocol(topology, binary(), reactions, name="xor-ring")


def stateful_toggle_ring(n):
    """Stateful protocol: each node XORs its own outgoing label with incoming."""
    topology = unidirectional_ring(n)

    def make(i):
        out_edge = topology.out_edges(i)[0]

        def fn(incoming, own, x):
            (value,) = incoming.values()
            bit = value ^ own[out_edge]
            return {out_edge: bit}, bit

        return LambdaStatefulReaction(fn)

    return StatefulProtocol(topology, binary(), [make(i) for i in range(n)])


class TestEquivalence:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_uniform_reactions_match_reference(self, seed):
        assert_equivalent_on_random_runs(
            or_clique_protocol(clique(4)), (0,) * 4, seed
        )

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_tabular_reactions_match_reference(self, seed):
        protocol = tabular_xor_ring(4)
        inputs = tuple(random.Random(seed).randrange(2) for _ in range(4))
        assert_equivalent_on_random_runs(protocol, inputs, seed)

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=15, deadline=None)
    def test_lambda_reactions_match_reference(self, seed):
        topology = bidirectional_ring(4)

        def make(i):
            out_edges = topology.out_edges(i)

            def fn(incoming, x):
                total = (sum(incoming.values()) + x) % 2
                return {e: total for e in out_edges}, total

            return LambdaReaction(fn)

        protocol = StatelessProtocol(
            topology, binary(), [make(i) for i in range(4)]
        )
        assert_equivalent_on_random_runs(protocol, (1, 0, 1, 0), seed)

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=15, deadline=None)
    def test_stateful_reactions_match_reference(self, seed):
        assert_equivalent_on_random_runs(
            stateful_toggle_ring(4), (0,) * 4, seed
        )

    def test_constant_reactions_match_reference(self):
        topology = unidirectional_ring(3)
        protocol = StatelessProtocol(
            topology,
            binary(),
            [ConstantReaction(topology.out_edges(i), 1, output=i) for i in range(3)],
        )
        assert_equivalent_on_random_runs(protocol, (0,) * 3, seed=7)

    def test_full_runs_match_across_schedules(self):
        protocol = tabular_xor_ring(4)
        simulator = Simulator(protocol, (1, 0, 0, 1))
        labeling = random_bit_labeling(protocol.topology, seed=3)
        for schedule in (SynchronousSchedule(4), RoundRobinSchedule(4)):
            report = simulator.run(labeling, schedule, max_steps=200)
            # replay step-by-step with the oracle up to the detected cycle
            config = simulator.initial_configuration(labeling)
            for t in range(report.steps_executed):
                config = reference_step(
                    protocol, simulator.inputs, config, schedule.active(t)
                )
            assert config.labeling == report.final.labeling or report.oscillating


class TestFastPathSelection:
    def test_uniform_subclass_override_falls_back_to_react(self):
        topology = unidirectional_ring(3)

        class Inverting(UniformReaction):
            def react(self, incoming, x):
                outgoing, y = super().react(incoming, x)
                return {e: 1 - v for e, v in outgoing.items()}, 1 - y

        def fn(incoming, _x):
            (value,) = incoming.values()
            return value, value

        reactions = [Inverting(topology.out_edges(i), fn) for i in range(3)]
        protocol = StatelessProtocol(topology, binary(), reactions)
        sim = Simulator(protocol, (0,) * 3)
        config = sim.initial_configuration(Labeling.uniform(topology, 0))
        nxt = sim.step(config, frozenset({0}))
        # The overriding react() must win over the parent's fast path.
        assert nxt.labeling[(0, 1)] == 1
        assert nxt.outputs[0] == 1

    def test_compile_protocol_caches_per_protocol_object(self):
        protocol = or_clique_protocol(clique(3))
        assert compile_protocol(protocol) is compile_protocol(protocol)
        other = or_clique_protocol(clique(3))
        assert compile_protocol(other) is not compile_protocol(protocol)

    def test_cache_evicts_dead_protocols(self):
        # The cached CompiledProtocol must not keep its protocol alive, or
        # every throwaway protocol would leak a cache entry forever.
        import gc
        import weakref

        from repro.core.compiled import _CACHE

        protocol = or_clique_protocol(clique(3))
        compile_protocol(protocol)
        ref = weakref.ref(protocol)
        before = len(_CACHE)
        del protocol
        gc.collect()
        assert ref() is None
        assert len(_CACHE) < before

    def test_shared_compiled_form_across_simulators(self):
        protocol = or_clique_protocol(clique(3))
        compiled = compile_protocol(protocol)
        s1 = Simulator(protocol, (0,) * 3)
        s2 = Simulator(protocol, (1,) * 3)
        assert s1.compiled is s2.compiled is compiled

    def test_compiled_protocol_index_arrays(self):
        topology = bidirectional_ring(3)
        protocol = or_clique_protocol(topology)
        compiled = CompiledProtocol(protocol)
        position = topology.edge_position
        for i in range(3):
            assert compiled.in_positions[i] == tuple(
                position(e) for e in topology.in_edges(i)
            )
            assert compiled.out_positions[i] == tuple(
                position(e) for e in topology.out_edges(i)
            )


class TestValidation:
    def test_partial_labeling_still_rejected(self):
        topology = bidirectional_ring(3)

        def bad(incoming, x):
            return {topology.out_edges(0)[0]: 0}, 0  # labels one of two edges

        protocol = StatelessProtocol(
            topology, binary(), [LambdaReaction(bad)] * 3
        )
        sim = Simulator(protocol, (0,) * 3)
        config = sim.initial_configuration(Labeling.uniform(topology, 0))
        with pytest.raises(ValidationError):
            sim.step(config, frozenset({0}))

    def test_extra_edges_still_rejected(self):
        topology = unidirectional_ring(3)

        def bad(incoming, x):
            return {(0, 1): 0, (1, 2): 0}, 0  # labels another node's edge

        protocol = StatelessProtocol(
            topology, binary(), [LambdaReaction(bad)] * 3
        )
        sim = Simulator(protocol, (0,) * 3)
        config = sim.initial_configuration(Labeling.uniform(topology, 0))
        with pytest.raises(ValidationError):
            sim.step(config, frozenset({0}))

    def test_auto_vivifying_mapping_still_rejected(self):
        # A defaultdict that lacks an out-edge must not slip through by
        # growing to the right size while the adapter indexes into it.
        import collections

        topology = bidirectional_ring(3)

        def bad(incoming, x):
            outgoing = collections.defaultdict(int)
            outgoing[topology.out_edges(0)[0]] = 1  # one of two edges
            return outgoing, 0

        protocol = StatelessProtocol(
            topology, binary(), [LambdaReaction(bad)] * 3
        )
        sim = Simulator(protocol, (0,) * 3)
        config = sim.initial_configuration(Labeling.uniform(topology, 0))
        with pytest.raises(ValidationError):
            sim.step(config, frozenset({0}))

    def test_non_mapping_return_rejected(self):
        topology = unidirectional_ring(3)

        def bad(incoming, x):
            return [((0, 1), 0)], 0

        protocol = StatelessProtocol(
            topology, binary(), [LambdaReaction(bad)] * 3
        )
        sim = Simulator(protocol, (0,) * 3)
        config = sim.initial_configuration(Labeling.uniform(topology, 0))
        with pytest.raises(ValidationError):
            sim.step(config, frozenset({0}))

    def test_tabular_missing_row_raises_through_fast_path(self):
        topology = unidirectional_ring(2)
        table = {((0,), 0): ((0,), 0)}  # only covers incoming 0 with input 0
        reactions = [
            TabularReaction(
                topology.in_edges(i), topology.out_edges(i), table
            )
            for i in range(2)
        ]
        protocol = StatelessProtocol(topology, binary(), reactions)
        sim = Simulator(protocol, (0, 0))
        config = sim.initial_configuration(Labeling.uniform(topology, 1))
        with pytest.raises(ValidationError):
            sim.step(config, frozenset({0}))

    def test_mismatched_labeling_topology_rejected(self):
        protocol = or_clique_protocol(clique(3))
        sim = Simulator(protocol, (0,) * 3)
        foreign = Labeling.uniform(bidirectional_ring(3), 0)
        with pytest.raises(ValidationError):
            sim.run(foreign, SynchronousSchedule(3))
