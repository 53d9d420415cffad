"""End-to-end equivalence of the symmetry quotient (``symmetry="auto"``).

The quotient is an internal optimization: every public answer — verdicts,
worst-case delays, replayed witnesses — must be indistinguishable from the
unquotiented states-graph search.  These tests drive that contract
property-style over randomly generated *node-symmetric* protocols (a shared
lookup table keyed on the sorted incoming multiset, so the full topology
automorphism group is equivariant), plus golden checks on the paper zoo.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Labeling,
    LambdaReaction,
    RunOutcome,
    Simulator,
    StatelessProtocol,
    binary,
    default_inputs,
    minimal_fairness,
)
from repro import ExecutionPolicy
from repro.core.compiled import compile_protocol
from repro.faults import exhaustive_worst_case_delay
from repro.graphs import clique
from repro.graphs.automorphisms import protocol_symmetry_group
from repro.stabilization import (
    ExplorationGraph,
    broadcast_labelings,
    decide_label_r_stabilizing,
    decide_output_r_stabilizing,
    example1_protocol,
)
from repro.stabilization import exploration

from tests.helpers import (
    SERIAL_FLOOR,
    graph_lists,
    graph_stores,
    or_clique_protocol,
    set_batch_floor,
    symmetric_protocol,
    without_batch_counters,
)

#: The policy spelling of the legacy ``symmetry="auto"`` keyword.
QUOTIENT = ExecutionPolicy(symmetry="auto")


def random_labeling(rng: random.Random, protocol) -> Labeling:
    labels = list(protocol.label_space)
    return Labeling(
        protocol.topology,
        tuple(rng.choice(labels) for _ in protocol.topology.edges),
    )


def derived_edges(graph) -> list[tuple[int, bool]]:
    """``(element, changing)`` of every edge, in edge-store order."""
    records = []
    for k in range(len(graph)):
        changing = graph.changing_sets(k)
        for e in range(graph.edge_offsets[k], graph.edge_offsets[k + 1]):
            sid = graph.edge_sid[e]
            records.append((graph.element(k, sid), sid in changing))
    return records


class TestDerivedElements:
    """Group elements and changing edges are derived, not stored: each
    must agree with the raw successor the serial step computes."""

    @pytest.mark.parametrize("track_outputs", [False, True])
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_elements_map_raw_successors_onto_targets(self, track_outputs, seed):
        rng = random.Random(seed)
        protocol = symmetric_protocol(rng)
        inputs = default_inputs(protocol)
        r = rng.randrange(1, 4)
        inits = [random_labeling(rng, protocol) for _ in range(3)]
        group = protocol_symmetry_group(protocol, inputs)
        graph = ExplorationGraph(
            protocol, inputs, r, inits, track_outputs=track_outputs, policy=QUOTIENT
        )
        assert graph.quotient == (group is not None)
        if group is None:
            labels = nodes = lambda _g, vector: tuple(vector)  # noqa: E731
        else:
            labels, nodes = group.apply_labeling, group.apply_per_node
        compiled = compile_protocol(protocol)
        for k in graph.initial_indices:
            g = graph.root_element(k)
            assert labels(g, graph.initial_labeling(k).values) == graph.labeling_of(k)
        for k in range(len(graph)):
            values = graph.labeling_of(k)
            outputs = graph.outputs_of(k) if track_outputs else None
            countdown = graph.countdown_of(k)
            changing = graph.changing_sets(k)
            for e in range(graph.edge_offsets[k], graph.edge_offsets[k + 1]):
                j = graph.edge_dst[e]
                sid = graph.edge_sid[e]
                t = graph.activation_set(sid)
                raw_values, raw_outputs = compiled.step_values(
                    values, outputs, t, inputs
                )
                raw_countdown = tuple(
                    r if i in t else c - 1 for i, c in enumerate(countdown)
                )
                g = graph.element(k, sid)
                assert labels(g, raw_values) == graph.labeling_of(j)
                assert nodes(g, raw_countdown) == graph.countdown_of(j)
                changed = raw_values != values
                if track_outputs:
                    assert nodes(g, raw_outputs) == graph.outputs_of(j)
                    changed = changed or raw_outputs != outputs
                assert (sid in changing) == changed


class TestLevelPass:
    @pytest.mark.parametrize("track_outputs", [False, True])
    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_quotients_match_the_per_edge_route(self, track_outputs, seed):
        # The level pass canonicalizes each first arrival in edge order, as
        # the per-edge route does: same calls, same stores, same elements.
        # Floor 1 takes it from the first level; from three roots, floor 4
        # has it take over mid-build.
        pytest.importorskip("numpy")
        rng = random.Random(seed)
        protocol = symmetric_protocol(rng)
        inputs = default_inputs(protocol)
        r = rng.randrange(1, 4)
        inits = [random_labeling(rng, protocol) for _ in range(3)]
        graphs = []
        with pytest.MonkeyPatch.context() as patch:
            set_batch_floor(patch, rng.choice([1, 4]))
            for _route in ("level pass", "per edge"):
                graphs.append(
                    ExplorationGraph(
                        protocol,
                        inputs,
                        r,
                        inits,
                        track_outputs=track_outputs,
                        policy=QUOTIENT,
                    )
                )
                patch.setattr(exploration, "np", None)
        level, per_edge = graphs
        assert without_batch_counters(graph_stores(level)) == without_batch_counters(
            graph_stores(per_edge)
        )
        assert derived_edges(level) == derived_edges(per_edge)


    @pytest.mark.parametrize("chunk", [exploration.LEVEL_CHUNK_EDGES, 1])
    @pytest.mark.parametrize(
        "floor", [1, exploration.LEVEL_PASS_MIN_EDGES, SERIAL_FLOOR]
    )
    @pytest.mark.parametrize("track_outputs", [False, True])
    def test_stores_match_at_every_edge_floor(self, track_outputs, floor, chunk):
        # K_5 at r = 3 has levels of 186, 620 and 454 edges: the level pass
        # takes it from the first level at floor 1, mid-build at the
        # default floor, and never at SERIAL_FLOOR.  A chunk bound of 1
        # canonicalizes one state's first arrivals per block.
        pytest.importorskip("numpy")
        protocol = example1_protocol(5)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        starts = []
        level_pass = exploration._LevelPass

        def spy(graph, lo):
            starts.append(lo)
            return level_pass(graph, lo)

        graphs = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exploration, "_LevelPass", spy)
            patch.setattr(exploration, "LEVEL_PASS_MIN_EDGES", floor)
            patch.setattr(exploration, "LEVEL_CHUNK_EDGES", chunk)
            for _route in ("level pass", "per edge"):
                graphs.append(
                    ExplorationGraph(
                        protocol,
                        default_inputs(protocol),
                        3,
                        inits,
                        track_outputs=track_outputs,
                        policy=QUOTIENT,
                    )
                )
                patch.setattr(exploration, "np", None)
        level, per_edge = graphs
        assert starts == {1: [0], SERIAL_FLOOR: []}.get(floor, [6])
        assert graph_stores(level) == graph_stores(per_edge)
        assert derived_edges(level) == derived_edges(per_edge)


class TestVerdictEquivalence:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_label_verdicts_match(self, seed):
        rng = random.Random(seed)
        protocol = symmetric_protocol(rng)
        inputs = default_inputs(protocol)
        r = rng.randrange(1, 4)
        inits = [random_labeling(rng, protocol) for _ in range(3)]
        plain = decide_label_r_stabilizing(
            protocol, inputs, r, initial_labelings=inits
        )
        quotient = decide_label_r_stabilizing(
            protocol, inputs, r, initial_labelings=inits, policy=QUOTIENT
        )
        assert plain.stabilizing == quotient.stabilizing
        assert quotient.states_explored <= plain.states_explored
        if not quotient.stabilizing:
            witness = quotient.witness
            schedule = witness.to_schedule(protocol.n)
            assert minimal_fairness(schedule, 400) <= r
            sim = Simulator(protocol, inputs)
            report = sim.run(
                witness.initial_labeling, schedule, max_steps=4000
            )
            # either way the labeling provably cycles forever
            assert report.outcome in (
                RunOutcome.OSCILLATING,
                RunOutcome.OUTPUT_STABLE,
            )
            assert report.label_rounds is None

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=10, deadline=None)
    def test_output_verdicts_match(self, seed):
        rng = random.Random(seed)
        protocol = symmetric_protocol(rng)
        inputs = default_inputs(protocol)
        r = rng.randrange(1, 3)
        inits = [random_labeling(rng, protocol) for _ in range(2)]
        plain = decide_output_r_stabilizing(
            protocol, inputs, r, initial_labelings=inits
        )
        quotient = decide_output_r_stabilizing(
            protocol, inputs, r, initial_labelings=inits, policy=QUOTIENT
        )
        assert plain.stabilizing == quotient.stabilizing

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_worst_case_delays_match(self, seed):
        rng = random.Random(seed)
        protocol = symmetric_protocol(rng)
        inputs = default_inputs(protocol)
        r = rng.randrange(1, 4)
        init = random_labeling(rng, protocol)
        plain = exhaustive_worst_case_delay(protocol, inputs, init, r)
        quotient = exhaustive_worst_case_delay(
            protocol, inputs, init, r, policy=QUOTIENT
        )
        assert plain.delay == quotient.delay
        # the lifted witness schedule is r-fair and certifies the delay:
        # every state it visits before absorption is non-stable, and an
        # unbounded witness loop closes concretely.
        assert minimal_fairness(quotient.schedule(), 400) <= r
        compiled = compile_protocol(protocol)
        values = init.values
        if plain.delay is None:
            for t_set in list(quotient.prefix) + list(quotient.loop):
                assert not compiled.is_fixed_point(values, inputs)
                values, _ = compiled.step_values(values, None, t_set, inputs)
            loop_start = values
            assert not compiled.is_fixed_point(values, inputs)
            for t_set in quotient.loop:
                values, _ = compiled.step_values(values, None, t_set, inputs)
            assert values == loop_start  # the lifted cycle closes concretely
        else:
            for t_set in quotient.prefix:
                assert not compiled.is_fixed_point(values, inputs)
                values, _ = compiled.step_values(values, None, t_set, inputs)
            assert compiled.is_fixed_point(values, inputs)
            assert len(quotient.prefix) == plain.delay


class TestGoldenZoo:
    @pytest.mark.parametrize(
        "n, r, stabilizing",
        [(3, 1, True), (3, 2, False), (4, 2, True), (4, 3, False)],
    )
    def test_example1_verdicts(self, n, r, stabilizing):
        protocol = example1_protocol(n)
        inputs = default_inputs(protocol)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        quotient = decide_label_r_stabilizing(
            protocol, inputs, r, initial_labelings=inits, policy=QUOTIENT
        )
        assert quotient.stabilizing == stabilizing
        if not stabilizing:
            witness = quotient.witness
            sim = Simulator(protocol, inputs)
            report = sim.run(
                witness.initial_labeling,
                witness.to_schedule(protocol.n),
                max_steps=4000,
            )
            assert report.outcome is RunOutcome.OSCILLATING

    def test_orbit_closed_initials_cover_the_plain_graph_exactly(self):
        protocol = or_clique_protocol(clique(4))
        inputs = default_inputs(protocol)
        space = protocol.label_space
        inits = [
            Labeling(protocol.topology, values)
            for values in product(space, repeat=len(protocol.topology.edges))
        ]
        plain = ExplorationGraph(protocol, inputs, 2, inits)
        quotient = ExplorationGraph(protocol, inputs, 2, inits, policy=QUOTIENT)
        stats = quotient.stats()
        assert stats.covered_states == len(plain)
        assert stats.symmetry_order == 24
        assert stats.reduction_factor > 10

    def test_quotient_graph_is_frontier_mode_invariant(self, monkeypatch):
        protocol = or_clique_protocol(clique(4))
        inputs = default_inputs(protocol)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        set_batch_floor(monkeypatch, SERIAL_FLOOR)
        serial = ExplorationGraph(protocol, inputs, 3, inits, policy=QUOTIENT)
        set_batch_floor(monkeypatch, 1)
        batch = ExplorationGraph(protocol, inputs, 3, inits, policy=QUOTIENT)
        assert serial.stats().batch_calls == 0
        assert batch.stats().batch_calls > 0
        assert serial.state_keys == batch.state_keys
        assert graph_lists(serial).successors == graph_lists(batch).successors
        assert derived_edges(serial) == derived_edges(batch)
        assert [serial.root_element(k) for k in serial.initial_indices] == [
            batch.root_element(k) for k in batch.initial_indices
        ]

    def test_explicit_group_and_topology_mismatch(self):
        # A policy takes "none" or "auto" only.  A caller's group is refused
        # when the policy is built, over the protocol's topology or another:
        # nothing verified it against the reactions.
        from repro.exceptions import ValidationError
        from repro.graphs import automorphism_generators, close_generators
        from repro.graphs.automorphisms import SymmetryGroup

        protocol = or_clique_protocol(clique(4))
        verified = protocol_symmetry_group(protocol, default_inputs(protocol))
        wrong = SymmetryGroup(
            clique(3),
            close_generators(automorphism_generators(clique(3)), 3, 10_000),
        )
        for group in (verified, wrong):
            with pytest.raises(ValidationError, match="unknown symmetry"):
                ExecutionPolicy(symmetry=group)


def stored_states(graph) -> set:
    """The ``(labeling, outputs, countdown)`` of every stored state."""
    return {
        (graph.labeling_of(k), graph.outputs_of(k), graph.countdown_of(k))
        for k in range(len(graph))
    }


#: Example 1 on K_4 and K_5, built once, so its group is verified once.
_EXAMPLE1 = {n: example1_protocol(n) for n in (4, 5)}

#: Builds a quotient over string labels from the broadcast labelings in
#: their natural order and reversed, with outputs tracked, and prints the
#: first graph's stores and both graphs' sets of states as JSON.  A
#: numbering taken from set iteration would follow ``PYTHONHASHSEED``.
_STRING_LABELS_SCRIPT = """
import json
from repro import ExecutionPolicy
from repro.core import ExplicitLabelSpace, LambdaReaction, StatelessProtocol
from repro.core import default_inputs
from repro.graphs import clique
from repro.stabilization import ExplorationGraph, broadcast_labelings

topology = clique(3)
rank = {"lo": 0, "mid": 1, "hi": 2}

def make(i):
    def fn(incoming, _x):
        label = max(incoming.values(), key=rank.__getitem__)
        return {e: label for e in topology.out_edges(i)}, label.upper()
    return LambdaReaction(fn)

protocol = StatelessProtocol(
    topology, ExplicitLabelSpace(("lo", "mid", "hi")),
    [make(i) for i in range(3)], name="max-clique",
)
inits = list(broadcast_labelings(topology, protocol.label_space))
report = {}
for name, order in (("natural", inits), ("reversed", inits[::-1])):
    graph = ExplorationGraph(
        protocol, default_inputs(protocol), 2, order, track_outputs=True,
        policy=ExecutionPolicy(symmetry="auto"),
    )
    assert graph.quotient
    states = {
        (graph.labeling_of(k), graph.outputs_of(k), graph.countdown_of(k))
        for k in range(len(graph))
    }
    report[name] = sorted(map(repr, states))
    if name == "natural":
        report["stores"] = repr([
            graph.state_keys, graph._labels, graph._outs, graph._countdowns,
            list(graph.edge_offsets), list(graph.edge_dst),
            list(graph.edge_sid), list(graph.parent_idx),
        ])
print(json.dumps(report))
"""


class TestRepresentatives:
    """A quotient stores the least state of each orbit under codes its
    group fixes from the protocol (labels in declared order, outputs in
    verification order), so a representative is a function of its state
    alone: no order of the initial labelings, and no hash seed, moves
    it."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_shuffled_initial_labelings_store_the_same_states(self, data):
        if data.draw(st.booleans()):
            rng = random.Random(data.draw(st.integers(0, 10**6)))
            protocol = symmetric_protocol(rng)
            r = rng.randrange(1, 4)
            inits = [random_labeling(rng, protocol) for _ in range(4)]
        else:
            protocol = _EXAMPLE1[data.draw(st.sampled_from([4, 5]))]
            r = 3
            inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        track_outputs = data.draw(st.booleans())
        first, second = (
            ExplorationGraph(
                protocol,
                default_inputs(protocol),
                r,
                data.draw(st.permutations(inits)),
                track_outputs=track_outputs,
                policy=QUOTIENT,
            )
            for _ in range(2)
        )
        assert first.quotient
        assert stored_states(first) == stored_states(second)
        assert (first.num_edges, first.stats().covered_states) == (
            second.num_edges,
            second.stats().covered_states,
        )

    @pytest.mark.parametrize("track_outputs", [False, True])
    @pytest.mark.parametrize("n, r", [(5, 3), (6, 4)])
    def test_a_fresh_canonicalizer_fixes_every_stored_state(self, n, r, track_outputs):
        # Built from a shuffled order (verify-clique's at seed 4242 on
        # K_6), every stored state is its own representative under the
        # canonicalizer of a fresh protocol's group, whatever order it
        # meets them in: here by labeling, from 0^m up.
        protocol = example1_protocol(n)
        inputs = default_inputs(protocol)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        order = random.Random(f"4242/K{n}q").sample(range(len(inits)), len(inits))
        graph = ExplorationGraph(
            protocol,
            inputs,
            r,
            [inits[i] for i in order],
            track_outputs=track_outputs,
            policy=QUOTIENT,
        )
        fresh = example1_protocol(n)
        canon = protocol_symmetry_group(fresh, inputs).canonicalizer(track_outputs, r)
        for k in sorted(range(len(graph)), key=graph.labeling_of):
            outputs = graph.outputs_of(k) if track_outputs else None
            state = (graph.labeling_of(k), outputs, graph.countdown_of(k))
            assert canon.canonical(*state)[0] == 0

    def test_string_labels_store_alike_under_every_hash_seed(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        reports = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")])
            )
            run = subprocess.run(
                [sys.executable, "-c", _STRING_LABELS_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
                timeout=300,
            )
            reports.append(json.loads(run.stdout))
        assert reports[0] == reports[1]
        assert reports[0]["natural"] == reports[0]["reversed"]


def list_output_clique(n: int) -> StatelessProtocol:
    """An OR clique whose nodes output their bit in a list: unhashable."""
    topology = clique(n)

    def make(i):
        def fn(incoming, _x):
            bit = 1 if any(incoming.values()) else 0
            return {e: bit for e in topology.out_edges(i)}, [bit]

        return LambdaReaction(fn)

    return StatelessProtocol(
        topology, binary(), [make(i) for i in range(n)], name="list-output-clique"
    )


class TestUnhashableOutputs:
    """Verification numbers every output it computes, so an unhashable
    output gets the protocol no group: the search runs unquotiented."""

    def test_no_group_and_the_labels_only_answers_stand(self):
        protocol = list_output_clique(4)
        inputs = default_inputs(protocol)
        assert protocol_symmetry_group(protocol, inputs) is None
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        graph = ExplorationGraph(protocol, inputs, 2, inits, policy=QUOTIENT)
        plain = ExplorationGraph(protocol, inputs, 2, inits)
        assert not graph.quotient
        assert graph_stores(graph) == graph_stores(plain)
        verdicts = [
            decide_label_r_stabilizing(
                protocol, inputs, 2, initial_labelings=inits, policy=policy
            )
            for policy in (QUOTIENT, ExecutionPolicy())
        ]
        assert verdicts[0].stabilizing == verdicts[1].stabilizing
        assert verdicts[0].states_explored == verdicts[1].states_explored

    def test_tracked_outputs_fail_alike_on_both_symmetries(self):
        # Interning an output tuple needs its hash, so tracking unhashable
        # outputs fails on the concrete graph; the quotient request now
        # fails the same way, where its canonicalizer failed before.
        protocol = list_output_clique(4)
        inputs = default_inputs(protocol)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        errors = []
        for policy in (QUOTIENT, ExecutionPolicy()):
            with pytest.raises(TypeError, match="unhashable") as raised:
                ExplorationGraph(
                    protocol, inputs, 2, inits, track_outputs=True, policy=policy
                )
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert protocol_symmetry_group(protocol, inputs) is None
