"""Tests for the unified exploration core (repro.stabilization.exploration).

The core replaced three hand-rolled BFS loops (seed ``StatesGraph``, the
model checker's ``_decide``, the adversary's worst-case search), so the
contract is strict: identical reachable structure — state order, successor
lists, parent links — and bit-identical witnesses on the paper gadgets.
The reference implementation below is the seed ``StatesGraph`` BFS kept
verbatim for comparison.
"""

import gc
import json
import os
import random
import subprocess
import sys
import weakref
from collections import deque
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionPolicy
from repro.core import (
    ExplicitLabelSpace,
    ExplicitSchedule,
    Labeling,
    Simulator,
    StatelessProtocol,
    UniformReaction,
    binary,
    default_inputs,
)
from repro.core.compiled import compile_protocol
from repro.exceptions import SearchBudgetExceeded, ValidationError
from repro.faults import exhaustive_worst_case_delay
from repro.graphs import Topology, clique, unidirectional_ring
from repro.graphs.automorphisms import StateCanonicalizer
from repro.stabilization import (
    ExplorationGraph,
    StatesGraph,
    broadcast_labelings,
    decide_label_r_stabilizing,
    decide_output_r_stabilizing,
    example1_protocol,
    stable_labeling_pair,
    valid_activation_sets,
)
from repro.stabilization import exploration

from tests.helpers import (
    SERIAL_FLOOR,
    constant_protocol,
    copy_ring_protocol,
    graph_lists,
    graph_stores,
    or_clique_protocol,
    set_batch_floor,
    without_batch_counters,
    xor_ring_protocol,
)


# -- the seed StatesGraph BFS, kept as the structural reference ---------------


def _seed_activation_sets(countdown, n):
    forced = frozenset(i for i in range(n) if countdown[i] == 1)
    optional = [i for i in range(n) if i not in forced]
    sets = []
    for size in range(len(optional) + 1):
        for extra in combinations(optional, size):
            t = forced | frozenset(extra)
            if t:
                sets.append(t)
    return sets


class _SeedGraph:
    def __init__(self, protocol, inputs, r, initial_labelings, budget=400_000):
        compiled = compile_protocol(protocol)
        inputs = tuple(inputs)
        n = protocol.n
        self.index = {}
        self.states = []
        self.successors = []
        self.parent = []
        self.initial_indices = []

        def add(state, parent):
            self.index[state] = len(self.states)
            self.states.append(state)
            self.successors.append([])
            self.parent.append(parent)

        queue = deque()
        for labeling in initial_labelings:
            state = (labeling.values, (r,) * n)
            if state not in self.index:
                add(state, None)
                self.initial_indices.append(self.index[state])
                queue.append(self.index[state])
        while queue:
            k = queue.popleft()
            values, countdown = self.states[k]
            for t in _seed_activation_sets(countdown, n):
                new_values, _ = compiled.step_values(values, None, t, inputs)
                nxt = (
                    new_values,
                    tuple(r if i in t else countdown[i] - 1 for i in range(n)),
                )
                if nxt not in self.index:
                    if len(self.states) >= budget:
                        raise SearchBudgetExceeded("budget")
                    add(nxt, (k, t))
                    queue.append(self.index[nxt])
                self.successors[k].append((self.index[nxt], t))


def _gadgets():
    e3 = example1_protocol(3)
    e4 = example1_protocol(4)
    ring = copy_ring_protocol(3)
    orc = or_clique_protocol(clique(4))
    return [
        (e3, 1, list(broadcast_labelings(e3.topology, e3.label_space))),
        (e3, 2, list(broadcast_labelings(e3.topology, e3.label_space))),
        (e4, 2, list(broadcast_labelings(e4.topology, e4.label_space))),
        (ring, 2, [Labeling(ring.topology, (1, 0, 0))]),
        (orc, 3, list(broadcast_labelings(orc.topology, orc.label_space))),
    ]


class TestStructureMatchesSeed:
    @pytest.mark.parametrize("case", range(5))
    def test_identical_reachable_structure(self, case):
        protocol, r, initials = _gadgets()[case]
        inputs = default_inputs(protocol)
        seed = _SeedGraph(protocol, inputs, r, initials)
        core = StatesGraph(protocol, inputs, r, initials)
        lists = graph_lists(core)
        assert len(core) == len(seed.states)
        assert lists.states == seed.states
        assert lists.successors == seed.successors
        assert lists.parents == seed.parent
        assert core.initial_indices == seed.initial_indices

    def test_attractor_region_matches_seed_fixpoint(self):
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        initials = list(broadcast_labelings(protocol.topology, protocol.label_space))
        seed = _SeedGraph(protocol, inputs, 2, initials)
        core = StatesGraph(protocol, inputs, 2, initials)
        zero, one = stable_labeling_pair(3)
        targets = {zero.values, one.values}

        # Reference inevitability fixpoint on the seed graph.
        in_region = [seed.states[k][0] in targets for k in range(len(seed.states))]
        changed = True
        while changed:
            changed = False
            for k in range(len(seed.states)):
                if not in_region[k] and all(
                    in_region[j] for j, _ in seed.successors[k]
                ):
                    in_region[k] = True
                    changed = True
        reference = {k for k, inside in enumerate(in_region) if inside}
        assert core.attractor_region(targets) == reference


class TestInterning:
    def test_labelings_are_interned_to_shared_tuples(self):
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        graph = StatesGraph(
            protocol,
            inputs,
            2,
            broadcast_labelings(protocol.topology, protocol.label_space),
        )
        by_id: dict[int, tuple] = {}
        for k in range(len(graph)):
            lid = graph.label_id_of(k)
            values = graph.labeling_of(k)
            if lid in by_id:
                assert by_id[lid] is values  # the same object, not a copy
            by_id[lid] = values
            # ids round-trip through the reverse lookup
            assert graph.labeling_id(values) == lid
        assert graph.num_labelings == len(by_id)
        assert graph.num_labelings <= len(graph)

    def test_countdowns_round_trip(self):
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        graph = StatesGraph(
            protocol,
            inputs,
            2,
            broadcast_labelings(protocol.topology, protocol.label_space),
        )
        for k in graph.initial_indices:
            assert graph.countdown_of(k) == (2, 2, 2)
        for k in range(len(graph)):
            countdown = graph.countdown_of(k)
            assert len(countdown) == 3
            assert all(1 <= c <= 2 for c in countdown)

    def test_label_only_graph_has_all_none_outputs(self):
        protocol = copy_ring_protocol(3)
        graph = ExplorationGraph(
            protocol,
            default_inputs(protocol),
            1,
            [Labeling(protocol.topology, (1, 0, 0))],
        )
        assert all(graph.outputs_of(k) == (None, None, None) for k in range(len(graph)))
        assert all(graph.output_id_of(k) == 0 for k in range(len(graph)))

    def test_output_tracking_matches_engine_stepping(self):
        protocol = copy_ring_protocol(3)
        inputs = default_inputs(protocol)
        graph = ExplorationGraph(
            protocol,
            inputs,
            1,
            [Labeling(protocol.topology, (1, 0, 0))],
            track_outputs=True,
        )
        compiled = compile_protocol(protocol)
        successors = graph_lists(graph).successors
        for k in range(len(graph)):
            for (j, t) in successors[k]:
                values, outputs = compiled.step_values(
                    graph.labeling_of(k), graph.outputs_of(k), t, tuple(inputs)
                )
                assert graph.labeling_of(j) == values
                assert graph.outputs_of(j) == outputs

    def test_output_tracking_distinguishes_states(self):
        # The label-only graph of the copy ring at r=1 has 8 states; with
        # outputs tracked (initially all-None, then per-node bits) it has 16.
        protocol = copy_ring_protocol(3)
        inputs = default_inputs(protocol)
        initial = [Labeling(protocol.topology, (1, 0, 0))]
        label_only = ExplorationGraph(protocol, inputs, 1, initial)
        with_outputs = ExplorationGraph(
            protocol, inputs, 1, initial, track_outputs=True
        )
        assert len(label_only) < len(with_outputs)


class TestBudgetAndValidation:
    def test_budget_exhaustion_names_the_consumer(self):
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        initials = list(broadcast_labelings(protocol.topology, protocol.label_space))
        with pytest.raises(SearchBudgetExceeded, match="states-graph exceeded"):
            StatesGraph(protocol, inputs, 2, initials, budget=10)
        with pytest.raises(SearchBudgetExceeded, match="model checker exceeded"):
            decide_label_r_stabilizing(
                protocol,
                inputs,
                2,
                initial_labelings=broadcast_labelings(
                    protocol.topology, protocol.label_space
                ),
                budget=10,
            )

    def test_budget_allows_exactly_the_reachable_size(self):
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        initials = list(broadcast_labelings(protocol.topology, protocol.label_space))
        full = StatesGraph(protocol, inputs, 2, initials)
        again = StatesGraph(protocol, inputs, 2, initials, budget=len(full))
        assert len(again) == len(full)
        with pytest.raises(SearchBudgetExceeded):
            StatesGraph(protocol, inputs, 2, initials, budget=len(full) - 1)

    def test_budget_counts_root_states(self):
        # At r = 1 every node fires every step, so each successor of a
        # broadcast labeling is another broadcast root: only the 8 roots
        # can exceed the budget.
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        initials = list(broadcast_labelings(protocol.topology, protocol.label_space))
        assert len(initials) == 8
        assert len(ExplorationGraph(protocol, inputs, 1, initials, budget=8)) == 8
        for budget in (1, 7):
            with pytest.raises(
                SearchBudgetExceeded,
                match=f"exploration exceeded budget of {budget} states",
            ):
                ExplorationGraph(protocol, inputs, 1, initials, budget=budget)

    def test_invalid_r_rejected(self):
        protocol = example1_protocol(3)
        with pytest.raises(ValidationError):
            ExplorationGraph(protocol, default_inputs(protocol), 0, [])


class TestWitnessReplay:
    def test_path_to_replays_through_the_engine(self):
        protocol = or_clique_protocol(clique(3))
        inputs = default_inputs(protocol)
        graph = StatesGraph(
            protocol,
            inputs,
            2,
            broadcast_labelings(protocol.topology, protocol.label_space),
        )
        simulator = Simulator(protocol, inputs)
        checked = 0
        for k in range(len(graph)):
            actions = graph.path_to(k)
            if not 0 < len(actions) <= 5:
                continue
            root = graph.root_of(k)
            labeling = Labeling(protocol.topology, graph.labeling_of(root))
            trace = simulator.run_trace(
                labeling, ExplicitSchedule(3, actions), steps=len(actions)
            )
            assert trace[-1].labeling.values == graph.labeling_of(k)
            checked += 1
        assert checked > 10

    def test_initial_labeling_objects_preserved(self):
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        initials = list(broadcast_labelings(protocol.topology, protocol.label_space))
        graph = StatesGraph(protocol, inputs, 2, initials)
        recovered = [graph.initial_labeling(k) for k in graph.initial_indices]
        assert [labeling.values for labeling in recovered] == [
            labeling.values for labeling in initials
        ]


class TestGoldenWitnesses:
    """Verdicts and witnesses captured from the seed model checker — the
    rebuilt checker must reproduce them bit-for-bit."""

    def test_example1_k3_r2(self):
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        verdict = decide_label_r_stabilizing(
            protocol,
            inputs,
            2,
            initial_labelings=broadcast_labelings(
                protocol.topology, protocol.label_space
            ),
        )
        assert not verdict.stabilizing
        assert verdict.states_explored == 35
        witness = verdict.witness
        assert witness.initial_labeling.values == (0, 0, 0, 0, 1, 1)
        assert witness.prefix == (frozenset({0, 2}),)
        assert witness.loop == (
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({0, 2}),
        )

    def test_example1_k4_r3(self):
        protocol = example1_protocol(4)
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
        assert verdict.states_explored == 404
        witness = verdict.witness
        assert witness.initial_labeling.values == (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1)
        assert witness.prefix == (frozenset({0, 3}), frozenset({0, 1}))
        assert witness.loop == (
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({0, 3}),
            frozenset({0, 1}),
        )

    def test_copy_ring_label_and_output(self):
        protocol = copy_ring_protocol(3)
        inputs = default_inputs(protocol)
        label_verdict = decide_label_r_stabilizing(protocol, inputs, 1)
        assert not label_verdict.stabilizing
        assert label_verdict.states_explored == 8
        assert label_verdict.witness.initial_labeling.values == (0, 0, 1)
        assert label_verdict.witness.prefix == ()
        assert label_verdict.witness.loop == (frozenset({0, 1, 2}),) * 3

        output_verdict = decide_output_r_stabilizing(protocol, inputs, 1)
        assert not output_verdict.stabilizing
        assert output_verdict.states_explored == 16
        assert output_verdict.witness.initial_labeling.values == (0, 0, 1)
        assert output_verdict.witness.prefix == (frozenset({0, 1, 2}),)
        assert output_verdict.witness.loop == (frozenset({0, 1, 2}),) * 3


def _benchmark_order(protocol, task, seed=4242):
    """Broadcast labelings in the verify-clique benchmark's seeded order."""
    labelings = list(broadcast_labelings(protocol.topology, protocol.label_space))
    order = random.Random(f"{seed}/{task}").sample(
        range(len(labelings)), len(labelings)
    )
    return [labelings[i] for i in order]


class TestVerifyCliqueVerdicts:
    """The two verdicts of the verify-clique benchmark (seed 4242), pinned
    field by field: speed work on the exploration core must move none of
    its counters, its stores or its witness.  A quotient's representatives
    depend on the state alone, so its counters are the same at every
    seed."""

    def test_k5_concrete(self):
        pytest.importorskip("numpy")  # the batch frontier's counters
        protocol = example1_protocol(5)
        verdict = decide_label_r_stabilizing(
            protocol,
            default_inputs(protocol),
            4,
            initial_labelings=_benchmark_order(protocol, "K5"),
        )
        assert not verdict.stabilizing
        assert verdict.states_explored == 5_507
        assert verdict.stats.as_dict() == {
            "states": 5_507,
            "edges": 95_862,
            "initial_states": 32,
            "labeling_pool": 32,
            "output_pool": 1,
            "countdown_pool": 781,
            "activation_set_pool": 31,
            "transition_cache_hits": 94_870,
            "transition_cache_misses": 992,
            "activation_cache_hits": 4_726,
            "activation_cache_misses": 781,
            "peak_frontier": 3_825,
            "frontier_mode": "batch",
            "batch_calls": 31,
            "batch_rows": 992,
            "symmetry_order": 1,
            "covered_states": 5_507,
            "canonicalizations": 0,
            "canonical_cache_hits": 0,
            "reduction_factor": 1.0,
        }
        witness = verdict.witness
        assert witness.initial_labeling.values == (0,) * 8 + (1,) * 4 + (0,) * 8
        assert witness.prefix == (
            frozenset({0, 2}),
            frozenset({0, 1}),
            frozenset({1, 3}),
        )
        assert witness.loop == (
            frozenset({3, 4}),
            frozenset({2, 4}),
            frozenset({0, 2}),
            frozenset({0, 1}),
            frozenset({1, 3}),
        )

    @pytest.mark.parametrize("seed", [1, 4242])
    def test_k6_quotient(self, seed):
        pytest.importorskip("numpy")
        protocol = example1_protocol(6)
        verdict = decide_label_r_stabilizing(
            protocol,
            default_inputs(protocol),
            4,
            initial_labelings=_benchmark_order(protocol, "K6q", seed),
            policy=ExecutionPolicy(symmetry="auto"),
        )
        assert verdict.stabilizing
        assert verdict.witness is None
        assert verdict.stats.as_dict() == {
            "states": 299,
            "edges": 10_629,
            "initial_states": 7,
            "labeling_pool": 7,
            "output_pool": 1,
            "countdown_pool": 523,
            "activation_set_pool": 63,
            "transition_cache_hits": 10_188,
            "transition_cache_misses": 441,
            "activation_cache_hits": 243,
            "activation_cache_misses": 56,
            "peak_frontier": 184,
            "frontier_mode": "serial",
            "batch_calls": 0,
            "batch_rows": 0,
            "symmetry_order": 720,
            "covered_states": 27_634,
            "canonicalizations": 2_358,
            "canonical_cache_hits": 8_271,
            "reduction_factor": 27_634 / 299,
        }


#: Builds Example 1 on K_4 at r = 3, concrete and on the quotient, and
#: on the quotient with outputs tracked, decides it, and prints every store
#: and what the verdicts say as JSON.  ``block_numpy`` runs it as if numpy
#: were not installed.
_VERDICT_SCRIPT = """
import json, sys
if sys.argv[1] == "block_numpy":
    sys.modules["numpy"] = None
from repro import ExecutionPolicy
from repro.core import default_inputs
from repro.stabilization import (
    ExplorationGraph, broadcast_labelings, decide_label_r_stabilizing,
    decide_output_r_stabilizing, example1_protocol,
)
protocol = example1_protocol(4)
initial = list(broadcast_labelings(protocol.topology, protocol.label_space))
report = []
for symmetry, track_outputs in (("none", False), ("auto", False), ("auto", True)):
    policy = ExecutionPolicy(symmetry=symmetry)
    graph = ExplorationGraph(
        protocol, default_inputs(protocol), 3, initial,
        track_outputs=track_outputs, policy=policy,
    )
    decide = (
        decide_output_r_stabilizing if track_outputs
        else decide_label_r_stabilizing
    )
    verdict = decide(
        protocol,
        default_inputs(protocol),
        3,
        initial_labelings=initial,
        policy=policy,
    )
    witness = verdict.witness
    report.append({
        "stores": repr([
            graph.state_keys, list(graph.edge_offsets), list(graph.edge_dst),
            list(graph.edge_sid), list(graph.parent_idx),
            list(graph.parent_sid), graph._labels, graph._outs,
            graph._countdowns, [sorted(t) for t in graph._sets],
            graph.initial_indices,
            [sorted(graph.changing_sets(k)) for k in range(len(graph))],
            [graph.element(k, graph.edge_sid[e]) for k in range(len(graph))
             for e in range(graph.edge_offsets[k], graph.edge_offsets[k + 1])],
        ]),
        "stats": graph.stats().as_dict(),
        "stabilizing": verdict.stabilizing,
        "states": verdict.states_explored,
        "symmetry_order": verdict.stats.symmetry_order,
        "initial": list(witness.initial_labeling.values),
        "prefix": [sorted(t) for t in witness.prefix],
        "loop": [sorted(t) for t in witness.loop],
    })
print(json.dumps(report))
"""


class TestReferenceCounting:
    """A graph holds no reference cycle, so it dies with its last
    reference rather than at the next cyclic collection, and a verdict's
    peak memory holds no dead graph."""

    @pytest.fixture
    def gc_off(self):
        gc.collect()
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @pytest.mark.parametrize("floor", [1, SERIAL_FLOOR])
    @pytest.mark.parametrize("track_outputs", [False, True])
    @pytest.mark.parametrize("symmetry", ["none", "auto"])
    def test_graph_dies_on_del(
        self, gc_off, monkeypatch, symmetry, track_outputs, floor
    ):
        set_batch_floor(monkeypatch, floor)
        protocol = example1_protocol(4)
        graph = ExplorationGraph(
            protocol,
            default_inputs(protocol),
            3,
            broadcast_labelings(protocol.topology, protocol.label_space),
            track_outputs=track_outputs,
            policy=ExecutionPolicy(symmetry=symmetry),
        )
        assert graph.quotient == (symmetry == "auto")
        graph.accumulated_element(len(graph) - 1)
        ref = weakref.ref(graph)
        del graph
        assert ref() is None

    def test_no_graph_outlives_a_verdict_or_a_delay(self, gc_off, monkeypatch):
        refs = []
        build = ExplorationGraph.__init__

        def tracked(self, *args, **kwargs):
            refs.append(weakref.ref(self))
            build(self, *args, **kwargs)

        monkeypatch.setattr(ExplorationGraph, "__init__", tracked)
        protocol = example1_protocol(4)
        inputs = default_inputs(protocol)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        for symmetry in ("none", "auto"):
            policy = ExecutionPolicy(symmetry=symmetry)
            for decide in (decide_label_r_stabilizing, decide_output_r_stabilizing):
                verdict = decide(
                    protocol, inputs, 3, initial_labelings=inits, policy=policy
                )
                assert verdict.witness is not None
            for init in inits[1:3]:
                exhaustive_worst_case_delay(protocol, inputs, init, 3, policy=policy)
        assert len(refs) == 8
        assert [ref() for ref in refs] == [None] * 8


class TestWithoutNumpy:
    def test_verdicts_match_the_numpy_run(self):
        pytest.importorskip("numpy")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        reports = {}
        for mode in ("block_numpy", "with_numpy"):
            run = subprocess.run(
                [sys.executable, "-c", _VERDICT_SCRIPT, mode],
                capture_output=True,
                text=True,
                env=env,
                check=True,
                timeout=300,
            )
            reports[mode] = json.loads(run.stdout)
        # No level of K_4 holds a bucket of 32 rows, so even the kernel
        # counters agree.  The output quotient checks that the plain scan
        # and the packed keys number outputs alike.
        assert reports["block_numpy"] == reports["with_numpy"]
        concrete, quotient, outputs = reports["block_numpy"]
        assert concrete["stats"]["frontier_mode"] == "serial"
        states = (concrete["states"], quotient["states"], outputs["states"])
        assert states == (404, 44, 79)
        assert quotient["symmetry_order"] == outputs["symmetry_order"] == 24
        assert not any(report["stabilizing"] for report in reports["block_numpy"])


class TestActivationSetCache:
    def test_matches_naive_enumeration_order(self):
        for countdown in [(1, 3, 2), (5, 5, 5), (1, 1), (2,), (1, 2, 1, 2)]:
            n = len(countdown)
            assert valid_activation_sets(countdown, n) == _seed_activation_sets(
                countdown, n
            )

    def test_returns_a_fresh_mutable_list(self):
        first = valid_activation_sets((2, 2), 2)
        first.clear()  # mutating the result must not corrupt the cache
        assert valid_activation_sets((2, 2), 2) == _seed_activation_sets((2, 2), 2)

    def test_accepts_any_sequence_type(self):
        as_list = valid_activation_sets([1, 2, 2], 3)
        as_tuple = valid_activation_sets((1, 2, 2), 3)
        assert as_list == as_tuple

    def test_cache_is_bounded(self, monkeypatch):
        # Long-running greedy adversaries feed a near-unique countdown per
        # step; the shared cache must evict rather than grow without bound.
        monkeypatch.setattr(exploration, "_ACTIVATION_SETS_CAP", 8)
        for k in range(100):
            # distinct countdowns (all > 1, so no forced set)
            valid_activation_sets((2 + k, 2 + k + 1), 2)
            assert len(exploration._ACTIVATION_SETS) <= 8
        # correctness survives eviction
        assert valid_activation_sets((2, 3), 2) == _seed_activation_sets((2, 3), 2)

    def test_second_chance_keeps_hot_entries(self, monkeypatch):
        # Regression: eviction used to clear the whole cache, so an
        # exhaustive search whose working set fits the cap still lost every
        # hot countdown each time a burst of cold ones arrived.  The
        # second-chance sweep must keep recently referenced entries.
        monkeypatch.setattr(exploration, "_ACTIVATION_SETS_CAP", 8)
        exploration._ACTIVATION_SETS.clear()
        hot = (3, 4)
        valid_activation_sets(hot, 2)
        hot_key = (hot, 2)
        for k in range(200):
            valid_activation_sets((5 + k, 6 + k), 2)  # cold, near-unique
            valid_activation_sets(hot, 2)  # re-reference the hot entry
            assert hot_key in exploration._ACTIVATION_SETS
            assert len(exploration._ACTIVATION_SETS) <= 8

    def test_eviction_bounds_after_sweep(self, monkeypatch):
        # Even when every entry was recently referenced, a sweep must leave
        # room for the incoming entry (hard bound, not best-effort).
        monkeypatch.setattr(exploration, "_ACTIVATION_SETS_CAP", 4)
        exploration._ACTIVATION_SETS.clear()
        for k in range(50):
            valid_activation_sets((2 + k, 3 + k), 2)
            valid_activation_sets((2 + k, 3 + k), 2)  # sets the ref bit
            assert len(exploration._ACTIVATION_SETS) <= 4


# -- frontier routes ----------------------------------------------------------


class TestFrontierModes:
    """The batch frontier route must be bit-identical to the serial scan."""

    @pytest.mark.parametrize("case", _gadgets())
    def test_forced_batch_matches_serial(self, case, monkeypatch):
        protocol, r, inits = case
        inputs = default_inputs(protocol)
        set_batch_floor(monkeypatch, SERIAL_FLOOR)
        serial = ExplorationGraph(protocol, inputs, r, inits)
        set_batch_floor(monkeypatch, 1)
        batch = ExplorationGraph(protocol, inputs, r, inits)
        assert serial.stats().batch_calls == 0
        assert serial.state_keys == batch.state_keys
        assert graph_lists(serial).successors == graph_lists(batch).successors
        assert list(serial.parent_idx) == list(batch.parent_idx)
        assert list(serial.parent_sid) == list(batch.parent_sid)
        assert batch.stats().batch_calls > 0

    def test_forced_batch_matches_serial_with_outputs(self, monkeypatch):
        protocol = copy_ring_protocol(4)
        inputs = default_inputs(protocol)
        inits = [Labeling(protocol.topology, (1, 0, 0, 1))]
        set_batch_floor(monkeypatch, SERIAL_FLOOR)
        serial = ExplorationGraph(protocol, inputs, 2, inits, track_outputs=True)
        set_batch_floor(monkeypatch, 1)
        batch = ExplorationGraph(protocol, inputs, 2, inits, track_outputs=True)
        assert batch.stats().batch_calls > 0
        assert serial.state_keys == batch.state_keys
        assert graph_lists(serial).successors == graph_lists(batch).successors
        assert [serial.outputs_of(k) for k in range(len(serial))] == [
            batch.outputs_of(k) for k in range(len(batch))
        ]

    def test_out_of_space_labeling_is_left_to_the_serial_scan(
        self, monkeypatch
    ):
        # Label 2 lies outside the copy ring's binary space: every bucket
        # holding a labeling with it is scanned serially, and the protocol's
        # label interner never grows.
        pytest.importorskip("numpy")
        from repro.core import batch_compile

        protocol = copy_ring_protocol(5)
        inputs = default_inputs(protocol)
        topology = protocol.topology
        inits = [
            Labeling(topology, (2, 0, 1, 0, 0)),
            Labeling(topology, (1, 0, 0, 1, 0)),
        ]
        set_batch_floor(monkeypatch, SERIAL_FLOOR)
        serial = ExplorationGraph(protocol, inputs, 2, inits, track_outputs=True)
        set_batch_floor(monkeypatch, 1)
        batch = ExplorationGraph(protocol, inputs, 2, inits, track_outputs=True)
        assert batch._engine is not None
        assert serial.state_keys == batch.state_keys
        assert graph_lists(serial) == graph_lists(batch)
        assert [serial.outputs_of(k) for k in range(len(serial))] == [
            batch.outputs_of(k) for k in range(len(batch))
        ]
        assert batch_compile(protocol).interner.size == 2
        # A clean start over the same protocol still batches its buckets.
        clean = ExplorationGraph(protocol, inputs, 2, inits[1:])
        assert clean.stats().batch_calls > 0

    def test_stats_shape(self):
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        graph = ExplorationGraph(protocol, inputs, 2, inits)
        stats = graph.stats()
        assert stats.states == len(graph)
        assert stats.edges == graph.num_edges
        assert stats.peak_frontier >= 1
        assert stats.transition_cache_hits + stats.transition_cache_misses > 0
        assert stats.symmetry_order == 1
        assert stats.covered_states == len(graph)
        assert stats.reduction_factor == pytest.approx(1.0)
        record = stats.as_dict()
        assert record["states"] == len(graph)
        assert record["frontier_mode"] in {"serial", "batch"}

    def test_a_graph_that_never_batches_builds_no_engine(self, monkeypatch):
        # K_3 has 8 broadcast labelings, so no level holds the 32 distinct
        # payloads an activation-set bucket needs to reach the floor.
        pytest.importorskip("numpy")
        protocol = example1_protocol(3)
        inputs = default_inputs(protocol)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        graph = ExplorationGraph(protocol, inputs, 2, inits)
        assert graph._engine is None
        assert graph.stats().frontier_mode == "serial"
        set_batch_floor(monkeypatch, SERIAL_FLOOR)
        serial = ExplorationGraph(protocol, inputs, 2, inits)
        assert graph.stats() == serial.stats()
        assert graph.state_keys == serial.state_keys
        assert graph_lists(graph).successors == graph_lists(serial).successors
        assert list(graph.parent_idx) == list(serial.parent_idx)
        assert list(graph.parent_sid) == list(serial.parent_sid)


# -- the level pass against the per-edge route --------------------------------


def _route_zoo():
    """``(protocol, initial labelings, largest r)`` for the route property."""
    zoo = []
    for n in (3, 4, 5):
        protocol = example1_protocol(n)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        zoo.append((protocol, inits, n - 1))
    ring = copy_ring_protocol(5)
    mixed = [(1, 0, 0, 1, 0), (1, 1, 0, 0, 0), (0, 1, 0, 1, 1), (0, 0, 0, 0, 0)]
    zoo.append((ring, [Labeling(ring.topology, values) for values in mixed], 4))
    orc = or_clique_protocol(clique(4))
    zoo.append((orc, list(broadcast_labelings(orc.topology, orc.label_space)), 3))
    xor = xor_ring_protocol(6)
    every = [Labeling(xor.topology, values) for values in product((0, 1), repeat=6)]
    # At r = 4 and 5 its graphs hold 10^5 states or more.
    zoo.append((xor, every, 3))
    return zoo


ROUTE_ZOO = _route_zoo()


def build_on_both_routes(protocol, r, inits, **kwargs):
    """The graph the level pass builds, and the one the per-edge route
    builds with the module's numpy handle patched away."""
    inputs = default_inputs(protocol)
    level = ExplorationGraph(protocol, inputs, r, inits, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exploration, "np", None)
        per_edge = ExplorationGraph(protocol, inputs, r, inits, **kwargs)
    return level, per_edge


def doubling_ring_protocol(n: int, space=None) -> StatelessProtocol:
    """A ring whose nodes forward twice their incoming bit: a 1 becomes
    the label 2, outside the declared ``space`` (binary by default)."""
    topology = unidirectional_ring(n)

    def make(i):
        def fn(incoming, _x):
            (value,) = incoming.values()
            return min(2 * value, 2), value

        return UniformReaction(topology.out_edges(i), fn)

    return StatelessProtocol(
        topology,
        space or binary(),
        [make(i) for i in range(n)],
        name=f"doubling-ring({n})",
    )


def raising_ring_protocol(n: int) -> StatelessProtocol:
    """A ring whose nodes forward a 0 and raise on reading a 1."""
    topology = unidirectional_ring(n)

    def make(i):
        def fn(incoming, _x):
            (value,) = incoming.values()
            if value:
                raise RuntimeError("read a 1")
            return 0, 0

        return UniformReaction(topology.out_edges(i), fn)

    return StatelessProtocol(
        topology, binary(), [make(i) for i in range(n)], name=f"raising-ring({n})"
    )


class TestLevelPass:
    """With numpy each BFS level is expanded by array passes, without it
    one edge at a time; both must build byte-identical graphs."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_both_routes_build_identical_graphs(self, data):
        pytest.importorskip("numpy")
        protocol, inits, max_r = data.draw(st.sampled_from(ROUTE_ZOO))
        r = data.draw(st.integers(min_value=1, max_value=max_r))
        track_outputs = data.draw(st.booleans())
        symmetry = data.draw(st.sampled_from(["none", "auto"]))
        floor = data.draw(st.sampled_from([1, 4, 32, SERIAL_FLOOR]))
        inits = data.draw(st.permutations(inits))
        inits = inits[: data.draw(st.integers(min_value=1, max_value=len(inits)))]
        with pytest.MonkeyPatch.context() as patch:
            set_batch_floor(patch, floor)
            level, per_edge = build_on_both_routes(
                protocol,
                r,
                inits,
                track_outputs=track_outputs,
                policy=ExecutionPolicy(symmetry=symmetry),
            )
        stores = graph_stores(level)
        assert without_batch_counters(stores) == without_batch_counters(
            graph_stores(per_edge)
        )
        if floor == SERIAL_FLOOR:
            assert stores == graph_stores(per_edge)

    @pytest.mark.parametrize("symmetry", ["none", "auto"])
    def test_chunk_bound_does_not_change_the_graph(self, symmetry, monkeypatch):
        pytest.importorskip("numpy")
        protocol = example1_protocol(5)
        inputs = default_inputs(protocol)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        stores = []
        # One state per chunk, the default bound, and one chunk per level.
        for bound in (1, exploration.LEVEL_CHUNK_EDGES, sys.maxsize):
            monkeypatch.setattr(exploration, "LEVEL_CHUNK_EDGES", bound)
            graph = ExplorationGraph(
                protocol,
                inputs,
                3,
                inits,
                track_outputs=True,
                policy=ExecutionPolicy(symmetry=symmetry),
            )
            stores.append(graph_stores(graph))
        assert stores[0] == stores[1] == stores[2]

    @pytest.mark.parametrize("symmetry", ["none", "auto"])
    def test_the_level_pass_takes_over_mid_build(self, symmetry, monkeypatch):
        # From one root the first level holds 31 edges, fewer than the
        # floor of 32, and expands one edge at a time; at the next level
        # (868 or 961 edges) the level pass takes over the per-edge loop's
        # moves, transitions and arrivals.  The copy ring's labelings
        # rotate, so later levels reuse transitions the per-edge loop
        # evaluated.
        pytest.importorskip("numpy")
        protocol = copy_ring_protocol(5)
        inits = [Labeling(protocol.topology, (1, 0, 0, 0, 0))]
        starts = []
        level_pass = exploration._LevelPass

        def spy(graph, lo):
            starts.append(lo)
            return level_pass(graph, lo)

        monkeypatch.setattr(exploration, "_LevelPass", spy)
        set_batch_floor(monkeypatch, 4)
        monkeypatch.setattr(exploration, "LEVEL_PASS_MIN_EDGES", 32)
        level, per_edge = build_on_both_routes(
            protocol, 3, inits, policy=ExecutionPolicy(symmetry=symmetry)
        )
        assert starts == [1]
        assert level.stats().batch_calls > 0
        assert without_batch_counters(graph_stores(level)) == without_batch_counters(
            graph_stores(per_edge)
        )

    def test_every_level_of_the_k6_quotient_takes_the_block(self, monkeypatch):
        # Its first level holds 7 payloads, 441 edges and 296 arrivals: the
        # level pass expands it, and every first arrival of the build is
        # canonicalized in a block.
        pytest.importorskip("numpy")
        starts, blocks = [], []
        level_pass = exploration._LevelPass
        block = StateCanonicalizer.canonical_block

        def spy(graph, lo):
            starts.append(lo)
            return level_pass(graph, lo)

        def spy_block(canonicalizer, labelings, codes, countdowns, *states):
            blocks.append(len(states[0]))
            return block(canonicalizer, labelings, codes, countdowns, *states)

        def per_arrival(*_args):
            raise AssertionError("a first arrival was canonicalized alone")

        monkeypatch.setattr(exploration, "_LevelPass", spy)
        monkeypatch.setattr(StateCanonicalizer, "canonical_block", spy_block)
        monkeypatch.setattr(ExplorationGraph, "_arrive_canonical", per_arrival)
        protocol = example1_protocol(6)
        inputs = default_inputs(protocol)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        policy = ExecutionPolicy(symmetry="auto")
        graph = ExplorationGraph(protocol, inputs, 4, inits, policy=policy)
        assert starts == [0]
        assert blocks == [296, 692, 1_370]
        assert graph.stats().canonicalizations == sum(blocks)

    @pytest.mark.parametrize(
        "protocol, inits",
        [
            (example1_protocol(5), None),
            (example1_protocol(6), None),
            (xor_ring_protocol(6), product((0, 1), repeat=6)),
            (copy_ring_protocol(5), product((0, 1), repeat=5)),
        ],
        ids=["K5", "K6", "xor-ring", "copy-ring"],
    )
    def test_wide_but_tiny_levels_expand_per_edge(self, protocol, inits, monkeypatch):
        # At r = 1 every state has one activation set, so a level from 32 or
        # 64 roots holds as many edges: too few to repay the level pass.
        topology = protocol.topology
        if inits is None:
            inits = list(broadcast_labelings(topology, protocol.label_space))
        else:
            inits = [Labeling(topology, values) for values in inits]
        assert len(inits) >= 32

        def refuse(_graph, _lo):
            raise AssertionError("the level pass took over")

        monkeypatch.setattr(exploration, "_LevelPass", refuse)
        graph = ExplorationGraph(protocol, default_inputs(protocol), 1, inits)
        assert graph.num_edges == len(graph)

    def test_the_quotient_budget_stops_at_the_same_state(self, monkeypatch):
        # Both routes add a quotient's canonical states one at a time, in
        # first-arrival order (the level pass from the first level here), so
        # every budget stops a build after the same states.
        pytest.importorskip("numpy")
        protocol = example1_protocol(4)
        inputs = default_inputs(protocol)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        policy = ExecutionPolicy(symmetry="auto")
        set_batch_floor(monkeypatch, 1)
        states = len(ExplorationGraph(protocol, inputs, 3, inits, policy=policy))
        exceeded = ExplorationGraph._budget_exceeded
        stopped = []

        def spy(graph):
            stopped.append(list(graph.state_keys))
            return exceeded(graph)

        monkeypatch.setattr(ExplorationGraph, "_budget_exceeded", spy)
        for _route in ("level pass", "per edge"):
            for budget in range(1, states):
                with pytest.raises(SearchBudgetExceeded):
                    ExplorationGraph(
                        protocol, inputs, 3, inits, budget=budget, policy=policy
                    )
            monkeypatch.setattr(exploration, "np", None)
        level, per_edge = stopped[: states - 1], stopped[states - 1 :]
        assert [len(keys) for keys in level] == list(range(1, states))
        assert level == per_edge

    @pytest.mark.parametrize("r", [2**63 - 1, 2**63, 2**64 - 1, 2**64])
    def test_countdowns_beyond_int64(self, r):
        # A one-node graph keeps its single countdown (r,) for any r; from
        # r**n = 2^63 on, its countdown keys would overflow int64, so the
        # per-edge loop builds it.
        protocol = constant_protocol(Topology(1, []))
        inits = [Labeling(protocol.topology, ())]
        level, per_edge = build_on_both_routes(protocol, r, inits)
        assert level._countdowns == [(r,)]
        assert graph_stores(level) == graph_stores(per_edge)

    @pytest.mark.parametrize("numpy_present", [True, False])
    @pytest.mark.parametrize("symmetry", ["none", "auto"])
    def test_budget_one_below_the_state_count(
        self, symmetry, numpy_present, monkeypatch
    ):
        protocol = example1_protocol(4)
        inputs = default_inputs(protocol)
        inits = list(broadcast_labelings(protocol.topology, protocol.label_space))
        policy = ExecutionPolicy(symmetry=symmetry)
        if not numpy_present:
            monkeypatch.setattr(exploration, "np", None)
        states = len(ExplorationGraph(protocol, inputs, 3, inits, policy=policy))
        with pytest.raises(
            SearchBudgetExceeded,
            match=f"^probe exceeded budget of {states - 1} states$",
        ):
            ExplorationGraph(
                protocol, inputs, 3, inits, budget=states - 1, name="probe",
                policy=policy,
            )

    def test_out_of_space_bucket_steps_serially(self, monkeypatch):
        # Label 2 lies outside the copy ring's binary space and rotates
        # through every labeling reached from the first root, so every
        # bucket holds it: the level pass builds the engine, steps each
        # bucket serially, and matches the route without numpy.
        pytest.importorskip("numpy")
        protocol = copy_ring_protocol(5)
        topology = protocol.topology
        inits = [
            Labeling(topology, (2, 0, 1, 0, 0)),
            Labeling(topology, (1, 0, 0, 1, 0)),
        ]
        set_batch_floor(monkeypatch, 1)
        level, per_edge = build_on_both_routes(protocol, 2, inits, track_outputs=True)
        assert level._engine is not None
        assert level.stats().batch_calls == 0
        assert any(2 in values for values in level._labels)
        assert without_batch_counters(graph_stores(level)) == without_batch_counters(
            graph_stores(per_edge)
        )

    @pytest.mark.parametrize("numpy_present", [True, False])
    @pytest.mark.parametrize(
        "protocol, symmetry, error",
        [
            (
                doubling_ring_protocol(5, ExplicitLabelSpace((1, 0))),
                "auto",
                ValidationError,
            ),
            (raising_ring_protocol(5), "none", RuntimeError),
        ],
        ids=["out-of-space-quotient", "raising-reaction"],
    )
    def test_errors_are_met_in_edge_order(
        self, protocol, symmetry, error, numpy_present, monkeypatch
    ):
        # From (1, 0, 0, 0, 0), the root's first edge (T = {0}) reaches the
        # new state 0^5 and its second (T = {1}) fails.  The quotient's
        # space declares 1 before 0, so that root is the least rotation of
        # itself: under 0 before 1 the root would hold its 1 on node 0's
        # in-edge, and its first edge would fail.  With room for the root
        # alone, the budget is exceeded first; with room to spare, the
        # failing transition raises.  The level pass evaluates the level's
        # transitions before its arrivals, yet raises in edge order too.
        inputs = default_inputs(protocol)
        inits = [Labeling(protocol.topology, (1, 0, 0, 0, 0))]
        policy = ExecutionPolicy(symmetry=symmetry)
        set_batch_floor(monkeypatch, 1)
        if not numpy_present:
            monkeypatch.setattr(exploration, "np", None)
        with pytest.raises(SearchBudgetExceeded):
            ExplorationGraph(protocol, inputs, 2, inits, budget=1, policy=policy)
        with pytest.raises(error):
            ExplorationGraph(protocol, inputs, 2, inits, budget=2, policy=policy)

    @pytest.mark.parametrize("numpy_present", [True, False])
    def test_quotient_refuses_an_out_of_space_successor(
        self, numpy_present, monkeypatch
    ):
        # The rotations are verified over the binary space only; the first
        # transition that writes 2 stops the quotient on either route.
        protocol = doubling_ring_protocol(5)
        inputs = default_inputs(protocol)
        inits = [Labeling(protocol.topology, (1, 0, 0, 0, 0))]
        if not numpy_present:
            monkeypatch.setattr(exploration, "np", None)
        concrete = ExplorationGraph(protocol, inputs, 2, inits)
        assert any(2 in values for values in concrete._labels)
        with pytest.raises(ValidationError, match="outside the declared label space"):
            ExplorationGraph(
                protocol, inputs, 2, inits, policy=ExecutionPolicy(symmetry="auto")
            )
