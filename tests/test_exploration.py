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
from itertools import combinations
from pathlib import Path

import pytest

from repro import ExecutionPolicy
from repro.core import ExplicitSchedule, Labeling, Simulator, default_inputs
from repro.core.compiled import compile_protocol
from repro.exceptions import SearchBudgetExceeded, ValidationError
from repro.faults import exhaustive_worst_case_delay
from repro.graphs import clique
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
    copy_ring_protocol,
    graph_lists,
    or_clique_protocol,
    set_batch_floor,
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
    its counters, its stores or its witness."""

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

    def test_k6_quotient(self):
        pytest.importorskip("numpy")
        protocol = example1_protocol(6)
        verdict = decide_label_r_stabilizing(
            protocol,
            default_inputs(protocol),
            4,
            initial_labelings=_benchmark_order(protocol, "K6q"),
            policy=ExecutionPolicy(symmetry="auto"),
        )
        assert verdict.stabilizing
        assert verdict.witness is None
        assert verdict.stats.as_dict() == {
            "states": 299,
            "edges": 10_629,
            "initial_states": 7,
            "labeling_pool": 31,
            "output_pool": 1,
            "countdown_pool": 523,
            "activation_set_pool": 63,
            "transition_cache_hits": 8_676,
            "transition_cache_misses": 1_953,
            "activation_cache_hits": 243,
            "activation_cache_misses": 56,
            "peak_frontier": 184,
            "frontier_mode": "serial",
            "batch_calls": 0,
            "batch_rows": 0,
            "symmetry_order": 720,
            "covered_states": 27_634,
            "canonicalizations": 2_352,
            "canonical_cache_hits": 8_277,
            "reduction_factor": 27_634 / 299,
        }


#: Decides Example 1 on K_4 at r = 3, concrete and on the quotient, and
#: prints what the verdicts say as JSON.  ``block_numpy`` runs it as if
#: numpy were not installed.
_VERDICT_SCRIPT = """
import json, sys
if sys.argv[1] == "block_numpy":
    sys.modules["numpy"] = None
from repro import ExecutionPolicy
from repro.core import default_inputs
from repro.stabilization import (
    broadcast_labelings, decide_label_r_stabilizing, example1_protocol,
)
protocol = example1_protocol(4)
report = []
for symmetry in ("none", "auto"):
    verdict = decide_label_r_stabilizing(
        protocol,
        default_inputs(protocol),
        3,
        initial_labelings=broadcast_labelings(
            protocol.topology, protocol.label_space
        ),
        policy=ExecutionPolicy(symmetry=symmetry),
    )
    witness = verdict.witness
    report.append({
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
        assert reports["block_numpy"] == reports["with_numpy"]
        concrete, quotient = reports["block_numpy"]
        assert (concrete["states"], quotient["states"]) == (404, 44)
        assert quotient["symmetry_order"] == 24
        assert not concrete["stabilizing"] and not quotient["stabilizing"]


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
