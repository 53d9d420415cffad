"""A4 — states-graph construction: interned exploration core vs the seed BFS.

Acceptance gate for the unified exploration core
(:mod:`repro.stabilization.exploration`): constructing the Theorem 3.1
states-graph of the Example-1 clique must deliver at least 2x the states/s
of the seed ``StatesGraph`` (re-enumerated ``combinations(...)`` per state,
one compiled transition per (state, activation set), full-tuple state keys —
reproduced verbatim below as the baseline).

The second kernel demonstrates the new capacity headroom: the K_6 / r=4
graph (27,634 states, ~819k edges) took ~14s to materialize with the seed
implementation — far past any interactive or CI time budget — and completes
in ~0.1-0.2s on the interned core's level pass, which makes a previously
untouchable clique/r configuration a routine exhaustive check.

The third puts both expansion routes on record, on the same K_6 / r=4
build in alternating pairs: the level pass (array passes per BFS level,
numpy present) against the per-edge loop (the route without numpy), gated
at 1.5x on the median per-pair ratio; and, inside the level pass, the
kernel buckets (floor 32) against stepping every transition serially
(no bucket goes to a kernel), recorded with its IQR and not gated.
"""

import statistics
from collections import deque
from itertools import combinations

from _runner import alternating_pairs, median_time, ratio_quartiles

from repro.analysis import print_table
from repro.core import default_inputs
from repro.exceptions import SearchBudgetExceeded
from repro.stabilization import (
    StatesGraph,
    broadcast_labelings,
    example1_protocol,
)
from repro.core.compiled import compile_protocol
from repro.stabilization import exploration

GATE_N, GATE_R = 5, 3
CAPACITY_N, CAPACITY_R = 6, 4
CAPACITY_STATES = 27_634
REPEATS = 3
MIN_SPEEDUP = 2.0
ROUTE_PAIRS = 7
MIN_LEVEL_PASS_SPEEDUP = 1.5

BENCH_GATES = {
    "test_a04_expansion_routes": {
        "min": {"level_pass_speedup": MIN_LEVEL_PASS_SPEEDUP},
    },
}


# -- the pre-core implementation, kept as the baseline ------------------------


def _seed_valid_activation_sets(countdown, n):
    forced = frozenset(i for i in range(n) if countdown[i] == 1)
    optional = [i for i in range(n) if i not in forced]
    sets = []
    for size in range(len(optional) + 1):
        for extra in combinations(optional, size):
            t = forced | frozenset(extra)
            if t:
                sets.append(t)
    return sets


class _SeedStatesGraph:
    """The seed ``StatesGraph`` BFS, verbatim (modulo cosmetic renames)."""

    def __init__(self, protocol, inputs, r, initial_labelings, budget=400_000):
        self.protocol = protocol
        self.inputs = tuple(inputs)
        self.r = r
        self._compiled = compile_protocol(protocol)
        n = protocol.n
        initial_countdown = (r,) * n

        self.index = {}
        self.states = []
        self.successors = []
        self.parent = []
        self.initial_indices = []

        queue = deque()
        for labeling in initial_labelings:
            state = (labeling.values, initial_countdown)
            if state not in self.index:
                self._add_state(state, None)
                self.initial_indices.append(self.index[state])
                queue.append(self.index[state])

        while queue:
            k = queue.popleft()
            values, countdown = self.states[k]
            for t in _seed_valid_activation_sets(countdown, n):
                next_state = self._apply(values, countdown, t)
                if next_state not in self.index:
                    if len(self.states) >= budget:
                        raise SearchBudgetExceeded(
                            f"states-graph exceeded budget of {budget} states"
                        )
                    self._add_state(next_state, (k, t))
                    queue.append(self.index[next_state])
                self.successors[k].append((self.index[next_state], t))

    def _add_state(self, state, parent):
        self.index[state] = len(self.states)
        self.states.append(state)
        self.successors.append([])
        self.parent.append(parent)

    def _apply(self, values, countdown, active):
        new_values, _ = self._compiled.step_values(values, None, active, self.inputs)
        new_countdown = tuple(
            self.r if i in active else countdown[i] - 1
            for i in range(self.protocol.n)
        )
        return (new_values, new_countdown)

    def __len__(self):
        return len(self.states)


def _packed_lists(graph):
    """The core's packed CSR edge store and parent store, read into the
    seed graph's ``successors`` / ``parent`` list shape."""
    activation_set = graph.activation_set
    offsets = graph.edge_offsets
    successors = [
        [
            (graph.edge_dst[e], activation_set(graph.edge_sid[e]))
            for e in range(offsets[k], offsets[k + 1])
        ]
        for k in range(len(graph))
    ]
    parents = [
        None
        if graph.parent_idx[k] < 0
        else (graph.parent_idx[k], activation_set(graph.parent_sid[k]))
        for k in range(len(graph))
    ]
    return successors, parents


# -- measurement -------------------------------------------------------------


def test_a04_states_graph_construction(benchmark):
    protocol = example1_protocol(GATE_N)
    inputs = default_inputs(protocol)
    initials = list(broadcast_labelings(protocol.topology, protocol.label_space))

    def seed_kernel():
        return _SeedStatesGraph(protocol, inputs, GATE_R, initials)

    def core_kernel():
        return StatesGraph(protocol, inputs, GATE_R, initials)

    # The two constructions must agree edge-for-edge (state indices are BFS
    # discovery order in both, so successor lists are directly comparable).
    seed_graph = seed_kernel()
    core_graph = core_kernel()
    assert len(core_graph) == len(seed_graph)
    assert _packed_lists(core_graph) == (seed_graph.successors, seed_graph.parent)
    assert core_graph.initial_indices == seed_graph.initial_indices

    seed_median, seed_graph = median_time(seed_kernel, REPEATS)
    core_median, core_graph = median_time(core_kernel, REPEATS)
    states = len(core_graph)
    seed_rate = states / seed_median
    core_rate = states / core_median
    speedup = core_rate / seed_rate

    print_table(
        f"A4: states-graph construction — Example-1 K_{GATE_N}, r={GATE_R}, "
        f"{states} states (median of {REPEATS})",
        ["construction", "median s", "states/s", "speedup"],
        [
            ["seed BFS", f"{seed_median:.4f}", f"{seed_rate:,.0f}", "1.0x"],
            [
                "interned exploration core",
                f"{core_median:.4f}",
                f"{core_rate:,.0f}",
                f"{speedup:.1f}x",
            ],
        ],
    )

    assert speedup >= MIN_SPEEDUP, (
        f"exploration core only {speedup:.2f}x the seed states-graph "
        f"({core_rate:,.0f} vs {seed_rate:,.0f} states/s)"
    )
    stats = core_graph.stats()
    benchmark.extra["states"] = stats.states
    benchmark.extra["edges"] = stats.edges
    benchmark.extra["transition_cache_hits"] = stats.transition_cache_hits
    benchmark.extra["transition_cache_misses"] = stats.transition_cache_misses
    benchmark.extra["peak_frontier"] = stats.peak_frontier
    benchmark(core_kernel)


def test_a04_capacity_headroom(benchmark):
    """K_6 / r=4 — a configuration the seed BFS needed ~14s for — completes."""
    protocol = example1_protocol(CAPACITY_N)
    inputs = default_inputs(protocol)
    initials = list(broadcast_labelings(protocol.topology, protocol.label_space))

    def capacity_kernel():
        return StatesGraph(protocol, inputs, CAPACITY_R, initials)

    graph = capacity_kernel()
    assert len(graph) == CAPACITY_STATES
    edges = graph.num_edges

    median, graph = median_time(capacity_kernel, 1)
    print_table(
        f"A4: capacity — Example-1 K_{CAPACITY_N}, r={CAPACITY_R} "
        f"(seed BFS: ~14s on the same hardware class)",
        ["states", "edges", "distinct labelings", "s / construction", "states/s"],
        [
            [
                f"{len(graph):,}",
                f"{edges:,}",
                f"{graph.num_labelings}",
                f"{median:.2f}",
                f"{len(graph) / median:,.0f}",
            ]
        ],
    )
    stats = graph.stats()
    benchmark.extra["states"] = stats.states
    benchmark.extra["edges"] = stats.edges
    benchmark.extra["transition_cache_hits"] = stats.transition_cache_hits
    benchmark.extra["transition_cache_misses"] = stats.transition_cache_misses
    benchmark.extra["peak_frontier"] = stats.peak_frontier
    benchmark(capacity_kernel)


def _patched(owner, attribute, value, build):
    """``build`` with an attribute of the exploration core replaced."""

    def kernel():
        saved = getattr(owner, attribute)
        setattr(owner, attribute, value)
        try:
            return build()
        finally:
            setattr(owner, attribute, saved)

    return kernel


def test_a04_expansion_routes(benchmark):
    """K_6 / r=4: the level pass against the per-edge loop, and its kernel
    buckets against the serial step, each in alternating pairs."""
    protocol = example1_protocol(CAPACITY_N)
    inputs = default_inputs(protocol)
    initials = list(broadcast_labelings(protocol.topology, protocol.label_space))

    def level_kernel():
        return StatesGraph(protocol, inputs, CAPACITY_R, initials)

    per_edge_kernel = _patched(exploration, "np", None, level_kernel)
    # No kernel can step a bucket: the level pass steps each serially.
    serial_kernel = _patched(
        exploration.ExplorationGraph,
        "_step_bucket",
        lambda _graph, _t, _payloads: None,
        level_kernel,
    )

    # Every route builds the same graph.
    level = level_kernel()
    assert len(level) == CAPACITY_STATES
    stores = _packed_lists(level), level.state_keys
    for kernel in (per_edge_kernel, serial_kernel):
        other = kernel()
        assert (_packed_lists(other), other.state_keys) == stores

    per_edge_times, level_times = alternating_pairs(
        per_edge_kernel, level_kernel, ROUTE_PAIRS
    )
    route_q1, route_speedup, route_q3 = ratio_quartiles(per_edge_times, level_times)
    serial_times, bucket_times = alternating_pairs(
        serial_kernel, level_kernel, ROUTE_PAIRS
    )
    bucket_q1, bucket_speedup, bucket_q3 = ratio_quartiles(
        serial_times, bucket_times
    )
    stats = level.stats()
    print_table(
        f"A4: expansion routes — Example-1 K_{CAPACITY_N}, r={CAPACITY_R}, "
        f"{stats.states:,} states, {stats.edges:,} edges ({ROUTE_PAIRS} "
        f"alternating pairs each; speedup = median per-pair ratio)",
        ["route", "baseline", "median s", "speedup", "IQR"],
        [
            [
                "level pass",
                "per-edge loop",
                f"{statistics.median(level_times):.3f}"
                f" vs {statistics.median(per_edge_times):.3f}",
                f"{route_speedup:.2f}x",
                f"{route_q1:.2f}-{route_q3:.2f}x",
            ],
            [
                f"kernel buckets ({stats.batch_calls} calls,"
                f" {stats.batch_rows} rows)",
                "serial step",
                f"{statistics.median(bucket_times):.3f}"
                f" vs {statistics.median(serial_times):.3f}",
                f"{bucket_speedup:.2f}x",
                f"{bucket_q1:.2f}-{bucket_q3:.2f}x",
            ],
        ],
    )
    assert route_speedup >= MIN_LEVEL_PASS_SPEEDUP, (
        f"level pass only {route_speedup:.2f}x the per-edge loop on the"
        f" median of {ROUTE_PAIRS} alternating pairs"
    )
    benchmark.extra["states"] = stats.states
    benchmark.extra["edges"] = stats.edges
    benchmark.extra["batch_calls"] = stats.batch_calls
    benchmark.extra["batch_rows"] = stats.batch_rows
    benchmark.extra["per_edge_median_s"] = statistics.median(per_edge_times)
    benchmark.extra["level_pass_median_s"] = statistics.median(level_times)
    benchmark.extra["level_pass_speedup"] = route_speedup
    benchmark.extra["level_pass_speedup_q1"] = route_q1
    benchmark.extra["level_pass_speedup_q3"] = route_q3
    benchmark.extra["serial_step_median_s"] = statistics.median(serial_times)
    benchmark.extra["kernel_bucket_speedup"] = bucket_speedup
    benchmark.extra["kernel_bucket_speedup_q1"] = bucket_q1
    benchmark.extra["kernel_bucket_speedup_q3"] = bucket_q3
    benchmark(level_kernel)
