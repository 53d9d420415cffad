"""A7 — frontier-parallel exploration with symmetry quotient: K_7 capacity.

Acceptance gate for the quotiented exploration core
(:mod:`repro.stabilization.exploration` with ``symmetry="auto"`` plus the
level-synchronous batch frontier): the Example-1 **K_7 / r=4** states-graph
— 132,701 concrete (labeling, countdown) states, ~13s of concrete BFS on
the gating hardware class — must materialize as a symmetry quotient in
**under 10 seconds**, with the quotient covering at least **10x** more
concrete states than it stores (measured: 475 stored states covering all
132,701, a ~280x reduction, in 0.16-0.24s on a 2-core x86-64 host, where
scanning the whole group per canonicalization took 1.0-1.7s).

Both bounds ship as hard gates in the JSON record (``gates``), so
``check_regression.py`` re-enforces them on every subsequent run rather
than only on the PR that introduced them.  The second entry pins the
correctness anchor this speed rests on: on K_4, where the concrete graph is
still enumerable, the quotient's claimed coverage equals the concrete state
count exactly.  The third keeps the quotient's level pass on record: on
K_6 and K_7 at r = 4 it canonicalizes each level's first arrivals in
blocks, and it is timed against the per-edge route, which canonicalizes
them one at a time, in alternating pairs (gated on the median per-pair
ratio).
"""

import statistics
import sys

from _runner import alternating_pairs, median_time, ratio_quartiles

from repro import ExecutionPolicy
from repro.analysis import print_table
from repro.core import default_inputs
from repro.stabilization import (
    StatesGraph,
    broadcast_labelings,
    example1_protocol,
)
from repro.stabilization import exploration

QUOTIENT = ExecutionPolicy(symmetry="auto")
GATE_N, GATE_R = 7, 4
GATE_SECONDS = 10.0
GATE_REDUCTION = 10.0
ANCHOR_N, ANCHOR_R = 4, 3
REPEATS = 3

ROUTE_CLIQUES = (6, 7)
ROUTE_PAIRS = 9
#: Gates on the per-edge / block median per-pair ratio, below the 1.8x
#: (K_6, IQR 1.63-1.79) and 1.8x (K_7, IQR 1.80-1.88) recorded when the
#: block route landed.
MIN_BLOCK_SPEEDUP = {6: 1.3, 7: 1.1}

BENCH_GATES = {
    "test_a07_k7_quotient_construction": {
        "max_kernel_median_s": GATE_SECONDS,
        "min": {"quotient_reduction_factor": GATE_REDUCTION},
    },
    "test_a07_quotient_routes": {
        "min": {
            f"block_speedup_k{n}": floor for n, floor in MIN_BLOCK_SPEEDUP.items()
        },
    },
}


def test_a07_k7_quotient_construction(benchmark):
    protocol = example1_protocol(GATE_N)
    inputs = default_inputs(protocol)
    initials = list(broadcast_labelings(protocol.topology, protocol.label_space))

    def quotient_kernel():
        return StatesGraph(
            protocol, inputs, GATE_R, initials, policy=QUOTIENT
        )

    median, graph = median_time(quotient_kernel, REPEATS)
    stats = graph.stats()
    assert stats.symmetry_order == 5040  # S_7 verified equivariant

    print_table(
        f"A7: quotient states-graph — Example-1 K_{GATE_N}, r={GATE_R} "
        f"(median of {REPEATS})",
        [
            "stored states",
            "covered states",
            "reduction",
            "edges",
            "s / construction",
            "covered states/s",
        ],
        [
            [
                f"{stats.states:,}",
                f"{stats.covered_states:,}",
                f"{stats.reduction_factor:,.1f}x",
                f"{stats.edges:,}",
                f"{median:.2f}",
                f"{stats.covered_states / median:,.0f}",
            ]
        ],
    )

    assert median < GATE_SECONDS, (
        f"K_{GATE_N}/r={GATE_R} quotient took {median:.2f}s"
        f" (gate: {GATE_SECONDS}s)"
    )
    assert stats.reduction_factor >= GATE_REDUCTION, (
        f"quotient only {stats.reduction_factor:.1f}x smaller than its"
        f" concrete coverage (gate: {GATE_REDUCTION}x)"
    )

    benchmark.extra["states"] = stats.states
    benchmark.extra["covered_states"] = stats.covered_states
    benchmark.extra["quotient_reduction_factor"] = stats.reduction_factor
    benchmark.extra["symmetry_order"] = stats.symmetry_order
    benchmark.extra["edges"] = stats.edges
    benchmark(quotient_kernel)


def test_a07_quotient_coverage_anchor(benchmark):
    """K_4: quotient coverage must equal the enumerable concrete count."""
    protocol = example1_protocol(ANCHOR_N)
    inputs = default_inputs(protocol)
    initials = list(broadcast_labelings(protocol.topology, protocol.label_space))

    concrete = StatesGraph(protocol, inputs, ANCHOR_R, initials)

    def anchor_kernel():
        return StatesGraph(
            protocol, inputs, ANCHOR_R, initials, policy=QUOTIENT
        )

    graph = anchor_kernel()
    stats = graph.stats()
    assert stats.covered_states == len(concrete), (
        f"quotient claims {stats.covered_states} covered states,"
        f" concrete graph has {len(concrete)}"
    )

    print_table(
        f"A7: coverage anchor — Example-1 K_{ANCHOR_N}, r={ANCHOR_R}",
        ["concrete states", "quotient states", "covered", "reduction"],
        [
            [
                f"{len(concrete):,}",
                f"{stats.states:,}",
                f"{stats.covered_states:,}",
                f"{stats.reduction_factor:,.1f}x",
            ]
        ],
    )

    benchmark.extra["states"] = stats.states
    benchmark.extra["covered_states"] = stats.covered_states
    benchmark.extra["quotient_reduction_factor"] = stats.reduction_factor
    benchmark(anchor_kernel)


def test_a07_quotient_routes(benchmark):
    """K_6 and K_7 / r=4 quotients: the level pass, whose blocks of first
    arrivals are canonicalized at once, against the per-edge route."""
    rows = []
    kernels = {}
    for n in ROUTE_CLIQUES:
        protocol = example1_protocol(n)
        inputs = default_inputs(protocol)
        initials = list(broadcast_labelings(protocol.topology, protocol.label_space))

        def block_kernel(protocol=protocol, inputs=inputs, initials=initials):
            return StatesGraph(protocol, inputs, GATE_R, initials, policy=QUOTIENT)

        def per_edge_kernel(block_kernel=block_kernel):
            saved = exploration.LEVEL_PASS_MIN_EDGES
            exploration.LEVEL_PASS_MIN_EDGES = sys.maxsize
            try:
                return block_kernel()
            finally:
                exploration.LEVEL_PASS_MIN_EDGES = saved

        # Both routes build the same graph.
        block, per_edge = block_kernel(), per_edge_kernel()
        assert block.state_keys == per_edge.state_keys
        assert list(block.edge_dst) == list(per_edge.edge_dst)
        per_edge_times, block_times = alternating_pairs(
            per_edge_kernel, block_kernel, ROUTE_PAIRS
        )
        q1, speedup, q3 = ratio_quartiles(per_edge_times, block_times)
        stats = block.stats()
        rows.append(
            [
                f"K_{n}",
                f"{stats.states:,} / {stats.canonicalizations:,}",
                f"{statistics.median(block_times):.4f}"
                f" vs {statistics.median(per_edge_times):.4f}",
                f"{speedup:.2f}x",
                f"{q1:.2f}-{q3:.2f}x",
            ]
        )
        benchmark.extra[f"per_edge_median_s_k{n}"] = statistics.median(per_edge_times)
        benchmark.extra[f"block_median_s_k{n}"] = statistics.median(block_times)
        benchmark.extra[f"block_speedup_k{n}"] = speedup
        benchmark.extra[f"block_speedup_q1_k{n}"] = q1
        benchmark.extra[f"block_speedup_q3_k{n}"] = q3
        kernels[n] = block_kernel
    print_table(
        f"A7: quotient routes — Example-1, r={GATE_R} ({ROUTE_PAIRS} alternating"
        " pairs each; speedup = median per-edge / block per-pair ratio)",
        ["clique", "states / arrivals", "block vs per-edge s", "speedup", "IQR"],
        rows,
    )
    for n, floor in MIN_BLOCK_SPEEDUP.items():
        speedup = benchmark.extra[f"block_speedup_k{n}"]
        assert speedup >= floor, (
            f"K_{n} quotient: blocks only {speedup:.2f}x the per-edge route on"
            f" the median of {ROUTE_PAIRS} alternating pairs (gate: {floor}x)"
        )
    benchmark(kernels[6])
