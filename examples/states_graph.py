"""One graph, three exact questions: a tour of the exploration core.

Theorem 3.1 turns every question about r-fair runs into a question about one
directed graph over ``(labeling, countdown)`` states.  The unified
exploration core (`repro.stabilization.exploration.ExplorationGraph`)
materializes that graph once — labelings interned, activation sets cached,
transitions shared across countdowns — and three very different analyses
read it:

1. **attractor regions** — from which states is absorption into a stable
   labeling inevitable?
2. **model checking** — is the protocol label r-stabilizing, and if not,
   what concrete schedule oscillates?
3. **worst-case delay** — how long can an r-fair adversary keep the system
   away from a fixed point?

The finale shows the capacity the interned core buys — the Example-1
K_6 / r=4 graph (27,634 states, ~819k edges) took ~14 seconds to build with
the seed BFS and now materializes in about a second — and then goes one
clique further: K_7 / r=4 has 132,701 concrete states (~13s even on the
interned core), but under ``symmetry="auto"`` the exploration stores one
canonical state per S_7-orbit and covers all of them from ~475 stored
states in a fraction of a second, with ``graph.stats()`` reporting exactly
what was stored, covered, and cached.

Run:  python examples/states_graph.py
"""

import time

from repro import ExecutionPolicy
from repro.core import default_inputs
from repro.faults import exhaustive_worst_case_delay
from repro.stabilization import (
    StatesGraph,
    broadcast_labelings,
    decide_label_r_stabilizing,
    example1_protocol,
    one_token_labeling,
    stable_labeling_pair,
)


def main() -> None:
    # -- the graph ----------------------------------------------------------
    n, r = 4, 2
    protocol = example1_protocol(n)
    inputs = default_inputs(protocol)
    initials = list(broadcast_labelings(protocol.topology, protocol.label_space))
    graph = StatesGraph(protocol, inputs, r, initials)
    edges = graph.num_edges
    print(f"Example-1 K_{n}, r = {r}: {len(graph)} states, {edges} edges")
    print(
        f"  interned: {graph.num_labelings} distinct labelings,"
        f" {graph.num_countdowns} distinct countdown vectors"
    )

    # -- 1: attractor regions ------------------------------------------------
    zero, one = stable_labeling_pair(n)
    region = graph.attractor_region({zero.values, one.values})
    initial_in = sum(1 for k in graph.initial_indices if k in region)
    print(
        f"  attractor of the stable pair: {len(region)}/{len(graph)} states;"
        f" {initial_in}/{len(graph.initial_indices)} initializations inevitable"
        f" => label {r}-stabilizing (r = n-2 is the paper's tight bound)"
    )

    # -- 2: model checking (same graph family, r = n-1) ----------------------
    verdict = decide_label_r_stabilizing(
        protocol,
        inputs,
        n - 1,
        initial_labelings=broadcast_labelings(
            protocol.topology, protocol.label_space
        ),
    )
    witness = verdict.witness
    print(
        f"  r = {n - 1}: stabilizing? {verdict.stabilizing}"
        f" (explored {verdict.states_explored} states);"
        f" witness loop of length {len(witness.loop)} from"
        f" labeling {witness.initial_labeling.values}"
    )

    # -- 3: worst-case delay -------------------------------------------------
    for r_probe in (1, n - 2, n - 1):
        worst = exhaustive_worst_case_delay(
            protocol, inputs, one_token_labeling(n), r_probe
        )
        delay = "unbounded" if worst.delay is None else f"{worst.delay} steps"
        print(
            f"  worst r={r_probe}-fair delay from the one-token labeling:"
            f" {delay} ({worst.states_explored} states)"
        )

    # -- capacity: a configuration the seed BFS could not touch --------------
    big_n, big_r = 6, 4
    protocol = example1_protocol(big_n)
    inputs = default_inputs(protocol)
    initials = list(broadcast_labelings(protocol.topology, protocol.label_space))
    start = time.perf_counter()
    graph = StatesGraph(protocol, inputs, big_r, initials)
    elapsed = time.perf_counter() - start
    edges = graph.num_edges
    print(
        f"\nCapacity: K_{big_n}, r = {big_r} -> {len(graph):,} states,"
        f" {edges:,} edges in {elapsed:.2f}s"
        f" ({len(graph) / elapsed:,.0f} states/s; the seed BFS needed ~14s)"
    )

    # -- symmetry quotient: one clique further --------------------------------
    # K_7 / r=4 has 132,701 concrete states.  The Example-1 reaction is
    # equivariant under every node permutation, so symmetry="auto" discovers
    # and verifies S_7, canonicalizes states before interning, and explores
    # one representative per orbit — same verdicts, concrete witnesses.
    huge_n, huge_r = 7, 4
    protocol = example1_protocol(huge_n)
    inputs = default_inputs(protocol)
    initials = list(broadcast_labelings(protocol.topology, protocol.label_space))
    start = time.perf_counter()
    graph = StatesGraph(
        protocol, inputs, huge_r, initials,
        policy=ExecutionPolicy(symmetry="auto"),
    )
    elapsed = time.perf_counter() - start
    stats = graph.stats()
    print(
        f"Quotient: K_{huge_n}, r = {huge_r} under S_{huge_n}"
        f" (order {stats.symmetry_order}) -> {stats.states:,} stored states"
        f" covering {stats.covered_states:,} concrete ones"
        f" ({stats.reduction_factor:,.0f}x) in {elapsed:.2f}s"
    )
    print(
        f"  stats: {stats.edges:,} edges, peak frontier {stats.peak_frontier},"
        f" transition cache {stats.transition_cache_hits:,} hits /"
        f" {stats.transition_cache_misses:,} misses"
    )


if __name__ == "__main__":
    main()
