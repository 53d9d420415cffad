"""Shared protocol builders and strategies for the test suite."""

from __future__ import annotations

import operator
import random
import sys
from itertools import product
from typing import NamedTuple

from repro.core import (
    ExplicitLabelSpace,
    Labeling,
    LambdaReaction,
    Schedule,
    StatelessProtocol,
    TabularReaction,
    UniformReaction,
    binary,
)
from repro.graphs import Topology, bidirectional_ring, clique, unidirectional_ring


#: A batch-frontier floor above any bucket's row count and any level's
#: edge count.
SERIAL_FLOOR = sys.maxsize


def set_batch_floor(monkeypatch, floor: int) -> None:
    """Route later explorations: ``floor`` is both the level pass's edge
    floor and its activation-set bucket floor.  ``1`` takes the level pass
    from the first level and batches every bucket (when the protocol lifts
    to tables); :data:`SERIAL_FLOOR` expands every level one edge at a
    time, so every transition steps serially."""
    from repro.stabilization import exploration

    monkeypatch.setattr(exploration, "LEVEL_PASS_MIN_EDGES", floor)
    monkeypatch.setattr(exploration, "AUTO_BATCH_MIN_ROWS", floor)


class ScriptedAperiodicSchedule(Schedule):
    """Explicit activation sets with ``period = None``.

    Forces a run down the aperiodic certification path (an
    ``ExplicitSchedule`` repeats its script and so is periodic); this one
    repeats its last step forever, and — unlike public schedules — may
    script *empty* activation sets to probe the witness logic.
    """

    def __init__(self, n, steps):
        super().__init__(n)
        self._steps = [frozenset(step) for step in steps]

    def active(self, t):
        if t < len(self._steps):
            return self._steps[t]
        return self._steps[-1]


class GraphLists(NamedTuple):
    """An exploration graph's packed stores, read into plain lists."""

    #: ``(labeling values, countdown)`` of each state, by index.
    states: list
    #: ``(successor index, activation set)`` edges of each state.
    successors: list
    #: ``(predecessor index, activation set)`` BFS-tree link of each state,
    #: ``None`` for initial states.
    parents: list


def graph_lists(graph) -> GraphLists:
    """Read ``graph``'s CSR edge store and parent store into lists."""
    activation_set = graph.activation_set
    offsets = graph.edge_offsets
    states = []
    successors = []
    parents = []
    for k in range(len(graph)):
        states.append((graph.labeling_of(k), graph.countdown_of(k)))
        successors.append(
            [
                (graph.edge_dst[e], activation_set(graph.edge_sid[e]))
                for e in range(offsets[k], offsets[k + 1])
            ]
        )
        pred = graph.parent_idx[k]
        parents.append(
            None if pred < 0 else (pred, activation_set(graph.parent_sid[k]))
        )
    return GraphLists(states, successors, parents)


def graph_stores(graph) -> dict:
    """Everything an exploration graph stores, for comparing two builds:
    the state keys, the CSR edge and parent stores, the pools in id order,
    the roots, the changing sets and the stats."""
    return {
        "state_keys": graph.state_keys,
        "edge_offsets": list(graph.edge_offsets),
        "edge_dst": list(graph.edge_dst),
        "edge_sid": list(graph.edge_sid),
        "parent_idx": list(graph.parent_idx),
        "parent_sid": list(graph.parent_sid),
        "labels": graph._labels,
        "outputs": graph._outs,
        "countdowns": graph._countdowns,
        "sets": graph._sets,
        "initial_indices": graph.initial_indices,
        "changing": [graph.changing_sets(k) for k in range(len(graph))],
        "stats": graph.stats().as_dict(),
    }


def without_batch_counters(stores: dict) -> dict:
    """``stores`` with the kernel-call stats dropped: a build without
    numpy steps every transition serially."""
    stats = dict(stores["stats"])
    for field in ("frontier_mode", "batch_calls", "batch_rows"):
        del stats[field]
    return {**stores, "stats": stats}


def constant_protocol(topology: Topology, label=0) -> StatelessProtocol:
    """Every node always writes ``label`` everywhere and outputs it."""

    def make(i):
        def fn(incoming, x):
            return {edge: label for edge in topology.out_edges(i)}, label

        return LambdaReaction(fn)

    return StatelessProtocol(
        topology, binary(), [make(i) for i in range(topology.n)], name="constant"
    )


def copy_ring_protocol(n: int) -> StatelessProtocol:
    """On the unidirectional ring every node forwards its incoming bit.

    Any uniform labeling is stable; a mixed labeling rotates forever, which
    makes this a convenient non-stabilizing example.
    """
    topology = unidirectional_ring(n)

    def make(i):
        def fn(incoming, x):
            (value,) = incoming.values()
            return value, value

        return UniformReaction(topology.out_edges(i), fn)

    return StatelessProtocol(
        topology, binary(), [make(i) for i in range(n)], name=f"copy-ring({n})"
    )


def or_clique_protocol(topology: Topology) -> StatelessProtocol:
    """Example-1-style protocol: broadcast 0 iff all incoming are 0."""

    def bit(incoming, _x):
        value = 0 if all(v == 0 for v in incoming.values()) else 1
        return value, value

    reactions = [
        UniformReaction(topology.out_edges(i), bit) for i in range(topology.n)
    ]
    return StatelessProtocol(topology, binary(), reactions, name="or-clique")


def random_bit_labeling(topology: Topology, seed: int) -> Labeling:
    rng = random.Random(seed)
    return Labeling(topology, tuple(rng.randrange(2) for _ in topology.edges))


def xor_ring_protocol(
    n: int, reverse: bool = False, op=operator.xor
) -> StatelessProtocol:
    """Every node forwards ``op(incoming bit, its input)``.

    Edge ``i`` is owned by node ``i`` either way; node ``i`` reads edge
    ``i - 1`` on the unidirectional ring (a cyclic shift by ``m - 1``) and
    edge ``i + 1`` on the reversed ring (a shift by 1).
    """
    if reverse:
        topology = Topology(
            n, [(i, (i - 1) % n) for i in range(n)], name=f"rev-ring({n})"
        )
    else:
        topology = unidirectional_ring(n)

    def make(i):
        def fn(incoming, x):
            (value,) = incoming.values()
            return op(value, x), value

        return UniformReaction(topology.out_edges(i), fn)

    return StatelessProtocol(
        topology,
        binary(),
        [make(i) for i in range(n)],
        name=f"{op.__name__}-ring({n})",
    )


def symmetric_protocol(rng: random.Random) -> StatelessProtocol:
    """A random protocol invariant under the full automorphism group.

    Every node runs the same lookup table, keyed on the *sorted* incoming
    value multiset and broadcasting one value to all out-edges — so any
    relabeling of nodes that preserves the topology preserves the dynamics.
    """
    if rng.random() < 0.5:
        topology = clique(rng.randrange(3, 5))
        labels = (0, 1)  # keeps |Sigma|^m within the verification budget
    else:
        topology = bidirectional_ring(rng.randrange(3, 6))
        labels = tuple(range(rng.randrange(2, 4)))
    space = ExplicitLabelSpace(labels)
    degree = len(topology.in_edges(0))
    multiset_value = {}
    for combo in product(labels, repeat=degree):
        key = tuple(sorted(combo))
        if key not in multiset_value:
            multiset_value[key] = (rng.choice(labels), rng.choice(labels))
    reactions = []
    for i in range(topology.n):
        in_edges = topology.in_edges(i)
        out_edges = topology.out_edges(i)
        table = {}
        for combo in product(labels, repeat=len(in_edges)):
            value, output = multiset_value[tuple(sorted(combo))]
            table[(combo, 0)] = (tuple(value for _ in out_edges), output)
        reactions.append(TabularReaction(in_edges, out_edges, table))
    return StatelessProtocol(topology, space, reactions, name="sym-random")
