"""Exact decision of r-stabilization for small systems.

Deciding whether a protocol is label r-stabilizing is PSPACE-complete in
general (Theorem 4.2), but for the paper-sized gadgets (cliques of 3-5 nodes,
binary labels) it is perfectly tractable to decide *exactly* by exhausting the
Theorem 3.1 states-graph:

* the protocol is **not** label r-stabilizing  iff  some reachable cycle
  contains a transition that changes the labeling;
* it is **not** output r-stabilizing  iff  some reachable cycle (in the graph
  enriched with output components) changes some node's output.

The reachable graph is materialized by the unified exploration core
(:class:`repro.stabilization.exploration.ExplorationGraph`, with
``track_outputs`` selecting the enriched state payload); both checks then
reduce to scanning strongly connected components for an internal "changing"
edge — a set-membership test against the activation sets the core recorded
as changing each payload.  When one is found the checker emits a concrete
:class:`OscillationWitness` — an initial labeling plus an eventually
periodic r-fair schedule under which the engine provably oscillates,
replayed from the core's parent links.

With ``policy=ExecutionPolicy(symmetry="auto")`` the check runs on the
symmetry quotient of the states-graph instead: states are canonical orbit
representatives under the protocol's verified automorphism group, SCCs and
the same changing-edge scan run on the (often orders-of-magnitude smaller)
quotient, and the one witness builder lifts witnesses back to concrete
schedules before they are returned — the verdict and the replayed witness
are indistinguishable from the unquotiented check.

State spaces are exponential, so callers can restrict the initial labelings
(e.g. to broadcast labelings for clique protocols whose reactions send the
same label to all neighbors — see ``broadcast_labelings``; reachable cycles
of such protocols only ever contain broadcast labelings, so the restriction
loses nothing).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.configuration import Labeling
from repro.core.protocol import Protocol
from repro.core.schedule import LassoSchedule
from repro.exceptions import ValidationError
from repro.policy import ExecutionPolicy, resolve_policy
from repro.stabilization.exploration import (
    DEFAULT_STATE_BUDGET,
    ExplorationGraph,
    ExplorationStats,
)
from repro.stabilization.fixed_points import all_labelings


@dataclass(frozen=True)
class OscillationWitness:
    """A concrete non-stabilization certificate.

    Running the protocol from ``initial_labeling`` under the r-fair schedule
    ``prefix`` + repeated ``loop`` changes the monitored quantity (labels or
    outputs) infinitely often.
    """

    initial_labeling: Labeling
    prefix: tuple[frozenset[int], ...]
    loop: tuple[frozenset[int], ...]
    r: int

    def to_schedule(self, n: int) -> LassoSchedule:
        return LassoSchedule(n, self.prefix, self.loop)


@dataclass(frozen=True)
class StabilizationVerdict:
    """Outcome of an exact r-stabilization check."""

    stabilizing: bool
    kind: str  # "label" or "output"
    r: int
    states_explored: int
    witness: OscillationWitness | None = None
    stats: ExplorationStats | None = None

    def __bool__(self) -> bool:
        return self.stabilizing


def decide_label_r_stabilizing(
    protocol: Protocol,
    inputs: Sequence[Any],
    r: int,
    initial_labelings: Iterable[Labeling] | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
    policy: ExecutionPolicy | None = None,
) -> StabilizationVerdict:
    """Exactly decide label r-stabilization by exhausting the states-graph."""
    policy = resolve_policy(policy, api="decide_label_r_stabilizing")
    return _decide(
        protocol, inputs, r, initial_labelings, budget, policy, track_outputs=False
    )


def decide_output_r_stabilizing(
    protocol: Protocol,
    inputs: Sequence[Any],
    r: int,
    initial_labelings: Iterable[Labeling] | None = None,
    budget: int = DEFAULT_STATE_BUDGET,
    policy: ExecutionPolicy | None = None,
) -> StabilizationVerdict:
    """Exactly decide output r-stabilization (states also carry outputs)."""
    policy = resolve_policy(policy, api="decide_output_r_stabilizing")
    return _decide(
        protocol, inputs, r, initial_labelings, budget, policy, track_outputs=True
    )


# ---------------------------------------------------------------------------


def _decide(protocol, inputs, r, initial_labelings, budget, policy, track_outputs):
    if r < 1:
        raise ValidationError("fairness parameter r must be >= 1")
    if initial_labelings is None:
        initial_labelings = all_labelings(
            protocol.topology, protocol.label_space, budget
        )

    graph = ExplorationGraph(
        protocol,
        inputs,
        r,
        initial_labelings,
        budget=budget,
        track_outputs=track_outputs,
        name="model checker",
        policy=policy,
    )

    # -- SCCs (iterative Tarjan) --------------------------------------------
    scc_id, sizes = _tarjan(graph)

    # -- hunt for a changing edge inside an SCC ------------------------------
    # An edge changes the monitored quantity (the labeling, and the outputs
    # when tracked) when its set is in its source's changing sets.  Label
    # and output changes are orbit-invariant, so a changing quotient cycle
    # (a self-loop included) lifts to a concrete oscillation and vice
    # versa.  A concrete changing edge leaves its payload, so concrete
    # singleton components are skipped.
    edge_offsets = graph.edge_offsets
    edge_dst = graph.edge_dst
    edge_sid = graph.edge_sid
    skip_singletons = not graph.quotient
    bad_edge = None
    for k in range(len(graph)):
        component = scc_id[k]
        if skip_singletons and sizes[component] == 1:
            continue
        changing = graph.changing_sets(k)
        if not changing:
            continue
        for e in range(edge_offsets[k], edge_offsets[k + 1]):
            if edge_sid[e] in changing and scc_id[edge_dst[e]] == component:
                bad_edge = (k, e)
                break
        if bad_edge:
            break

    witness = None if bad_edge is None else _build_witness(bad_edge, scc_id, graph, r)
    return StabilizationVerdict(
        stabilizing=witness is None,
        kind="output" if track_outputs else "label",
        r=r,
        states_explored=len(graph),
        witness=witness,
        stats=graph.stats(),
    )


def _tarjan(graph: ExplorationGraph) -> tuple[list[int], list[int]]:
    """Iterative Tarjan SCC over the core's packed edge arrays.

    Returns the component id of every vertex and the size of every
    component.  Reads ``edge_offsets`` / ``edge_dst`` directly, one slice
    of successors per vertex, so no per-state successor lists are kept.
    A vertex is on the Tarjan stack exactly when it is numbered but not
    yet assigned a component.
    """
    edge_offsets = graph.edge_offsets
    edge_dst = graph.edge_dst
    size = len(graph)
    ids = [-1] * size
    low = [0] * size
    order = [0] * size
    sizes: list[int] = []
    stack: list[int] = []
    counter = 0

    for root in range(size):
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(edge_dst[edge_offsets[root] : edge_offsets[root + 1]]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if not order[w]:
                    counter += 1
                    order[w] = low[w] = counter
                    stack.append(w)
                    work.append(
                        (w, iter(edge_dst[edge_offsets[w] : edge_offsets[w + 1]]))
                    )
                    break
                if ids[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if low[v] == order[v]:
                    component = len(sizes)
                    members = 0
                    while True:
                        w = stack.pop()
                        ids[w] = component
                        members += 1
                        if w == v:
                            break
                    sizes.append(members)
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return ids, sizes


def _build_witness(bad_edge, scc_id, graph: ExplorationGraph, r):
    k, bad = bad_edge
    j = graph.edge_dst[bad]
    # Path from the exploration root of k back to k (roots are initial
    # states), via the core's parent links.  On quotient graphs the actions
    # come back already lifted against the root's concrete initial labeling.
    prefix_actions = graph.path_to(k)
    initial_labeling = graph.initial_labeling(graph.root_of(k))

    # Cycle: the bad edge k -> j, then a path j -> k inside the SCC,
    # found by BFS over the packed edge arrays.
    component = scc_id[k]
    edge_offsets = graph.edge_offsets
    edge_dst = graph.edge_dst
    edge_sid = graph.edge_sid
    back_parent: dict[int, tuple[int, int]] = {}
    queue = deque((j,))
    seen = {j}
    while queue:
        v = queue.popleft()
        if v == k:
            break
        for e in range(edge_offsets[v], edge_offsets[v + 1]):
            w = edge_dst[e]
            if scc_id[w] == component and w not in seen:
                seen.add(w)
                back_parent[w] = (v, edge_sid[e])
                queue.append(w)
    back_steps: list[tuple[int, int]] = []
    current = k
    while current != j:
        step = back_parent[current]
        back_steps.append(step)
        current = step[0]
    back_steps.reverse()
    # A quotient cycle returns to the same canonical state but not
    # necessarily the same concrete one; lift_loop unrolls it until the
    # concrete walk closes.
    cycle = [(k, edge_sid[bad]), *back_steps]
    loop = tuple(graph.lift_loop(cycle, graph.accumulated_element(k)))
    return OscillationWitness(
        initial_labeling=initial_labeling,
        prefix=tuple(prefix_actions),
        loop=loop,
        r=r,
    )
