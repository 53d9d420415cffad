"""The communication-complexity gadget protocols of Theorem 4.1.

Deciding whether a protocol is label r-stabilizing requires exchanging
exponentially many bits between parties that each know one reaction function.
The proof embeds an EQUALITY instance (Theorem B.4, small r) or a
SET-DISJOINTNESS instance (Theorem B.7, large r) into a clique protocol built
around a snake-in-the-box:

* nodes 0 and 1 are Alice and Bob; their reactions hard-code the private
  inputs x and y;
* the remaining nodes carry one hypercube coordinate each; while Alice's and
  Bob's labels agree, the joint hypercube vertex walks along the snake
  (orientation function phi), reading one input bit per snake vertex;
* disagreement collapses the system into a unique stable labeling.

The executable dichotomies (machine-checked in the tests):

* EQ gadget: ``x == y``  => the synchronous run from a snake state cycles
  forever;   ``x != y`` => the protocol is label 1-stabilizing (exact model
  check over all broadcast labelings).
* EQ latch gadget (general r): adds the paper's two-node one-way latch
  (nodes 2, 3) so that a transient disagreement is remembered and forces
  convergence under every r-fair schedule.
* DISJ gadget: intersecting inputs admit an explicitly constructed r-fair
  oscillating schedule (Claim B.8); disjoint inputs are label r-stabilizing
  (Claim B.9).

Faithfulness note (see DESIGN.md): the paper's orientation "orient all other
edges towards S" is under-specified for simultaneous activations; we use a
concrete coordinate-wise orientation: on-snake vertices follow the cycle;
off-snake vertices fall back toward the all-zeros vertex, whose special
outgoing edge points at an off-snake neighbor.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.configuration import Labeling
from repro.core.labels import binary
from repro.core.protocol import StatelessProtocol
from repro.core.reaction import UniformReaction
from repro.core.schedule import ExplicitSchedule
from repro.exceptions import ValidationError
from repro.graphs.standard import clique
from repro.hardness.snake import is_snake, normalized_snake


class SnakeOrientation:
    """The coordinate-wise orientation phi over a normalized snake in Q_d.

    ``special_edge=True`` re-enables the paper's extra rule orienting the
    all-zeros vertex toward an off-snake neighbor; it is **known to break**
    the convergence dichotomy under simultaneous activations (kept only for
    the ablation experiment, see DESIGN.md).
    """

    def __init__(self, snake: Sequence[int], d: int, special_edge: bool = False):
        snake = list(snake)
        if not is_snake(snake, d):
            raise ValidationError("not a valid snake")
        if 0 in snake:
            raise ValidationError("the gadget snake must avoid the all-zeros vertex")
        self.snake = snake
        self.d = d
        self.on_snake = set(snake)
        self.successor = {
            snake[k]: snake[(k + 1) % len(snake)] for k in range(len(snake))
        }
        self.position = {v: k for k, v in enumerate(snake)}
        self.special_coord: int | None = None
        if special_edge:
            for bit in range(d):
                if (1 << bit) not in self.on_snake:
                    self.special_coord = bit
                    break
            if self.special_coord is None:
                raise ValidationError("no off-snake neighbor of the origin")

    def phi(self, coord: int, others: int) -> int:
        """Node ``coord``'s next bit given the other coordinates' bits.

        ``others`` is the full vertex with coordinate ``coord`` cleared.

        The first three cases are forced by consistency with the snake walk
        (a node cannot see its own bit, so both completions of its view must
        agree on its next bit).  For doubly-off-snake views we orient toward
        the all-zeros vertex: together with the forced pulls this makes
        off-snake excursions collapse — the paper's "orient all other edges
        towards S" made concrete.  (The paper additionally orients a special
        edge out of 0^d; under simultaneous activations that rule can combine
        with a forced pull into a 2-cycle, so we omit it — the model checker
        validates the resulting dichotomies, see DESIGN.md.)
        """
        w0 = others
        w1 = others | (1 << coord)
        on0 = w0 in self.on_snake
        on1 = w1 in self.on_snake
        if on0 and on1:
            return 1 if self.successor[w0] == w1 else 0
        if on0:
            return 0
        if on1:
            return 1
        if self.special_coord == coord and others == 0:
            return 1  # the paper's special edge (ablation only)
        return 0


def _hypercube_vertex(incoming, cube_nodes) -> int:
    vertex = 0
    for bit, node in enumerate(cube_nodes):
        if incoming[node]:
            vertex |= 1 << bit
    return vertex


def eq_gadget_protocol(
    n: int,
    x: Sequence[int],
    y: Sequence[int],
    snake: Sequence[int] | None = None,
    special_edge: bool = False,
) -> StatelessProtocol:
    """The Theorem B.4 (r = 1) EQUALITY gadget on K_n.

    ``x`` and ``y`` are indexed by snake position; the protocol is label
    1-stabilizing iff ``x != y``.  ``special_edge`` re-enables the paper's
    origin-orientation rule for the ablation experiment.
    """
    d = n - 2
    if d < 3:
        raise ValidationError("the EQ gadget needs n >= 5")
    snake = list(snake) if snake is not None else normalized_snake(d)
    orientation = SnakeOrientation(snake, d, special_edge=special_edge)
    if len(x) != len(snake) or len(y) != len(snake):
        raise ValidationError("inputs must have one bit per snake vertex")
    topology = clique(n)
    cube_nodes = tuple(range(2, n))

    def alice(incoming, _input):
        by_node = {u: incoming[(u, 0)] for u in range(1, n)}
        vertex = _hypercube_vertex(by_node, cube_nodes)
        if vertex in orientation.on_snake:
            bit = x[orientation.position[vertex]]
        else:
            bit = 1
        return bit, bit

    def bob(incoming, _input):
        by_node = {u: incoming[(u, 1)] for u in range(n) if u != 1}
        vertex = _hypercube_vertex(by_node, cube_nodes)
        if vertex in orientation.on_snake:
            bit = y[orientation.position[vertex]]
        else:
            bit = 0
        return bit, bit

    def make_cube_reaction(k: int):
        coord = k - 2

        def react(incoming, _input):
            by_node = {u: incoming[(u, k)] for u in range(n) if u != k}
            if by_node[0] != by_node[1]:
                return 0, 0
            others = 0
            for bit, node in enumerate(cube_nodes):
                if node != k and by_node[node]:
                    others |= 1 << bit
            value = orientation.phi(coord, others)
            return value, value

        return react

    reactions = []
    for i in range(n):
        if i == 0:
            fn = alice
        elif i == 1:
            fn = bob
        else:
            fn = make_cube_reaction(i)
        reactions.append(UniformReaction(topology.out_edges(i), fn))
    return StatelessProtocol(
        topology, binary(), reactions, name=f"eq-gadget(n={n}, |S|={len(snake)})"
    )


def eq_snake_labeling(n: int, snake: Sequence[int], index: int, flag: int) -> Labeling:
    """The broadcast labeling (flag, flag, s_index) of Claim B.6."""
    topology = clique(n)
    vertex = list(snake)[index]
    per_node = [flag, flag] + [(vertex >> bit) & 1 for bit in range(n - 2)]
    values = tuple(per_node[u] for (u, _) in topology.edges)
    return Labeling(topology, values)


# ---------------------------------------------------------------------------
# The general-r EQ gadget with the (l2, l3) one-way latch.
# ---------------------------------------------------------------------------


def eq_latch_gadget_protocol(
    n: int,
    x: Sequence[int],
    y: Sequence[int],
    r: int,
    snake: Sequence[int] | None = None,
) -> StatelessProtocol:
    """The Theorem B.4 general-r gadget on K_n (hypercube on nodes 4..n-1).

    The snake is partitioned into segments of length 3r; ``x`` and ``y`` are
    indexed by *segment*.  Nodes 2 and 3 form a one-way latch: node 3 raises
    on any Alice/Bob disagreement, node 2 copies node 3, and once both are
    raised the hypercube freezes and the system converges.
    """
    d = n - 4
    if d < 3:
        raise ValidationError("the latch gadget needs n >= 7")
    if r < 1:
        raise ValidationError("r must be >= 1")
    snake = list(snake) if snake is not None else normalized_snake(d)
    orientation = SnakeOrientation(snake, d)
    segment_length = 3 * r
    segments = (len(snake) + segment_length - 1) // segment_length
    if len(x) != segments or len(y) != segments:
        raise ValidationError(f"inputs must have {segments} bits (one per segment)")
    topology = clique(n)
    cube_nodes = tuple(range(4, n))

    def segment_of(vertex: int) -> int:
        return orientation.position[vertex] // segment_length

    def alice(incoming, _input):
        by_node = {u: incoming[(u, 0)] for u in range(1, n)}
        vertex = _hypercube_vertex(by_node, cube_nodes)
        latched = by_node[2] == 1 and by_node[3] == 1
        if not latched and vertex in orientation.on_snake:
            bit = x[segment_of(vertex)]
        else:
            bit = 1
        return bit, bit

    def bob(incoming, _input):
        by_node = {u: incoming[(u, 1)] for u in range(n) if u != 1}
        vertex = _hypercube_vertex(by_node, cube_nodes)
        latched = by_node[2] == 1 and by_node[3] == 1
        if not latched and vertex in orientation.on_snake:
            bit = y[segment_of(vertex)]
        else:
            bit = 0
        return bit, bit

    def latch_copy(incoming, _input):
        bit = incoming[(3, 2)]
        return bit, bit

    def latch_raise(incoming, _input):
        by_node = {u: incoming[(u, 3)] for u in range(n) if u != 3}
        bit = 1 if (by_node[2] == 1 or by_node[0] != by_node[1]) else 0
        return bit, bit

    def make_cube_reaction(k: int):
        coord = k - 4

        def react(incoming, _input):
            by_node = {u: incoming[(u, k)] for u in range(n) if u != k}
            if by_node[2] == 1 and by_node[3] == 1:
                return 0, 0
            others = 0
            for bit, node in enumerate(cube_nodes):
                if node != k and by_node[node]:
                    others |= 1 << bit
            value = orientation.phi(coord, others)
            return value, value

        return react

    reactions = []
    for i in range(n):
        if i == 0:
            fn = alice
        elif i == 1:
            fn = bob
        elif i == 2:
            fn = latch_copy
        elif i == 3:
            fn = latch_raise
        else:
            fn = make_cube_reaction(i)
        reactions.append(UniformReaction(topology.out_edges(i), fn))
    return StatelessProtocol(
        topology,
        binary(),
        reactions,
        name=f"eq-latch-gadget(n={n}, r={r})",
    )


def eq_latch_snake_labeling(
    n: int, snake: Sequence[int], index: int, flag: int
) -> Labeling:
    """The broadcast labeling (flag, flag, 0, 0, s_index)."""
    topology = clique(n)
    vertex = list(snake)[index]
    per_node = [flag, flag, 0, 0] + [(vertex >> bit) & 1 for bit in range(n - 4)]
    values = tuple(per_node[u] for (u, _) in topology.edges)
    return Labeling(topology, values)


# ---------------------------------------------------------------------------
# The DISJOINTNESS gadget (Theorem B.7).
# ---------------------------------------------------------------------------


def disj_gadget_protocol(
    n: int,
    x: Sequence[int],
    y: Sequence[int],
    snake: Sequence[int] | None = None,
) -> StatelessProtocol:
    """The Theorem B.7 gadget on K_n.

    ``x`` and ``y`` are characteristic vectors of subsets of [q]; snake
    position j carries element ``I(j) = j mod q``.  The hypercube walks only
    while both flags are up; Alice and Bob can only *re-raise* their flags
    together at a position whose element both sets contain — so an
    oscillation exists iff the sets intersect.
    """
    d = n - 2
    if d < 3:
        raise ValidationError("the DISJ gadget needs n >= 5")
    if len(x) != len(y) or not x:
        raise ValidationError("x and y must be nonempty equal-length vectors")
    q = len(x)
    snake = list(snake) if snake is not None else normalized_snake(d)
    orientation = SnakeOrientation(snake, d)
    topology = clique(n)
    cube_nodes = tuple(range(2, n))

    def element_of(vertex: int) -> int:
        return orientation.position[vertex] % q

    def alice(incoming, _input):
        by_node = {u: incoming[(u, 0)] for u in range(1, n)}
        vertex = _hypercube_vertex(by_node, cube_nodes)
        if by_node[1] == 0 and vertex in orientation.on_snake:
            bit = x[element_of(vertex)]
        else:
            bit = 0
        return bit, bit

    def bob(incoming, _input):
        by_node = {u: incoming[(u, 1)] for u in range(n) if u != 1}
        vertex = _hypercube_vertex(by_node, cube_nodes)
        if by_node[0] == 0 and vertex in orientation.on_snake:
            bit = y[element_of(vertex)]
        else:
            bit = 0
        return bit, bit

    def make_cube_reaction(k: int):
        coord = k - 2

        def react(incoming, _input):
            by_node = {u: incoming[(u, k)] for u in range(n) if u != k}
            if not (by_node[0] == 1 and by_node[1] == 1):
                return 0, 0
            others = 0
            for bit, node in enumerate(cube_nodes):
                if node != k and by_node[node]:
                    others |= 1 << bit
            value = orientation.phi(coord, others)
            return value, value

        return react

    reactions = []
    for i in range(n):
        if i == 0:
            fn = alice
        elif i == 1:
            fn = bob
        else:
            fn = make_cube_reaction(i)
        reactions.append(UniformReaction(topology.out_edges(i), fn))
    return StatelessProtocol(
        topology, binary(), reactions, name=f"disj-gadget(n={n}, q={q})"
    )


def disj_snake_labeling(n: int, snake: Sequence[int], index: int) -> Labeling:
    """The broadcast labeling (1, 1, s_index) that seeds the oscillation."""
    topology = clique(n)
    vertex = list(snake)[index]
    per_node = [1, 1] + [(vertex >> bit) & 1 for bit in range(n - 2)]
    values = tuple(per_node[u] for (u, _) in topology.edges)
    return Labeling(topology, values)


def disj_oscillating_schedule(
    n: int, snake: Sequence[int], q: int, element: int
) -> ExplicitSchedule:
    """Claim B.8's r-fair schedule: walk the snake, pausing at every position
    carrying ``element`` to let Alice and Bob re-raise their flags.

    One period walks the whole snake; pauses activate {0, 1} twice (the flags
    drop together, then rise together); walk steps activate the hypercube
    nodes {2..n-1}.
    """
    cube = set(range(2, n))
    flags = {0, 1}
    steps: list[set[int]] = []
    for j in range(len(snake)):
        if j % q == element:
            steps.append(set(flags))
            steps.append(set(flags))
        steps.append(set(cube))
    return ExplicitSchedule(n, steps)
