"""Example 1 of the paper: tightness of Theorem 3.1.

The protocol runs on the clique ``K_n`` with label space {0, 1}.  Every node
broadcasts one bit to all neighbors:

    delta_i(l) = 0...0  if every incoming edge is labeled 0,
                 1...1  otherwise.

Both the all-zero and the all-one labelings are stable, so by Theorem 3.1 the
protocol is not label (n-1)-stabilizing.  The paper shows this is tight: the
protocol *is* label r-stabilizing for every r < n-1, because an oscillation
requires exactly one all-one node per step, two activations per step, and the
all-one node to be reactivated immediately — constraints no (n-2)-fair
schedule can satisfy forever.

This module also constructs the explicit oscillating (n-1)-fair schedule:
rotate the "all-one" token around the clique by activating pairs
``{i, i+1 mod n}``; each node is activated twice in a row and then rests for
exactly n-2 steps, which is (n-1)-fair.
"""

from __future__ import annotations

from repro.core.configuration import Labeling
from repro.core.labels import binary
from repro.core.protocol import StatelessProtocol
from repro.core.reaction import UniformReaction
from repro.core.schedule import ExplicitSchedule
from repro.exceptions import ValidationError
from repro.graphs.standard import clique


def example1_protocol(n: int) -> StatelessProtocol:
    """The Example 1 protocol on ``K_n``."""
    if n < 3:
        raise ValidationError("Example 1 needs n >= 3")
    topology = clique(n)

    def broadcast_bit(incoming, _x):
        bit = 0 if all(value == 0 for value in incoming.values()) else 1
        return bit, bit

    reactions = [
        UniformReaction(topology.out_edges(i), broadcast_bit) for i in range(n)
    ]
    return StatelessProtocol(topology, binary(), reactions, name=f"example1({n})")


def stable_labeling_pair(n: int) -> tuple[Labeling, Labeling]:
    """The two stable labelings of Example 1: all-zero and all-one."""
    topology = clique(n)
    return Labeling.uniform(topology, 0), Labeling.uniform(topology, 1)


def one_token_labeling(n: int, holder: int = 0) -> Labeling:
    """The labeling where exactly ``holder`` broadcasts 1 and everyone else 0."""
    topology = clique(n)
    values = tuple(1 if u == holder else 0 for (u, _) in topology.edges)
    return Labeling(topology, values)


def oscillating_schedule(n: int) -> ExplicitSchedule:
    """The (n-1)-fair schedule under which Example 1 oscillates forever.

    Step t activates ``{t mod n, (t+1) mod n}``.  Started from
    :func:`one_token_labeling` with holder 0, the all-one token hops from node
    t to node t+1 at every step, so the labeling never converges.  Each node
    is activated at steps ``t = i-1 (mod n)`` and ``t = i (mod n)``: twice in
    a row, then idle for n-2 steps, i.e. the schedule is exactly (n-1)-fair.
    """
    if n < 3:
        raise ValidationError("Example 1 needs n >= 3")
    steps = [{t % n, (t + 1) % n} for t in range(n)]
    return ExplicitSchedule(n, steps)
