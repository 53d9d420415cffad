"""The states-graph of Theorem 3.1.

The proof of Theorem 3.1 builds a directed graph ``G' = (V', E')`` whose
vertices are pairs ``(labeling, countdown)``: the labeling component lives in
``Sigma^E`` and the countdown component ``x in [r]^n`` records, for every
node, how many more steps it may stay inactive under an r-fair schedule.
There is an edge for every *valid* activation set ``T`` (nonempty and
containing every node whose countdown hit 1), leading to
``(delta(l, T), c(x, T))`` with

    c(x, T)_i = r        if i in T
    c(x, T)_i = x_i - 1  otherwise.

Every run of the protocol under an r-fair schedule is a path in this graph,
and conversely every path yields an r-fair schedule, so questions about
r-stabilization become graph questions: the protocol fails to label
r-stabilize exactly when some reachable cycle changes the labeling.

:class:`StatesGraph` is the unified exploration core
(:class:`repro.stabilization.exploration.ExplorationGraph`) with outputs
untracked: it interns labelings and countdowns, caches valid activation
sets per countdown, and reuses one compiled transition per ``(labeling,
activation set)`` pair — the same core the model checker and the
adversary's worst-case-delay search run on.  A state ``k`` is read through
:meth:`~ExplorationGraph.labeling_of` and
:meth:`~ExplorationGraph.countdown_of`, its edges from the packed CSR store.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

from repro.core.configuration import Labeling
from repro.core.protocol import Protocol
from repro.policy import ExecutionPolicy, resolve_policy
from repro.stabilization.exploration import (
    DEFAULT_STATE_BUDGET,
    ExplorationGraph,
    valid_activation_sets,
)

__all__ = [
    "DEFAULT_STATE_BUDGET",
    "StatesGraph",
    "valid_activation_sets",
]


class StatesGraph(ExplorationGraph):
    """Reachable fragment of the Theorem 3.1 states-graph (labels only)."""

    def __init__(
        self,
        protocol: Protocol,
        inputs: Sequence[Any],
        r: int,
        initial_labelings: Iterable[Labeling],
        budget: int = DEFAULT_STATE_BUDGET,
        policy: ExecutionPolicy | None = None,
    ):
        policy = resolve_policy(policy, api="StatesGraph")
        super().__init__(
            protocol,
            inputs,
            r,
            initial_labelings,
            budget=budget,
            track_outputs=False,
            name="states-graph",
            policy=policy,
        )
