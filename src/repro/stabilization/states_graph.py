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

:class:`StatesGraph` is the label-only view of the unified exploration core
(:class:`repro.stabilization.exploration.ExplorationGraph`), which interns
labelings and countdowns, caches valid activation sets per countdown, and
reuses one compiled transition per ``(labeling, activation set)`` pair —
the same core the model checker and the adversary's worst-case-delay search
run on.  The historical ``states`` / ``index`` views (full
``(labeling values, countdown)`` tuples) are materialized lazily on first
access, so exhaustive searches that only need ids never pay for them.
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
    "State",
    "StatesGraph",
    "valid_activation_sets",
]

#: A state: (labeling values in canonical edge order, countdown vector).
State = tuple[tuple, tuple[int, ...]]


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
        self._states_view: list[State] | None = None
        self._index_view: dict[State, int] | None = None

    # -- compatibility views -------------------------------------------------

    @property
    def states(self) -> list[State]:
        """States as ``(labeling values, countdown)`` tuples, by index."""
        if self._states_view is None:
            labels = self._labels
            countdowns = self._countdowns
            self._states_view = [
                (labels[lid], countdowns[cid]) for (lid, _oid, cid) in self.state_keys
            ]
        return self._states_view

    @property
    def index(self) -> dict[State, int]:
        """Mapping from ``(labeling values, countdown)`` states to indices."""
        if self._index_view is None:
            self._index_view = {state: k for k, state in enumerate(self.states)}
        return self._index_view
