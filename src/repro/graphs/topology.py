"""Directed communication topologies.

The paper's model runs on a strongly connected directed graph ``G = ([n], E)``
(Section 2).  :class:`Topology` is a small immutable digraph tailored to the
engine's needs: fixed edge order (so labelings can be stored as flat tuples),
and precomputed per-node incoming/outgoing edge lists.

Nodes are ``0 .. n-1`` (the paper's 1-based node ``i`` is node ``i-1`` here).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType

from repro.core.reaction import Edge
from repro.exceptions import ValidationError


class Topology:
    """An immutable directed graph with a canonical edge order."""

    __slots__ = ("_n", "_edges", "_edge_index", "_in", "_out", "name")

    def __init__(self, n: int, edges: Iterable[Edge], name: str = ""):
        if n <= 0:
            raise ValidationError("a topology needs at least one node")
        edge_list = []
        edge_index: dict[Edge, int] = {}
        incoming: list[list[Edge]] = [[] for _ in range(n)]
        outgoing: list[list[Edge]] = [[] for _ in range(n)]
        for edge in edges:
            u, v = edge
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge {edge!r} has endpoints outside 0..{n - 1}")
            if u == v:
                raise ValidationError(f"self-loop {edge!r} is not allowed")
            if edge in edge_index:
                raise ValidationError(f"duplicate edge {edge!r}")
            edge_index[edge] = len(edge_list)
            edge_list.append(edge)
            outgoing[u].append(edge)
            incoming[v].append(edge)
        self._n = n
        self._edges = tuple(edge_list)
        self._edge_index = edge_index
        self._in = tuple(tuple(block) for block in incoming)
        self._out = tuple(tuple(block) for block in outgoing)
        self.name = name or f"digraph(n={n}, m={len(edge_list)})"

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return len(self._edges)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """All edges in canonical (insertion) order."""
        return self._edges

    @property
    def nodes(self) -> range:
        return range(self._n)

    @property
    def edge_index(self) -> Mapping[Edge, int]:
        """Read-only ``(u, v) -> canonical position`` table of all edges."""
        return MappingProxyType(self._edge_index)

    def edge_position(self, edge: Edge) -> int:
        """Index of ``edge`` in the canonical order."""
        try:
            return self._edge_index[edge]
        except KeyError as exc:
            raise ValidationError(f"{edge!r} is not an edge of {self.name}") from exc

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_index

    def in_edges(self, i: int) -> tuple[Edge, ...]:
        """Edges ``(u, i)``; the paper's ``-i``."""
        return self._in[i]

    def out_edges(self, i: int) -> tuple[Edge, ...]:
        """Edges ``(i, v)``; the paper's ``+i``."""
        return self._out[i]

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(u for (u, _) in self._in[i])

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(v for (_, v) in self._out[i])

    def in_degree(self, i: int) -> int:
        return len(self._in[i])

    def out_degree(self, i: int) -> int:
        return len(self._out[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._n == other._n and set(self._edges) == set(other._edges)

    def __hash__(self) -> int:
        return hash((self._n, frozenset(self._edges)))

    def __repr__(self) -> str:
        return f"<Topology {self.name}: n={self._n}, m={self.m}>"
