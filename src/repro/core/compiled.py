"""Compiled fast path for the paper's global transition.

``Simulator.step`` is the hot path of every experiment in this repository:
benchmarks, the model checker, and the states-graph all drive it millions of
times.  The naive implementation rebuilds ``{Edge: Label}`` dictionaries for
every activated node, validates the out-edge set on every step, and constructs
fresh :class:`~repro.core.configuration.Labeling` objects per transition —
so most of the wall time goes to allocation, not dynamics.

:class:`CompiledProtocol` precomputes, once per protocol:

* per-node integer index arrays into the flat label tuple for incoming and
  outgoing edges (``in_positions`` / ``out_positions``), and
* a per-node *reaction adapter* ``(values, x) -> (outgoing_labels, y)`` that
  reads straight from the flat tuple and emits labels in canonical out-edge
  order.

``step_values`` is then index-gather → reaction → index-scatter on plain
tuples: no per-step dict construction for the common reaction classes, no
out-edge set checks (they are hoisted to compile time where the reaction's
edge set is statically known), and no intermediate ``Labeling`` objects.

Reaction classes that can prove their outgoing edge set at compile time
(:class:`UniformReaction`, :class:`ConstantReaction`,
:class:`TabularReaction`) provide their own adapters via
``ReactionFunction.compile_fast_path``; everything else falls back to the
generic adapter below, which keeps the per-step validation of the original
engine.

One protocol compiles once and is shared by every consumer — the engine, the
stabilization tools, and the sweep runner — via :func:`compile_protocol`'s
weak cache.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from typing import Any

from repro.core.protocol import Protocol
from repro.exceptions import ValidationError

#: A compiled per-node reaction: reads incoming labels from the flat tuple
#: ``values``, writes outgoing labels into the mutable ``new_values`` list at
#: the node's precomputed positions, returns the node's output value.
Adapter = Callable[[tuple, list, Any], Any]


def _bad_edges_error(node: int, outgoing, out_edges) -> ValidationError:
    try:
        labeled = sorted(outgoing)
    except TypeError:
        labeled = list(outgoing)
    return ValidationError(
        f"reaction of node {node} labeled edges {labeled}"
        f" but must label exactly {sorted(out_edges)}"
    )


def _generic_stateless_adapter(
    reaction, node, in_edges, in_positions, out_edges, out_positions
):
    """Dict-based adapter for arbitrary stateless reactions.

    Keeps the original engine's per-step validation: the reaction must label
    exactly the node's outgoing edges.
    """
    n_out = len(out_edges)

    def adapter(values, new_values, x):
        incoming = {e: values[p] for e, p in zip(in_edges, in_positions, strict=True)}
        outgoing, y = reaction(incoming, x)
        # Size check both before and after indexing: auto-vivifying mappings
        # (defaultdict) would otherwise grow to the right size while being
        # read and dodge the validation.
        if len(outgoing) != n_out:
            raise _bad_edges_error(node, outgoing, out_edges)
        try:
            for e, q in zip(out_edges, out_positions, strict=True):
                new_values[q] = outgoing[e]
        except (KeyError, TypeError):
            raise _bad_edges_error(node, outgoing, out_edges) from None
        if len(outgoing) != n_out:
            raise _bad_edges_error(node, outgoing, out_edges)
        return y

    return adapter


def _generic_stateful_adapter(
    reaction, node, in_edges, in_positions, out_edges, out_positions
):
    """Dict-based adapter for stateful reactions (Theorem B.11 machinery)."""
    n_out = len(out_edges)

    def adapter(values, new_values, x):
        incoming = {e: values[p] for e, p in zip(in_edges, in_positions, strict=True)}
        own = {e: values[p] for e, p in zip(out_edges, out_positions, strict=True)}
        outgoing, y = reaction(incoming, own, x)
        # Size check both before and after indexing — see the stateless
        # adapter.
        if len(outgoing) != n_out:
            raise _bad_edges_error(node, outgoing, out_edges)
        try:
            for e, q in zip(out_edges, out_positions, strict=True):
                new_values[q] = outgoing[e]
        except (KeyError, TypeError):
            raise _bad_edges_error(node, outgoing, out_edges) from None
        if len(outgoing) != n_out:
            raise _bad_edges_error(node, outgoing, out_edges)
        return y

    return adapter


class CompiledProtocol:
    """A protocol lowered to index arrays over the flat label tuple.

    Immutable once built; safe to share between any number of simulators,
    model-checker runs, and sweep cases over the same protocol.
    """

    __slots__ = (
        "_protocol_ref",
        "topology",
        "n",
        "m",
        "in_positions",
        "out_positions",
        "_adapters",
        "_all_nodes",
        "__weakref__",
    )

    def __init__(self, protocol: Protocol):
        topology = protocol.topology
        position = topology.edge_position
        n = topology.n
        # Weak so the compile cache (protocol -> compiled) holds no strong
        # path back to its key: compiled forms die with their protocols.
        self._protocol_ref = weakref.ref(protocol)
        self.topology = topology
        self.n = n
        self.m = topology.m
        self.in_positions = tuple(
            tuple(position(e) for e in topology.in_edges(i)) for i in range(n)
        )
        self.out_positions = tuple(
            tuple(position(e) for e in topology.out_edges(i)) for i in range(n)
        )
        self._all_nodes = frozenset(range(n))

        adapters = []
        stateful = protocol.is_stateful
        for i in range(n):
            reaction = protocol.reaction(i)
            in_edges = topology.in_edges(i)
            out_edges = topology.out_edges(i)
            adapter = reaction.compile_fast_path(
                in_edges, self.in_positions[i], out_edges, self.out_positions[i]
            )
            if adapter is None:
                build = (
                    _generic_stateful_adapter
                    if stateful
                    else _generic_stateless_adapter
                )
                adapter = build(
                    reaction,
                    i,
                    in_edges,
                    self.in_positions[i],
                    out_edges,
                    self.out_positions[i],
                )
            adapters.append(adapter)
        self._adapters = tuple(adapters)

    @property
    def protocol(self) -> Protocol | None:
        """The source protocol, or ``None`` once it has been collected."""
        return self._protocol_ref()

    def adapter(self, i: int) -> Adapter:
        """The compiled reaction of node ``i`` (mainly for tests)."""
        return self._adapters[i]

    def step_values(
        self,
        values: tuple,
        outputs: tuple | None,
        active,
        inputs,
    ) -> tuple[tuple, tuple | None]:
        """One global transition on flat tuples.

        All activated nodes read the *previous* ``values`` (the paper's
        simultaneous semantics); writes go to a lazily-created copy.  Returns
        the input tuples unchanged (same objects) when no node was activated.
        ``outputs`` may be ``None`` for consumers that only track labels
        (the states-graph, label-only model checking).
        """
        adapters = self._adapters
        new_values = None
        if outputs is None:
            for i in active:
                if new_values is None:
                    new_values = list(values)
                adapters[i](values, new_values, inputs[i])
            return (
                values if new_values is None else tuple(new_values),
                None,
            )
        new_outputs = None
        for i in active:
            if new_values is None:
                new_values = list(values)
                new_outputs = list(outputs)
            new_outputs[i] = adapters[i](values, new_values, inputs[i])
        return (
            values if new_values is None else tuple(new_values),
            outputs if new_outputs is None else tuple(new_outputs),
        )

    def is_fixed_point(self, values: tuple, inputs) -> bool:
        """True when ``values`` is a stable labeling (Section 3).

        A labeling is stable exactly when one full-activation transition
        leaves it unchanged: every node's reaction then fixes its outgoing
        labels, so no activation set can ever change the labeling again.
        This is the compiled counterpart of
        :func:`repro.stabilization.fixed_points.is_stable_labeling`; the
        fault-injection layer uses it to certify recovery and the
        adversarial schedulers use it to steer runs away from absorption.
        """
        new_values, _ = self.step_values(values, None, self._all_nodes, inputs)
        return new_values is values or new_values == values

    def __repr__(self) -> str:
        protocol = self.protocol
        if protocol is None:
            return "<CompiledProtocol of a collected protocol>"
        return f"<CompiledProtocol of {protocol!r}>"


_CACHE: "weakref.WeakKeyDictionary[Any, CompiledProtocol]" = (
    weakref.WeakKeyDictionary()
)


def compile_protocol(protocol: Protocol) -> CompiledProtocol:
    """Compile ``protocol``, reusing a cached compilation when available.

    The cache is keyed weakly on the protocol object, so compiled forms die
    with their protocols and repeated ``Simulator`` construction over the
    same protocol pays the compilation cost once.
    """
    compiled = _CACHE.get(protocol)
    if compiled is None:
        compiled = CompiledProtocol(protocol)
        _CACHE[protocol] = compiled
    return compiled
