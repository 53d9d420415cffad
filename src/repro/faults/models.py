"""Fault models: what one transient fault does to the edge labeling.

The paper's self-stabilization claim (Section 1.2) quantifies over *any*
transient corruption of the edge labels, provided code and inputs stay
intact.  A :class:`FaultModel` makes that perturbation a first-class object:
it maps a flat label tuple (canonical edge order, exactly what the compiled
engine runs on) to a corrupted flat label tuple.

Contracts shared by every model:

* **Pure and seeded.**  ``apply(values, topology, space, step)`` depends only
  on its arguments and the model's own constructor parameters.  Randomized
  models derive their RNG from ``(seed, step)``, so the same fault at the
  same time produces the same corruption no matter how many times — or in
  which process — it is evaluated.  This is what keeps batch resilience
  sweeps, which fire a model for many rows at once, bit-identical to serial
  runs.
* **Picklable.**  Models hold only plain data (no closures, no RNG state),
  so plans holding them pickle into job submissions as-is.
* **Identity-preserving.**  A model that changes nothing returns the input
  tuple object unchanged, keeping the engine's ``is``-based fast paths
  intact.

Timing is deliberately *not* a model concern: :mod:`repro.faults.schedules`
decides when a model fires, mirroring the engine's split between reaction
functions and activation schedules.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping

from repro.core.labels import Label, LabelSpace
from repro.core.reaction import Edge
from repro.exceptions import ValidationError
from repro.graphs.topology import Topology


def _scatter_rows(codes, rows, positions, new_codes) -> None:
    """Write ``new_codes`` into ``codes[rows x positions]`` in one scatter.

    The vectorized counterpart of ``for row in rows: codes[row, positions] =
    new_codes``; a single row (each row its own fault plan, the usual
    resilience sweep) is one plain row write.  numpy is imported lazily:
    this module stays importable without it, and ``fire_batch`` is only
    ever reached from the batch backend, which requires numpy anyway.
    """
    if len(rows) == 1:
        codes[rows[0], positions] = new_codes
        return
    import numpy as np

    grid = np.ix_(
        np.asarray(rows, dtype=np.intp), np.asarray(positions, dtype=np.intp)
    )
    codes[grid] = new_codes


def _derive_rng(seed: int, step: int) -> random.Random:
    """A fresh RNG for one (model seed, fire time) pair.

    Multiplying by a large odd constant decorrelates neighboring seeds and
    steps; masking keeps the product in an int range ``random.Random``
    seeds directly.
    """
    return random.Random((seed * 0x9E3779B1 + step * 0x85EBCA77) & 0xFFFFFFFFFFFFFFFF)


class FaultModel(ABC):
    """One transient corruption of the labeling, on flat label tuples."""

    @abstractmethod
    def apply(
        self, values: tuple, topology: Topology, space: LabelSpace, step: int
    ) -> tuple:
        """The corrupted labeling values (``values`` itself if nothing changed)."""

    def fire_batch(self, codes, rows, topology, space, interner, step) -> None:
        """Apply this fault to several rows of a batch code array, in place.

        ``codes`` is the batch backend's ``(B, m)`` label-code array
        (:mod:`repro.core.batch`), ``rows`` the row indices firing this model
        at time ``step``, and ``interner`` the backend's label interner: the
        declared space, whose ``encode`` raises for any other label (the
        batch then runs on the serial engine).  The contract is equality
        with :meth:`apply` row by row — same ``(seed, fire time)`` RNG
        derivation, same resulting labeling — so batch resilience sweeps
        stay interchangeable with serial ones.

        The default decodes each row and runs :meth:`apply` itself (exact by
        construction); models whose draw sequence does not depend on the
        current labeling override this to derive the corruption once and
        scatter it across all rows.
        """
        for row in rows:
            values = self.apply(
                interner.decode_values(codes[row]), topology, space, step
            )
            codes[row] = interner.encode_values(values)


class RandomCorruption(FaultModel):
    """Overwrite each edge independently with probability ``fraction``.

    Replacement labels are drawn uniformly from the label space (a draw may
    repeat the current label; the *edge* is still counted as corrupted, which
    matches the paper's "arbitrary transient fault" reading).
    """

    def __init__(self, fraction: float = 0.5, seed: int = 0):
        if not 0.0 <= fraction <= 1.0:
            raise ValidationError("corruption fraction must lie in [0, 1]")
        self.fraction = fraction
        self.seed = seed

    def apply(self, values, topology, space, step):
        rng = _derive_rng(self.seed, step)
        fraction = self.fraction
        new_values = list(values)
        changed = False
        for position in range(len(values)):
            if rng.random() < fraction:
                new_values[position] = space.sample(rng)
                changed = True
        return tuple(new_values) if changed else values

    def fire_batch(self, codes, rows, topology, space, interner, step) -> None:
        # The draw sequence of apply() depends only on (seed, step), never on
        # the current labeling, so one replay serves every row.
        rng = _derive_rng(self.seed, step)
        fraction = self.fraction
        positions: list[int] = []
        labels: list = []
        for position in range(codes.shape[1]):
            if rng.random() < fraction:
                positions.append(position)
                labels.append(space.sample(rng))
        if not positions:
            return
        new_codes = [interner.encode(label) for label in labels]
        _scatter_rows(codes, rows, positions, new_codes)

    def __repr__(self) -> str:
        return f"RandomCorruption(fraction={self.fraction}, seed={self.seed})"


class TargetedCorruption(FaultModel):
    """Corrupt a chosen set of edges, leaving every other edge untouched.

    Without ``labels``, each listed edge gets an independent uniform label
    from the space; with ``labels`` (a mapping ``edge -> label``) the listed
    edges are overwritten deterministically — the shape an *adversarial*
    fault takes, e.g. re-planting an oscillation token.
    """

    def __init__(
        self,
        edges: Iterable[Edge],
        labels: Mapping[Edge, Label] | None = None,
        seed: int = 0,
    ):
        self.edges = tuple(edges)
        if not self.edges:
            raise ValidationError("a targeted corruption needs at least one edge")
        self.labels = dict(labels) if labels is not None else None
        if self.labels is not None:
            unknown = set(self.labels) - set(self.edges)
            if unknown:
                raise ValidationError(
                    f"labels given for edges outside the target set: {sorted(unknown)}"
                )
        self.seed = seed

    def apply(self, values, topology, space, step):
        rng = _derive_rng(self.seed, step)
        position = topology.edge_position
        new_values = list(values)
        for edge in self.edges:
            if self.labels is not None and edge in self.labels:
                label = self.labels[edge]
                if label not in space:
                    raise ValidationError(
                        f"fault label {label!r} for edge {edge!r} is not in {space!r}"
                    )
            else:
                label = space.sample(rng)
            new_values[position(edge)] = label
        return tuple(new_values)

    def fire_batch(self, codes, rows, topology, space, interner, step) -> None:
        # Same edit list for every row: explicit labels are fixed, random
        # replacements replay apply()'s (seed, step) draw sequence.
        rng = _derive_rng(self.seed, step)
        position = topology.edge_position
        positions: list[int] = []
        new_codes: list[int] = []
        for edge in self.edges:
            if self.labels is not None and edge in self.labels:
                label = self.labels[edge]
                if label not in space:
                    raise ValidationError(
                        f"fault label {label!r} for edge {edge!r} is not in {space!r}"
                    )
            else:
                label = space.sample(rng)
            positions.append(position(edge))
            new_codes.append(interner.encode(label))
        _scatter_rows(codes, rows, positions, new_codes)

    def __repr__(self) -> str:
        return (
            f"TargetedCorruption(edges={self.edges!r},"
            f" labels={self.labels!r}, seed={self.seed})"
        )


class StuckAtFault(FaultModel):
    """Pin a set of edges at one label (the classical stuck-at fault).

    A single application overwrites the edges once; combined with
    :class:`repro.faults.schedules.WindowFault` it holds the edges at the
    value for a whole time window, modeling a stuck channel rather than a
    one-shot glitch.
    """

    def __init__(self, edges: Iterable[Edge], label: Label):
        self.edges = tuple(edges)
        if not self.edges:
            raise ValidationError("a stuck-at fault needs at least one edge")
        self.label = label

    def apply(self, values, topology, space, step):
        if self.label not in space:
            raise ValidationError(
                f"stuck-at label {self.label!r} is not in {space!r}"
            )
        position = topology.edge_position
        new_values = list(values)
        changed = False
        for edge in self.edges:
            p = position(edge)
            if new_values[p] != self.label:
                new_values[p] = self.label
                changed = True
        return tuple(new_values) if changed else values

    def fire_batch(self, codes, rows, topology, space, interner, step) -> None:
        if self.label not in space:
            raise ValidationError(
                f"stuck-at label {self.label!r} is not in {space!r}"
            )
        position = topology.edge_position
        positions = [position(edge) for edge in self.edges]
        code = interner.encode(self.label)
        _scatter_rows(codes, rows, positions, code)

    def __repr__(self) -> str:
        return f"StuckAtFault(edges={self.edges!r}, label={self.label!r})"


class ComposedFault(FaultModel):
    """Apply several fault models in sequence at one fire time."""

    def __init__(self, models: Iterable[FaultModel]):
        self.models = tuple(models)
        if not self.models:
            raise ValidationError("a composed fault needs at least one model")

    def apply(self, values, topology, space, step):
        for model in self.models:
            values = model.apply(values, topology, space, step)
        return values

    def fire_batch(self, codes, rows, topology, space, interner, step) -> None:
        for model in self.models:
            model.fire_batch(codes, rows, topology, space, interner, step)

    def __repr__(self) -> str:
        return f"ComposedFault({list(self.models)!r})"
