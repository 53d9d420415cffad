"""Topology automorphisms and verified protocol symmetry.

The paper's substrates are highly symmetric — cliques carry the full
symmetric group, rings a cyclic (or dihedral) group, tori a product of
shifts — and the Theorem 3.1 states-graph inherits every one of those
symmetries: if ``pi`` is an automorphism of the topology that fixes the
input vector and commutes with every reaction, then ``pi`` maps runs to
runs, stable labelings to stable labelings, and r-fair schedules to r-fair
schedules.  Exhaustive analyses may therefore explore one state per
*orbit* instead of one state per labeling, which is what
``ExplorationGraph(..., policy=ExecutionPolicy(symmetry=...))`` does.

This module provides the group machinery behind that quotient:

* **Automorphism discovery** — generator proposals for the standard
  families (cliques, rings, bidirectional rings, torus/grid substrates),
  each *checked* against the topology via :func:`edge_permutation`, with a
  brute-force backtracking search as the fallback for small irregular
  graphs.  Discovery is best-effort: any verified subgroup yields a sound
  (if smaller) quotient.
* **Protocol verification** — :func:`protocol_symmetry_group` keeps only
  the automorphisms that fix the input vector and provably commute with
  the reactions: for each candidate generator it enumerates every
  combination of incoming labels over the declared space and checks that
  node ``pi(i)`` reacts to the permuted neighborhood exactly as node ``i``
  does.  Verified generators compose, so only a generating set is checked.
  Anything unverifiable (stateful protocols, non-enumerable spaces, budget
  overruns) yields ``None`` and callers fall back to the unquotiented
  search.
* **Canonical forms** — :class:`SymmetryGroup.canonicalizer` builds a
  per-consumer :class:`StateCanonicalizer` that maps a ``(labeling,
  [outputs,] countdown)`` state to the lexicographically least element of
  its orbit, returning the lowest-index group element achieving it and the
  orbit size — the data witness lifting and reduction-factor accounting
  need.  With numpy, every element's permuted code vector is packed into
  integer keys of at most 53 bits, each key word one exact float64
  matrix-vector product over the whole group; without it, a plain scan
  compares the vectors as tuples.

Permutations are tuples ``p`` with ``p[i]`` the image of node ``i``;
``compose(p, q)`` is ``p after q``.  A group element acts on a state by
relabeling nodes: ``(g . c)[p[i]] = c[i]`` on countdowns/outputs and
``(g . l)[ep[e]] = l[e]`` on edge labelings, where ``ep`` is the induced
edge permutation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import product
from typing import Any
from weakref import WeakKeyDictionary

try:  # pragma: no cover - exercised via both paths in CI
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

from repro.exceptions import ValidationError
from repro.graphs.topology import Topology

#: Closure cap: groups past this many elements are not materialized (the
#: canonicalizer's per-state scan is linear in the order, so huge groups
#: stop paying for themselves anyway).  Covers S_7 x 2.
DEFAULT_MAX_GROUP_ORDER = 10_080

#: Per-generator equivariance-verification budget: total incoming-label
#: combinations enumerated across all nodes.
DEFAULT_VERIFY_BUDGET = 1 << 16

#: Brute-force automorphism search is attempted up to this many nodes when
#: no family proposal matches.
BRUTE_FORCE_MAX_N = 7

#: Canonical-form key words hold at most this many bits: float64 represents
#: every integer below 2**53 exactly, so a key word and each partial sum of
#: the product that builds it are exact whatever order BLAS sums in.
KEY_WORD_BITS = 53


# -- permutation primitives --------------------------------------------------


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """``p`` after ``q``: ``compose(p, q)[i] == p[q[i]]``."""
    return tuple(map(p.__getitem__, q))


def invert(p: Sequence[int]) -> tuple[int, ...]:
    inverse = [0] * len(p)
    for i, j in enumerate(p):
        inverse[j] = i
    return tuple(inverse)


def edge_permutation(
    topology: Topology, perm: Sequence[int]
) -> tuple[int, ...] | None:
    """The induced permutation of canonical edge positions, or ``None``.

    ``None`` means ``perm`` is *not* an automorphism: some edge's image is
    not an edge.  Injectivity is automatic (``perm`` is a bijection).
    """
    position = topology.edge_index.get
    positions = [position((perm[u], perm[v])) for u, v in topology.edges]
    if None in positions:
        return None
    return tuple(positions)


def close_generators(
    generators: Iterable[Sequence[int]],
    n: int,
    cap: int = DEFAULT_MAX_GROUP_ORDER,
) -> tuple[tuple[int, ...], ...]:
    """The group generated by ``generators``, identity first, BFS order.

    Deterministic: elements are discovered breadth-first in generator
    order, so equal inputs give equal element orderings (state canonical
    forms depend on it).  Raises :class:`ValidationError` past ``cap``.
    """
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(n)):
            raise ValidationError(f"{g!r} is not a permutation of 0..{n - 1}")
    ident = identity_permutation(n)
    elements = [ident]
    seen = {ident}
    frontier = 0
    while frontier < len(elements):
        base = elements[frontier]
        frontier += 1
        for g in gens:
            image = compose(g, base)
            if image not in seen:
                if len(elements) >= cap:
                    raise ValidationError(
                        f"symmetry group exceeds the order cap of {cap}"
                    )
                seen.add(image)
                elements.append(image)
    return tuple(elements)


# -- automorphism discovery --------------------------------------------------


def _rotation(n: int, shift: int) -> tuple[int, ...]:
    return tuple((i + shift) % n for i in range(n))


def _reflection(n: int) -> tuple[int, ...]:
    return tuple((n - i) % n for i in range(n))


def _transposition(n: int, a: int, b: int) -> tuple[int, ...]:
    perm = list(range(n))
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def _grid_proposals(n: int):
    """Torus/grid shift and transpose candidates for every factorization."""
    for rows in range(2, n):
        if n % rows:
            continue
        cols = n // rows
        yield tuple(
            ((i // cols + 1) % rows) * cols + i % cols for i in range(n)
        )
        yield tuple(
            (i // cols) * cols + (i % cols + 1) % cols for i in range(n)
        )
        if rows == cols:
            yield tuple((i % cols) * cols + i // cols for i in range(n))


def _all_automorphisms(topology: Topology) -> list[tuple[int, ...]]:
    """Backtracking search for every automorphism of a small topology."""
    n = topology.n
    in_deg = [topology.in_degree(i) for i in range(n)]
    out_deg = [topology.out_degree(i) for i in range(n)]
    found: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def extend(i: int) -> None:
        if i == n:
            perm = tuple(image)
            if edge_permutation(topology, perm) is not None:
                found.append(perm)
            return
        for j in range(n):
            if used[j] or in_deg[j] != in_deg[i] or out_deg[j] != out_deg[i]:
                continue
            ok = True
            for u in range(i):
                if topology.has_edge(u, i) != topology.has_edge(image[u], j):
                    ok = False
                    break
                if topology.has_edge(i, u) != topology.has_edge(j, image[u]):
                    ok = False
                    break
            if not ok:
                continue
            image[i] = j
            used[j] = True
            extend(i + 1)
            used[j] = False
        image[i] = -1

    extend(0)
    return found


def automorphism_generators(topology: Topology) -> tuple[tuple[int, ...], ...]:
    """A checked generator list for (a subgroup of) ``Aut(topology)``.

    Family proposals — symmetric-group generators for cliques, rotations
    and reflections for rings, shifts/transposes for torus factorizations,
    pairwise transpositions on small graphs — are filtered through
    :func:`edge_permutation`, so everything returned is a genuine
    automorphism.  When nothing matches and the graph is small, falls back
    to the exhaustive backtracking search.  Best-effort: a subgroup is
    always sound for quotienting, merely less effective.
    """
    n = topology.n
    if n < 2:
        return ()
    ident = identity_permutation(n)
    proposals: list[tuple[int, ...]] = []
    if topology.m == n * (n - 1):  # clique: propose S_n generators
        proposals.append(_transposition(n, 0, 1))
        proposals.append(_rotation(n, 1))
    else:
        proposals.append(_rotation(n, 1))
        proposals.append(_reflection(n))
        proposals.extend(_grid_proposals(n))
        if n <= 8:
            for a in range(n):
                for b in range(a + 1, n):
                    proposals.append(_transposition(n, a, b))
    verified: list[tuple[int, ...]] = []
    for perm in proposals:
        if perm == ident or perm in verified:
            continue
        if edge_permutation(topology, perm) is not None:
            verified.append(perm)
    if not verified and n <= BRUTE_FORCE_MAX_N:
        verified = [p for p in _all_automorphisms(topology) if p != ident]
    return tuple(verified)


# -- the group object --------------------------------------------------------


class SymmetryGroup:
    """A group of topology automorphisms acting on states.

    ``elements`` must be closed under composition and contain the identity
    first (what :func:`close_generators` produces).  Elements are addressed
    by index; :meth:`compose`, :meth:`inverse` and the ``apply_*`` helpers
    do the index algebra that witness lifting needs.

    ``label_universe``, when set, is the declared label space as a frozen
    set: consumers use it to refuse quotienting runs whose reactions emit
    labels the equivariance verification never covered.
    """

    def __init__(
        self,
        topology: Topology,
        elements: Sequence[Sequence[int]],
        label_universe: frozenset | None = None,
    ):
        n = topology.n
        node_perms = tuple(tuple(p) for p in elements)
        if not node_perms or node_perms[0] != identity_permutation(n):
            raise ValidationError(
                "a symmetry group lists the identity permutation first"
            )
        edge_perms = []
        for perm in node_perms:
            eperm = edge_permutation(topology, perm)
            if eperm is None:
                raise ValidationError(
                    f"{perm!r} is not an automorphism of {topology.name}"
                )
            edge_perms.append(eperm)
        self.topology = topology
        self.node_perms = node_perms
        self.edge_perms = tuple(edge_perms)
        self.node_inverses = tuple(invert(p) for p in node_perms)
        self.edge_inverses = tuple(invert(p) for p in edge_perms)
        self.label_universe = label_universe
        self._index = {p: g for g, p in enumerate(node_perms)}
        self._compose_cache: dict[tuple[int, int], int] = {}
        self._inverse_index = tuple(
            self._require(inv) for inv in self.node_inverses
        )

    def _require(self, perm: tuple[int, ...]) -> int:
        g = self._index.get(perm)
        if g is None:
            raise ValidationError(
                "symmetry group is not closed under composition"
            )
        return g

    @property
    def order(self) -> int:
        return len(self.node_perms)

    @property
    def n(self) -> int:
        return self.topology.n

    def compose(self, g: int, h: int) -> int:
        """Index of ``g`` after ``h``."""
        if g == 0:
            return h
        if h == 0:
            return g
        key = (g, h)
        cached = self._compose_cache.get(key)
        if cached is None:
            cached = self._require(
                compose(self.node_perms[g], self.node_perms[h])
            )
            self._compose_cache[key] = cached
        return cached

    def inverse(self, g: int) -> int:
        return self._inverse_index[g]

    def element_order(self, g: int) -> int:
        power, count = g, 1
        while power != 0:
            power = self.compose(g, power)
            count += 1
        return count

    def apply_nodes(self, g: int, nodes: Iterable[int]) -> frozenset[int]:
        return frozenset(map(self.node_perms[g].__getitem__, nodes))

    def apply_labeling(self, g: int, values: Sequence[Any]) -> tuple:
        """``(g . l)[e] = l[ep^-1[e]]`` over canonical edge positions."""
        return tuple(map(values.__getitem__, self.edge_inverses[g]))

    def apply_per_node(self, g: int, vector: Sequence[Any]) -> tuple:
        """Per-node vectors (countdowns, outputs): ``(g . c)[i] = c[p^-1[i]]``."""
        return tuple(map(vector.__getitem__, self.node_inverses[g]))

    def canonicalizer(self, track_outputs: bool) -> "StateCanonicalizer":
        return StateCanonicalizer(self, track_outputs)

    def __repr__(self) -> str:
        return (
            f"<SymmetryGroup order={self.order}"
            f" over {self.topology.name}>"
        )


class StateCanonicalizer:
    """Maps states to the lexicographically least element of their orbit.

    States are compared as integer vectors ``countdown + labeling codes
    [+ output codes]`` — label and output objects are assigned small,
    nonnegative codes on first sight, so arbitrary (even unorderable)
    label types get a consistent total order for the duration of one
    exploration.

    :meth:`canonical` returns ``(g, ties)``: ``g`` is the **lowest-index**
    group element achieving the minimum (``canonical state = g . state``)
    and ``ties`` counts the elements that do — the stabilizer of the
    state, so ``group.order // ties`` is the orbit size.  Any minimizer
    yields the same canonical state, but witness lifting replays the
    stored elements (``parent_gid``/``edge_gid`` of an exploration) to
    map quotient edges back onto concrete node sets; fixing the lowest
    index makes those elements, and hence every lifted witness, a pure
    function of the state on every route and in every run.

    With numpy, each group element's permuted vector is packed into key
    words, earliest column highest, at most :data:`KEY_WORD_BITS` bits
    per word, so vectors compare in the order of their word tuples.  A
    group element maps countdown columns to countdown columns, label
    columns to label columns and output columns to output columns, so
    each of those classes is packed at its own width: K_6 at r = 4 packs
    6 countdown columns at 3 bits and 30 label columns at 1 bit into one
    48-bit word.  Columns fill words greedily in order.  Word ``w`` of
    every element at once is the float64 product ``weights[w] @ base``,
    exact because every key is an integer below ``2**53``.  Word 0 is
    computed for the whole group and each later word only for the
    elements still tied.  Keys are compared only within one call, so any
    widths covering each class's largest code are valid: one weight set
    is kept and rebuilt only when a class's code outgrows its width.
    ``_canonical_py`` is the numpy-free reference.
    """

    def __init__(self, group: SymmetryGroup, track_outputs: bool):
        self.group = group
        self.track_outputs = track_outputs
        n = group.n
        m = len(group.edge_perms[0])
        self._n = n
        self._m = m
        self._label_codes: dict[Any, int] = {}
        self._output_codes: dict[Any, int] = {}
        # Column source maps: canonical_vec[c] = base_vec[cols[g][c]].
        rows = []
        for pinv, epinv in zip(group.node_inverses, group.edge_inverses, strict=True):
            row = [*pinv, *map(n.__add__, epinv)]
            if track_outputs:
                row.extend(map((n + m).__add__, pinv))
            rows.append(tuple(row))
        self._rows = tuple(rows)
        #: Column counts of the countdown, label [and output] classes.
        self._class_sizes = (n, m, n) if track_outputs else (n, m)
        if np is not None:
            self._matrix = np.asarray(rows, dtype=np.int64)
            self._widths = (0,) * len(self._class_sizes)
            self._weights = None
        else:  # pragma: no cover - numpy present in CI
            self._matrix = None

    def _build_weights(self, widths: tuple[int, ...]) -> None:
        """One ``(order, length)`` weight matrix per key word, ``widths``
        bits per column of each class: ``weights[w][g, matrix[g, c]]`` is
        the place value of column ``c`` when ``c`` falls in word ``w``."""
        matrix = self._matrix
        order, length = matrix.shape
        column_widths = [
            width
            for width, count in zip(widths, self._class_sizes, strict=True)
            for _ in range(count)
        ]
        words = []
        ends = []
        word_bits = [0]
        for width in column_widths:
            if word_bits[-1] + width > KEY_WORD_BITS:
                word_bits.append(0)
            word_bits[-1] += width
            words.append(len(word_bits) - 1)
            ends.append(word_bits[-1])
        shifts = [word_bits[w] - end for w, end in zip(words, ends, strict=True)]
        weights = np.zeros((len(word_bits), order, length))
        weights[np.asarray(words), np.arange(order)[:, None], matrix] = np.exp2(
            shifts
        )
        self._weights = tuple(weights)
        self._widths = widths

    def _encode(self, values, outputs, countdown) -> tuple[int, ...]:
        codes = list(map(self._label_codes.get, values))
        if None in codes:
            codes = self._assign(self._label_codes, values)
        base = [*countdown, *codes]
        if self.track_outputs:
            codes = list(map(self._output_codes.get, outputs))
            if None in codes:
                codes = self._assign(self._output_codes, outputs)
            base.extend(codes)
        return tuple(base)

    @staticmethod
    def _assign(table: dict, values) -> list[int]:
        """Codes of ``values``, numbering unseen ones in order of sight."""
        codes = []
        for value in values:
            code = table.get(value)
            if code is None:
                code = table[value] = len(table)
            codes.append(code)
        return codes

    def canonical(self, values, outputs, countdown) -> tuple[int, int]:
        """The minimizing group element and the number of ties."""
        base = self._encode(values, outputs, countdown)
        if self._matrix is not None:
            return self._canonical_np(base)
        return self._canonical_py(base)

    def _canonical_np(self, base: tuple[int, ...]) -> tuple[int, int]:
        n, m = self._n, self._m
        needed = [
            max(base[:n]).bit_length() or 1,
            max(base[n : n + m], default=0).bit_length() or 1,
        ]
        if self.track_outputs:
            needed.append(max(base[n + m :]).bit_length() or 1)
        widths = tuple(map(max, needed, self._widths))
        if widths != self._widths:
            if max(widths) > KEY_WORD_BITS:  # a code no key word can hold
                return self._canonical_py(base)
            self._build_weights(widths)
        arr = np.asarray(base, dtype=np.float64)
        words = self._weights
        keys = words[0] @ arr
        best = keys.argmin()
        if len(words) == 1:
            return int(best), int(np.count_nonzero(keys == keys[best]))
        tied = np.flatnonzero(keys == keys[best])
        for word in words[1:]:
            if tied.size == 1:
                break
            keys = word[tied] @ arr
            tied = tied[keys == keys.min()]
        return int(tied[0]), int(tied.size)

    def _canonical_py(self, base: tuple[int, ...]) -> tuple[int, int]:
        best_vec = None
        best_g = 0
        ties = 0
        for g, row in enumerate(self._rows):
            vec = tuple(base[c] for c in row)
            if best_vec is None or vec < best_vec:
                best_vec, best_g, ties = vec, g, 1
            elif vec == best_vec:
                ties += 1
        return best_g, ties


# -- protocol-level verification ---------------------------------------------


def symmetry_group_from_generators(
    topology: Topology,
    generators: Iterable[Sequence[int]],
    cap: int = DEFAULT_MAX_GROUP_ORDER,
) -> SymmetryGroup:
    """Close explicit generators into a :class:`SymmetryGroup`.

    The generators are checked to be topology automorphisms, but **not**
    verified against any protocol's reactions — passing the result to an
    exploration asserts reaction equivariance on the caller's authority.
    """
    return SymmetryGroup(topology, close_generators(generators, topology.n, cap))


def _input_invariant(perm: Sequence[int], inputs: Sequence[Any]) -> bool:
    return all(inputs[perm[i]] == inputs[i] for i in range(len(perm)))


def _generating_set(
    elements: Sequence[tuple[int, ...]], n: int
) -> list[tuple[int, ...]]:
    """A small generating list for a closed element set (greedy)."""
    ident = identity_permutation(n)
    generated = {ident}
    generators: list[tuple[int, ...]] = []
    for perm in elements:
        if perm in generated:
            continue
        generators.append(perm)
        generated = set(
            close_generators(generators, n, cap=len(elements) + 1)
        )
    return generators


def _verify_generator(compiled, inputs, perm, eperm, space_values) -> bool:
    """Exhaustively check one automorphism's reaction equivariance.

    For every node ``i`` (image ``j = perm[i]``) and every combination of
    incoming labels over the declared space, node ``j`` applied to the
    permuted neighborhood must produce the permuted outgoing labels and
    the same output value.  Reactions are allowed to raise — but then both
    sides must raise.
    """
    m = compiled.m
    for i, j in enumerate(perm):
        adapter_i = compiled.adapter(i)
        adapter_j = compiled.adapter(j)
        in_pos = compiled.in_positions[i]
        out_pos = compiled.out_positions[i]
        values_i: list[Any] = [None] * m
        values_j: list[Any] = [None] * m
        scratch_i: list[Any] = [None] * m
        scratch_j: list[Any] = [None] * m
        for combo in product(space_values, repeat=len(in_pos)):
            for position, value in zip(in_pos, combo, strict=True):
                values_i[position] = value
                values_j[eperm[position]] = value
            try:
                y_i = adapter_i(values_i, scratch_i, inputs[i])
            except Exception:
                try:
                    adapter_j(values_j, scratch_j, inputs[j])
                except Exception:
                    continue  # both sides reject this neighborhood
                return False
            try:
                y_j = adapter_j(values_j, scratch_j, inputs[j])
            except Exception:
                return False
            if y_i != y_j:
                return False
            for position in out_pos:
                if scratch_i[position] != scratch_j[eperm[position]]:
                    return False
    return True


#: protocol -> {(inputs, caps): SymmetryGroup | None}.  Weak on the protocol
#: so cached groups die with it; repeated decide/delay calls over one
#: protocol verify equivariance once.
_SYMMETRY_CACHE: "WeakKeyDictionary[Any, dict]" = WeakKeyDictionary()


def protocol_symmetry_group(
    protocol,
    inputs: Sequence[Any],
    max_order: int = DEFAULT_MAX_GROUP_ORDER,
    verify_budget: int = DEFAULT_VERIFY_BUDGET,
) -> SymmetryGroup | None:
    """The verified symmetry group of ``(protocol, inputs)``, or ``None``.

    Discovers topology automorphisms, keeps the subgroup fixing the input
    vector, and exhaustively verifies reaction equivariance for a
    generating set (verified automorphisms compose, so generators
    suffice).  Returns ``None`` — callers fall back to the unquotiented
    search — when the protocol is stateful, the label space cannot be
    enumerated, any budget is exceeded, or no nontrivial automorphism
    survives verification.
    """
    inputs = tuple(inputs)
    try:
        per_protocol = _SYMMETRY_CACHE.setdefault(protocol, {})
        cache_key = (inputs, max_order, verify_budget)
        if cache_key in per_protocol:
            return per_protocol[cache_key]
    except TypeError:  # unhashable inputs: skip caching
        per_protocol = None
        cache_key = None

    group = _build_symmetry_group(protocol, inputs, max_order, verify_budget)
    if per_protocol is not None:
        per_protocol[cache_key] = group
    return group


def _build_symmetry_group(protocol, inputs, max_order, verify_budget):
    from repro.core.compiled import compile_protocol

    if protocol.is_stateful:
        return None
    space = protocol.label_space
    try:
        size = space.size
    except Exception:
        return None
    if not isinstance(size, int) or size < 1 or size > verify_budget:
        return None
    space_values = tuple(space)

    generators = automorphism_generators(protocol.topology)
    if not generators:
        return None
    try:
        elements = close_generators(generators, protocol.n, cap=max_order)
    except ValidationError:
        return None
    invariant = [p for p in elements if _input_invariant(p, inputs)]
    if len(invariant) <= 1:
        return None
    candidates = _generating_set(invariant, protocol.n)

    compiled = compile_protocol(protocol)
    combos = sum(
        size ** len(compiled.in_positions[i]) for i in range(protocol.n)
    )
    if combos > verify_budget:
        return None

    verified = []
    for perm in candidates:
        eperm = edge_permutation(protocol.topology, perm)
        if eperm is not None and _verify_generator(
            compiled, inputs, perm, eperm, space_values
        ):
            verified.append(perm)
    if not verified:
        return None
    final = close_generators(verified, protocol.n, cap=max_order)
    if len(final) <= 1:
        return None
    return SymmetryGroup(
        protocol.topology, final, label_universe=frozenset(space_values)
    )
