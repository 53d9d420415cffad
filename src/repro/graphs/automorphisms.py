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
  need.  "Least" compares codes the group fixed when it was built: labels
  numbered in declared-space order, outputs after ``None`` in the order
  verification computed them, so the representative of a state depends
  on the state alone.  Every minimizer sends the countdown to its least
  image, so with numpy a call scans only that coset of elements, memoized
  per countdown, against packed integer keys of the labeling memoized per
  labeling, each key word one exact float64 matrix-vector product over
  the whole group; a block of states is answered at once, in ragged
  passes over the cosets.  Without numpy, a plain scan compares the
  vectors as tuples.

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

#: Closure cap: groups past this many elements are not materialized.
#: Building the group, its permutation matrices and each labeling's keys
#: (one product over every element) all grow with the order.  Covers
#: S_7 x 2.
DEFAULT_MAX_GROUP_ORDER = 10_080

#: Per-generator equivariance-verification budget: total incoming-label
#: combinations enumerated across all nodes.
DEFAULT_VERIFY_BUDGET = 1 << 16

#: Brute-force automorphism search is attempted up to this many nodes when
#: no family proposal matches.
BRUTE_FORCE_MAX_N = 7

#: Canonical-form key words hold at most this many bits: float64 represents
#: every integer below 2**53 exactly, so a key word and each partial sum of
#: the product that builds it are exact whatever order BLAS sums in.  A
#: fairness bound ``r`` wider than this canonicalizes by the plain scan.
KEY_WORD_BITS = 53

#: Canonicalizer key memo cap, in 8-byte floats (8 MiB): each labeling
#: keeps one key word per element, so K_6 keeps about 1,450 labelings.
KEY_MEMO_FLOATS = 1 << 20

#: A block of states (:meth:`StateCanonicalizer.canonical_block`) finds
#: the cosets of at most this many countdowns per product and scans the
#: states of at most this many labelings at a time, in ragged passes of at
#: most ``SCAN_ELEMENTS`` coset elements (and at least one state) each,
#: which bounds its temporaries.
BLOCK_COLUMNS = 16
SCAN_ELEMENTS = 1 << 12


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


def _not_an_automorphism(topology: Topology, perm: tuple[int, ...]):
    raise ValidationError(f"{perm!r} is not an automorphism of {topology.name}")


def _numbering(values: Iterable) -> dict:
    """Each distinct value's code, numbered in the order ``values`` lists
    them (equal values share the first one's code)."""
    codes: dict = {}
    for value in values:
        codes.setdefault(value, len(codes))
    return codes


def _permutation_matrices(topology: Topology, node_perms):
    """``(order, n)`` node and ``(order, m)`` induced edge permutations.

    Row ``g`` of the edge matrix is :func:`edge_permutation` of element
    ``g``, looked up for every element at once in a table of edge
    positions indexed by ``u * n + v``; a row naming a node outside
    ``0..n-1`` is refused like any other non-automorphism.
    """
    n = topology.n
    nodes = np.asarray(node_perms, dtype=np.intp).reshape(len(node_perms), n)
    heads = [u for u, _ in topology.edges]
    tails = [v for _, v in topology.edges]
    slots = np.full(n * n, -1, dtype=np.intp)
    slots[np.asarray(heads, dtype=np.intp) * n + tails] = np.arange(topology.m)
    inside = ((nodes >= 0) & (nodes < n)).all(axis=1)
    clipped = nodes.clip(0, n - 1)
    edges = slots[clipped[:, heads] * n + clipped[:, tails]]
    missing = np.flatnonzero(~inside | (edges < 0).any(axis=1))
    if missing.size:
        _not_an_automorphism(topology, node_perms[missing[0]])
    return nodes, edges


class SymmetryGroup:
    """A group of topology automorphisms acting on states.

    ``elements`` must be closed under composition and contain the identity
    first (what :func:`close_generators` produces).  Elements are addressed
    by index; :meth:`compose`, :meth:`inverse` and the ``apply_*`` helpers
    do the index algebra that witness lifting needs.

    The group also fixes the codes its canonicalizers compare states by.
    ``label_universe`` is the declared label space, its distinct labels in
    declared order, and ``label_codes`` numbers them in that order (the
    numbering :class:`repro.core.batch.SpaceInterner` seeds); explorations
    use it to refuse quotienting runs whose reactions emit labels the
    equivariance verification never covered.  ``output_codes`` numbers
    ``None`` (a node's output before it first reacts), then the distinct
    ``outputs`` in order: :func:`protocol_symmetry_group` passes every
    output its verification computed, in the order it computed them.  A
    group built directly lists the labels [and outputs] its canonicalizers
    will meet.

    With numpy, the node and edge permutations are also kept as ``(order,
    n)`` and ``(order, m)`` index matrices, built in one gather, which the
    canonicalizer reads, and each element's inverse is found by inverting
    every row at once.  The inverse tables reuse the permutations of the
    inverse elements, since the edge action is a homomorphism: with numpy,
    rows ``_inverses[g]`` of the matrices say where each position of ``g .
    state`` is read from, so a batch of states is moved by two gathers.
    """

    def __init__(
        self,
        topology: Topology,
        elements: Sequence[Sequence[int]],
        label_universe: Iterable = (),
        outputs: Iterable = (),
    ):
        n = topology.n
        node_perms = tuple(tuple(p) for p in elements)
        if not node_perms or node_perms[0] != identity_permutation(n):
            raise ValidationError(
                "a symmetry group lists the identity permutation first"
            )
        self.topology = topology
        self.node_perms = node_perms
        self.label_codes = _numbering(label_universe)
        self.label_universe = tuple(self.label_codes)
        self.output_codes = _numbering((None, *outputs))
        self._index = {p: g for g, p in enumerate(node_perms)}
        self._compose_cache: dict[tuple[int, int], int] = {}
        if np is not None:
            self._nodes, self._edges = _permutation_matrices(topology, node_perms)
            edge_perms = tuple(map(tuple, self._edges.tolist()))
            inverses = np.empty_like(self._nodes)
            np.put_along_axis(inverses, self._nodes, np.arange(n), axis=1)
            self._inverse_index = tuple(
                map(self._require, map(tuple, inverses.tolist()))
            )
            self._inverses = np.array(self._inverse_index, dtype=np.intp)
        else:  # pragma: no cover - numpy present in CI
            self._nodes = self._edges = None
            edge_perms = tuple(
                edge_permutation(topology, perm) for perm in node_perms
            )
            if None in edge_perms:
                _not_an_automorphism(topology, node_perms[edge_perms.index(None)])
            self._inverse_index = tuple(map(self._require, map(invert, node_perms)))
        self.edge_perms = edge_perms
        self.node_inverses = tuple(map(node_perms.__getitem__, self._inverse_index))
        self.edge_inverses = tuple(map(edge_perms.__getitem__, self._inverse_index))

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

    def canonicalizer(self, track_outputs: bool, r: int) -> "StateCanonicalizer":
        """A canonicalizer of states whose countdown values lie in ``1..r``."""
        return StateCanonicalizer(self, track_outputs, r)

    def __repr__(self) -> str:
        return (
            f"<SymmetryGroup order={self.order}"
            f" over {self.topology.name}>"
        )


class StateCanonicalizer:
    """Maps states to the lexicographically least element of their orbit.

    States are compared as integer vectors ``countdown + labeling codes
    [+ output codes]``, in the codes the group fixed when it was built
    (:class:`SymmetryGroup`): labels in declared-space order, outputs after
    ``None`` in the order verification computed them.  So arbitrary (even
    unorderable) label types get a total order, and no exploration's
    history moves it.

    :meth:`canonical` returns ``(g, ties)``: ``g`` is the **lowest-index**
    group element achieving the minimum (``canonical state = g . state``)
    and ``ties`` counts the elements that do — the stabilizer of the
    state, so ``group.order // ties`` is the orbit size.  Any minimizer
    yields the same canonical state, but witness lifting replays the
    elements to map quotient edges back onto concrete node sets, and an
    exploration stores none: it re-canonicalizes a raw successor when a
    witness needs its element.  Fixing the lowest index makes the element
    a pure function of the state, so a re-derived element is the one the
    exploration used, every lifted witness is the same on every route and
    in every run, and a quotient stores the same representatives from any
    order of its initial labelings.

    The countdown columns lead the vector, so every minimizer lies in the
    countdown's *coset*: the elements that send the countdown to its
    least image.  With numpy, each countdown's coset (ascending element
    indices) and each raw labeling's keys under every element (with its
    outputs, when tracked) are memoized, and a call takes the first
    minimum of the coset's keys, which is the lowest-index minimizer, and
    counts its ties.  Keys pack label [and output] columns, earliest
    column highest, into words of at most :data:`KEY_WORD_BITS` bits,
    compared in order; a group element maps each class's columns onto its
    own class, so each class packs at its own width, fixed when the
    canonicalizer is built: countdowns at the bit length of ``r``, labels
    and outputs at that of their largest code.  All elements' keys are one
    float64 product of a weight matrix, built once, with the codes, exact
    because every partial sum is an integer below ``2**53``; a coset is
    found the same way from the countdown.  A labeling seen once thus
    costs one product.  The key memo holds at most
    :data:`KEY_MEMO_FLOATS` 8-byte floats and starts over when full; the
    cosets of one countdown orbit hold one group order of indices
    together.  An ``r`` wider than a key word takes ``_canonical_py``, the
    numpy-free path and the reference, for every call.

    :meth:`canonical_block` answers many states at once, as
    :meth:`canonical` would one by one, from the same memos: the cosets of
    a block's new countdowns and the keys of its new labelings take one
    product per :data:`BLOCK_COLUMNS` of them, and each state's least key
    over its coset is taken in ragged passes.
    """

    def __init__(self, group: SymmetryGroup, track_outputs: bool, r: int):
        self.group = group
        self.track_outputs = track_outputs
        self._n = group.n
        self._m = len(group.edge_perms[0])
        self._order = group.order
        self._label_codes = group.label_codes
        self._output_codes = group.output_codes
        self._cosets: dict[tuple[int, ...], Any] = {}
        self._key_rows: dict[Any, int] = {}
        #: Code column ``j`` of a labeling [with outputs] lands in column
        #: ``images[g, j]`` of element ``g``'s permuted vector; ``None``
        #: (without numpy, or when ``r`` fits no key word) sends every call
        #: to ``_canonical_py``.
        self._images = None
        if group._edges is None or r.bit_length() > KEY_WORD_BITS:
            return
        self._images = group._edges
        widths = [_code_width(len(self._label_codes))] * self._m
        if track_outputs:
            self._images = np.concatenate(
                [group._edges, self._m + group._nodes], axis=1
            )
            widths += [_code_width(len(self._output_codes))] * self._n
        self._countdown_weights = _weights((r.bit_length(),) * self._n, group._nodes)
        self._code_weights = _weights(widths, self._images)
        length = len(self._code_weights)
        self._memo_rows = KEY_MEMO_FLOATS // length
        self._key_table = np.empty((0, length))

    def _encode(self, values, outputs, countdown) -> tuple[int, ...]:
        try:
            base = [*countdown, *map(self._label_codes.__getitem__, values)]
            if self.track_outputs:
                base.extend(map(self._output_codes.__getitem__, outputs))
        except KeyError as error:
            raise ValidationError(
                f"{error.args[0]!r} has no code in the symmetry group: its"
                " canonical forms compare the labels of the declared space"
                " and the outputs verification computed"
            ) from None
        return tuple(base)

    def encode_payloads(self, payloads):
        """The label [and output] codes of each ``(values, outputs)``
        payload (outputs ``None`` unless tracked), an int64 row each."""
        rows = [self._encode(values, outputs, ()) for values, outputs in payloads]
        width = self._m + self._n * self.track_outputs
        return np.array(rows, dtype=np.int64).reshape(len(rows), width)

    def canonical(self, values, outputs, countdown) -> tuple[int, int]:
        """The minimizing group element and the number of ties.

        ``values``, ``outputs`` (when tracked) and ``countdown`` are tuples:
        they key the memos.
        """
        if self._images is None:
            return self._canonical_py(self._encode(values, outputs, countdown))
        coset = self._cosets.get(countdown)
        if coset is None:
            coset = self._coset(countdown)
        labeling = (values, outputs) if self.track_outputs else values
        row = self._key_rows.get(labeling)
        if row is None:
            base = self._encode(values, outputs, countdown)
            return self._canonical_np(base, labeling)
        return _least(self._key_table[row], coset, self._order)

    def canonical_block(self, labelings, codes, countdowns, labeling_of, countdown_of):
        """:meth:`canonical` of many states at once, as two arrays ``(gids,
        ties)``.

        State ``a`` is labeling ``labelings[labeling_of[a]]`` at countdown
        ``countdowns[countdown_of[a]]``.  ``labelings`` holds distinct
        ``(values, outputs)`` pairs (outputs ``None`` unless tracked), row
        ``i`` of ``codes`` the codes of ``labelings[i]``
        (:meth:`encode_payloads`), and ``countdowns`` distinct countdown
        tuples.  Every result equals :meth:`canonical`'s.  The cosets of new
        countdowns take one product per :data:`BLOCK_COLUMNS` countdowns,
        each labeling's keys are computed once (the memo keeps them), and
        the states of each run of :data:`BLOCK_COLUMNS` labelings take their
        least keys over their cosets in ragged passes of at most
        :data:`SCAN_ELEMENTS` coset elements, a key word at a time.  Needs
        the key weights: explorations take no block at an ``r`` that fits
        no key word (they take no level pass from ``r**n >= 2**63`` on).
        """
        self._find_cosets([c for c in countdowns if c not in self._cosets])
        names = [pair if self.track_outputs else pair[0] for pair in labelings]
        cosets = [self._cosets[countdown] for countdown in countdowns]
        sizes = np.fromiter(map(len, cosets), dtype=np.int64, count=len(cosets))
        starts = np.cumsum(sizes) - sizes
        flat = np.concatenate(cosets)
        gids = np.empty(len(labeling_of), dtype=np.int64)
        ties = np.empty(len(labeling_of), dtype=np.int64)
        for lo in range(0, len(labelings), BLOCK_COLUMNS):
            table, rows = self._run_keys(
                names[lo : lo + BLOCK_COLUMNS], codes[lo : lo + BLOCK_COLUMNS]
            )
            chosen = np.flatnonzero(labeling_of // BLOCK_COLUMNS == lo // BLOCK_COLUMNS)
            ends = np.cumsum(sizes[countdown_of[chosen]])
            a = 0
            while a < len(chosen):
                limit = (ends[a - 1] if a else 0) + SCAN_ELEMENTS
                b = max(a + 1, int(np.searchsorted(ends, limit, "right")))
                part = chosen[a:b]
                cds = countdown_of[part]
                gids[part], ties[part] = self._scan(
                    table, rows[labeling_of[part] - lo], flat, starts[cds], sizes[cds]
                )
                a = b
            del table
        return gids, ties

    def _run_keys(self, names, codes):
        """A table of the keys of a run of labelings (word-major rows, as in
        the memo) and each labeling's row in it.  Labelings the memo lacks
        get their keys as :meth:`canonical` would (:meth:`_keys`, memoized),
        and the memo is the table; a run the memo cannot hold at once gets
        a table of its own."""
        memo = self._key_rows
        codes = list(map(tuple, codes.tolist()))
        for name, row in zip(names, codes, strict=True):
            if name not in memo:
                self._keys(row, name)
        rows = list(map(memo.get, names))
        if None in rows:
            table = np.stack([self._keys(row, None) for row in codes])
            return table, np.arange(len(names))
        return self._key_table, np.array(rows, dtype=np.int64)

    def _scan(self, table, rows, flat, starts, sizes):
        """The lowest-index minimizer and tie count of each state: the least
        of its labeling's keys (row ``rows[a]`` of ``table``) over its coset,
        the ``sizes[a]`` ascending elements from ``starts[a]`` in ``flat``,
        taken a key word at a time, in one ragged pass each."""
        order, width = self._order, table.shape[1]
        ends = np.cumsum(sizes)
        begins = ends - sizes
        # The temporaries are a few times the ragged length: each is freed
        # as soon as it is used.
        at = np.repeat(starts - begins, sizes)
        at += np.arange(len(at))
        elements = flat[at]
        base = rows * width
        at = np.repeat(base, sizes)
        at += elements  # the key of each element, in table
        del elements
        table = table.ravel()
        word = table[at]
        for shift in range(order, width, order):
            # Later words decide among the elements tied on every earlier one.
            tied = word == np.repeat(np.minimum.reduceat(word, begins), sizes)
            word = np.where(tied, table[at + shift], np.inf)
        word -= np.repeat(np.minimum.reduceat(word, begins), sizes)
        hits = np.flatnonzero(word == 0)
        del word
        first = np.searchsorted(hits, begins)
        return at[hits[first]] - base, np.searchsorted(hits, ends) - first

    def _canonical_np(self, base: tuple[int, ...], labeling=None) -> tuple[int, int]:
        """The coset scan of an encoded state.  Its keys are memoized under
        ``labeling``, the raw labeling [and outputs] of ``base``, if given."""
        n = self._n
        coset = self._coset(base[:n])
        if coset.size == 1:
            return int(coset[0]), 1
        return _least(self._keys(base[n:], labeling), coset, self._order)

    def _coset(self, countdown: tuple[int, ...]):
        """The ascending elements sending ``countdown`` to its least image,
        memoized."""
        coset = self._cosets.get(countdown)
        if coset is None:
            keys = self._countdown_weights @ np.asarray(countdown, dtype=np.float64)
            keys = keys.reshape(-1, self._order)
            coset = (keys[0] == keys[0].min()).nonzero()[0]
            coset = self._cosets[countdown] = _minima(keys[1:], coset)
        return coset

    def _find_cosets(self, countdowns: list[tuple[int, ...]]) -> None:
        """Memoize the cosets of ``countdowns``, as :meth:`_coset` does but
        with one product per :data:`BLOCK_COLUMNS` of them."""
        weights = self._countdown_weights.T
        for start in range(0, len(countdowns), BLOCK_COLUMNS):
            chunk = countdowns[start : start + BLOCK_COLUMNS]
            # Word-major rows: word w of element g is column w * order + g.
            words = (np.array(chunk, dtype=np.float64) @ weights).reshape(
                len(chunk), -1, self._order
            )
            tied = words[:, 0] == words[:, 0].min(axis=1, keepdims=True)
            for w in range(1, words.shape[1]):
                word = np.where(tied, words[:, w], np.inf)
                tied &= word == word.min(axis=1, keepdims=True)
            del words
            ends = np.cumsum(np.count_nonzero(tied, axis=1)).tolist()
            elements = (np.flatnonzero(tied) % self._order).astype(np.int32)
            cosets = map(elements.__getitem__, map(slice, [0, *ends], ends))
            self._cosets.update(zip(chunk, cosets, strict=True))

    def _keys(self, codes: tuple[int, ...], labeling):
        """Label [and output] codes' keys under every element, word-major,
        memoized under ``labeling`` unless it is ``None``."""
        codes = np.asarray(codes, dtype=np.float64)
        if labeling is None or not self._memo_rows:
            return self._code_weights @ codes
        rows, table = self._key_rows, self._key_table
        row = len(rows)
        if row == self._memo_rows:  # full: start over
            rows.clear()
            row = 0
        elif row == len(table):  # grow by doubling, up to the cap
            table = np.empty((min(max(2 * row, 16), self._memo_rows), table.shape[1]))
            table[:row] = self._key_table
            self._key_table = table
        rows[labeling] = row
        return np.matmul(self._code_weights, codes, out=table[row])

    def _canonical_py(self, base: tuple[int, ...]) -> tuple[int, int]:
        group = self.group
        n, m = self._n, self._m
        parts = [
            (base[:n], group.node_inverses),
            (base[n : n + m], group.edge_inverses),
        ]
        if self.track_outputs:
            parts.append((base[n + m :], group.node_inverses))
        best_vec = None
        best_g = 0
        ties = 0
        for g in range(group.order):
            vec = [tuple(map(part.__getitem__, sources[g])) for part, sources in parts]
            if best_vec is None or vec < best_vec:
                best_vec, best_g, ties = vec, g, 1
            elif vec == best_vec:
                ties += 1
        return best_g, ties


def _code_width(count: int) -> int:
    """The bit length of the largest of ``count`` codes, at least 1."""
    return max(count - 1, 1).bit_length()


def _weights(widths: Sequence[int], images):
    """Weights packing columns of ``widths`` bits into key words, earliest
    column highest, so that ``weights @ codes`` is every element's keys,
    word-major: ``images[g, j]`` is the column that code ``j`` lands in
    under element ``g``, and the result's entry ``w * order + g`` is word
    ``w`` of element ``g``.  Columns fill words greedily, in order; there
    is at least one word."""
    words, ends, sizes = [], [], [0]
    for width in widths:
        if sizes[-1] + width > KEY_WORD_BITS:
            sizes.append(0)
        sizes[-1] += width
        words.append(len(sizes) - 1)
        ends.append(sizes[-1])
    places = np.zeros((len(sizes), len(widths)))
    places[words, range(len(widths))] = np.exp2(
        np.subtract([sizes[w] for w in words], ends)
    )
    order, length = images.shape
    # Column-major: a product with few columns runs about twice as fast.
    return np.asfortranarray(places[:, images].reshape(len(sizes) * order, length))


def _minima(keys, tied):
    """The elements among the ascending ``tied`` whose key words (rows of
    ``keys``, compared in order) are least."""
    for word in keys:
        if tied.size == 1:
            break
        word = word.take(tied)
        tied = tied[word == word.min()]
    return tied


def _least(keys, coset, order: int) -> tuple[int, int]:
    """The lowest-index minimizer within the ascending ``coset``, given
    word-major ``keys``, and the number of elements tied with it."""
    if len(keys) == order:
        word = keys.take(coset)
        best = word.argmin()
        return int(coset[best]), int(np.count_nonzero(word == word[best]))
    tied = _minima(keys.reshape(-1, order), coset)
    return int(tied[0]), int(tied.size)


# -- protocol-level verification ---------------------------------------------


def _fixing_inputs(
    elements: tuple[tuple[int, ...], ...], inputs: Sequence[Any]
) -> tuple[tuple[int, ...], ...]:
    """The elements that fix the input vector (``inputs[p[i]] == inputs[i]``
    for every node ``i``), in order: ``elements`` itself when every one
    does, since all inputs are equal."""
    n = len(elements[0])
    same = [[inputs[a] == inputs[b] for b in range(n)] for a in range(n)]
    if all(map(all, same)):
        return elements
    if np is None:  # pragma: no cover - numpy present in CI
        return tuple(p for p in elements if all(same[p[i]][i] for i in range(n)))
    fixes = np.array(same, dtype=bool)[np.asarray(elements), np.arange(n)]
    return tuple(map(elements.__getitem__, np.flatnonzero(fixes.all(axis=1))))


def _generating_set(
    elements: Sequence[tuple[int, ...]],
    n: int,
    generators: Sequence[tuple[int, ...]] | None = None,
) -> tuple[list[tuple[int, ...]], tuple[tuple[int, ...], ...]]:
    """A small generating list for a closed element set (greedy), and the
    closure of that list, in :func:`close_generators` order.

    ``elements`` may be given as the closure of ``generators``; when the
    greedy list comes out equal to ``generators``, that closure is
    ``elements`` itself and is returned without closing it again.
    """
    closure = (identity_permutation(n),)
    generated = set(closure)
    greedy: list[tuple[int, ...]] = []
    for perm in elements:
        if perm in generated:
            continue
        greedy.append(perm)
        if generators is not None and greedy == list(generators):
            return greedy, tuple(elements)
        closure = close_generators(greedy, n, cap=len(elements) + 1)
        generated = set(closure)
    return greedy, closure


def _verify_generator(compiled, inputs, perm, eperm, space_values, outputs) -> bool:
    """Exhaustively check one automorphism's reaction equivariance.

    For every node ``i`` (image ``j = perm[i]``) and every combination of
    incoming labels over the declared space, node ``j`` applied to the
    permuted neighborhood must produce the permuted outgoing labels and
    the same output value.  Reactions are allowed to raise — but then both
    sides must raise.  Each output is entered in the dict ``outputs``, in
    the order computed, so a verified generator enters every output a node
    can produce from labels in the space; an output that cannot be entered
    (unhashable) fails the check.
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
            try:
                outputs[y_i] = None
            except TypeError:  # no hash, so no code
                return False
    return True


#: protocol -> {inputs: SymmetryGroup | None}.  Weak on the protocol so
#: cached groups die with it; repeated decide/delay calls over one protocol
#: verify equivariance once.
_SYMMETRY_CACHE: "WeakKeyDictionary[Any, dict]" = WeakKeyDictionary()


def protocol_symmetry_group(protocol, inputs: Sequence[Any]) -> SymmetryGroup | None:
    """The verified symmetry group of ``(protocol, inputs)``, or ``None``.

    Discovers topology automorphisms, keeps the subgroup fixing the input
    vector, and exhaustively verifies reaction equivariance for a
    generating set (verified automorphisms compose, so generators
    suffice).  The group is closed once: when every element fixes the
    inputs and the greedy generating set is the discovered generator
    list, the closure of the discovered generators serves for both, and
    when every generator verifies it is the group, in the same element
    order.  The group numbers labels in declared-space order and outputs
    in the order verification computed them (:class:`SymmetryGroup`).
    Returns ``None`` — callers fall back to the unquotiented search — when
    the protocol is stateful, the label space cannot be enumerated, a
    budget (:data:`DEFAULT_MAX_GROUP_ORDER`, :data:`DEFAULT_VERIFY_BUDGET`)
    is exceeded, no nontrivial automorphism survives verification, or a
    reaction returns an unhashable output, which no code can number.
    """
    inputs = tuple(inputs)
    try:
        per_protocol = _SYMMETRY_CACHE.setdefault(protocol, {})
        if inputs in per_protocol:
            return per_protocol[inputs]
    except TypeError:  # unhashable inputs: skip caching
        per_protocol = None

    group = _build_symmetry_group(protocol, inputs)
    if per_protocol is not None:
        per_protocol[inputs] = group
    return group


def _build_symmetry_group(protocol, inputs):
    from repro.core.compiled import compile_protocol

    if protocol.is_stateful:
        return None
    space = protocol.label_space
    try:
        size = space.size
    except Exception:
        return None
    if not isinstance(size, int) or size < 1 or size > DEFAULT_VERIFY_BUDGET:
        return None
    space_values = tuple(space)

    generators = automorphism_generators(protocol.topology)
    if not generators:
        return None
    try:
        elements = close_generators(generators, protocol.n)
    except ValidationError:
        return None
    invariant = _fixing_inputs(elements, inputs)
    if len(invariant) <= 1:
        return None
    candidates, closure = _generating_set(
        invariant, protocol.n, generators if invariant is elements else None
    )

    compiled = compile_protocol(protocol)
    combos = sum(
        size ** len(compiled.in_positions[i]) for i in range(protocol.n)
    )
    if combos > DEFAULT_VERIFY_BUDGET:
        return None

    verified = []
    outputs: dict = {}
    for perm in candidates:
        eperm = edge_permutation(protocol.topology, perm)
        if eperm is not None and _verify_generator(
            compiled, inputs, perm, eperm, space_values, outputs
        ):
            verified.append(perm)
    if not verified:
        return None
    if len(verified) == len(candidates):  # the closure above, same order
        final = closure
    else:
        final = close_generators(verified, protocol.n)
    if len(final) <= 1:
        return None
    return SymmetryGroup(protocol.topology, final, space_values, outputs)
