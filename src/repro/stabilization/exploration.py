"""Unified exploration core for the Theorem 3.1 states-graph.

Every exact question this repository answers — r-stabilization verdicts
(Theorem 3.1 / 4.2), attractor regions, and the adversary layer's
worst-case-delay search — is a walk over the same directed graph ``G' =
(V', E')`` whose vertices are ``(labeling, [outputs,] countdown)`` states:
the labeling lives in ``Sigma^E``, the optional output component enriches
the graph for output-stabilization questions, and the countdown ``x in
[r]^n`` records how many more steps each node may stay inactive under an
r-fair schedule.  There is an edge for every *valid* activation set ``T``
(nonempty and containing every node whose countdown hit 1), leading to
``(delta(l, T), c(x, T))`` with

    c(x, T)_i = r        if i in T
    c(x, T)_i = x_i - 1  otherwise.

:class:`ExplorationGraph` materializes the reachable fragment of that graph
**once**, with the representation tuned for exhaustive search:

* **Interned components.**  Labeling value-tuples, output tuples, countdown
  vectors, and activation sets are each interned to small integer ids on
  first sight, so a state is a triple of ints.  The ids only name pool
  entries: no canonical form compares them.
* **Packed edge and parent arrays.**  Successor lists and BFS-tree parent
  links live in flat append-only ``array.array`` stores (a CSR edge store
  and one parent link per state) instead of one Python list-of-tuples per
  state; consumers scan them directly.
* **Activation sets per forced set.**  The valid activation sets of a
  countdown depend only on its forced set (the nodes whose countdown is
  1), so each graph enumerates them once per forced set, through the
  module-wide cache of :func:`valid_activation_sets` (second-chance
  eviction: when the cache hits its cap, only entries not referenced since
  the last sweep are evicted, so a greedy-adversary sweep feeding
  near-unique countdowns cannot dump an exhaustive search's working set).
* **A transition cache.**  The successor labeling (and outputs) of a state
  depend only on ``(labeling, [outputs,] T)`` — not on the countdown — so
  states that share a labeling reuse one evaluation per activation set.
* **One array pass per BFS level.**  An edge ``(l, x) ->T (delta(l, T),
  c(x, T))`` is the product of two independent actions of ``T``, one on
  labelings and one on countdowns, so with numpy each is tabulated and a
  level is expanded by array gathers (:class:`_LevelPass`): the level's
  new countdowns get their moves in one ``where(T, r, x - 1)``; the
  level's missing ``(payload, T)`` transitions are found in one pass,
  bucketed by ``T``, and each bucket of at least
  :data:`AUTO_BATCH_MIN_ROWS` rows is stepped as one ``(B, m)``
  packed-code kernel call through the batch backend
  (:meth:`repro.core.batch.BatchSimulator.step_codes`) when every node
  lifts to a lookup table (smaller buckets, buckets holding a labeling
  outside the label space, and other protocols step serially); then the
  level's edge block is resolved in chunks of at most
  :data:`LEVEL_CHUNK_EDGES` edges, its successor states looked up in an
  arrival index and new ones numbered in first-occurrence order (a
  quotient canonicalizes each chunk's first arrivals as one block).  A
  level of fewer than :data:`LEVEL_PASS_MIN_EDGES` edges costs more in
  array passes than they save, so :meth:`ExplorationGraph._expand` walks
  it one edge at a time; the level pass takes over from the first wider
  level on (and, without numpy, the per-edge walk expands every level).
  Both routes intern in the same order and raise a level's errors in edge
  order, so state indices, parent links, successor arrays, pools — and
  everything built on them, errors included — are byte-identical.
* **Symmetry quotient** (``symmetry="auto"``).  When a verified symmetry
  group is available (:func:`repro.graphs.automorphisms
  .protocol_symmetry_group`), every discovered state is canonicalized to
  the least element of its orbit before interning, so the graph holds one
  state per orbit: one raw successor at one raw countdown at a time on
  the per-edge walk, a chunk of them at once on the level pass
  (:meth:`~repro.graphs.automorphisms.StateCanonicalizer.canonical_block`
  answers for each what ``canonical`` would), with the same
  representatives either way.  "Least" compares the codes the group
  fixed when it was built (labels in declared-space order, outputs in the
  order verification computed them), which the level pass also encodes
  its rows with, so a representative is a function of its state alone
  and the graph stores the same set of states from any order of its
  initial labelings.  A concrete graph is the quotient by the
  trivial group, and both run one expansion loop.  The group element of
  an edge is not stored: :meth:`element` re-canonicalizes the edge's raw
  successor, a pure function of it, and :meth:`lift` /
  :meth:`lift_loop` replay concrete witnesses through the group action.
  Verdicts, delays, and attractor membership are invariant (the
  projection onto the quotient is a graph homomorphism and stability is
  orbit-invariant under verified symmetries), so consumers get unchanged
  answers from a graph that is smaller by up to the group order.
* **Changing transitions.**  Each transition miss records whether the raw
  successor differs from its source payload (labeling, and outputs when
  tracked), as one set of activation-set ids per payload
  (:meth:`changing_sets`): the model checker's changing-edge scan.
* **Parent links** for witness replay (:meth:`path_to` / :meth:`root_of`),
  and **pluggable payloads**: ``track_outputs=True`` enriches states with
  the per-node output vector for output-stabilization checking.

Exploration order is level-synchronous BFS with activation sets enumerated
in canonical order (forced set plus optional subsets by size,
lexicographic), which is exactly the order the pre-core implementations
used — so in the default ``symmetry="none"`` mode, state indices,
successor lists, parent links, and everything built on them (verdicts,
oscillation witnesses, attractor regions, worst-case delays) are
bit-identical to the historical results.  Each level interns its moves'
countdowns before its arrivals' canonical countdowns, so a quotient
numbers its countdowns in that order.

Consumers: :class:`repro.stabilization.states_graph.StatesGraph` (this
graph with outputs untracked), the model checker's
``decide_label_r_stabilizing`` / ``decide_output_r_stabilizing``
(iterative Tarjan + witness builder on top), and
``repro.faults.adversary.exhaustive_worst_case_delay`` /
``MinimaxAdversarySchedule`` (longest-path search on top).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
from itertools import chain, combinations, islice
from typing import Any

try:  # pragma: no cover - numpy is present in CI
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

from repro.core.compiled import CompiledProtocol, compile_protocol
from repro.core.configuration import Labeling
from repro.core.protocol import Protocol
from repro.exceptions import SearchBudgetExceeded, ValidationError
from repro.graphs.automorphisms import protocol_symmetry_group
from repro.policy import ExecutionPolicy, resolve_policy

DEFAULT_STATE_BUDGET = 400_000
#: An activation-set bucket of fewer rows steps serially (kernel dispatch
#: would dominate).
AUTO_BATCH_MIN_ROWS = 32
#: The level pass takes over from the first BFS level of at least this
#: many edges; narrower levels cost less one edge at a time.
LEVEL_PASS_MIN_EDGES = 432
#: The level pass resolves a level's edge block in chunks of at most this
#: many edges (and at least one state), which bounds its int64
#: temporaries; transition buckets and interning stay per level.
LEVEL_CHUNK_EDGES = 1 << 14

#: Module-wide activation-set cache, shared by every consumer (states-graph
#: construction, model checking, adversary search, greedy candidate
#: generation).  Keyed by ``(countdown, n)``; each value is a mutable
#: ``[sets, referenced]`` pair for the second-chance sweep below.
_ACTIVATION_SETS: dict[tuple[tuple[int, ...], int], list] = {}
_ACTIVATION_SETS_CAP = 1 << 16


def _evict_activation_sets(cap: int) -> None:
    """Second-chance partial eviction at the cap.

    Entries not referenced since the previous sweep are dropped first;
    survivors get their reference bit cleared (one more round of grace).
    Paper-sized exhaustive searches re-touch their few thousand countdowns
    constantly, so their working set survives even when a long
    greedy-adversary sweep floods the cache with near-unique countdowns —
    the failure mode of the previous wholesale ``clear()``.  The cache is
    still hard-bounded: if the unreferenced victims alone do not bring it
    under the cap, the oldest survivors go too.
    """
    victims = []
    survivors = []
    for key, entry in _ACTIVATION_SETS.items():
        if entry[1]:
            entry[1] = False
            survivors.append(key)
        else:
            victims.append(key)
    shortfall = len(_ACTIVATION_SETS) - len(victims) - (cap - 1)
    if shortfall > 0:
        victims.extend(survivors[:shortfall])
    for key in victims:
        del _ACTIVATION_SETS[key]


def _cached_activation_sets(
    countdown: tuple[int, ...], n: int
) -> tuple[frozenset[int], ...]:
    """All nonempty T containing every node whose countdown is 1 (cached)."""
    key = (countdown, n)
    entry = _ACTIVATION_SETS.get(key)
    if entry is not None:
        entry[1] = True
        return entry[0]
    forced = frozenset(i for i in range(n) if countdown[i] == 1)
    optional = [i for i in range(n) if i not in forced]
    sets = []
    for size in range(len(optional) + 1):
        for extra in combinations(optional, size):
            t = forced | frozenset(extra)
            if t:
                sets.append(t)
    cached = tuple(sets)
    if len(_ACTIVATION_SETS) >= _ACTIVATION_SETS_CAP:
        _evict_activation_sets(_ACTIVATION_SETS_CAP)
    _ACTIVATION_SETS[key] = [cached, True]
    return cached


def valid_activation_sets(countdown: Sequence[int], n: int) -> list[frozenset[int]]:
    """All nonempty T containing every node whose countdown is 1.

    Enumeration order is canonical: the forced set first, then forced-set
    unions with the optional nodes' subsets by size and lexicographic rank.
    Results are cached per distinct ``(countdown, n)`` and shared across
    all consumers; the returned list is a fresh copy, safe to mutate.
    """
    return list(_cached_activation_sets(tuple(countdown), n))


def _intern(ids: dict, pool: list, value) -> int:
    """The id of ``value`` in ``pool``, appending it on first sight."""
    vid = ids.get(value)
    if vid is None:
        vid = ids[value] = len(pool)
        pool.append(value)
    return vid


@dataclass(frozen=True)
class ExplorationStats:
    """Construction-time observability for one :class:`ExplorationGraph`.

    ``covered_states`` sums the orbit sizes of the stored states: equal to
    ``states`` without a quotient, and the number of concrete states the
    quotient stands for otherwise (exact when the initial labelings are
    closed under the group, e.g. broadcast or exhaustive initial sets).
    ``transition_cache_misses`` counts the distinct ``(payload, T)``
    transitions evaluated, ``batch_calls`` / ``batch_rows`` those of them
    stepped as packed-code kernel calls, and ``frontier_mode`` is
    ``"batch"`` once a kernel call has run (numpy is present, every node
    lifts to a table and an activation-set bucket of a level reached
    :data:`AUTO_BATCH_MIN_ROWS` rows), ``"serial"`` otherwise.  The
    activation counters count frontier states whose countdown's moves were
    built (a miss) or reused (a hit).  Both expansion routes report the
    same numbers, batch counters aside.
    """

    states: int
    edges: int
    initial_states: int
    labeling_pool: int
    output_pool: int
    countdown_pool: int
    activation_set_pool: int
    transition_cache_hits: int
    transition_cache_misses: int
    activation_cache_hits: int
    activation_cache_misses: int
    peak_frontier: int
    frontier_mode: str
    batch_calls: int
    batch_rows: int
    symmetry_order: int
    covered_states: int
    canonicalizations: int
    canonical_cache_hits: int

    @property
    def reduction_factor(self) -> float:
        """Concrete states represented per stored state (>= 1.0)."""
        return self.covered_states / self.states if self.states else 1.0

    def as_dict(self) -> dict:
        record = asdict(self)
        record["reduction_factor"] = self.reduction_factor
        return record


class ExplorationGraph:
    """The reachable fragment of the Theorem 3.1 states-graph, interned.

    States are ``(labeling, countdown)`` pairs, or ``(labeling, outputs,
    countdown)`` triples when ``track_outputs`` is set; components are
    interned to integer ids and states to integer indices (BFS discovery
    order).  The edges of state ``k`` are the range
    ``edge_offsets[k]:edge_offsets[k + 1]`` of :attr:`edge_dst` (successor
    index) and :attr:`edge_sid` (activation-set id, see
    :meth:`activation_set`); :attr:`parent_idx` / :attr:`parent_sid` hold
    the BFS-tree link used for witness replay (``-1`` for initial states).
    Consumers scan these packed arrays directly.

    With numpy, each BFS level of at least :data:`LEVEL_PASS_MIN_EDGES`
    edges, and every level after it, is expanded in a few array passes
    over its edge block (a quotient canonicalizes its first arrivals in
    blocks), and its uncached transitions are
    grouped by activation set and stepped as packed-code kernel calls when
    the protocol's reactions lift to lookup tables, for groups of at least
    :data:`AUTO_BATCH_MIN_ROWS` rows; everything else steps through the
    compiled protocol.  Narrower levels, and every level without numpy,
    are expanded one edge at a time.  Every route produces byte-identical
    graphs and raises the same error first (a reaction's, a quotient's
    label-space refusal, or the budget's); :meth:`stats` reports the
    kernel calls.

    ``symmetry`` opts into the automorphism quotient: ``"none"`` (default)
    explores concrete states; ``"auto"`` discovers and *verifies* the
    protocol's symmetry group and falls back to ``"none"`` when there is
    none.  Quotient graphs store one canonical state per orbit; witnesses
    are lifted back to concrete runs via the group elements
    :meth:`element` derives.

    ``symmetry`` is a field of :class:`repro.ExecutionPolicy`, passed as
    ``policy=``.  The policy is cosmetic here as everywhere: every quotient
    produces the same graph up to state order.

    ``budget`` bounds the number of states; exceeding it raises
    :class:`SearchBudgetExceeded` with ``name`` in the message so callers
    (states-graph, model checker) keep their historical error texts.
    """

    def __init__(
        self,
        protocol: Protocol,
        inputs: Sequence[Any],
        r: int,
        initial_labelings: Iterable[Labeling],
        budget: int = DEFAULT_STATE_BUDGET,
        track_outputs: bool = False,
        name: str = "exploration",
        policy: ExecutionPolicy | None = None,
    ):
        policy = resolve_policy(policy, api="ExplorationGraph")
        if r < 1:
            raise ValidationError("fairness parameter r must be >= 1")
        self.protocol = protocol
        self.inputs = tuple(inputs)
        self.r = r
        self.track_outputs = track_outputs
        self.topology = protocol.topology
        self._compiled = compile_protocol(protocol)
        n = protocol.n
        self.n = n

        group = (
            protocol_symmetry_group(protocol, self.inputs)
            if policy.symmetry == "auto"
            else None
        )
        self._group = group
        self._canonicalizer = (
            group.canonicalizer(track_outputs, r) if group is not None else None
        )

        self._engine = None
        self._engine_enabled = np is not None

        # Interning pools: id -> value, value -> id.
        none_outputs = (None,) * n
        self._none_outputs = none_outputs
        self._labels: list[tuple] = []
        self._label_ids: dict[tuple, int] = {}
        self._outs: list[tuple] = [none_outputs]
        self._out_ids: dict[tuple, int] = {none_outputs: 0}
        self._countdowns: list[tuple[int, ...]] = []
        self._countdown_ids: dict[tuple[int, ...], int] = {}
        self._sets: list[frozenset[int]] = []
        self._set_ids: dict[frozenset[int], int] = {}

        #: state index -> (labeling id, output id, countdown id).
        self.state_keys: list[tuple[int, int, int]] = []
        # Payload (labeling id, output id) -> its state table: countdown
        # id -> state index, plus the payload itself under ``None``.  The
        # roots and a quotient's canonical states are found here, and so
        # is every state on the per-edge route.
        self._index: dict[tuple[int, int], dict] = {}
        #: Packed edge store: edges of state k occupy the contiguous range
        #: ``edge_offsets[k]:edge_offsets[k+1]`` of edge_dst (successor
        #: index) and edge_sid (activation-set id).
        self.edge_offsets = array("q")
        self.edge_dst = array("q")
        self.edge_sid = array("i")
        #: Packed parent store: BFS-tree link of state k (or -1 for roots).
        self.parent_idx = array("q")
        self.parent_sid = array("i")
        self.edge_offsets.append(0)

        self.initial_indices: list[int] = []
        self._initial_labeling_at: dict[int, Labeling] = {}

        # Forced set -> its activation entry (see _activation).
        self._activations: dict[tuple[bool, ...], tuple] = {}
        self._stats_counters = {
            "transition_hits": 0,
            "transition_misses": 0,
            "activation_misses": 0,
            "peak_frontier": 0,
            "batch_calls": 0,
            "batch_rows": 0,
            "canonicalizations": 0,
        }
        self._covered = 0
        self._frontier_mode = "serial"
        # (labeling id, output id) -> ids of the activation sets whose raw
        # successor differs from the payload.
        self._changing: dict[tuple[int, int], set[int]] = {}
        # A quotient's (labeling id, output id, set id) -> raw successor.
        self._raw_successors: dict[tuple[int, int, int], tuple] = {}

        # The per-edge route's caches, which the level pass takes over
        # (they go when the graph is built).  Countdown id -> its moves (see
        # _moves); (labeling id, output id) -> {activation-set id ->
        # successor}, where a successor maps a countdown id to a state
        # index: a concrete graph stores the successor payload's state
        # table, a quotient the raw successor's canonical row.  Canonical
        # rows, one per raw successor payload (raw labeling, raw outputs
        # or None): raw countdown id -> canonical state index, plus the
        # raw payload under ``None``.
        self._moves_by_cid: dict[int, tuple] = {}
        self._transitions: dict[tuple[int, int], dict[int, dict]] = {}
        self._canon_rows: dict[tuple, dict] = {}

        # ``_add_state`` checks the budget (naming the consumer when it is
        # exceeded).
        self._budget = budget
        self._name = name
        self._explore(initial_labelings)

    # -- construction --------------------------------------------------------

    def _intern_countdown(self, countdown: tuple[int, ...]) -> int:
        return _intern(self._countdown_ids, self._countdowns, countdown)

    def _intern_label(self, values: tuple) -> int:
        return _intern(self._label_ids, self._labels, values)

    def _intern_out(self, outputs: tuple) -> int:
        return _intern(self._out_ids, self._outs, outputs)

    def _activation(self, countdown: tuple[int, ...]) -> tuple:
        """``(entry id, sets, set ids)`` of every countdown sharing
        ``countdown``'s forced set.

        The valid activation sets come from the module-wide enumeration
        (:func:`_cached_activation_sets`), in canonical order, and are
        interned here on first sight; the set ids are an ``array`` so a
        state's ``edge_sid`` block is one ``extend``.  Built once per
        forced set, shared by both routes.
        """
        forced = tuple(c == 1 for c in countdown)
        entry = self._activations.get(forced)
        if entry is None:
            sets = _cached_activation_sets(countdown, self.n)
            sids = array("i", [_intern(self._set_ids, self._sets, t) for t in sets])
            entry = (len(self._activations), sets, sids)
            self._activations[forced] = entry
        return entry

    def _moves(self, cid: int):
        """``(sets, set ids, successor countdown ids)`` for a countdown.

        Three parallel sequences over the countdown's valid activation
        sets (:meth:`_activation`); the countdown arithmetic is
        r-specific, so it lives here.  Built once per countdown (a miss of
        the activation counters); the per-edge route reads
        ``_moves_by_cid`` first.
        """
        self._stats_counters["activation_misses"] += 1
        countdown = self._countdowns[cid]
        r = self.r
        _entry, sets, sids = self._activation(countdown)
        decremented = [c - 1 for c in countdown]
        next_cids = []
        for t in sets:
            next_countdown = decremented.copy()
            for i in t:
                next_countdown[i] = r
            next_cids.append(self._intern_countdown(tuple(next_countdown)))
        moves = (sets, sids, tuple(next_cids))
        self._moves_by_cid[cid] = moves
        return moves

    def _states_at(self, lid: int, oid: int) -> dict:
        """The state table of payload ``(lid, oid)``, created on first sight."""
        table = self._index.get((lid, oid))
        if table is None:
            table = self._index[(lid, oid)] = {None: (lid, oid)}
        return table

    def _budget_exceeded(self) -> SearchBudgetExceeded:
        return SearchBudgetExceeded(
            f"{self._name} exceeded budget of {self._budget} states"
        )

    def _add_state(
        self, table: dict, cid: int, pred: int, sid: int, orbit: int = 1
    ) -> int:
        """Store a new state, reached from ``pred`` by set ``sid`` (``-1``
        for roots); it joins the next BFS level."""
        k = len(self.state_keys)
        if k >= self._budget:
            raise self._budget_exceeded()
        table[cid] = k
        self.state_keys.append((*table[None], cid))
        self.parent_idx.append(pred)
        self.parent_sid.append(sid)
        self._covered += orbit
        return k

    def _root_canonical(self, values: tuple) -> tuple[int, int]:
        """``canonical`` of an initial state: countdowns start uniform, so
        only the labeling (and the all-None outputs) matter."""
        return self._canonicalizer.canonical(
            values,
            self._none_outputs if self.track_outputs else None,
            (self.r,) * self.n,
        )

    def _check_universe(self, values: tuple) -> None:
        codes = self._group.label_codes
        for value in values:
            if value not in codes:
                raise ValidationError(
                    "symmetry quotient saw a label outside the declared"
                    f" label space ({value!r}); equivariance was only"
                    " verified over the declared space, so quotient"
                    " exploration refuses to continue"
                )

    def _explore(self, initial_labelings) -> None:
        group = self._group
        counters = self._stats_counters

        start_cid = self._intern_countdown((self.r,) * self.n)
        for labeling in initial_labelings:
            values, orbit = labeling.values, 1
            if group is not None:
                self._check_universe(values)
                gid, ties = self._root_canonical(values)
                values, orbit = group.apply_labeling(gid, values), group.order // ties
            table = self._states_at(self._intern_label(values), 0)
            if start_cid not in table:
                k = self._add_state(table, start_cid, -1, -1, orbit)
                self.initial_indices.append(k)
                self._initial_labeling_at[k] = labeling

        # The level pass keys countdowns by int64 codes below r**n.
        passes = np is not None and self.r**self.n < 1 << 63
        level = None
        # A BFS level is the index range of the states the previous one
        # added.
        lo, hi = 0, len(self.state_keys)
        while lo < hi:
            counters["peak_frontier"] = max(counters["peak_frontier"], hi - lo)
            if level is None:
                moves = self._level_moves(lo, hi)
                if passes and self._wide(moves):
                    level = _LevelPass(self, lo)
                else:
                    self._expand(lo, hi, moves)
            if level is not None:
                level.expand(lo, hi)
            lo, hi = hi, len(self.state_keys)
        # Only construction reads these.
        del self._index, self._activations
        del self._moves_by_cid, self._transitions, self._canon_rows

    @staticmethod
    def _wide(moves: list[tuple]) -> bool:
        """Whether a level whose states have ``moves`` holds at least
        :data:`LEVEL_PASS_MIN_EDGES` edges.

        Both routes build a level's moves first, so its edge count is known
        before it is expanded.  A narrower level costs less one edge at a
        time than in the level pass's array passes, whose cost is mostly
        fixed per level; the level pass takes over from the first wide
        level on.  Both graph kinds share the rule.
        """
        return sum(len(sids) for _sets, sids, _next in moves) >= LEVEL_PASS_MIN_EDGES

    def _step(self, lid: int, oid: int, t) -> tuple:
        """The raw successor payload ``(values, outputs)`` of payload
        ``(lid, oid)`` under activation set ``t``, stepped through the
        compiled protocol (outputs ``None`` unless tracked)."""
        values = self._labels[lid]
        if self.track_outputs:
            return self._compiled.step_values(values, self._outs[oid], t, self.inputs)
        return self._compiled.step_values(values, None, t, self.inputs)[0], None

    def _miss(self, lid: int, oid: int, tid: int, successor: tuple):
        """Book one transition miss: payload ``(lid, oid)`` under set
        ``tid`` reaches the raw successor payload ``successor``.

        Records ``tid`` in the payload's changing sets when the raw
        successor differs from the payload.  The test is on the raw
        successor because ``canon(u) == s`` does not imply ``u == s``.
        Returns the successor's key: on a concrete graph its interned
        ``(labeling id, output id)``, on a quotient the raw payload, once
        its labels are checked against the declared label space (and kept
        for :meth:`element`).
        """
        new_values, new_outputs = successor
        if new_values != self._labels[lid] or (
            self.track_outputs and new_outputs != self._outs[oid]
        ):
            self._changing.setdefault((lid, oid), set()).add(tid)
        if self._group is None:
            noid = self._intern_out(new_outputs) if self.track_outputs else 0
            return self._intern_label(new_values), noid
        self._check_universe(new_values)
        self._raw_successors[(lid, oid, tid)] = successor
        return successor

    def _successor_table(self, key: tuple[int, int]) -> dict:
        """A concrete graph's transition miss on the per-edge route: the
        successor payload's state table."""
        return self._states_at(*key)

    def _canonical_row(self, raw: tuple) -> dict:
        """A quotient's transition miss on the per-edge route: the raw
        successor's canonical row, shared by every transition that reaches
        the same raw payload."""
        row = self._canon_rows.get(raw)
        if row is None:
            row = self._canon_rows[raw] = {None: raw}
        return row

    def _arrive_row(self, row: dict, cid: int, pred: int, sid: int) -> int:
        """A quotient's first arrival on the per-edge route: the canonical
        state, cached in the raw successor's row."""
        j = row[cid] = self._arrive_canonical(row[None], cid, pred, sid)
        return j

    def _arrive_canonical(self, raw: tuple, cid: int, pred: int, sid: int) -> int:
        """A quotient's first arrival of raw successor payload ``raw`` at
        raw countdown ``cid``: canonicalize once, and find or add the
        canonical state."""
        self._stats_counters["canonicalizations"] += 1
        group = self._group
        values, outputs = raw
        countdown = self._countdowns[cid]
        gid, ties = self._canonicalizer.canonical(values, outputs, countdown)
        table = self._states_at(
            self._intern_label(group.apply_labeling(gid, values)),
            self._intern_out(group.apply_per_node(gid, outputs))
            if self.track_outputs
            else 0,
        )
        ccid = self._intern_countdown(group.apply_per_node(gid, countdown))
        j = table.get(ccid)
        if j is None:
            j = self._add_state(table, ccid, pred, sid, group.order // ties)
        return j

    def _level_moves(self, lo: int, hi: int) -> list[tuple]:
        """The moves of each state ``lo:hi``, built in state order for the
        countdowns that have none yet, as in the level pass, so both routes
        number countdowns alike."""
        moves_by_cid = self._moves_by_cid
        level = []
        for _lid, _oid, cid in self.state_keys[lo:hi]:
            moves = moves_by_cid.get(cid)
            level.append(self._moves(cid) if moves is None else moves)
        return level

    def _expand(self, lo: int, hi: int, level: list[tuple]) -> None:
        """Expand the level of states ``lo:hi``, whose moves are ``level``,
        one edge at a time: the route for narrow levels and without numpy,
        and the reference the level pass matches.

        Each edge looks its activation set up in the payload's transition
        row, then its successor countdown in the successor.  Only two steps
        differ by mode, and they are picked once per level: a transition
        miss (the successor payload's state table, or :meth:`_canonical_row`)
        and a first arrival (:meth:`_add_state` or :meth:`_arrive_row`).
        """
        if self._group is None:
            successor_of, arrive = self._successor_table, self._add_state
        else:
            successor_of, arrive = self._canonical_row, self._arrive_row
        step = self._step
        miss = self._miss
        state_keys = self.state_keys
        transitions = self._transitions
        edge_offsets = self.edge_offsets
        edge_dst = self.edge_dst
        edge_sid = self.edge_sid
        lookups = misses = 0
        for k, (sets, sids, next_cids) in zip(range(lo, hi), level, strict=True):
            lid, oid, _cid = state_keys[k]
            row = transitions.get((lid, oid))
            if row is None:
                row = transitions[(lid, oid)] = {}
            successors = []
            # Three parallel sequences from ``_moves``; ``strict=`` would
            # cost a keyword parse per state on this path.
            for t, tid, next_cid in zip(sets, sids, next_cids):  # noqa: B905
                successor = row.get(tid)
                if successor is None:
                    misses += 1
                    successor = row[tid] = successor_of(
                        miss(lid, oid, tid, step(lid, oid, t))
                    )
                j = successor.get(next_cid)
                if j is None:
                    j = arrive(successor, next_cid, k, tid)
                successors.append(j)
            edge_dst.extend(successors)
            edge_sid.extend(sids)
            edge_offsets.append(len(edge_dst))
            lookups += len(sids)
        counters = self._stats_counters
        counters["transition_hits"] += lookups - misses
        counters["transition_misses"] += misses

    # -- frontier batching ---------------------------------------------------

    def _ensure_engine(self):
        """The lazily built batch engine, or ``None`` when batching is off."""
        if not self._engine_enabled:
            return None
        if self._engine is None:
            from repro.core.batch import BatchSimulator

            try:
                engine = BatchSimulator(self.protocol, [self.inputs])
            except ValidationError:
                self._engine_enabled = False
                return None
            if not engine.vectorized:
                # Some node does not lift to a table: no kernel can step it.
                self._engine_enabled = False
                return None
            self._engine = engine
        return self._engine

    def _step_bucket(self, t: frozenset[int], payloads: list[tuple[int, int]]):
        """Step every ``(labeling id, output id)`` payload under activation
        set ``t`` as one ``step_codes`` kernel call.

        Returns the raw successor payloads, in order, or ``None`` when no
        kernel can step them: the engine is unavailable (built for the
        first bucket that reaches the floor), or a labeling lies outside
        the declared label space.
        """
        engine = self._ensure_engine()
        if engine is None:
            return None
        from repro.core.batch import OutOfSpace

        n = self.n
        interner = engine.batch_compiled.interner
        y_interners = engine.batch_compiled.y_interners
        label_rows = [self._labels[lid] for lid, _oid in payloads]
        codes = interner.bulk_encode(label_rows)
        if codes is None:
            try:
                codes = np.asarray(
                    [interner.encode_values(row) for row in label_rows],
                    dtype=np.int64,
                )
            except OutOfSpace:
                return None
        track_outputs = self.track_outputs
        if track_outputs:
            ocodes = np.asarray(
                [
                    [
                        y_interners[i].encode(value)
                        for i, value in enumerate(self._outs[oid])
                    ]
                    for _lid, oid in payloads
                ],
                dtype=np.int64,
            )
        else:
            ocodes = np.zeros((len(payloads), n), dtype=np.int64)
        new_codes, new_ocodes = engine.step_codes(codes, ocodes, t)
        self._frontier_mode = "batch"
        counters = self._stats_counters
        counters["batch_calls"] += 1
        counters["batch_rows"] += len(payloads)
        successors = []
        for row in range(len(payloads)):
            new_outputs = None
            if track_outputs:
                new_outputs = tuple(
                    y_interners[i].decode(int(new_ocodes[row, i])) for i in range(n)
                )
            successors.append((interner.decode_values(new_codes[row]), new_outputs))
        return successors

    # -- component access ----------------------------------------------------

    @property
    def compiled(self) -> CompiledProtocol:
        """The shared compiled form of the protocol."""
        return self._compiled

    @property
    def quotient(self) -> bool:
        """Whether states are canonical orbit representatives."""
        return self._group is not None

    def __len__(self) -> int:
        return len(self.state_keys)

    @property
    def num_edges(self) -> int:
        return len(self.edge_dst)

    @property
    def num_labelings(self) -> int:
        """Distinct labelings seen (the interning pool size)."""
        return len(self._labels)

    @property
    def num_countdowns(self) -> int:
        """Distinct countdown vectors seen."""
        return len(self._countdowns)

    def labeling_of(self, k: int) -> tuple:
        """The interned labeling value-tuple of state ``k``."""
        return self._labels[self.state_keys[k][0]]

    def outputs_of(self, k: int) -> tuple:
        """The interned output tuple of state ``k`` (all-``None`` unless
        the graph tracks outputs)."""
        return self._outs[self.state_keys[k][1]]

    def countdown_of(self, k: int) -> tuple[int, ...]:
        """The interned countdown vector of state ``k``."""
        return self._countdowns[self.state_keys[k][2]]

    def label_id_of(self, k: int) -> int:
        """The interned labeling id of state ``k`` (cheap equality proxy)."""
        return self.state_keys[k][0]

    def output_id_of(self, k: int) -> int:
        """The interned output id of state ``k`` (cheap equality proxy)."""
        return self.state_keys[k][1]

    def labeling_id(self, values: tuple) -> int | None:
        """The id of a labeling value-tuple, or ``None`` if never reached."""
        return self._label_ids.get(values)

    def initial_labeling(self, k: int) -> Labeling:
        """The :class:`Labeling` object a root state was initialized from."""
        return self._initial_labeling_at[k]

    def activation_set(self, sid: int) -> frozenset[int]:
        """The interned activation set behind ``edge_sid``/``parent_sid``."""
        return self._sets[sid]

    def stats(self) -> ExplorationStats:
        """Construction statistics (pool sizes, cache hit rates, batching)."""
        counters = self._stats_counters
        lookups = counters["transition_hits"] + counters["transition_misses"]
        return ExplorationStats(
            states=len(self.state_keys),
            edges=len(self.edge_dst),
            initial_states=len(self.initial_indices),
            labeling_pool=len(self._labels),
            output_pool=len(self._outs),
            countdown_pool=len(self._countdowns),
            activation_set_pool=len(self._sets),
            transition_cache_hits=counters["transition_hits"],
            transition_cache_misses=counters["transition_misses"],
            # Every state is expanded once, and its countdown's moves are
            # built then (a miss) or were built before (a hit).
            activation_cache_hits=len(self.state_keys) - counters["activation_misses"],
            activation_cache_misses=counters["activation_misses"],
            peak_frontier=counters["peak_frontier"],
            frontier_mode=self._frontier_mode,
            batch_calls=counters["batch_calls"],
            batch_rows=counters["batch_rows"],
            symmetry_order=self._group.order if self._group else 1,
            covered_states=self._covered,
            canonicalizations=counters["canonicalizations"],
            canonical_cache_hits=(
                lookups - counters["canonicalizations"] if self._group else 0
            ),
        )

    # -- witness replay ------------------------------------------------------

    def changing_sets(self, k: int) -> frozenset[int] | set[int]:
        """Ids of the activation sets under which state ``k``'s raw
        successor differs from its payload (the labeling, and the outputs
        when tracked).  Shared by every state of the payload: read only."""
        lid, oid, _cid = self.state_keys[k]
        return self._changing.get((lid, oid), frozenset())

    def element(self, k: int, sid: int) -> int:
        """The group element of edge ``(k, sid)``, mapping its raw
        successor to the canonical target; 0 on concrete graphs.

        The raw successor is re-canonicalized at the raw countdown
        ``c(x, T)``.  ``canonical`` is a pure function of the state, so
        this is the element the exploration used.
        """
        if self._group is None:
            return 0
        lid, oid, cid = self.state_keys[k]
        values, outputs = self._raw_successors[(lid, oid, sid)]
        t = self._sets[sid]
        r = self.r
        countdown = tuple(
            r if i in t else c - 1 for i, c in enumerate(self._countdowns[cid])
        )
        return self._canonicalizer.canonical(values, outputs, countdown)[0]

    def root_element(self, k: int) -> int:
        """The group element mapping root ``k``'s initial labeling to the
        root; 0 on concrete graphs."""
        if self._group is None:
            return 0
        return self._root_canonical(self._initial_labeling_at[k].values)[0]

    def _parent_chain(self, k: int) -> tuple[int, list[tuple[int, int]]]:
        """The root of ``k`` and the BFS-tree steps root -> k, as
        ``(state, set id)`` edges."""
        steps: list[tuple[int, int]] = []
        current = k
        while True:
            pred = self.parent_idx[current]
            if pred < 0:
                break
            steps.append((pred, self.parent_sid[current]))
            current = pred
        steps.reverse()
        return current, steps

    def lift(
        self, steps: Iterable[tuple[int, int]], h: int
    ) -> tuple[list[frozenset[int]], int]:
        """Concrete actions for ``(state, set id)`` edges entered with
        accumulator ``h``.

        The exploration maintains the invariant ``concrete state = h^-1 .
        canonical state``; an edge with activation set ``T`` and element
        ``g`` concretely activates ``h^-1(T)`` and advances the accumulator
        to ``g . h``.  Concrete graphs return the edge sets unchanged (the
        accumulator stays 0).
        """
        group = self._group
        sets = self._sets
        if group is None:
            return [sets[sid] for (_k, sid) in steps], 0
        actions = []
        for k, sid in steps:
            actions.append(group.apply_nodes(group.inverse(h), sets[sid]))
            h = group.compose(self.element(k, sid), h)
        return actions, h

    def lift_loop(
        self, steps: Sequence[tuple[int, int]], h: int
    ) -> list[frozenset[int]]:
        """Concrete actions closing a concrete cycle for a quotient cycle.

        A canonical-graph cycle returns to the same canonical state, but
        concretely it lands on ``(c . h)^-1 . s`` where ``c`` is the
        product of the cycle's group elements — a (possibly) different
        orbit member.  Unrolling the cycle ``ord(c)`` times makes the
        concrete walk close exactly, which is what lets lasso witnesses
        replay on the engine.
        """
        group = self._group
        repeats = 1
        if group is not None:
            c = 0
            for k, sid in steps:
                c = group.compose(self.element(k, sid), c)
            repeats = group.element_order(c)
        return self.lift(list(steps) * repeats, h)[0]

    def accumulated_element(self, k: int) -> int:
        """The group accumulator ``h`` of state ``k`` along its BFS tree
        path (``concrete state = h^-1 . canonical state``); 0 when
        unquotiented."""
        root, steps = self._parent_chain(k)
        return self.lift(steps, self.root_element(root))[1]

    def path_to(self, k: int) -> list[frozenset[int]]:
        """Activation sets leading from this state's root to state ``k``.

        On quotient graphs the actions are already lifted: replaying them
        on the engine from the root's *concrete* initial labeling visits
        the concrete counterparts of the tree path.
        """
        root, steps = self._parent_chain(k)
        return self.lift(steps, self.root_element(root))[0]

    def root_of(self, k: int) -> int:
        return self._parent_chain(k)[0]

    # -- attractor regions ---------------------------------------------------

    def attractor_region(self, target_labelings: Iterable[tuple]) -> set[int]:
        """States from which *every* path reaches one of the target labelings.

        ``target_labelings`` is an iterable of labeling value-tuples (as
        produced by :meth:`labeling_of` or ``Labeling.values``).

        This is the "attractor region" of the Theorem 3.1 proof, computed as
        the standard inevitability (AF) fixpoint: start from states already at
        a target and repeatedly add states all of whose successors are in the
        region.  Passing the set of *all* stable labelings characterizes label
        r-stabilization: the protocol stabilizes iff every initialization
        vertex lies in that attractor region.

        On quotient graphs the targets are closed under the symmetry group
        first (a state matches when its labeling is any orbit member of a
        target), so concrete targets keep working.
        """
        target_ids = set()
        for values in target_labelings:
            values = tuple(values)
            if self._group is not None:
                for g in range(self._group.order):
                    lid = self._label_ids.get(
                        self._group.apply_labeling(g, values)
                    )
                    if lid is not None:
                        target_ids.add(lid)
            else:
                lid = self._label_ids.get(values)
                if lid is not None:
                    target_ids.add(lid)
        total = len(self.state_keys)
        offsets = self.edge_offsets
        dst = self.edge_dst
        in_region = [False] * total
        remaining = [offsets[k + 1] - offsets[k] for k in range(total)]
        predecessors: list[list[int]] = [[] for _ in range(total)]
        for k in range(total):
            for e in range(offsets[k], offsets[k + 1]):
                predecessors[dst[e]].append(k)
        work: list[int] = []
        for k in range(total):
            if self.state_keys[k][0] in target_ids:
                in_region[k] = True
                work.append(k)
        cursor = 0
        while cursor < len(work):
            j = work[cursor]
            cursor += 1
            for k in predecessors[j]:
                if in_region[k]:
                    continue
                remaining[k] -= 1
                if remaining[k] == 0:
                    in_region[k] = True
                    work.append(k)
        return {k for k in range(total) if in_region[k]}


#: The sorted arrival keys end with this sentinel, above every real key.
_NO_KEY = (1 << 63) - 1


def _firsts(keys):
    """The index of each distinct key's first occurrence in ``keys``, in
    order of occurrence, and each entry's rank among them."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.reshape(-1)]


def _row_keys(matrix, top: int):
    """One integer key per row of ``matrix``, whose entries are below
    ``top``: equal keys for equal rows only."""
    bits = max(top - 1, 1).bit_length()
    if bits * matrix.shape[1] <= 63:
        return matrix @ (1 << bits * np.arange(matrix.shape[1], dtype=np.int64))
    return np.unique(matrix, axis=0, return_inverse=True)[1].reshape(-1)


def _extend(store: array, values) -> None:
    """Append an integer ndarray to an ``array`` store, without a copy when
    the dtypes agree."""
    values = np.ascontiguousarray(values, dtype=store.typecode)
    store.frombytes(memoryview(values).cast("B"))


class _ArrivalIndex:
    """``(row, countdown id) -> state index``: where the level pass looks
    up its edges' successor states.

    Each level lays the entries out again, since both pools may have
    grown: a dense ``rows x countdowns`` table while it has no more cells
    than the graph has edges (a lookup is one gather), else sorted keys
    ``row * countdowns + countdown id`` ending in a sentinel (a lookup is a
    binary search), so the index never outgrows the edge store.  The table
    serves every level of Example 1's K_5 and K_6 at r = 4; with the keys
    alone those builds took 1.45x and 1.68x as long (median per-pair
    ratios).  The keys serve sparse levels, such as a quotient's early
    ones, whose raw successors are many and each meets few countdowns.  A
    key stays below rows x countdowns, and so far below 2^63 for any pools
    that fit in memory.
    """

    def __init__(self, rows, cids, states, width: int):
        self.width = width
        self._table = None
        self._sort(self.key(rows, cids), states)

    def _sort(self, keys, states) -> None:
        order = np.argsort(keys)
        self._keys = np.append(keys[order], _NO_KEY)
        self._states = np.append(states[order], -1)

    def layout(self, rows: int, width: int, edges: int) -> None:
        """Lay the entries out for ``rows`` rows and ``width`` countdowns,
        in a graph of ``edges`` edges."""
        if self._table is not None:
            keys = np.flatnonzero(self._table >= 0)
            states = self._table[keys]
        else:
            keys, states = self._keys[:-1], self._states[:-1]
        entry_rows, cids = np.divmod(keys, self.width)
        self.width = width
        keys = self.key(entry_rows, cids)
        self._table = self._keys = self._states = None
        if rows * width <= edges:
            self._table = np.full(rows * width, -1, dtype=np.int64)
            self._table[keys] = states
        else:
            self._sort(keys, states)

    def key(self, rows, cids):
        return rows * self.width + cids

    def find(self, rows, cids):
        """The state of each ``(row, countdown id)``, ``-1`` when absent."""
        keys = self.key(rows, cids)
        if self._table is not None:
            return self._table[keys]
        at = np.searchsorted(self._keys, keys)
        states = self._states[at]
        states[self._keys[at] != keys] = -1
        return states

    def add(self, rows, cids, states) -> None:
        """Enter absent ``(row, countdown id)`` pairs."""
        keys = self.key(rows, cids)
        if self._table is not None:
            self._table[keys] = states
            return
        order = np.argsort(keys)
        at = np.searchsorted(self._keys, keys[order])
        self._keys = np.insert(self._keys, at, keys[order])
        self._states = np.insert(self._states, at, states[order])


class _LevelPass:
    """Expands an :class:`ExplorationGraph`'s BFS levels in array passes.

    It lives while the graph is built, from the first level
    :meth:`ExplorationGraph._wide` admits on, and interns into the graph's
    pools in the order :meth:`ExplorationGraph._expand` does, so the
    stores come out byte-identical.  Its ids: a *payload* numbers a
    state's ``(labeling id, output id)`` and indexes the transition table;
    a *row* is a successor payload, the payload itself on a concrete graph
    and a raw successor payload on a quotient.  Per countdown id, the flat
    move store holds the range of its moves (set ids and successor
    countdown ids, in canonical activation-set order) and its forced-set
    entry, and ``values`` its countdown.  ``pids`` / ``cids`` hold the
    payload and countdown id of each state of the level about to be
    expanded.  On a quotient, ``codes`` holds each row's label [and
    output] codes in the group's numbering, which a block of first
    arrivals is canonicalized by and moved onto its representatives with,
    by gathers (:meth:`_canonical_states`).
    """

    def __init__(self, graph: ExplorationGraph, lo: int):
        """Take over from the per-edge loop, which expanded the states
        before ``lo``: its moves, transitions and arrivals."""
        self.graph = graph
        self.quotient = graph._group is not None
        self.payloads: list[tuple[int, int]] = []
        self.payload_ids: dict[tuple[int, int], int] = {}
        if self.quotient:
            self.rows: list = []
            self.row_ids: dict = {}
        else:
            self.rows, self.row_ids = self.payloads, self.payload_ids
        # Forced-set entry id -> its activation sets' membership mask.
        self.masks: dict[int, np.ndarray] = {}
        #: A failed transition's row is ``-2 - i`` for the ``i``-th error.
        self.errors: list[Exception] = []
        # A row of countdown values is keyed by sum((x_i - 1) r^i), below
        # r^n and so below 2^63 (see _explore).
        self.weights = graph.r ** np.arange(graph.n, dtype=np.int64)

        pool = graph._countdowns
        #: Countdown id -> its values, a row each.
        self.values = np.array(pool, dtype=np.int64).reshape(len(pool), graph.n)
        if self.quotient:
            # Each row's label [and output] codes, in the group's numbering,
            # for canonicalizing a block and moving its arrivals by gathers.
            width = graph.topology.m + graph.n * graph.track_outputs
            self.codes = np.empty((0, width), dtype=np.int64)
        moves = graph._moves_by_cid
        cids = list(moves)
        counts = np.array([len(moves[cid][1]) for cid in cids], dtype=np.int64)
        self.move_start = np.zeros(len(pool), dtype=np.int64)
        self.move_count = np.zeros(len(pool), dtype=np.int64)
        self.move_entry = np.zeros(len(pool), dtype=np.int64)
        self.move_start[cids] = np.cumsum(counts) - counts
        self.move_count[cids] = counts
        self.move_entry[cids] = [graph._activation(pool[cid])[0] for cid in cids]
        self.move_sid = np.array(
            list(chain.from_iterable(moves[cid][1] for cid in cids)), dtype=np.intc
        )
        self.move_next = np.array(
            list(chain.from_iterable(moves[cid][2] for cid in cids)), dtype=np.int64
        )

        # A per-edge transition leads to a state table (concrete) or a
        # canonical row (quotient), each holding its row under ``None``
        # (its first key).
        tables = list((graph._canon_rows if self.quotient else graph._index).values())
        table_rows = [_intern(self.row_ids, self.rows, table[None]) for table in tables]
        row_of = dict(zip(map(id, tables), table_rows, strict=True))
        booked = graph._transitions
        pids = [_intern(self.payload_ids, self.payloads, key) for key in booked]
        counts = list(map(len, booked.values()))
        sids = list(chain.from_iterable(booked.values()))
        successors = [
            row_of[id(table)] for row in booked.values() for table in row.values()
        ]
        #: payload x set id -> successor row, -1 until evaluated.
        self.transitions = np.full(
            (len(self.payloads), len(graph._sets)), -1, dtype=np.int64
        )
        payload = np.repeat(np.array(pids, dtype=np.int64), counts)
        self.transitions[payload, sids] = successors

        # Each arrival sits in its row's table under its countdown id: a
        # concrete graph's states in their payloads' tables, a quotient's
        # first arrivals in the raw successors' canonical rows (a quotient
        # finds its canonical states, roots included, in the graph's
        # tables).
        counts = [len(table) - 1 for table in tables]
        rows = np.repeat(np.array(table_rows, dtype=np.int64), counts)
        cids = list(chain.from_iterable(islice(table, 1, None) for table in tables))
        states = [table[cid] for table in tables for cid in islice(table, 1, None)]
        self.arrivals = _ArrivalIndex(
            rows, np.array(cids, np.int64), np.array(states, np.int64), len(pool)
        )
        self.pids, self.cids = self._frontier(lo)

    def _frontier(self, lo: int):
        """Payload and countdown ids of the states from ``lo`` on."""
        keys = self.graph.state_keys[lo:]
        ids, payloads = self.payload_ids, self.payloads
        pids = [_intern(ids, payloads, (lid, oid)) for lid, oid, _cid in keys]
        cids = [key[2] for key in keys]
        return np.array(pids, dtype=np.int64), np.array(cids, dtype=np.int64)

    def expand(self, lo: int, hi: int) -> None:
        """Expand the level of states ``lo:hi``, queueing the next one."""
        pids, cids = self.pids, self.cids
        self._moves(cids)
        counts = self.move_count[cids]
        self._step_missing(pids, cids, int(counts.sum()))
        self._arrivals(lo, hi, pids, cids, counts)

    # -- moves ---------------------------------------------------------------

    def _moves(self, cids) -> None:
        """Give the level's countdowns that have no moves yet theirs, at
        once, in first-occurrence order."""
        graph = self.graph
        pool = graph._countdowns
        grow = len(pool) - len(self.move_count)
        if grow:
            pad = np.zeros(grow, dtype=np.int64)
            self.move_start = np.concatenate([self.move_start, pad])
            self.move_count = np.concatenate([self.move_count, pad])
            self.move_entry = np.concatenate([self.move_entry, pad])
        level = cids[_firsts(cids)[0]]
        new = level[self.move_count[level] == 0].tolist()
        if not new:
            return
        graph._stats_counters["activation_misses"] += len(new)
        entries = [graph._activation(pool[cid]) for cid in new]
        counts = np.array([len(entry[2]) for entry in entries], dtype=np.int64)
        x = self.values[new]
        mask = np.concatenate([self._mask(eid, sets) for eid, sets, _ in entries])
        next_cids = self._intern_countdowns(
            np.where(mask, graph.r, np.repeat(x, counts, axis=0) - 1)
        )
        self.move_start[new] = len(self.move_sid) + np.cumsum(counts) - counts
        self.move_count[new] = counts
        self.move_entry[new] = [entry[0] for entry in entries]
        sids = [np.frombuffer(entry[2], dtype=np.intc) for entry in entries]
        self.move_sid = np.concatenate([self.move_sid, *sids])
        self.move_next = np.concatenate([self.move_next, next_cids])

    def _mask(self, entry: int, sets) -> np.ndarray:
        """The ``(sets, n)`` boolean membership mask of a forced-set entry
        (:meth:`ExplorationGraph._activation`), built once."""
        mask = self.masks.get(entry)
        if mask is None:
            mask = self.masks[entry] = np.zeros((len(sets), self.graph.n), bool)
            rows = np.repeat(np.arange(len(sets)), [len(t) for t in sets])
            mask[rows, [i for t in sets for i in t]] = True
        return mask

    def _intern_countdowns(self, rows):
        """Countdown ids of ``rows``, an ``(M, n)`` array of countdown
        values, interning new countdowns in first-sight order."""
        first, rank = _firsts((rows - 1) @ self.weights)
        distinct = rows[first]
        known = len(self.values)
        intern = self.graph._intern_countdown
        ids = np.array([intern(tuple(row)) for row in distinct.tolist()], np.int64)
        self.values = np.concatenate([self.values, distinct[ids >= known]])
        return ids[rank]

    def _block(self, cids):
        """Move-store indices of the edges of states with countdowns
        ``cids``, in edge order, with each state's edge count and running
        edge total."""
        counts = self.move_count[cids]
        ends = np.cumsum(counts)
        shift = self.move_start[cids] - (ends - counts)
        return np.arange(ends[-1]) + np.repeat(shift, counts), counts, ends

    # -- transitions ---------------------------------------------------------

    def _step_missing(self, pids, cids, edges: int) -> None:
        """Evaluate the level's missing ``(payload, T)`` transitions.

        They are found in first-occurrence (edge) order, each payload once
        per set, and bucketed by set: a bucket of at least
        :data:`AUTO_BATCH_MIN_ROWS` rows is one kernel call when the
        engine can step it.  Then each is booked
        (:meth:`ExplorationGraph._miss`) in that order, the others stepped
        serially as they are booked, so successors are interned as on the
        per-edge route.  An error a transition raises (its reaction's, or
        a quotient's label-space check) is kept, and :meth:`_chunk` raises
        it at the transition's first edge, after the arrivals before it,
        where the per-edge route meets it.
        """
        graph = self.graph
        # States sharing a payload and a forced set share their (payload,
        # T) pairs: the first of each stands for all.
        _, first = np.unique(
            pids * len(graph._activations) + self.move_entry[cids],
            return_index=True,
        )
        first.sort()
        moves, counts, _ends = self._block(cids[first])
        old = self.transitions
        if old.shape[0] < len(self.payloads) or old.shape[1] < len(graph._sets):
            shape = (max(len(self.payloads), 2 * old.shape[0]), len(graph._sets))
            self.transitions = np.full(shape, -1, dtype=np.int64)
            self.transitions[: old.shape[0], : old.shape[1]] = old
        width = self.transitions.shape[1]
        flat = self.transitions.ravel()
        pairs = np.repeat(pids[first] * width, counts) + self.move_sid[moves]
        pairs = pairs[flat[pairs] < 0]
        _, first = np.unique(pairs, return_index=True)
        keys = pairs[np.sort(first)]
        counters = graph._stats_counters
        counters["transition_misses"] += len(keys)
        counters["transition_hits"] += edges - len(keys)
        if not len(keys):
            return
        payloads = [self.payloads[pid] for pid in (keys // width).tolist()]
        sids = (keys % width).tolist()
        buckets: dict[int, list[int]] = {}
        for i, sid in enumerate(sids):
            buckets.setdefault(sid, []).append(i)
        successors: list = [None] * len(sids)
        for sid, members in buckets.items():
            if len(members) < AUTO_BATCH_MIN_ROWS:
                continue
            try:
                stepped = graph._step_bucket(
                    graph._sets[sid], [payloads[i] for i in members]
                )
            except Exception:  # a reaction raised: each row steps serially
                continue
            if stepped is not None:
                for i, successor in zip(members, stepped, strict=True):
                    successors[i] = successor
        row_ids, rows, errors = self.row_ids, self.rows, self.errors
        booked = []
        for (lid, oid), sid, successor in zip(payloads, sids, successors, strict=True):
            try:
                if successor is None:
                    successor = graph._step(lid, oid, graph._sets[sid])
                row = _intern(row_ids, rows, graph._miss(lid, oid, sid, successor))
            except Exception as error:  # raised at its first edge (_chunk)
                row = -2 - len(errors)
                errors.append(error)
            booked.append(row)
        flat[keys] = booked

    # -- arrivals ------------------------------------------------------------

    def _arrivals(self, lo: int, hi: int, pids, cids, counts) -> None:
        """Resolve the level's edge block chunk by chunk, appending the
        edges of states ``lo:hi`` and the states they reach first."""
        graph = self.graph
        ends = np.cumsum(counts)
        total = int(ends[-1])
        self.arrivals.layout(
            len(self.rows), len(graph._countdowns), len(graph.edge_dst) + total
        )
        if not self.quotient:
            self.payload_array = np.array(self.payloads, dtype=np.int64)
        reached = []
        a = 0
        while a < len(cids):
            limit = int(ends[a] - counts[a]) + LEVEL_CHUNK_EDGES
            b = max(a + 1, int(np.searchsorted(ends, min(limit, total), "right")))
            reached.append(self._chunk(lo + a, pids[a:b], cids[a:b]))
            a = b
        if self.quotient:
            self.pids, self.cids = self._frontier(hi)
        else:
            self.pids = np.concatenate([rows for rows, _cids in reached])
            self.cids = np.concatenate([cids for _rows, cids in reached])

    def _chunk(self, k0: int, pids, cids):
        """Append the edges of the states numbered from ``k0`` (payload ids
        ``pids``, countdown ids ``cids``), adding the states they reach
        first (:meth:`_arrive`).  Returns the rows and countdown ids of a
        concrete graph's new states."""
        graph = self.graph
        moves, counts, ends = self._block(cids)
        sids = self.move_sid[moves]
        next_cids = self.move_next[moves]
        del moves
        width = self.transitions.shape[1]
        rows = self.transitions.ravel()[np.repeat(pids * width, counts) + sids]
        failed = np.flatnonzero(rows < 0)
        if len(failed):
            stop = failed[0]
            self._arrive(k0, ends, rows[:stop], next_cids[:stop], sids[:stop])
            raise self.errors[-2 - rows[stop]]
        dst, new_rows, new_cids = self._arrive(k0, ends, rows, next_cids, sids)
        ends += len(graph.edge_dst)
        _extend(graph.edge_dst, dst)
        _extend(graph.edge_sid, sids)
        _extend(graph.edge_offsets, ends)
        return new_rows, new_cids

    def _arrive(self, k0: int, ends, rows, next_cids, sids):
        """The target state of each edge (successor row ``rows``, countdown
        ``next_cids``, set ``sids``) of the states numbered from ``k0``,
        whose edge counts run up to ``ends``.  States reached first are
        added in edge order: numbered in order, each with its first edge
        as parent, on a concrete graph; canonicalized as one block, and
        their canonical states found or added in first-arrival order, on a
        quotient (:meth:`_canonical_states`).  Also returns the rows and
        countdown ids of the first arrivals."""
        graph = self.graph
        arrivals = self.arrivals
        dst = arrivals.find(rows, next_cids)
        missing = np.flatnonzero(dst < 0)
        if not len(missing):
            return dst, missing, missing
        _, first = np.unique(
            arrivals.key(rows[missing], next_cids[missing]), return_index=True
        )
        edges = missing[np.sort(first)]
        new_rows, new_cids, new_sids = rows[edges], next_cids[edges], sids[edges]
        preds = k0 + np.searchsorted(ends, edges, "right")
        if self.quotient:
            states = self._canonical_states(new_rows, new_cids, preds, new_sids)
        else:
            states = self._add_states(new_rows, new_cids, preds, new_sids)
        arrivals.add(new_rows, new_cids, states)
        dst[missing] = arrivals.find(rows[missing], next_cids[missing])
        return dst, new_rows, new_cids

    def _canonical_states(self, rows, cids, preds, sids):
        """A quotient's first arrivals (raw successor ``rows`` at raw
        countdowns ``cids``, reached from ``preds`` by ``sids``), in edge
        order: their canonical states, found or added.

        The block is canonicalized at once
        (:meth:`~repro.graphs.automorphisms.StateCanonicalizer.canonical_block`),
        each arrival moved onto its representative by gathers through the
        group's inverse tables, and the canonical labelings, outputs and
        countdowns interned in first-arrival order.  New states are added
        in that order too, each with its first arrival's parent and orbit
        ``order // ties``, which is what :meth:`ExplorationGraph
        ._arrive_canonical` does one arrival at a time.
        """
        graph = self.graph
        group = graph._group
        graph._stats_counters["canonicalizations"] += len(rows)
        codes = self._row_codes()
        first_rows, row_of = _firsts(rows)
        labelings = rows[first_rows]
        distinct_cids = np.unique(cids)
        pool = graph._countdowns
        gids, ties = graph._canonicalizer.canonical_block(
            [self.rows[row] for row in labelings.tolist()],
            codes[labelings],
            [pool[cid] for cid in distinct_cids.tolist()],
            row_of,
            np.searchsorted(distinct_cids, cids),
        )
        # A canonical labeling [and outputs] depends on the arrival's row
        # and element only, a canonical countdown on its countdown and
        # element: each distinct pair is moved once, in first-arrival order.
        m = graph.topology.m
        first, pair_of = _firsts(rows * group.order + gids)
        pair_rows, pair_gids = rows[first], gids[first]
        inverses = group._inverses[pair_gids]
        moved = codes[pair_rows[:, None], group._edges[inverses]]
        top = len(group.label_codes)
        lids = self._intern_moved(moved, top, pair_rows, pair_gids, 0)[pair_of]
        if graph.track_outputs:
            moved = codes[pair_rows[:, None], m + group._nodes[inverses]]
            top = len(group.output_codes)
            oids = self._intern_moved(moved, top, pair_rows, pair_gids, 1)[pair_of]
        else:
            oids = np.zeros_like(lids)
        first, pair_of = _firsts(cids * group.order + gids)
        sources = group._nodes[group._inverses[gids[first]]]
        ccids = self._intern_countdowns(self.values[cids[first, None], sources])
        ccids = ccids[pair_of]
        _, payload_of = _firsts(lids * len(graph._outs) + oids)
        first, rank = _firsts(payload_of * len(pool) + ccids)
        states = []
        orbits = group.order // ties[first]
        for lid, oid, ccid, pred, sid, orbit in zip(
            lids[first].tolist(),
            oids[first].tolist(),
            ccids[first].tolist(),
            preds[first].tolist(),
            sids[first].tolist(),
            orbits.tolist(),
            strict=True,
        ):
            table = graph._states_at(lid, oid)
            state = table.get(ccid)
            if state is None:
                state = graph._add_state(table, ccid, pred, sid, orbit)
            states.append(state)
        return np.array(states, dtype=np.int64)[rank]

    def _row_codes(self):
        """Label [and output] codes of every row, a row each, in the
        group's numbering."""
        done = len(self.codes)
        if done < len(self.rows):
            fresh = self.graph._canonicalizer.encode_payloads(self.rows[done:])
            self.codes = np.concatenate([self.codes, fresh])
        return self.codes

    def _intern_moved(self, moved, top: int, rows, gids, part: int):
        """Ids of the moved labelings (``part`` 0) or outputs (1): ``moved``
        holds each arrival's codes (below ``top``), the arrival's raw row
        moved by its element.  Each distinct one is interned once, in
        first-arrival order, from its first arrival."""
        graph = self.graph
        group = graph._group
        first, rank = _firsts(_row_keys(moved, top))
        if part == 0:
            apply, intern = group.apply_labeling, graph._intern_label
        else:
            apply, intern = group.apply_per_node, graph._intern_out
        ids = [
            intern(apply(gid, self.rows[row][part]))
            for row, gid in zip(rows[first].tolist(), gids[first].tolist(), strict=True)
        ]
        return np.array(ids, dtype=np.int64)[rank]

    def _add_states(self, rows, cids, preds, sids):
        """Store a concrete graph's new states, numbered in order."""
        graph = self.graph
        k = len(graph.state_keys)
        count = len(rows)
        if k + count > graph._budget:
            raise graph._budget_exceeded()
        lids, oids = self.payload_array[rows].T.tolist()
        graph.state_keys.extend(zip(lids, oids, cids.tolist(), strict=True))
        _extend(graph.parent_idx, preds)
        _extend(graph.parent_sid, sids)
        graph._covered += count
        return np.arange(k, k + count, dtype=np.int64)
