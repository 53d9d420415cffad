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
  first sight, so a state is a triple of ints; visited-set lookups go
  through a per-payload table keyed by countdown id, so an edge costs two
  int-keyed dict lookups instead of re-hashing ``O(m + n)`` tuples.
* **Packed edge and parent arrays.**  Successor lists and BFS-tree parent
  links live in flat append-only ``array.array`` stores (a CSR edge store
  and one parent link per state) instead of one Python list-of-tuples per
  state; consumers scan them directly.
* **A shared activation-set cache** with second-chance eviction
  (:func:`valid_activation_sets`): the valid activation sets of a countdown
  vector are enumerated once per distinct countdown and cached module-wide;
  when the cache hits its cap, only entries not referenced since the last
  sweep are evicted, so a greedy-adversary sweep feeding near-unique
  countdowns can no longer dump an exhaustive search's working set.
* **A transition cache.**  The successor labeling (and outputs) of a state
  depend only on ``(labeling, [outputs,] T)`` — not on the countdown — so
  states that share a labeling reuse one evaluation per activation set.
* **Frontier-parallel expansion.**  The BFS runs level-synchronously;
  before expanding a level it groups the level by payload ``(labeling,
  outputs)``, collects every uncached ``(payload, T)`` transition once,
  buckets them by activation set, and evaluates each bucket of at least
  :data:`AUTO_BATCH_MIN_ROWS` rows as one ``(B, m)`` packed-code kernel
  call through the batch backend
  (:meth:`repro.core.batch.BatchSimulator.step_codes`) when numpy is
  present and every node lifts to a lookup table; smaller buckets, buckets
  holding a labeling outside the label space, and other protocols take the
  serial scan.  Results are staged and
  *interned in the serial scan order*, so state indices, parent links,
  successor arrays — and everything built on them — stay bit-identical to
  the serial expansion.
* **Symmetry quotient** (``symmetry="auto"``).  When a verified symmetry
  group is available (:func:`repro.graphs.automorphisms
  .protocol_symmetry_group`), every discovered state is canonicalized to
  the least element of its orbit before interning, so the graph holds one
  state per orbit.  A concrete graph is the quotient by the trivial group,
  and both run one expansion loop.  The group element of an edge is not
  stored: :meth:`element` re-canonicalizes the edge's raw successor, a
  pure function of it, and :meth:`lift` / :meth:`lift_loop` replay
  concrete witnesses through the group action.  Verdicts, delays, and
  attractor membership are invariant (the projection onto the quotient is
  a graph homomorphism and stability is orbit-invariant under verified
  symmetries), so consumers get unchanged answers from a graph that is
  smaller by up to the group order.
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
bit-identical to the historical results.

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
from itertools import combinations
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


@dataclass(frozen=True)
class ExplorationStats:
    """Construction-time observability for one :class:`ExplorationGraph`.

    ``covered_states`` sums the orbit sizes of the stored states: equal to
    ``states`` without a quotient, and the number of concrete states the
    quotient stands for otherwise (exact when the initial labelings are
    closed under the group, e.g. broadcast or exhaustive initial sets).
    ``frontier_mode`` is ``"batch"`` once a batch frontier call has run
    (numpy is present, every node lifts to a table and an activation-set
    bucket reached :data:`AUTO_BATCH_MIN_ROWS` rows), ``"serial"``
    otherwise.
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

    Each level's uncached transitions are evaluated as packed-code kernel
    calls grouped by activation set when numpy is present and the
    protocol's reactions lift to lookup tables, for groups of at least
    :data:`AUTO_BATCH_MIN_ROWS` rows; everything else steps one edge at a
    time through the compiled protocol.  Both routes produce bit-identical
    graphs; :meth:`stats` reports the route and its batch calls.

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
            group.canonicalizer(track_outputs) if group is not None else None
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
        # id -> state index, plus the payload itself under ``None``.
        # Transition rows point straight at their successor's table, so an
        # edge costs two int-keyed lookups and no key tuple.
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

        # Per-countdown moves (see _moves) and counters.
        self._moves_by_cid: dict[int, tuple] = {}
        self._stats_counters = {
            "transition_hits": 0,
            "transition_misses": 0,
            "activation_hits": 0,
            "activation_misses": 0,
            "peak_frontier": 0,
            "batch_calls": 0,
            "batch_rows": 0,
            "canonicalizations": 0,
        }
        self._covered = 0
        self._frontier_mode = "serial"

        # (labeling id, output id) -> {activation-set id -> successor}.
        # Countdown-independent, so all states sharing a payload reuse one
        # evaluation per set.  A successor maps a countdown id to a state
        # index: a concrete graph stores the successor payload's state
        # table, a quotient the raw successor's canonical row.
        self._transitions: dict[tuple[int, int], dict[int, dict]] = {}
        # (labeling id, output id) -> ids of the activation sets whose raw
        # successor differs from the payload.
        self._changing: dict[tuple[int, int], set[int]] = {}
        # Canonical rows, one per raw successor payload (raw labeling, raw
        # outputs or None): raw countdown id -> canonical state index, plus
        # the raw payload under ``None``.
        self._canon_rows: dict[tuple, dict] = {}

        # ``_add_state`` checks the budget (naming the consumer when it is
        # exceeded) and queues each new state into the next level.
        self._budget = budget
        self._name = name
        self._queue: list[int] = []
        self._explore(initial_labelings)

    # -- construction --------------------------------------------------------

    def _intern_countdown(self, countdown: tuple[int, ...]) -> int:
        cid = self._countdown_ids.get(countdown)
        if cid is None:
            cid = len(self._countdowns)
            self._countdown_ids[countdown] = cid
            self._countdowns.append(countdown)
        return cid

    def _intern_label(self, values: tuple) -> int:
        lid = self._label_ids.get(values)
        if lid is None:
            lid = len(self._labels)
            self._label_ids[values] = lid
            self._labels.append(values)
        return lid

    def _intern_out(self, outputs: tuple) -> int:
        oid = self._out_ids.get(outputs)
        if oid is None:
            oid = len(self._outs)
            self._out_ids[outputs] = oid
            self._outs.append(outputs)
        return oid

    def _moves(self, cid: int):
        """``(sets, set ids, successor countdown ids)`` for a countdown.

        Three parallel sequences over the countdown's valid activation
        sets; the set ids are an ``array`` so a state's ``edge_sid`` block
        is one ``extend``.  The activation-set enumeration comes from the
        shared module-wide cache; the countdown arithmetic is r-specific,
        so it lives here.  Built once per countdown (a miss of the
        activation counters); callers read ``_moves_by_cid`` first.
        """
        self._stats_counters["activation_misses"] += 1
        countdown = self._countdowns[cid]
        r = self.r
        set_ids = self._set_ids
        sets = self._sets
        decremented = [c - 1 for c in countdown]
        activation_sets = _cached_activation_sets(countdown, self.n)
        sids = array("i")
        next_cids = []
        for t in activation_sets:
            tid = set_ids.get(t)
            if tid is None:
                tid = len(sets)
                set_ids[t] = tid
                sets.append(t)
            sids.append(tid)
            next_countdown = decremented.copy()
            for i in t:
                next_countdown[i] = r
            next_cids.append(self._intern_countdown(tuple(next_countdown)))
        moves = (activation_sets, sids, tuple(next_cids))
        self._moves_by_cid[cid] = moves
        return moves

    def _states_at(self, lid: int, oid: int) -> dict:
        """The state table of payload ``(lid, oid)``, created on first sight."""
        table = self._index.get((lid, oid))
        if table is None:
            table = self._index[(lid, oid)] = {None: (lid, oid)}
        return table

    def _add_state(
        self, table: dict, cid: int, pred: int, sid: int, orbit: int = 1
    ) -> int:
        """Store a new state, reached from ``pred`` by set ``sid`` (``-1``
        for roots), and queue it for the next level."""
        k = len(self.state_keys)
        if k >= self._budget:
            raise SearchBudgetExceeded(
                f"{self._name} exceeded budget of {self._budget} states"
            )
        table[cid] = k
        self.state_keys.append((*table[None], cid))
        self.parent_idx.append(pred)
        self.parent_sid.append(sid)
        self._covered += orbit
        self._queue.append(k)
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
        universe = self._group.label_universe
        for value in values:
            if value not in universe:
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
        frontier = self._queue
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

        while frontier:
            counters["peak_frontier"] = max(
                counters["peak_frontier"], len(frontier)
            )
            pending = self._stage_level(frontier)
            self._queue = []
            self._expand(frontier, pending)
            frontier = self._queue

    def _step(self, lid: int, oid: int, t, tid: int, pending) -> tuple:
        """The raw successor payload of one uncached transition: staged by
        the batch pass, or stepped through the compiled protocol.

        Records ``tid`` in the payload's changing sets when the raw
        successor differs from the payload.  The test is on the raw
        successor because ``canon(u) == s`` does not imply ``u == s``.
        """
        values = self._labels[lid]
        staged = pending.pop((lid, oid, t), None) if pending else None
        if staged is not None:
            new_values, new_outputs = staged
        elif self.track_outputs:
            new_values, new_outputs = self._compiled.step_values(
                values, self._outs[oid], t, self.inputs
            )
        else:
            new_values, _ = self._compiled.step_values(values, None, t, self.inputs)
            new_outputs = None
        if new_values != values or (
            self.track_outputs and new_outputs != self._outs[oid]
        ):
            self._changing.setdefault((lid, oid), set()).add(tid)
        return new_values, new_outputs

    def _successor_table(self, new_values: tuple, new_outputs) -> dict:
        """A concrete graph's transition miss: the successor payload's
        state table."""
        noid = self._intern_out(new_outputs) if self.track_outputs else 0
        return self._states_at(self._intern_label(new_values), noid)

    def _canonical_row(self, new_values: tuple, new_outputs) -> dict:
        """A quotient's transition miss: the raw successor's canonical
        row, shared by every transition that reaches the same raw
        payload."""
        self._check_universe(new_values)
        raw = (new_values, new_outputs)
        row = self._canon_rows.get(raw)
        if row is None:
            row = self._canon_rows[raw] = {None: raw}
        return row

    def _arrive_canonical(self, row: dict, cid: int, pred: int, sid: int) -> int:
        """A quotient's first arrival of a raw successor at raw countdown
        ``cid``: canonicalize once, find or add the canonical state, and
        cache its index in the row."""
        self._stats_counters["canonicalizations"] += 1
        group = self._group
        values, outputs = row[None]
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
        row[cid] = j
        return j

    def _expand(self, frontier: list[int], pending) -> None:
        """Expand one level, queueing the next one.

        Each edge looks its activation set up in the payload's transition
        row, then its successor countdown in the successor.  Only two steps
        differ by mode, and they are picked once per level: a transition
        miss (:meth:`_successor_table` or :meth:`_canonical_row`) and a
        first arrival (:meth:`_add_state` or :meth:`_arrive_canonical`).
        Staged batch results are consumed at the serial scan positions.
        """
        if self._group is None:
            successor_of, arrive = self._successor_table, self._add_state
        else:
            successor_of, arrive = self._canonical_row, self._arrive_canonical
        step = self._step
        state_keys = self.state_keys
        transitions = self._transitions
        moves_by_cid = self._moves_by_cid
        edge_offsets = self.edge_offsets
        edge_dst = self.edge_dst
        edge_sid = self.edge_sid
        lookups = misses = activation_hits = 0
        for k in frontier:
            lid, oid, cid = state_keys[k]
            moves = moves_by_cid.get(cid)
            if moves is None:
                moves = self._moves(cid)
            else:
                activation_hits += 1
            sets, sids, next_cids = moves
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
                        *step(lid, oid, t, tid, pending)
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
        counters["activation_hits"] += activation_hits

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

    def _stage_level(self, frontier: list[int]):
        """Pass 1 of a level: batch-evaluate the level's uncached transitions.

        A transition depends on the payload ``(labeling, outputs)`` and the
        activation set only, so the level is grouped by payload, and each
        payload takes the union of its countdowns' valid activation sets.
        Every ``(payload, T)`` pair missing from the transition cache is
        checked once and bucketed by ``T``; one ``step_codes`` kernel call
        runs per bucket of at least :data:`AUTO_BATCH_MIN_ROWS` rows.
        Results are staged in a dict keyed by the raw activation set; pass 2
        (``_expand``) pops them at the exact serial scan position.
        Staging interns *nothing* (it reads the module activation-set cache
        and only looks pools up), so the interning order — and with it
        every id and index in the graph — is bit-identical no matter which
        route evaluated a transition.  The engine is built for the first
        bucket that reaches the floor; a level of fewer distinct payloads
        than the floor stages nothing, since a bucket holds each payload
        once.  A bucket holding a labeling outside the declared label space
        is left to the serial scan.
        """
        if not self._engine_enabled:
            return None
        counters = self._stats_counters
        state_keys = self.state_keys
        countdowns = self._countdowns
        n = self.n
        # A union (or a transition row) holding every nonempty subset of
        # the nodes cannot grow (has nothing left to stage).
        every_set = (1 << n) - 1
        unions: dict[tuple[int, int], set[frozenset[int]]] = {}
        for k in frontier:
            lid, oid, cid = state_keys[k]
            sets = unions.get((lid, oid))
            if sets is None:
                sets = unions[(lid, oid)] = set()
            elif len(sets) == every_set:
                continue
            sets.update(_cached_activation_sets(countdowns[cid], n))
        if len(unions) < AUTO_BATCH_MIN_ROWS:
            return None
        transitions = self._transitions
        set_ids = self._set_ids
        buckets: dict[frozenset[int], list[tuple[int, int]]] = {}
        for payload, sets in unions.items():
            row = transitions.get(payload, ())
            if len(row) == every_set:
                continue
            for t in sets:
                if set_ids.get(t) in row:
                    continue
                bucket = buckets.get(t)
                if bucket is None:
                    buckets[t] = [payload]
                else:
                    bucket.append(payload)

        pending: dict[tuple[int, int, frozenset[int]], tuple] = {}
        track_outputs = self.track_outputs
        for t, rows in buckets.items():
            if len(rows) < AUTO_BATCH_MIN_ROWS:
                continue
            engine = self._ensure_engine()
            if engine is None:
                return None
            from repro.core.batch import OutOfSpace

            interner = engine.batch_compiled.interner
            y_interners = engine.batch_compiled.y_interners
            label_rows = [self._labels[lid] for (lid, _oid) in rows]
            codes = interner.bulk_encode(label_rows)
            if codes is None:
                try:
                    codes = np.asarray(
                        [interner.encode_values(row) for row in label_rows],
                        dtype=np.int64,
                    )
                except OutOfSpace:
                    continue
            if track_outputs:
                ocodes = np.asarray(
                    [
                        [
                            y_interners[i].encode(value)
                            for i, value in enumerate(self._outs[oid])
                        ]
                        for (_lid, oid) in rows
                    ],
                    dtype=np.int64,
                )
            else:
                ocodes = np.zeros((len(rows), n), dtype=np.int64)
            new_codes, new_ocodes = engine.step_codes(codes, ocodes, t)
            self._frontier_mode = "batch"
            counters["batch_calls"] += 1
            counters["batch_rows"] += len(rows)
            for row, (lid, oid) in enumerate(rows):
                new_values = interner.decode_values(new_codes[row])
                if track_outputs:
                    new_outputs = tuple(
                        y_interners[i].decode(int(new_ocodes[row, i]))
                        for i in range(n)
                    )
                else:
                    new_outputs = None
                pending[(lid, oid, t)] = (new_values, new_outputs)
        return pending or None

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
            activation_cache_hits=counters["activation_hits"],
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
        ``c(x, T)``.  ``canonical`` is a pure function of a state whose
        labels have codes, so this is the element the exploration used.
        """
        if self._group is None:
            return 0
        lid, oid, cid = self.state_keys[k]
        values, outputs = self._transitions[(lid, oid)][sid][None]
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
