"""Vectorized batch simulation: whole populations of configurations in lockstep.

PR 1's compiled fast path made *one* trajectory cheap; sweeps still step each
case through its own Python run loop, so a 1024-labeling recovery matrix pays
1024 × (per-step adapter calls).  This module lifts the compiled engine over a
**batch axis**: ``B`` configurations of the same protocol advance together,
with the label state held as a ``(B, m)`` integer array (one interned label
code per edge, canonical edge order — exactly the flat-tuple layout of
:class:`~repro.core.compiled.CompiledProtocol`, with a batch dimension in
front) and per-node outputs as a ``(B, n)`` code array.

A batch takes one of two routes, decided once when the simulator is built:

* **Table lookup.**  A batch is *vectorized* when every node lifts: the
  reaction is stateless, the label alphabet is finite and small enough
  (``|Sigma|^in_degree`` rows fit the table budget, the constant
  :data:`DEFAULT_MAX_TABLE_SIZE`), every private input hashes, and the
  reaction never leaves the declared space.  Each node's compiled adapter
  is then enumerated once per distinct input over every incoming-code
  combination into a flat numpy table, and a step is gather (incoming
  codes → mixed-radix key) → table row → scatter, vectorized over all rows
  at once.  Because the table is built by calling the *serial* adapter,
  batch transitions are equal to serial transitions by construction.  The
  input-independent half of the gate is one numpy-free rule,
  :func:`lift_demotion`, which the plan preflight
  (:mod:`repro.statics.preflight`) calls too.
* **Serial.**  Every other batch runs row by row on the serial engine
  (:meth:`~repro.core.engine.Simulator.run` and ``run_with_faults``),
  whose reports the lockstep equals.  So does a vectorized batch that
  meets a label outside the declared space, in a starting labeling or
  written by a fault model: the label interner is exactly the enumerated
  space and never grows, so encoding such a label raises
  :class:`OutOfSpace` and the whole batch reruns serially.  Runs are
  deterministic and schedules memoize their steps, so the reports are the
  ones the lockstep would have given.

Two throughput layers sit on top of the tables (this module's hot loop):

* **Packed codes.**  Code arrays and lookup-table columns are packed to the
  smallest dtype the enumerated label space allows (u8/u16/u32), and
  mixed-radix key strides are precomputed so gather → key is one fused
  take-plus-dot.  Codes never leave the space, so a run keeps its dtypes.
* **Fused multi-step windows.**  k steps run as one kernel invocation over
  a resident ``(k+1, L, m)`` state stack; the convergence bookkeeping is
  then evaluated once per window from the stored intermediate states,
  which keeps it exactly serial-equivalent (a row that settles mid-window
  is concluded from its in-window state, and the extra stepped states are
  simply discarded).  Windows double up to ``MAX_FUSE_WINDOW``; after a
  window in which rows concluded they keep doubling while the window's
  frames fit one kernel tile and halve beyond it, and fault fire times
  split them.

The **ring route** takes every window of a protocol whose nodes all lift
into one degree-1, out-degree-1 group that reads its in-edge by a cyclic
shift and owns edge ``i`` at node ``i``, over one-byte label and output
codes.  One kernel (:meth:`BatchSimulator._fill_ring`) runs it on flat frame
buffers (rows there are a few bytes wide, so per-row inner loops would cost
more than the data): a step is the shift plus one lookup per edge, the
binary select when the alphabet is binary and every row shares one input
vector, else one take from a u16 label|output table at the code plus a
shared or per-row input base.  Every other protocol, including rings with
wider codes and degree-1 graphs whose in-edge map is no rotation, takes the
group route, the general table path.

Rows are grouped by schedule object: a window queries each live schedule
once per step into one ``(k, G, n)`` activation block, and per-row masks are
one gather from it.  Convergence analysis runs per row on top of the shared
stepping, replicating ``Simulator.run`` decision-for-decision: periodic rows
hash ``(state bytes, phase)`` for exact cycle detection and classify through
the engine's own :func:`~repro.core.engine.classify_cycle`; aperiodic rows
are certified for a whole window at once from a per-group activation clock
and their change flags, with no per-step loop; finished rows leave the live
set and stop costing work while the rest keep stepping.  Reports are equal
(``==``) to the serial engine's, field for field.

Fault injection (:meth:`BatchSimulator.run_batch_with_faults`) mirrors
:func:`repro.faults.injection.run_with_faults`: raw stepping through each
row's fault window, models fired through
:meth:`repro.faults.models.FaultModel.fire_batch` (which reproduces the
serial ``(seed, fire time)`` RNG derivation row by row), then the certified
analysis tail relative to each row's last fault.  Fires are grouped by time
before the run; a fault fire time inside a fused window splits the window,
so fires always land exactly at window starts.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from itertools import product
from typing import Any, NamedTuple

from repro.core.compiled import CompiledProtocol, compile_protocol
from repro.core.configuration import Configuration, Labeling
from repro.core.convergence import RunOutcome, RunReport
from repro.core.engine import DEFAULT_MAX_STEPS, Simulator, classify_cycle
from repro.core.protocol import Protocol
from repro.core.schedule import Schedule
from repro.exceptions import ValidationError
from repro.policy import check_count

try:  # numpy is an optional extra; everything else in repro runs without it.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less installs
    np = None

#: Per-(node, input) table budget: a node lifts only while
#: ``|Sigma| ** in_degree`` stays at or below this many rows.  Read at call
#: time (:func:`lift_demotion`, :class:`BatchCompiledProtocol`), so a test
#: may patch it; it is not an option of any entry point.
DEFAULT_MAX_TABLE_SIZE = 1 << 16

#: Upper bound on the adaptive fused-window length.  In-window step
#: indices are int8, so it must stay below 127.
MAX_FUSE_WINDOW = 64

#: Resident-stack budget for one fused window, in bytes; the window length
#: is clamped so ``(k+1)`` state slices stay within it.  Sized so the
#: per-window fixed costs (stack load/commit copies) amortize even for
#: populations of 10^5 packed rows.
STACK_BUDGET_BYTES = 128 << 20

#: Row-tile footprint for the ring kernel: a tile's ``k+1`` label frames
#: fit in this many bytes, so they stay resident in the outer cache levels
#: while the tile runs all k steps.
MONO_TILE_BYTES = 1 << 20

#: Preferred sub-batch size for sweep-level drivers: populations larger than
#: this are run as several lockstep batches so the per-window working set
#: (codes, outputs, window stacks, bookkeeping) stays cache-resident.
#: Measured on the a05 ring workload, 10^5-row single batches run ~25-40%
#: slower than the same rows in slices of this size.
SWEEP_CHUNK_ROWS = 8192


def lift_demotion(is_stateful: bool, space_size: int, degree: int) -> str | None:
    """Why a node cannot lift to a lookup table, or ``None`` when it can.

    The static (input-independent) lift gate, shared by
    :meth:`BatchCompiledProtocol.node_liftable` and the numpy-free
    preflight (:func:`repro.statics.preflight.verify_protocol`).
    ``space_size`` is the enumerated label-space size: ``0`` when the space
    exceeds the table budget, so no codes are enumerated.  Returns
    ``"stateful"``, ``"space"`` or ``"table"`` (``space_size**degree``
    exceeds :data:`DEFAULT_MAX_TABLE_SIZE`).
    """
    if is_stateful:
        return "stateful"
    if space_size == 0:
        return "space"
    if space_size**degree > DEFAULT_MAX_TABLE_SIZE:
        return "table"
    return None


def require_numpy() -> None:
    """Raise a actionable error when numpy is unavailable."""
    if np is None:
        raise ValidationError(
            "the batch simulation backend requires numpy; install it"
            " (pip install numpy, or the 'batch' extra) or use the serial"
            " executor"
        )


def packed_dtype(count: int):
    """The smallest unsigned dtype whose range covers codes ``0..count-1``.

    Falls back to int64 past 32 bits.  This is the dtype ladder behind the
    packed code arrays: a binary space steps in u8, a 4096-label space in
    u16, and only genuinely huge (or non-enumerable) spaces pay for int64.
    """
    if count <= 1 << 8:
        return np.uint8
    if count <= 1 << 16:
        return np.uint16
    if count <= 1 << 32:
        return np.uint32
    return np.int64


class OutOfSpace(Exception):
    """Internal signal: a label outside the declared space reached a
    vectorized batch, which then runs on the serial engine instead."""


class LabelInterner:
    """A growable bijection between label objects and small integer codes.

    Interning is by equality (``dict`` lookup), so two labels that compare
    equal share a code — exactly the equivalence the serial engine's tuple
    comparisons use, which is what makes code-array equality a faithful stand-
    in for labeling equality.
    """

    __slots__ = ("codes", "objects", "_identity")

    def __init__(self, seed_objects=()):
        self.codes: dict[Any, int] = {}
        self.objects: list[Any] = []
        self._identity = True
        for obj in seed_objects:
            if obj not in self.codes:
                self._add(obj)

    @property
    def size(self) -> int:
        return len(self.objects)

    @property
    def int_identity(self) -> bool:
        """True while every interned object is exactly its own code.

        Holds for the common integer spaces (``binary()``, ``IntegerRange``)
        and lets bulk encode/decode skip the per-element dict walk: encoding
        is ``np.asarray`` and decoding is ``tolist`` — numeric labels that
        merely *equal* their code (``True``, ``1.0``) coerce to the same code
        the dict would return, so equality semantics are unchanged.
        """
        return self._identity

    def _add(self, obj) -> int:
        code = len(self.objects)
        self.codes[obj] = code
        self.objects.append(obj)
        if self._identity and not (type(obj) is int and obj == code):
            self._identity = False
        return code

    def encode(self, obj) -> int:
        """The code of ``obj``, interning it on first sight."""
        code = self.codes.get(obj)
        return self._add(obj) if code is None else code

    def decode(self, code: int):
        return self.objects[code]

    def encode_values(self, values) -> list[int]:
        """Codes for a whole flat label tuple, in order."""
        encode = self.encode
        return [encode(value) for value in values]

    def decode_values(self, codes) -> tuple:
        """The label tuple behind one row of the code array (any int dtype)."""
        if self._identity:
            try:
                return tuple(codes.tolist())
            except AttributeError:
                pass
        objects = self.objects
        return tuple(objects[code] for code in codes)

    def bulk_encode(self, rows, dtype=None):
        """Codes for many label rows at once, or ``None`` when ineligible.

        The fast path applies while the interner is int-identity: ``rows``
        (any nested sequence, or an integer ndarray of *any* dtype — u8 and
        u16 inputs are accepted as-is, with no int64 round-trip) is coerced
        with one ``asarray`` and bounds-checked against the interned
        population, replacing one dict walk per element.  The result is
        emitted in ``dtype`` (default: the smallest packed dtype covering
        the interner).  Returns ``None`` — fall back to per-element
        :meth:`encode_values` — when the interner is not int-identity, the
        rows are ragged or non-integer, or any code falls outside the
        interned population (bulk encoding never interns new labels).
        """
        if not self._identity:
            return None
        try:
            bulk = np.asarray(rows)
        except ValueError:
            return None
        if not np.issubdtype(bulk.dtype, np.integer):
            return None
        if bulk.size and (
            int(bulk.min()) < 0 or int(bulk.max()) >= len(self.objects)
        ):
            return None
        if dtype is None:
            dtype = packed_dtype(len(self.objects))
        return bulk.astype(dtype, copy=False)


class SpaceInterner(LabelInterner):
    """The codes of one declared label space, which never grows.

    Encoding a label outside the space raises :class:`OutOfSpace` instead
    of interning it, so every code stays below the space size and keys the
    lookup tables soundly, run after run.
    """

    __slots__ = ()

    def encode(self, obj) -> int:
        code = self.codes.get(obj)
        if code is None:
            raise OutOfSpace(obj)
        return code


class BatchCompiledProtocol:
    """A :class:`CompiledProtocol` lowered further, to batch lookup tables.

    Construction interns the label space (when it is enumerable within the
    table budget) and prepares per-node position arrays; the per-(node, input)
    reaction tables themselves are built lazily by :meth:`column` and cached,
    so one batch compilation serves every :class:`BatchSimulator` over the
    protocol no matter which inputs each batch carries.
    """

    def __init__(self, compiled: CompiledProtocol):
        require_numpy()
        protocol = compiled.protocol
        if protocol is None:
            raise ValidationError(
                "cannot batch-compile: the source protocol has been collected"
            )
        self.compiled = compiled
        self.topology = compiled.topology
        self.label_space = protocol.label_space
        self.is_stateful = protocol.is_stateful
        self.n = compiled.n
        self.m = compiled.m
        self.in_positions = [
            np.asarray(positions, dtype=np.int64)
            for positions in compiled.in_positions
        ]
        self.out_positions = [
            np.asarray(positions, dtype=np.int64)
            for positions in compiled.out_positions
        ]

        #: Shared label interner: exactly the declared space when that is
        #: enumerable within budget, else empty.  It never grows, so its
        #: codes key the tables of every batch over the protocol.
        space = self.label_space
        self.interner = SpaceInterner(
            iter(space) if space.size <= DEFAULT_MAX_TABLE_SIZE else ()
        )
        self.space_size = self.interner.size

        #: Smallest dtype covering the enumerated space codes; code arrays
        #: and table columns are packed to it.
        self.code_dtype = np.dtype(packed_dtype(self.space_size))

        #: Per-node output interners (outputs never key tables, so they grow
        #: with whatever initial outputs a batch brings).
        self.y_interners = [LabelInterner() for _ in range(self.n)]
        self._columns: dict[tuple[int, Any], tuple | None] = {}

    def node_liftable(self, i: int) -> bool:
        """Static (input-independent) part of the lift gate for node ``i``."""
        degree = len(self.in_positions[i])
        return lift_demotion(self.is_stateful, self.space_size, degree) is None

    def column(self, i: int, x):
        """The lifted reaction table of node ``i`` under private input ``x``.

        Returns ``(out_codes, y_codes, valid)`` — arrays of ``|Sigma|**d``
        rows indexed by the mixed-radix key over the node's incoming codes —
        or ``None`` when this (node, input) pair cannot be lifted (table too
        large, unhashable input, a reaction emitting labels outside the
        declared space or unhashable outputs).  Combinations on which the
        serial adapter raises are marked invalid rather than failing the
        lift; hitting one at runtime re-raises through the serial adapter.
        ``out_codes`` is packed to :attr:`code_dtype`.
        """
        try:
            key = (i, x)
            if key in self._columns:
                return self._columns[key]
        except TypeError:  # unhashable input value
            return None
        column = self._build_column(i, x) if self.node_liftable(i) else None
        self._columns[key] = column
        return column

    def _build_column(self, i: int, x):
        space_size = self.space_size
        in_pos = self.in_positions[i]
        out_pos = self.out_positions[i]
        degree = len(in_pos)
        n_out = len(out_pos)
        rows = space_size**degree
        adapter = self.compiled.adapter(i)
        objects = self.interner.objects
        label_codes = self.interner.codes
        y_encode = self.y_interners[i].encode

        out_codes = np.zeros((rows, n_out), dtype=self.code_dtype)
        y_codes = np.zeros(rows, dtype=np.int64)
        valid = np.ones(rows, dtype=bool)
        values: list[Any] = [None] * self.m
        scratch: list[Any] = [None] * self.m
        for row, combo in enumerate(product(range(space_size), repeat=degree)):
            for position, code in zip(in_pos, combo, strict=True):
                values[position] = objects[code]
            try:
                y = adapter(values, scratch, x)
            except Exception:
                valid[row] = False
                continue
            try:
                for j, position in enumerate(out_pos):
                    code = label_codes.get(scratch[position])
                    if code is None:
                        # The reaction leaves the declared space: no table can
                        # close over its codes.
                        return None
                    out_codes[row, j] = code
                y_codes[row] = y_encode(y)
            except TypeError:  # unhashable label or output
                return None
        return out_codes, y_codes, valid


#: compiled form -> batch compilation; weak on the compiled form so batch
#: compilations die with their protocols.
_BATCH_CACHE: "weakref.WeakKeyDictionary[CompiledProtocol, BatchCompiledProtocol]" = (
    weakref.WeakKeyDictionary()
)


def batch_compile(protocol) -> BatchCompiledProtocol:
    """Batch-compile a protocol (or an already-compiled form), with caching.

    Mirrors :func:`repro.core.compiled.compile_protocol`: repeated
    ``BatchSimulator`` construction over one protocol pays the lookup-table
    costs once.
    """
    require_numpy()
    if isinstance(protocol, CompiledProtocol):
        compiled = protocol
    else:
        compiled = compile_protocol(protocol)
    batch = _BATCH_CACHE.get(compiled)
    if batch is None:
        batch = _BATCH_CACHE[compiled] = BatchCompiledProtocol(compiled)
    return batch


def _shift_rows(src, s, out, base=None) -> None:
    """``out[:, i] = src[:, (i + s) % m]``, xor ``base[i]`` when given.

    ``src``/``out`` are contiguous ``(h, m)`` frames, handled as flat
    ``h*m`` buffers: one contiguous op moves every element by ``s`` (or
    ``s - m``) places, then one strided op repairs the ``min(s, m - s)``
    columns whose source wrapped across a row boundary.  ``base`` is a
    per-column row tiled to at least ``h*m`` entries.
    """
    h, m = src.shape
    size = h * m
    flat_src = src.reshape(-1)
    flat_out = out.reshape(-1)
    if 2 * s <= m:
        # Columns below m - s read s places ahead; the last s wrapped.
        body_src, body_out = flat_src[s:], flat_out[: size - s]
        body_cols = slice(0, size - s)
        fix_src, fix_out, fix_cols = src[:, :s], out[:, m - s :], slice(m - s, m)
    else:
        # Columns from m - s read m - s places behind; the first m - s wrapped.
        a = m - s
        body_src, body_out = flat_src[: size - a], flat_out[a:]
        body_cols = slice(a, size)
        fix_src, fix_out, fix_cols = src[:, s:], out[:, :a], slice(0, a)
    if base is None:
        np.copyto(body_out, body_src)
        if fix_src.size:
            np.copyto(fix_out, fix_src)
    else:
        np.bitwise_xor(body_src, base[body_cols], out=body_out)
        if fix_src.size:
            np.bitwise_xor(fix_src, base[fix_cols], out=fix_out)


def _blend(new, old, mask) -> None:
    """Keep ``old`` where the flat byte ``mask`` is 0x00, ``new`` where 0xFF.

    ``new = old ^ ((new ^ old) & mask)`` in place: three contiguous ops,
    where ``copyto(where=)`` walks the mask one element at a time.
    """
    new = new.reshape(-1)
    old = old.reshape(-1)
    np.bitwise_xor(new, old, out=new)
    np.bitwise_and(new, mask, out=new)
    np.bitwise_xor(new, old, out=new)


def _row_changes(frames, out) -> None:
    """Set ``out[j, r]``: did row ``r`` change between frames ``j`` and ``j+1``.

    ``frames`` is a ``(k+1, L, w)`` stack (last axis contiguous) and ``out``
    a ``(k, L)`` bool array.  Rows are compared as the widest unsigned words
    their byte width divides into, one op per word column over the whole
    window: reducing a narrow last axis with ``any`` would pay one inner
    loop per row.
    """
    after, before = frames[1:], frames[:-1]
    width = after.shape[-1] * after.itemsize
    if not width:
        out[...] = False
        return
    word = next(w for w in (8, 4, 2, 1) if width % w == 0)
    word_dt = np.dtype(f"u{word}")
    after = after.view(word_dt)
    before = before.view(word_dt)
    if after.shape[-1] > 8:
        np.any(after != before, axis=-1, out=out)
        return
    np.not_equal(after[..., 0], before[..., 0], out=out)
    for q in range(1, after.shape[-1]):
        out |= after[..., q] != before[..., q]


#: In-window step indices (and ranks), int8: windows never exceed
#: ``MAX_FUSE_WINDOW`` steps.
_STEPS = np.arange(128, dtype=np.int8) if np is not None else None


def _scan(op, a):
    """Inclusive prefix scan of ``a`` along axis 0 under the ufunc ``op``.

    Doubling (Hillis-Steele): ``ceil(log2 k)`` whole-array calls,
    alternating between ``a`` (overwritten) and one spare array; returns
    whichever holds the result.  ``ufunc.accumulate`` along axis 0 runs one
    column at a time, which costs more than this on wide arrays.
    """
    k = a.shape[0]
    spare = np.empty_like(a) if k > 1 else None
    d = 1
    while d < k:
        spare[:d] = a[:d]
        op(a[d:], a[:-d], out=spare[d:])
        a, spare = spare, a
        d *= 2
    return a


class _Group:
    """One set of lifted nodes sharing an (in-degree, out-degree) shape."""

    __slots__ = (
        "nodes",
        "in_pos",
        "in_pos_flat",
        "out_cols",
        "powers",
        "out_table",
        "out_flat",
        "y_table",
        "valid",
        "all_valid",
        "xbase",
        "xbase_zero",
        "xbase_row",
        "n_out",
        "degree",
        "covers_all",
        "shift",
        "ring",
    )


class _Ring(NamedTuple):
    """The ring kernel's constants for one group, built on first use.

    With a binary alphabet and one input vector shared by every row, each
    edge's table holds two entries, so a lookup is the select
    ``base ^ code * flip`` (labels) and ``ybase ^ code * yflip`` (outputs):
    ``rows`` is ``(base, flip, ybase, yflip)`` and ``units`` flags which
    flip rows are all ones (the multiply is then an identity).  Otherwise
    a lookup is one take from ``table``, the label and output tables fused
    to u16 (``label | output << 8``), at the code plus the input base:
    ``rows`` is ``(base,)`` for one shared input vector and empty when each
    row has its own, and ``units`` is None.  ``rows`` are tiled to the
    longest flat frame so far.
    """

    rows: tuple
    units: tuple | None
    table: Any


class _RowAnalysis:
    """Per-row convergence bookkeeping for the periodic analyzer."""

    __slots__ = ("preperiod", "period", "seen", "history")

    def __init__(self, preperiod, period, state):
        self.preperiod = preperiod
        self.period = period
        self.seen = {} if preperiod else {(state[0], state[1], 0): 0}
        self.history = [state]


class BatchSimulator:
    """Drives one protocol on a fixed population of input vectors.

    The batch analog of :class:`~repro.core.engine.Simulator`: construction
    binds the protocol and one input vector **per row** and decides the
    route (:attr:`vectorized`), and :meth:`run_batch` then advances every
    row's own ``(labeling, schedule)`` case — in lockstep on the tables, or
    row by row on the serial engine — and returns one
    :class:`~repro.core.convergence.RunReport` per row, equal to what the
    serial engine returns for that case.  The compiled form and the batch
    compilation come from the weak per-protocol caches of
    :func:`~repro.core.compiled.compile_protocol` and :func:`batch_compile`.
    """

    def __init__(self, protocol: Protocol, inputs: Sequence[Any]):
        require_numpy()
        compiled = compile_protocol(protocol)
        self.protocol = protocol
        self._compiled = compiled
        self._batch = batch_compile(compiled)
        self._topology = protocol.topology
        n = protocol.n

        rows = self._normalize_inputs(inputs, n)
        self.inputs = rows
        self.batch_size = len(rows)
        # Sweeps typically share one input vector across the population;
        # detecting that once lets _assemble scan a single row instead of
        # B rows per node (identity usually short-circuits the compare).
        first = rows[0]
        self._uniform_inputs = all(
            row is first or row == first for row in rows
        )
        self._interner = self._batch.interner
        self._y_interners = self._batch.y_interners
        self._space_size = self._batch.space_size
        self._groups: list[_Group] = []
        self._mono = None
        #: Whether every node lifted to its tables, so runs take the
        #: lockstep; otherwise every row runs on the serial engine.
        self.vectorized = self._assemble()

    @staticmethod
    def _normalize_inputs(inputs, n):
        try:
            rows = [tuple(row) for row in inputs]
        except TypeError:
            raise ValidationError(
                "inputs must be a sequence of per-row input vectors"
            ) from None
        if not rows:
            raise ValidationError("a batch needs at least one input row")
        for row in rows:
            if len(row) != n:
                raise ValidationError(f"need {n} inputs, got {len(row)}")
        return tuple(rows)

    @property
    def batch_compiled(self) -> BatchCompiledProtocol:
        return self._batch

    # -- lift assembly -----------------------------------------------------

    def _assemble(self) -> bool:
        """Lift every node into table groups by shape; ``False`` (and no
        groups) as soon as one node does not lift."""
        batch = self._batch
        n = batch.n
        space_size = self._space_size
        scan = self.inputs[:1] if self._uniform_inputs else self.inputs
        lifted: dict[tuple[int, int], list[tuple[int, list, dict]]] = {}
        for i in range(n):
            if not batch.node_liftable(i):
                return False
            columns: list[Any] = []
            #: Distinct input values at node i, mapped to their column index.
            seen: dict[Any, int] = {}
            for row in scan:
                x = row[i]
                try:
                    if x in seen:
                        continue
                except TypeError:  # unhashable input value
                    return False
                column = batch.column(i, x)
                if column is None:
                    return False
                seen[x] = len(columns)
                columns.append(column)
            shape = (len(batch.in_positions[i]), len(batch.out_positions[i]))
            lifted.setdefault(shape, []).append((i, columns, seen))

        B = self.batch_size
        for (degree, n_out), members in sorted(lifted.items()):
            group = _Group()
            group.nodes = np.asarray([i for i, _, _ in members], dtype=np.int64)
            group.in_pos = np.stack(
                [batch.in_positions[i] for i, _, _ in members]
            )
            group.out_cols = (
                np.concatenate([batch.out_positions[i] for i, _, _ in members])
                if n_out
                else np.zeros(0, dtype=np.int64)
            )
            group.n_out = n_out
            group.powers = np.asarray(
                [space_size ** (degree - 1 - k) for k in range(degree)],
                dtype=np.int64,
            )
            block = space_size**degree
            out_parts, y_parts, valid_parts = [], [], []
            offsets = []
            offset = 0
            for _, columns, _ in members:
                for out_codes, y_codes, valid in columns:
                    out_parts.append(out_codes)
                    y_parts.append(y_codes)
                    valid_parts.append(valid)
                offsets.append(offset)
                offset += len(columns) * block
            # Mixed-radix table indices fit the concatenated row count, so
            # the per-row base offsets pack to the matching dtype; the
            # gather-plus-base sum then promotes to (at most) that dtype and
            # can never wrap.
            index_dtype = packed_dtype(max(offset, 1))
            # One xbase row per distinct input vector, broadcast to its rows
            # (sweeps typically share one input vector across the population).
            xbase = np.zeros((B, len(members)), dtype=index_dtype)
            if self._uniform_inputs:
                row = self.inputs[0]
                xbase[:] = [
                    offsets[g] + seen[row[i]] * block
                    for g, (i, _, seen) in enumerate(members)
                ]
            else:
                unique_rows: dict[tuple, list[int]] = {}
                for b, row in enumerate(self.inputs):
                    unique_rows.setdefault(row, []).append(b)
                for row, row_slots in unique_rows.items():
                    xbase[row_slots] = [
                        offsets[g] + seen[row[i]] * block
                        for g, (i, _, seen) in enumerate(members)
                    ]
            group.out_table = np.concatenate(out_parts)
            group.out_flat = (
                np.ascontiguousarray(group.out_table[:, 0])
                if n_out == 1
                else None
            )
            # Output codes for lifted nodes are fully enumerated at column
            # build time, so the per-group packed dtype is final.
            y_max = max(
                (batch.y_interners[i].size for i, _, _ in members), default=0
            )
            group.y_table = np.concatenate(y_parts).astype(
                packed_dtype(max(y_max, 1))
            )
            group.valid = np.concatenate(valid_parts)
            group.all_valid = bool(group.valid.all())
            group.xbase = xbase
            group.xbase_zero = not xbase.any()
            group.xbase_row = None
            if not group.xbase_zero and bool((xbase == xbase[0]).all()):
                # Every row shares one input vector: a single base row
                # broadcasts, saving a (B, g) gather per step.
                group.xbase_row = xbase[0]
            group.degree = degree
            group.in_pos_flat = group.in_pos[:, 0] if degree == 1 else None
            group.ring = None  # lazy: the ring kernel's constants
            # Cyclic-shift reads (ring families): the ring route's gather is
            # a shift of the flat frame instead of a random take.
            group.shift = None
            if group.in_pos_flat is not None:
                width = group.in_pos_flat.size
                s = int(group.in_pos_flat[0])
                if np.array_equal(
                    group.in_pos_flat, (np.arange(width) + s) % width
                ):
                    group.shift = s
            group.covers_all = len(members) == n and bool(
                (group.nodes == np.arange(n)).all()
            )
            self._groups.append(group)

        # Ring route (_fill_ring): one out-degree-1 group (so it holds every
        # node) that reads its in-edge by a cyclic shift and owns edge i at
        # node i, over one-byte label codes.  (Output frames can still widen
        # after assembly, so their width is checked per window.)
        ring = self._groups[0] if len(self._groups) == 1 else None
        if (
            ring is not None
            and ring.shift is not None
            and ring.n_out == 1
            and ring.all_valid
            and batch.code_dtype.itemsize == 1
            and np.array_equal(ring.out_cols, np.arange(batch.m))
        ):
            self._mono = ring
        return True

    # -- stepping ----------------------------------------------------------

    def _raise_invalid(self, group, sub, idx, act, live_slots) -> None:
        """Re-raise the serial adapter's error for the first invalid hit."""
        bad = act & ~group.valid[idx]
        rows, cols = np.nonzero(bad)
        row, col = int(rows[0]), int(cols[0])
        node = int(group.nodes[col])
        values = self._interner.decode_values(sub[row])
        scratch = list(values)
        slot = int(live_slots[row])
        self._compiled.adapter(node)(values, scratch, self.inputs[slot][node])
        raise ValidationError(  # pragma: no cover - adapter should have raised
            f"reaction of node {node} failed during batch stepping"
        )

    def _apply_groups(self, sub, new_sub, new_osub, mask, live_slots) -> None:
        """Apply every lifted table group in place on the post-step arrays.

        ``new_sub``/``new_osub`` must enter holding the pre-step codes; rows
        and nodes outside ``mask`` are left untouched (the paper's semantics:
        unscheduled nodes hold their outgoing labels and outputs).
        """
        L = sub.shape[0]
        for group in self._groups:
            act = mask if group.covers_all else mask[:, group.nodes]
            if not act.any():
                continue
            all_active = bool(act.all())
            if group.degree == 1:
                keys = sub[:, group.in_pos_flat]  # (L, g)
            elif group.degree:
                keys = sub[:, group.in_pos] @ group.powers  # (L, g)
            else:
                keys = np.zeros((L, len(group.nodes)), dtype=np.int64)
            if group.xbase_zero:
                idx = keys
            elif group.xbase_row is not None:
                idx = keys + group.xbase_row
            else:
                idx = group.xbase[live_slots] + keys
            if not group.all_valid and not group.valid[idx[act]].all():
                self._raise_invalid(group, sub, idx, act, live_slots)
            if group.n_out == 1:
                updates = group.out_flat[idx]  # (L, g)
                if all_active:
                    new_sub[:, group.out_cols] = updates
                else:
                    current = new_sub[:, group.out_cols]
                    new_sub[:, group.out_cols] = np.where(
                        act, updates, current
                    )
            elif group.n_out:
                updates = group.out_table[idx].reshape(L, -1)
                if all_active:
                    new_sub[:, group.out_cols] = updates
                else:
                    act_cols = np.repeat(act, group.n_out, axis=1)
                    current = new_sub[:, group.out_cols]
                    new_sub[:, group.out_cols] = np.where(
                        act_cols, updates, current
                    )
            ys = group.y_table[idx]
            if all_active:
                new_osub[:, group.nodes] = ys
            else:
                new_osub[:, group.nodes] = np.where(
                    act, ys, new_osub[:, group.nodes]
                )

    def step_codes(self, codes, ocodes, active):
        """One shared-activation-set transition over arbitrary code rows.

        The frontier-expansion entry point for the exploration core: every
        row of ``codes`` (shape ``(L, m)``, any row count — independent of
        the simulator's ``batch_size``) is stepped once with the *same*
        activation set ``active``, against the batch's (uniform) input
        vector.  ``ocodes`` is the matching ``(L, n)`` output-code array
        (pass zeros when outputs are untracked; code 0 of a fresh
        per-node output interner decodes to whatever that node emitted
        first, which the caller then ignores).  Only a vectorized batch
        steps codes.  Returns the post-step ``(codes, outputs)`` arrays.
        """
        if not self.vectorized:
            raise ValidationError(
                "step_codes requires a batch whose every node lifts to a"
                " lookup table"
            )
        if not self._uniform_inputs:
            raise ValidationError(
                "step_codes requires a batch built over one shared"
                " input vector"
            )
        n = self._batch.n
        codes = np.ascontiguousarray(codes)
        ocodes = np.ascontiguousarray(ocodes)
        if codes.ndim != 2 or codes.shape[1] != self._batch.m:
            raise ValidationError(
                f"step_codes expects (rows, {self._batch.m}) label codes"
            )
        mask_row = np.zeros(n, dtype=bool)
        mask_row[list(active)] = True
        mask = np.broadcast_to(mask_row, codes.shape[:1] + (n,))
        live_slots = np.zeros(codes.shape[0], dtype=np.intp)
        new_codes = codes.copy()
        new_ocodes = ocodes.copy()
        self._apply_groups(codes, new_codes, new_ocodes, mask, live_slots)
        return new_codes, new_ocodes

    def _fill_stack(self, stack, ostack, masks, live):
        """Fuse ``k = len(masks)`` steps into one resident-stack kernel run.

        ``stack``/``ostack`` are ``(k+1, L, m)`` / ``(k+1, L, n)`` state
        stacks whose slice 0 holds the current codes; ``masks`` is either a
        shared ``(k, n)`` activation block (one vector per step, every row)
        or a per-row ``(k, L, n)`` block.

        Returns the ``(2, k, L)`` per-step change flags: ``[0, j, r]``
        whether row ``r``'s labels changed in step ``j``, ``[1, j, r]`` its
        outputs.
        """
        if self._mono is not None and stack.itemsize == ostack.itemsize == 1:
            return self._fill_ring(stack, ostack, masks, live)
        L = stack.shape[1]
        n = self._batch.n
        for j, mk in enumerate(masks):
            if mk.ndim == 1:
                mk = np.broadcast_to(mk, (L, n))
            np.copyto(stack[j + 1], stack[j])
            np.copyto(ostack[j + 1], ostack[j])
            self._apply_groups(stack[j], stack[j + 1], ostack[j + 1], mk, live)
        flags = np.empty((2, len(masks), L), dtype=bool)
        _row_changes(stack, flags[0])
        _row_changes(ostack, flags[1])
        return flags

    def _ring_constants(self, size) -> _Ring:
        """The ring group's :class:`_Ring`, its rows tiled to ``size``."""
        mono = self._mono
        ring = mono.ring
        if ring is None:
            labels, outputs = mono.out_flat, mono.y_table
            shared = mono.xbase_zero or mono.xbase_row is not None
            base = mono.xbase[0].astype(np.intp)
            if shared and self._space_size == 2:
                flip = labels[base] ^ labels[base + 1]
                yflip = outputs[base] ^ outputs[base + 1]
                ring = _Ring(
                    (labels[base], flip, outputs[base], yflip),
                    (bool((flip == 1).all()), bool((yflip == 1).all())),
                    None,
                )
            else:
                table = labels.astype(np.uint16) | (outputs.astype(np.uint16) << 8)
                ring = _Ring((base,) if shared else (), None, table)
            mono.ring = ring
        m = mono.nodes.size
        if ring.rows and ring.rows[0].size < size:
            rows = tuple(np.tile(row[:m], size // m) for row in ring.rows)
            ring = mono.ring = ring._replace(rows=rows)
        return ring

    def _fill_ring(self, stack, ostack, masks, live):
        """Every ring-route window, on flat frames (see :meth:`_fill_stack`).

        Rows here are a few bytes wide, so numpy's per-row inner loops would
        cost more than the data: each row tile's frame is handled as one
        contiguous ``h*m`` buffer.  A step shifts the frame
        (:func:`_shift_rows`: one flat op plus one strided fix of the
        columns that wrapped) and looks every edge up (:class:`_Ring`): the
        binary select, xored into the shift itself when both flip rows are
        all ones, or one take from the u16 table.  Nodes a step leaves
        inactive keep their codes by a byte-arithmetic blend (:func:`_blend`),
        with a shared mask tiled over one tile's rows.
        """
        mono = self._mono
        shift = mono.shift
        k = len(masks)
        L, m = stack.shape[1:]  # the ring owns edge i at node i: m == n
        tile = max(1, min(L, MONO_TILE_BYTES // ((k + 1) * m)))
        ring = self._ring_constants(tile * m)
        table = ring.table
        fused = table is None and all(ring.units)
        if table is None:
            base, flip, ybase, yflip = ring.rows
        else:
            idx = np.empty(tile * m, dtype=np.intp)
            wide = np.empty(tile * m, dtype=np.uint16)
            xbase = None if ring.rows else mono.xbase[live]
        gather = None if fused else np.empty(tile * m, dtype=np.uint8)
        #: Blend masks, 0xFF where a row's node is active and 0x00 where it
        #: holds, and the steps that need one.
        ones = np.negative(masks.view(np.uint8))
        if masks.ndim == 2:
            held = ~masks.all(axis=1)
            ones = np.tile(ones[:, None], (1, tile, 1))
        else:
            held = np.ones(k, dtype=bool)
        flags = np.empty((2, k, L), dtype=bool)
        for r0 in range(0, L, tile):
            r1 = min(L, r0 + tile)
            size = (r1 - r0) * m
            st = stack[:, r0:r1]
            ost = ostack[:, r0:r1]
            first = r0 if masks.ndim == 3 else 0
            if table is not None:
                offsets = (
                    ring.rows[0][:size]
                    if xbase is None
                    else xbase[r0:r1].reshape(-1)
                )
            for j in range(k):
                src, out, oout = st[j], st[j + 1], ost[j + 1]
                if fused:
                    # Ring xor family: each select is a plain xor, so the
                    # shift writes the stepped frames directly.
                    _shift_rows(src, shift, out, base)
                    _shift_rows(src, shift, oout, ybase)
                else:
                    codes = gather[:size]
                    _shift_rows(src, shift, codes.reshape(-1, m))
                    if table is None:
                        for frame, unit, flips, bases in (
                            (out, ring.units[0], flip, base),
                            (oout, ring.units[1], yflip, ybase),
                        ):
                            frame = frame.reshape(-1)
                            if unit:
                                np.bitwise_xor(codes, bases[:size], out=frame)
                            else:
                                np.multiply(codes, flips[:size], out=frame)
                                np.bitwise_xor(frame, bases[:size], out=frame)
                    else:
                        i_, w_ = idx[:size], wide[:size]
                        np.add(codes, offsets, out=i_, casting="unsafe")
                        np.take(table, i_, out=w_, mode="clip")
                        np.bitwise_and(
                            w_, 0xFF, out=out.reshape(-1), casting="unsafe"
                        )
                        np.right_shift(w_, 8, out=w_)
                        np.copyto(oout.reshape(-1), w_, casting="unsafe")
                if held[j]:
                    mask = ones[j, first : first + r1 - r0].reshape(-1)
                    _blend(out, src, mask)
                    _blend(oout, ost[j], mask)
            _row_changes(st, flags[0, :, r0:r1])
            _row_changes(ost, flags[1, :, r0:r1])
        return flags

    # -- runs --------------------------------------------------------------

    def _check_topology(self, labeling: Labeling) -> None:
        topology = labeling.topology
        if topology is not self._topology and (
            topology.n != self._topology.n
            or topology.edges != self._topology.edges
        ):
            raise ValidationError(
                "labeling topology does not match the protocol's topology"
            )

    def _materialize(self, value_codes, output_codes) -> Configuration:
        labeling = Labeling(
            self._topology, self._interner.decode_values(value_codes)
        )
        outputs = tuple(
            self._y_interners[i].decode(code)
            for i, code in enumerate(output_codes)
        )
        return Configuration(labeling, outputs)

    def _materialize_many(self, value_rows, output_rows) -> list[Configuration]:
        """Configurations for many rows at once (column-wise decode).

        Replaces one Python decode loop per row with per-column list lookups;
        at timeout (every surviving row materializes at once) this is the
        difference between the decode tail showing up in profiles or not.
        """
        value_rows = np.asarray(value_rows)
        output_rows = np.asarray(output_rows)
        interner = self._interner
        def object_lut(objects):
            # np.empty + slice assign, not asarray: sequence-valued labels
            # must stay single object elements, never expand a dimension.
            lut = np.empty(len(objects), dtype=object)
            lut[:] = objects
            return lut

        if interner.int_identity:
            values = list(map(tuple, value_rows.tolist()))
        else:
            values = list(
                map(tuple, object_lut(interner.objects)[value_rows].tolist())
            )
        # One object-dtype gather per node column beats a Python decode loop
        # per row; the column stack then rebuilds row tuples in C.  When all
        # nodes share one output universe (the usual uniform-reaction case)
        # the whole matrix decodes in a single gather.
        y_objects = [yi.objects for yi in self._y_interners]
        if all(objs == y_objects[0] for objs in y_objects[1:]):
            decoded = object_lut(y_objects[0])[output_rows]
        else:
            decoded = np.empty(output_rows.shape, dtype=object)
            for i in range(output_rows.shape[1]):
                decoded[:, i] = object_lut(y_objects[i])[output_rows[:, i]]
        outputs = list(map(tuple, decoded.tolist()))
        topology = self._topology
        trusted_labeling = Labeling._trusted
        trusted_config = Configuration._trusted
        return [
            trusted_config(trusted_labeling(topology, vals), outs)
            for vals, outs in zip(values, outputs, strict=True)
        ]

    def run_batch(
        self,
        labelings: Sequence[Labeling],
        schedules: Sequence[Schedule] | Schedule,
        *,
        max_steps: int = DEFAULT_MAX_STEPS,
        initial_outputs: Sequence[Sequence[Any] | None] | None = None,
    ) -> list[RunReport]:
        """Run every row's case to a verdict; one ``RunReport`` per row.

        ``schedules`` is one schedule per row (a single schedule object is
        shared by every row — only sound for stateless-in-time schedules,
        which all of :mod:`repro.core.schedule` are).  Traces are not
        recorded; :meth:`~repro.core.engine.Simulator.run_trace` records
        one row's.
        """
        return self._run(labelings, schedules, None, max_steps, initial_outputs)

    def run_batch_with_faults(
        self,
        labelings: Sequence[Labeling],
        schedules: Sequence[Schedule] | Schedule,
        fault_plans: Sequence[Any],
        *,
        max_steps: int = DEFAULT_MAX_STEPS,
        initial_outputs: Sequence[Sequence[Any] | None] | None = None,
    ):
        """Injected batch runs; one ``FaultRunReport`` per row.

        The batch analog of :func:`repro.faults.injection.run_with_faults`,
        certified the same way: every round count is relative to the row's
        last fault.  Fault fire times split fused windows, so every model
        fires at exactly its serial time.
        """
        return self._run(
            labelings, schedules, fault_plans, max_steps, initial_outputs
        )

    def _run(self, labelings, schedules, fault_plans, max_steps, initial_outputs):
        """Every row's report: from the lockstep when the batch is
        vectorized and its labels stay in the declared space, else from
        the serial engine, row by row."""
        check_count("max_steps", max_steps)
        B = self.batch_size
        if isinstance(schedules, Schedule):
            schedules = [schedules] * B
        else:
            schedules = list(schedules)
        labelings = list(labelings)
        if len(labelings) != B or len(schedules) != B:
            raise ValidationError(
                f"need {B} labelings and schedules, got"
                f" {len(labelings)} and {len(schedules)}"
            )
        if initial_outputs is None:
            initial_outputs = [None] * B
        elif len(initial_outputs) != B:
            raise ValidationError("outputs must have one entry per row")
        if fault_plans is not None:
            fault_plans = list(fault_plans)
            if len(fault_plans) != B:
                raise ValidationError("need one fault plan per row")
        if self.vectorized:
            try:
                return self._run_lockstep(
                    labelings, schedules, fault_plans, max_steps, initial_outputs
                )
            except OutOfSpace:
                pass
        reports = []
        for b, inputs in enumerate(self.inputs):
            serial = Simulator(self.protocol, inputs)
            if fault_plans is None:
                report = serial.run(
                    labelings[b], schedules[b], max_steps, initial_outputs[b]
                )
            else:
                report = serial.run_with_faults(
                    labelings[b],
                    schedules[b],
                    fault_plans[b],
                    max_steps,
                    initial_outputs[b],
                )
            reports.append(report)
        return reports

    def _run_lockstep(
        self, labelings, schedules, fault_plans, max_steps, initial_outputs
    ):
        """Advance every row in fused windows of ``k >= 1`` steps.

        Each window runs the phases of :class:`_Lockstep` in order, and
        :meth:`_Lockstep.grow` sizes the next one: windows double, and
        after rows conclude they halve only once a window outgrows one
        kernel tile.  Rows that conclude mid-window are settled exactly
        either way, so the rule only trades speculative stepping against
        per-window overhead.  Fault fire times and the step budget truncate
        windows.  Raises :class:`OutOfSpace` when a starting labeling or a
        fault holds a label outside the declared space.
        """
        run = _Lockstep(
            self, labelings, schedules, fault_plans, max_steps, initial_outputs
        )
        t = 0
        window = 1
        while t < max_steps and run.live.size:
            run.fire(t)
            block = run.masks(t, run.window_length(t, window))
            frames, oframes, flags = run.step(block)
            finished = run.settle_aperiodic(t, block, frames, oframes, flags)
            finished += run.settle_periodic(t, frames, oframes)
            run.commit(frames, oframes, finished)
            t += block.shape[0]
            window = run.grow(window, finished)
        results = run.timeout()
        if fault_plans is None:
            return [report for report, _, _ in results]
        from repro.faults.injection import FaultRunReport

        return [
            FaultRunReport(
                outcome=report.outcome,
                recovery_rounds=report.label_rounds,
                output_recovery_rounds=report.output_rounds,
                cycle_start=report.cycle_start,
                cycle_length=report.cycle_length,
                faults_fired=len(fault_times),
                fault_times=tuple(fault_times),
                last_fault_time=fault_times[-1] if fault_times else None,
                # Report rounds are local to the analysis tail; the whole
                # run additionally executed the pre-fault window.
                steps_executed=base + report.steps_executed,
                final=report.final,
            )
            for report, fault_times, base in results
        ]


class _Lockstep:
    """The per-row state of one lockstep run and its window phases.

    Rows are grouped by schedule object (``gid``; a shared schedule is one
    group), so a window queries each live schedule once per step and builds
    one ``(k, G, n)`` activation block.  Aperiodic rows carry no witness
    set: the serial certifier's witness is every node active since the
    row's last label change, so a row is certified at step ``j`` exactly
    when its group's oldest "latest activation" reaches that segment start
    (see :meth:`settle_aperiodic`).  Fault fires are grouped by time up
    front, and models fire straight into the code rows.  Takes the row
    lists :meth:`BatchSimulator._run` checked: one entry per row each.
    """

    def __init__(
        self, sim, labelings, schedules, fault_plans, max_steps, initial_outputs
    ):
        B = sim.batch_size
        self.sim = sim
        self.B = B
        self.n = sim.protocol.n
        self.m = sim.protocol.topology.m
        self.max_steps = max_steps
        self._encode(labelings, initial_outputs)
        self._plan_faults(fault_plans)

        # Schedule groups, by object identity.
        index: dict[int, int] = {}
        self.schedules: list[Schedule] = []
        gid = []
        for schedule in schedules:
            g = index.setdefault(id(schedule), len(index))
            if g == len(self.schedules):
                self.schedules.append(schedule)
            gid.append(g)
        G = len(self.schedules)
        self.gid = np.asarray(gid, dtype=np.intp)
        #: Live rows per group; a group without any is never queried.
        self.group_rows = np.bincount(self.gid, minlength=G)
        #: One plus the latest step each node was active, per group (0 =
        #: never), as of the last window with aperiodic rows in analysis.
        self.last_active = np.zeros((G, self.n), dtype=np.int64)
        #: Absolute times ``0..max_steps``, sliced per window.
        self.times = np.arange(max_steps + 1, dtype=np.int64)

        # Per-row analysis state.  Rows enter analysis at t0: at 0, or
        # right after their last fault fires.  ``segs[0]``/``segs[1]`` are
        # the first steps after the last label/output change (t0 when
        # none), so the report's rounds are ``segs - t0``.
        self.t0 = np.zeros(B, dtype=np.int64)
        self.segs = np.zeros((2, B), dtype=np.int64)
        self.aper = np.zeros(B, dtype=bool)  # aperiodic rows in analysis
        self.per = np.zeros(B, dtype=bool)  # periodic rows in analysis
        self.analysis: list[_RowAnalysis | None] = [None] * B
        self.results: list[Any] = [None] * B
        self.alive = np.ones(B, dtype=bool)
        self.live = np.arange(B)
        self.stack_buf = None
        self.ostack_buf = None
        ready = np.ones(B, dtype=bool)
        ready[list(self.last_fire)] = False
        periodic = np.asarray(
            [schedule.period is not None for schedule in self.schedules]
        )[self.gid]
        self.aper[:] = ready & ~periodic
        for slot in np.flatnonzero(ready & periodic).tolist():
            self.start(slot, 0)

    # -- setup -----------------------------------------------------------

    def _encode(self, labelings, initial_outputs) -> None:
        """The starting code arrays, in the space's packed dtype.

        Encoding a label outside the declared space raises
        :class:`OutOfSpace` (the batch then runs serially).
        """
        sim = self.sim
        n = self.n
        interner = sim._interner
        y_interners = sim._y_interners
        code_dt = sim._batch.code_dtype
        for labeling in labelings:
            sim._check_topology(labeling)
        codes = interner.bulk_encode(
            [labeling.values for labeling in labelings], code_dt
        )
        if codes is None or codes.shape != (self.B, self.m):
            codes = np.asarray(
                [interner.encode_values(labeling.values) for labeling in labelings],
                dtype=code_dt,
            )
        output_rows = []
        none_row = None
        for outs in initial_outputs:
            if outs is None:
                if none_row is None:
                    none_row = [y_interners[i].encode(None) for i in range(n)]
                output_rows.append(none_row)
            else:
                outs = tuple(outs)
                if len(outs) != n:
                    raise ValidationError(
                        "outputs must have one entry per node"
                    )
                output_rows.append(
                    [y_interners[i].encode(outs[i]) for i in range(n)]
                )
        y_dt = np.dtype(
            packed_dtype(
                max([yi.size for yi in y_interners], default=1) or 1
            )
        )
        self.codes = codes
        self.ocodes = np.asarray(output_rows, dtype=y_dt)
        self.code_dt = code_dt
        self.y_dt = y_dt

    def _plan_faults(self, fault_plans) -> None:
        """Group every row's fire list by time: ``t -> {slot: [models]}``.

        Fire lists are validated by the serial injector's own check, so the
        two executors accept exactly the same fault plans.
        """
        self.timeline: dict[int, dict[int, list]] = {}
        #: Slot -> its last fire time (the rows that start analysis late).
        self.last_fire: dict[int, int] = {}
        if fault_plans is None:
            # Fault-free rows never append; sharing one immutable empty per
            # row skips B list allocations at sweep scale.
            self.fault_times: list = [()] * self.B
            self.fire_times: list[int] = []
            return
        from repro.faults.injection import validate_fires

        for slot, plan in enumerate(fault_plans):
            fires = plan.fires_within(self.max_steps)
            validate_fires(fires, self.max_steps)
            if not fires:
                continue
            self.last_fire[slot] = fires[-1][0]
            for time, model in fires:
                due = self.timeline.setdefault(time, {})
                due.setdefault(slot, []).append(model)
        self.fault_times = [[] for _ in range(self.B)]
        #: Pending fire times, latest first (the next one is last).
        self.fire_times = sorted(self.timeline, reverse=True)

    def start(self, slot: int, t: int) -> None:
        """Enter row ``slot`` into the analyzed run at time ``t``."""
        self.t0[slot] = t
        schedule = self.schedules[self.gid[slot]]
        period = schedule.period
        if period is None:
            self.aper[slot] = True
            self.segs[:, slot] = t
            return
        self.per[slot] = True
        preperiod = max(0, schedule.preperiod - t)
        state = (self.codes[slot].tobytes(), self.ocodes[slot].tobytes())
        self.analysis[slot] = _RowAnalysis(preperiod, period, state)

    def retire(self, slots) -> None:
        """Drop concluded rows from the live set."""
        slots = np.asarray(slots, dtype=np.intp)
        self.alive[slots] = False
        self.group_rows -= np.bincount(
            self.gid[slots], minlength=self.group_rows.size
        )
        self.live = self.live[self.alive[self.live]]

    # -- phases ----------------------------------------------------------

    def fire(self, t: int) -> None:
        """Fire the faults due at ``t`` (before sigma(t) applies).

        Models fire straight into the live rows of the code array.  Rows
        firing the same model objects in the same order share one
        ``fire_batch`` call per model, which keeps each model's ``(seed,
        t)`` draws and the fired count exactly the serial ones.  A model
        writing a label outside the declared space raises
        :class:`OutOfSpace`.
        """
        if not self.fire_times or self.fire_times[-1] != t:
            return
        self.fire_times.pop()
        alive = self.alive
        buckets: dict[tuple, tuple[list, list]] = {}
        for slot, models in self.timeline.pop(t).items():
            if not alive[slot]:
                continue
            self.fault_times[slot].extend([t] * len(models))
            key = tuple(id(model) for model in models)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = (models, [slot])
            else:
                bucket[1].append(slot)
        sim = self.sim
        space = sim.protocol.label_space
        for models, slots in buckets.values():
            for model in models:
                model.fire_batch(
                    self.codes, slots, sim._topology, space, sim._interner, t
                )
        last_fire = self.last_fire
        for _, slots in buckets.values():
            for slot in slots:
                if last_fire[slot] == t:
                    self.start(slot, t)

    def window_length(self, t: int, window: int) -> int:
        """Steps to fuse from ``t``: the adaptive ``window``, truncated at
        the next fault fire time and the step budget and bounded by the
        stack budget."""
        k = min(window, self.max_steps - t)
        if self.fire_times:
            k = min(k, self.fire_times[-1] - t)
        if k > 1:
            L = self.live.size
            per_step = L * (
                self.m * self.code_dt.itemsize + self.n * self.y_dt.itemsize
            )
            if np.count_nonzero(self.group_rows) > 1:
                per_step += L * self.n
            k = min(k, max(1, STACK_BUDGET_BYTES // per_step))
        return max(int(k), 1)

    def grow(self, window: int, finished) -> int:
        """The adaptive window length after a window of ``window`` steps.

        Doubling is capped at ``MAX_FUSE_WINDOW``.  After a window in which
        rows concluded, the doubled window is kept only while its label
        frames, ``(k+1)·L·m`` codes of the live rows, fit one kernel tile
        (``MONO_TILE_BYTES``): within a tile a longer window adds no numpy
        calls per step, while past it the tiles shrink as ``k`` grows, so
        the window halves instead.
        """
        grown = min(window * 2, MAX_FUSE_WINDOW)
        if not finished:
            return grown
        frame = self.live.size * self.m * self.code_dt.itemsize
        if (grown + 1) * frame <= MONO_TILE_BYTES:
            return grown
        return max(window // 2, 1)

    def masks(self, t: int, k: int):
        """The ``(k, G, n)`` activation block of steps ``t .. t+k-1``.

        Each schedule with live rows is queried once per step, and the
        block is filled by one scatter (groups without live rows stay
        all-False).
        """
        G = len(self.schedules)
        cells: list[int] = []
        nodes: list[int] = []
        for g, schedule in enumerate(self.schedules):
            if not self.group_rows[g]:
                continue
            for j in range(k):
                active = schedule.active(t + j)
                cells.extend([j * G + g] * len(active))
                nodes.extend(active)
        block = np.zeros((k * G, self.n), dtype=bool)
        block[cells, nodes] = True
        return block.reshape(k, G, self.n)

    def step(self, block):
        """``k`` fused transitions of the live rows.

        Returns ``(frames, oframes, flags)``: the ``(k+1, L, .)`` label and
        output stacks (slice 0 the window's start) and the ``(2, k, L)``
        per-step change flags of labels and outputs.  Masks stay one shared
        vector per step while a single schedule group is live, else they
        are gathered per row from ``block``.
        """
        sim = self.sim
        k = block.shape[0]
        live = self.live
        L = live.size
        full = L == self.B
        groups = np.flatnonzero(self.group_rows)
        if groups.size == 1:
            masks = block[:, groups[0]]
        else:
            masks = block[:, self.gid[live]]
        # Window stacks are reused across windows (first-axis slices of the
        # cached buffers stay contiguous); reallocating each window would
        # page-fault fresh memory every few steps.
        buf = self.stack_buf
        if buf is None or buf.shape[1] != L or buf.shape[0] < k + 1:
            self.stack_buf = np.empty((k + 1, L, self.m), dtype=self.code_dt)
            self.ostack_buf = np.empty((k + 1, L, self.n), dtype=self.y_dt)
        stack = self.stack_buf[: k + 1]
        ostack = self.ostack_buf[: k + 1]
        stack[0] = self.codes if full else self.codes[live]
        ostack[0] = self.ocodes if full else self.ocodes[live]
        return stack, ostack, sim._fill_stack(stack, ostack, masks, live)

    def _clock(self, t: int, block):
        """The per-group coverage clock of one window.

        ``clock[j, g]`` is one plus the oldest of the nodes' latest
        activations up to step ``t + j`` under group ``g``'s schedule (0
        while some node was never active); it is nondecreasing in ``j``.
        Returns ``(clock, after)``, with ``after[c, g]`` the first step
        ``j`` whose clock passes ``t + c + 1`` (``k`` when none does in this
        window): where a row whose label last changed at step ``c`` is due
        to finish.
        """
        times = self.times[t + 1 : t + block.shape[0] + 1]
        latest = block * times[:, None, None]
        np.maximum(latest[0], self.last_active, out=latest[0])
        latest = _scan(np.maximum, latest)
        self.last_active = latest[-1]
        clock = latest.min(axis=2)
        after = (clock <= times[:, None, None]).sum(axis=1, dtype=np.int8)
        return clock, after

    def settle_aperiodic(self, t, block, frames, oframes, flags):
        """Certify the aperiodic rows that reached a fixed point in-window.

        ``Simulator.run``'s witness set after step ``T`` is every node
        active in ``[seg, T]``, ``seg`` being the row's first step after its
        last label change (or its analysis start).  So a row is certified
        at ``T`` exactly when its group's clock (:meth:`_clock`) at ``T``
        has passed ``seg``: no witness set is carried.  While a row stays
        unchanged it is due to finish at the number of window steps whose
        clock has not; once it changed at ``c``, at ``after[c]``.  ``seg``
        only grows and a later segment finishes no earlier, so ``due[j]``
        over the window is one running maximum, and a row finishes at the
        first ``j`` with ``due[j] == j``.  In-window indices are int8
        (``k <= MAX_FUSE_WINDOW``).  Returns the finished slots.
        """
        live = self.live
        aper = self.aper[live]
        if aper.all():
            rows, slots = None, live
        else:
            rows = np.flatnonzero(aper)
            if not rows.size:
                return []
            slots = live[rows]
            flags = flags[:, :, rows]
        k, G, _ = block.shape
        clock, after = self._clock(t, block)
        if G > 1:
            grp = self.gid[slots]
            clock = clock[:, grp]
            after = after[:, grp]
        segs = self.segs[:, slots]
        pending = (clock <= segs[0]).sum(axis=0, dtype=np.int8)
        due = np.subtract(after, pending)
        due *= flags[0]
        due += pending
        due = _scan(np.maximum, due)
        steps = _STEPS[:k, None]
        hit = due == steps
        done = np.flatnonzero(hit.any(axis=0))
        # The last change per row, as its in-window step + 1 (0 = none):
        # the new segment starts at ``t`` plus that.
        ranks = _STEPS[1 : k + 1, None]
        marks = (flags * ranks).max(axis=1)
        self.segs[:, slots] = np.where(
            marks > 0, np.add(marks, t, dtype=np.int64), segs
        )
        if not done.size:
            return []
        at = hit[:, done].argmax(axis=0)
        marks = ((flags[:, :, done] & (steps <= at)) * ranks).max(axis=1)
        finished = slots[done]
        t0 = self.t0[finished]
        rounds = (
            np.where(marks > 0, np.add(marks, t, dtype=np.int64), segs[:, done])
            - t0
        )
        picked = done if rows is None else rows[done]
        finals = self.sim._materialize_many(
            frames[at + 1, picked], oframes[at + 1, picked]
        )
        finished = finished.tolist()
        for slot, j, start, label, output, final in zip(
            finished,
            at.tolist(),
            t0.tolist(),
            *rounds.tolist(),
            finals,
            strict=True,
        ):
            self.results[slot] = (
                RunReport(
                    outcome=RunOutcome.LABEL_STABLE,
                    label_rounds=label,
                    output_rounds=output,
                    final=final,
                    steps_executed=t + j - start + 1,
                ),
                self.fault_times[slot],
                start,
            )
        return finished

    def settle_periodic(self, t, frames, oframes):
        """Exact cycle detection for the periodic rows, step by step.

        Hashes ``(state bytes, phase)`` and classifies a revisit through
        the engine's own :func:`~repro.core.engine.classify_cycle`.
        Returns the finished slots.
        """
        finished = []
        live = self.live
        k = frames.shape[0] - 1
        for row in np.flatnonzero(self.per[live]).tolist():
            slot = int(live[row])
            state = self.analysis[slot]
            t0 = int(self.t0[slot])
            for j in range(k):
                vb = frames[j + 1, row].tobytes()
                ob = oframes[j + 1, row].tobytes()
                local_now = (t + j) - t0 + 1
                if local_now >= state.preperiod:
                    key = (
                        vb,
                        ob,
                        (local_now - state.preperiod) % state.period,
                    )
                    cycle_start = state.seen.get(key)
                    if cycle_start is not None:
                        outcome, label_rounds, output_rounds, final = (
                            classify_cycle(state.history, cycle_start, local_now)
                        )
                        final_values = np.frombuffer(final[0], dtype=self.code_dt)
                        final_outputs = np.frombuffer(final[1], dtype=self.y_dt)
                        self.results[slot] = (
                            RunReport(
                                outcome=outcome,
                                label_rounds=label_rounds,
                                output_rounds=output_rounds,
                                final=self.sim._materialize(
                                    final_values, final_outputs
                                ),
                                steps_executed=local_now,
                                cycle_start=cycle_start,
                                cycle_length=max(local_now - cycle_start, 1),
                            ),
                            self.fault_times[slot],
                            t0,
                        )
                        finished.append(slot)
                        break
                    state.seen[key] = local_now
                state.history.append((vb, ob))
        return finished

    def commit(self, frames, oframes, finished) -> None:
        """Store the post-window state and drop finished rows.

        Rows that finished mid-window concluded from their in-window state;
        their later stepped states are simply discarded.
        """
        k = frames.shape[0] - 1
        if self.live.size == self.B:
            # Aliasing the reused stack buffer is safe: the next window
            # copies ``codes`` into slice 0 before the fill touches slices
            # 1..k, and any L/dtype change reallocates the buffer (the alias
            # keeps the old one alive).
            self.codes = frames[k]
            self.ocodes = oframes[k]
        else:
            self.codes[self.live] = frames[k]
            self.ocodes[self.live] = oframes[k]
        if finished:
            self.retire(finished)

    def timeout(self) -> list:
        """Conclude the rows still live at the step budget, from their
        current state; all results."""
        live = self.live
        if not live.size:
            return self.results
        finals = self.sim._materialize_many(self.codes[live], self.ocodes[live])
        for slot, final in zip(live.tolist(), finals, strict=True):
            t0 = int(self.t0[slot])
            self.results[slot] = (
                RunReport(
                    outcome=RunOutcome.TIMEOUT,
                    label_rounds=None,
                    output_rounds=None,
                    final=final,
                    steps_executed=self.max_steps - t0,
                ),
                self.fault_times[slot],
                t0,
            )
        return self.results
