"""Canonical content fingerprints for sweep work.

Every object the paper's experiments run — a verdict, a witness, a
``SweepReport`` — is a pure function of its inputs: protocol, topology,
schedule, fault plan, seeds.  The service layer exploits that purity by
content-addressing results: :func:`fingerprint` maps any of the model
objects to a stable SHA-256 hex digest, and two objects share a digest
exactly when they describe the same computation.

The digest is computed over a *canonical tree*: a nested structure of
primitives (ints, strings, tagged tuples) built by :func:`canonical`.  The
rules that matter for cache soundness:

* **Stability.**  The tree depends only on constructor-level state, never on
  memoized or derived state.  Seeded random schedules fingerprint by
  ``(n, r, p, seed)`` — their realized activation sets are a deterministic
  function of the seed, so the memo is irrelevant; ``random.Random``
  instances and other mutable-state objects are refused outright
  (:class:`~repro.exceptions.FingerprintError`) rather than hashed unstably.
* **Injectivity (best effort, fail closed).**  Distinct computations must
  not collide.  Known model classes (topologies, label spaces, reactions,
  schedules, fault models and plans) have registered extractors covering
  exactly their defining state; unknown objects fall back to *all* of their
  instance attributes plus their class path; plain functions are identified
  by module, qualified name, source, defaults, and recursively-canonicalized
  closure cells (a never-bound cell gets a marker no value produces).
  Anonymous ``lambda``s are refused — every lambda in a module shares the
  qualified name ``<lambda>``, so two different ones could collide — use a
  named function for reactions that should be cacheable.
* **Source-keyed code.**  A named function, the function behind a bound
  method, and the hooks an unregistered reaction class overrides
  (:func:`reaction_hooks`) are keyed by their source tokens too: comments
  and blank lines are dropped, line breaks and indentation kept by kind
  only.  Editing a body changes the digest; a comment or whitespace edit
  does not.  Tokens, not
  bytecode or ``ast.dump``: one set of digests holds on every supported
  Python.  The limits: a helper called through module globals is not
  followed; source is read (via :mod:`linecache`) at a code object's first
  fingerprint and remembered, so a file edited after import but before that
  fingerprint is keyed by its new text; a function without source (built by
  ``exec``) keeps the name-only key.  For those, and for engine changes,
  bump :data:`ENGINE_VERSION`: it salts every digest.  The golden fixtures
  in ``tests/test_service_fingerprint.py`` catch accidental drift.

Cosmetic state — protocol/topology/label-space ``name`` strings, case
``tag``s — is excluded: renaming a protocol must hit the same cache entry.

:func:`fingerprint_offenders` runs the same walk in collecting mode: each
refusal becomes a located :class:`~repro.exceptions.Diagnostic` and the walk
goes on, into a refused lambda's defaults and closure too.  Paths are built
only in that mode, so a clean object costs exactly its fingerprint.  The
same mode lists every function the walk reaches (:func:`reached_functions`):
that is the code :mod:`repro.statics.purity` reads, so the purity verdict
covers what the key covers.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import inspect
import random
import tokenize
import types
from collections.abc import Callable, Mapping, Set

from repro.core.configuration import Configuration, Labeling
from repro.core.labels import (
    BitStrings,
    ExplicitLabelSpace,
    IntegerRange,
    ProductSpace,
)
from repro.core.protocol import StatefulProtocol, StatelessProtocol
from repro.core.reaction import (
    ConstantReaction,
    LambdaReaction,
    LambdaStatefulReaction,
    ReactionFunction,
    StatefulReactionFunction,
    TabularReaction,
    UniformReaction,
)
from repro.core.schedule import (
    ExplicitSchedule,
    LassoSchedule,
    RandomRFairSchedule,
    RoundRobinSchedule,
    ShiftedSchedule,
    SynchronousSchedule,
)
from repro.exceptions import Diagnostic, FingerprintError
from repro.faults.schedules import (
    BurstFault,
    ComposedFaultSchedule,
    NoFaults,
    OneShotFault,
    PeriodicFault,
    WindowFault,
)
from repro.graphs.topology import Topology

#: The engine/kernel version salt.  Mixed into every digest; bump it when
#: the engine's observable run semantics change (or when canonicalization
#: itself changes), which invalidates every previously cached result in one
#: stroke instead of silently serving stale reports.
ENGINE_VERSION = "repro-engine-3"

#: Registered state extractors, keyed by *exact* type (subclasses fall back
#: to the generic attribute walk so state added by a subclass is never
#: silently dropped from the digest).
_EXTRACTORS: dict[type, Callable] = {}

#: Exact item types that make a tuple its own canonical items.
_SCALARS = frozenset({bool, int, str, bytes, type(None)})
#: A closure cell that was never bound; no value canonicalizes to it.
_EMPTY_CELL = ("C",)

#: Source keys by code-object *identity* (code objects compiled from two
#: files can compare equal); each entry holds its code object, so its id is
#: not reused.
_SOURCE_KEYS: dict[int, tuple] = {}
_SKIPPED_TOKENS = frozenset({tokenize.COMMENT, tokenize.NL})
_LAYOUT_TOKENS = frozenset({tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT})
#: Python 3.12 splits an f-string into tokens; earlier versions emit one.
_FSTRING_START = getattr(tokenize, "FSTRING_START", None)
_FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def register_fingerprint(cls: type):
    """Register ``fn(obj) -> state`` as the canonical state of ``cls``.

    The extractor must return exactly the constructor-level state that
    determines the object's behavior — nothing memoized, nothing cosmetic.
    It applies to instances of ``cls`` itself only, never to subclasses.
    """

    def decorate(fn):
        _EXTRACTORS[cls] = fn
        return fn

    return decorate


#: ``module.qualname`` by class, memoized: every object of a class spells it.
_CLASSPATHS: dict[type, str] = {}


def _classpath(cls: type) -> str:
    path = _CLASSPATHS.get(cls)
    if path is None:
        path = _CLASSPATHS[cls] = f"{cls.__module__}.{cls.__qualname__}"
    return path


def _source_key(code) -> tuple:
    """``(digest,)`` of ``code``'s source tokens, ``()`` without source."""
    entry = _SOURCE_KEYS.get(id(code))
    if entry is not None:
        return entry[1]
    try:
        lines, _ = inspect.getsourcelines(code)
        tokens = list(tokenize.generate_tokens(iter(lines).__next__))
    except (OSError, TypeError, SyntaxError, tokenize.TokenError):
        tokens = ()
    kept, depth = [], 0
    for token in tokens:
        kind = token.type
        if kind == _FSTRING_START:
            depth += 1
            if depth == 1:
                start = token.start
        elif depth:
            if kind == _FSTRING_END:
                depth -= 1
            if not depth:  # fold the f-string back into one STRING token
                text = "".join(lines[start[0] - 1 : token.end[0]])
                end = len(text) - len(lines[token.end[0] - 1]) + token.end[1]
                kept.append(("STRING", text[start[1] : end]))
        elif kind not in _SKIPPED_TOKENS:
            text = "" if kind in _LAYOUT_TOKENS else token.string
            kept.append((tokenize.tok_name[kind], text))
    key = (hashlib.sha256(repr(kept).encode()).hexdigest(),) if tokens else ()
    _SOURCE_KEYS[id(code)] = (code, key)
    return key


def reaction_hooks(reaction) -> tuple:
    """The methods that run when ``reaction`` fires and that no instance
    attribute holds: the ``react``/``__call__``/``compile_fast_path`` a
    reaction class overrides, or a callable instance's own ``__call__``."""
    cls = type(reaction)
    for base in (ReactionFunction, StatefulReactionFunction):
        if issubclass(cls, base):
            return tuple(
                getattr(cls, name)
                for name in ("react", "__call__", "compile_fast_path")
                if getattr(cls, name) is not getattr(base, name)
            )
    call = getattr(cls, "__call__", None)
    return (call,) if isinstance(call, types.FunctionType) else ()


#: Hook keys by class, memoized like class paths; ``()`` for a class that
#: is not a reaction.
_HOOK_KEYS: dict[type, tuple] = {}


def _hook_keys(obj) -> tuple:
    """``(("H", source key per overridden hook),)`` for a reaction, else
    ``()``: a custom reaction class is keyed by its code, not its name."""
    keys = _HOOK_KEYS.get(type(obj))
    if keys is None:
        keys = ()
        if isinstance(obj, (ReactionFunction, StatefulReactionFunction)):
            hooks = reaction_hooks(obj)
            keys = (("H", *(_source_key(getattr(f, "__code__", None)) for f in hooks)),)
        _HOOK_KEYS[type(obj)] = keys
    return keys


def _refuse(found, where, rule, problem, path=None, line=None) -> None:
    """Raise ``problem``, or, when collecting, record it at ``where``."""
    if found is None:
        raise FingerprintError(problem)
    found.append(
        Diagnostic(f"preflight/{rule}", "error", f"{where}: {problem}", path, line)
    )


def _canonical_function(fn, stack, where, found) -> tuple:
    qualname, code = fn.__qualname__, fn.__code__
    if found is not None:
        found.append(fn)
    if "<lambda>" in qualname:  # raises unless collecting; then walk on
        _refuse(
            found,
            where,
            "lambda",
            "lambda reactions cannot be fingerprinted (every lambda in a"
            " module shares the qualified name '<lambda>') — use a named"
            " function",
            code.co_filename,
            code.co_firstlineno,
        )
    defaults = tuple(
        _canonical(value, stack, where and f"{where} default[{i}]", found)
        for i, value in enumerate(fn.__defaults__ or ())
    )
    closure = []
    for name, cell in zip(code.co_freevars, fn.__closure__ or (), strict=True):
        try:
            contents = cell.cell_contents
        except ValueError:  # never bound
            closure.append(_EMPTY_CELL)
            continue
        path = where and f"{where} closure[{name}]"
        closure.append(_canonical(contents, stack, path, found))
    key = ("F", fn.__module__, qualname, defaults, tuple(closure))
    return (*key, *_source_key(code))


#: Slot names by class, memoized like class paths: every ``__slots__``
#: along the MRO but ``__dict__``, a string being one name and a private
#: name spelled as it is stored (``__p`` of class ``C`` is ``_C__p``).
_SLOT_NAMES: dict[type, tuple] = {}


def _slot_names(cls: type) -> tuple:
    names = _SLOT_NAMES.get(cls)
    if names is None:
        found: dict[str, None] = {}
        for klass in cls.__mro__:
            slots = vars(klass).get("__slots__", ())
            owner = klass.__name__.lstrip("_")
            for name in (slots,) if isinstance(slots, str) else slots:
                if owner and name.startswith("__") and not name.endswith("__"):
                    name = f"_{owner}{name}"
                found[name] = None
        found.pop("__dict__", None)
        names = _SLOT_NAMES[cls] = tuple(found)
    return names


def _object_state(obj) -> dict:
    """Every instance attribute of ``obj`` (``__dict__`` plus slots)."""
    state = dict(getattr(obj, "__dict__", ()) or ())
    for name in _slot_names(type(obj)):
        if name not in state and hasattr(obj, name):
            state[name] = getattr(obj, name)
    return state


def _sort_key(tree) -> str:
    return repr(tree)


def _named(pairs, stack, where, found) -> tuple:
    """``(name, canonical value)`` for each attribute in ``pairs``."""
    return tuple(
        (name, _canonical(value, stack, where and f"{where}.{name}", found))
        for name, value in pairs
    )


def _canonical(obj, stack: list, where=None, found=None) -> object:
    """The canonical tree of ``obj``.

    With ``found`` None the first refusal raises
    :class:`~repro.exceptions.FingerprintError`.  Otherwise the walk
    collects: each refusal is appended to ``found`` as a diagnostic located
    at ``where``, each function reached is appended too, and the walk goes
    on.  Child paths are spelled ``where and f"..."``, so they are
    formatted only when collecting.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        return ("f", repr(obj))
    if type(obj) is tuple and _SCALARS.issuperset(map(type, obj)):
        return ("T", obj)  # the tree the tuple branch builds, unwalked

    identity = id(obj)
    if identity in stack:
        problem = "cyclic object graph cannot be canonicalized"
        return _refuse(found, where, "cycle", problem)
    stack.append(identity)
    try:
        # An exact-type extractor first.  No registered model class is a
        # container, enum, function, partial or RNG, so the generic
        # branches below would never have claimed one: the trees are equal.
        extractor = _EXTRACTORS.get(type(obj))
        if extractor is not None:
            state = _canonical(extractor(obj), stack, where, found)
            return ("O", _classpath(type(obj)), state)
        if isinstance(obj, (tuple, list)):
            items = (
                _canonical(item, stack, where and f"{where}[{i}]", found)
                for i, item in enumerate(obj)
            )
            return ("T", tuple(items))
        if isinstance(obj, Set):
            path = where and f"{where}{{...}}"
            items = (_canonical(item, stack, path, found) for item in obj)
            return ("S", tuple(sorted(items, key=_sort_key)))
        if isinstance(obj, Mapping):
            key_path = where and f"{where} key"
            pairs = (
                (
                    _canonical(key, stack, key_path, found),
                    _canonical(value, stack, where and f"{where}[{key!r}]", found),
                )
                for key, value in obj.items()
            )
            return ("M", tuple(sorted(pairs, key=_sort_key)))
        if isinstance(obj, enum.Enum):
            return ("E", _classpath(type(obj)), obj.name)
        if isinstance(obj, types.FunctionType):
            return _canonical_function(obj, stack, where, found)
        if isinstance(obj, types.MethodType):
            func = obj.__func__
            if found is not None:
                found.append(func)
            path = where and f"{where}.__self__"
            owner = _canonical(obj.__self__, stack, path, found)
            code = getattr(func, "__code__", None)
            return ("B", owner, func.__qualname__, *_source_key(code))
        if isinstance(obj, functools.partial):
            keywords = dict(obj.keywords)
            parts = [("func", obj.func), ("args", obj.args), ("keywords", keywords)]
            return ("P", *(tree for _, tree in _named(parts, stack, where, found)))
        if isinstance(obj, random.Random):
            problem = (
                "random.Random carries mutable RNG state — fingerprint the"
                " seed, not the generator"
            )
            return _refuse(found, where, "rng-state", problem)
        if isinstance(obj, (types.ModuleType, types.GeneratorType)):
            problem = (
                f"{type(obj).__name__} state is process-local and cannot be"
                f" canonicalized"
            )
            return _refuse(found, where, "process-local", problem)

        hooks = _hook_keys(obj)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            pairs = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
            named = _named(pairs, stack, where, found)
            return ("D", _classpath(type(obj)), named, *hooks)
        state = _object_state(obj)
        if not state:
            problem = (
                f"{_classpath(type(obj))} has no registered extractor and no"
                f" instance attributes (register one with"
                f" repro.service.register_fingerprint)"
            )
            return _refuse(found, where, "unregistered-type", problem)
        attrs = _named(sorted(state.items()), stack, where, found)
        return ("O", _classpath(type(obj)), attrs, *hooks)
    finally:
        stack.pop()


def canonical(obj) -> object:
    """The canonical tree of ``obj`` (deterministic, version-stable).

    Raises :class:`~repro.exceptions.FingerprintError` for objects that
    cannot be canonicalized stably (lambdas, RNG instances, cycles).
    """
    return _canonical(obj, [])


def fingerprint(obj) -> str:
    """SHA-256 hex digest of ``obj``'s canonical tree, salted with
    :data:`ENGINE_VERSION`."""
    tree = ("repro", ENGINE_VERSION, canonical(obj))
    return hashlib.sha256(repr(tree).encode()).hexdigest()


def fingerprint_offenders(obj, where: str = "plan") -> tuple:
    """Every refusal in ``obj``'s tree, as located error diagnostics.

    :func:`canonical` raises at the first refusal, unlocated; this runs the
    same walk collecting them all, each message prefixed with the attribute
    path that reached it (``plan.protocol[2][0][1] closure[fn]``), lambdas
    with their source position.  Empty exactly when ``obj`` fingerprints.
    """
    found: list = []
    _canonical(obj, [], where, found)
    return tuple(item for item in found if isinstance(item, Diagnostic))


def reached_functions(obj) -> tuple:
    """Every function ``obj``'s key reaches, each once, in walk order.

    The collecting walk of :func:`fingerprint_offenders`: closures and
    defaults to any depth, containers, instance attributes, the function
    behind a bound method, and refused lambdas too.
    """
    found: list = []
    _canonical(obj, [], "", found)  # collecting; an empty path builds none
    unique = {id(fn): fn for fn in found if not isinstance(fn, Diagnostic)}
    return tuple(unique.values())


def unique_offenders(diagnostics) -> tuple:
    """``diagnostics`` without repeats: findings that differ only in the
    path that reached them (one lambda shared by every reaction, one RNG in
    every spec's schedule) count once, at the first path."""
    unique: dict = {}
    for d in diagnostics:
        key = (d.rule, d.path, d.line, d.message.split(": ", 1)[-1])
        unique.setdefault(key, d)
    return tuple(unique.values())


# -- registered extractors for the model classes ------------------------------
#
# Each extractor returns exactly the behavior-determining constructor state.
# ``name`` strings are cosmetic everywhere and deliberately excluded.

register_fingerprint(Topology)(lambda t: (t.n, t.edges))
register_fingerprint(Labeling)(lambda l: (l.topology, l.values))
register_fingerprint(Configuration)(lambda c: (c.labeling, c.outputs))

register_fingerprint(ExplicitLabelSpace)(lambda s: (s.values,))
register_fingerprint(BitStrings)(lambda s: (s.k,))
register_fingerprint(IntegerRange)(lambda s: (s.size,))
register_fingerprint(ProductSpace)(lambda s: (s.components,))

register_fingerprint(StatelessProtocol)(
    lambda p: (p.topology, p.label_space, p.reactions)
)
register_fingerprint(StatefulProtocol)(
    lambda p: (p.topology, p.label_space, p.reactions)
)

register_fingerprint(LambdaReaction)(lambda r: (r._fn,))
register_fingerprint(LambdaStatefulReaction)(lambda r: (r._fn,))
register_fingerprint(UniformReaction)(lambda r: (r._out_edges, r._fn))
register_fingerprint(ConstantReaction)(
    lambda r: (r._out_edges, r._label, r._output)
)
register_fingerprint(TabularReaction)(
    lambda r: (r.in_edges, r.out_edges, r.table)
)

register_fingerprint(SynchronousSchedule)(lambda s: (s.n,))
register_fingerprint(RoundRobinSchedule)(lambda s: (s.n,))
# The third field is the retired ``cycle`` flag: an explicit schedule always
# repeats, and keeping ``True`` there keeps every digest.
register_fingerprint(ExplicitSchedule)(lambda s: (s.n, s.steps, True))
register_fingerprint(LassoSchedule)(lambda s: (s.n, s._prefix, s._loop))
# Realized activation sets are a deterministic function of (n, r, p, seed);
# the memo and RNG state are irrelevant and must not enter the digest.
register_fingerprint(RandomRFairSchedule)(lambda s: (s.n, s.r, s.p, s.seed))
register_fingerprint(ShiftedSchedule)(lambda s: (s.base, s.offset))

register_fingerprint(NoFaults)(lambda f: ())
register_fingerprint(OneShotFault)(lambda f: (f.time, f.model))
register_fingerprint(BurstFault)(lambda f: (f.times, f.model))
register_fingerprint(WindowFault)(lambda f: (f.start, f.stop, f.model))
register_fingerprint(PeriodicFault)(
    lambda f: (f.period, f.start, f.stop, f.model)
)
register_fingerprint(ComposedFaultSchedule)(lambda f: (f.parts,))
