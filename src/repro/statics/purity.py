"""Static statelessness verification of reaction functions.

The paper's model rests on one restriction: every reaction is a *pure
deterministic* function of its current inputs (Section 2.1) — no hidden
state, no clocks, no coins.  The runtime only discovers violations late (a
stateful reaction silently sends every batch to the serial engine; an
RNG-carrying one fails fingerprinting deep in canonicalization), so this
module checks the promise at the boundary:
AST-plus-closure inspection of a reaction callable, yielding a
:class:`Purity` verdict per node with source locations.

What the verifier flags as **hidden state** (verdict ``STATEFUL``):

* writes to ``self`` attributes inside ``react``/``__call__``/
  ``compile_fast_path`` (including subscript stores and in-place ops);
* ``nonlocal``/``global`` declarations (a write-back across calls);
* mutation of closed-over cells (``.append``/``.update``/... or a
  subscript store on a free variable);
* mutable default arguments (the classic accumulating-default trap);
* ``random.Random`` instances reachable through the function's scope;
* a read of any :data:`HIDDEN_INPUTS` row — wall clocks, ``os.environ``/
  ``os.getenv``, draws from the global ``random``/``numpy.random``
  generators — however it was imported (``import time``, ``from time
  import perf_counter``, ``from datetime import datetime``, a function-local
  import).  Time, environment and coins are state the node does not
  receive on its incoming edges.  The lint
  (:mod:`repro.statics.lint`) reads the same table.

**What is read.**  The hooks a reaction class overrides
(:func:`~repro.service.fingerprint.reaction_hooks`) plus every function the
reaction's cache key reaches
(:func:`~repro.service.fingerprint.reached_functions`): closures and
defaults to any depth, containers, instance attributes, ``functools.partial``
and bound-method targets.  So a verdict covers exactly the code the key
covers, and the one limit is shared: a helper called through module
globals is followed by neither.

Reactions whose source cannot be inspected (C extensions, ``exec``-built
code) or that use dynamic features the analysis cannot see through come
back ``UNKNOWN`` — the verifier fails open on *verdicts* but never claims
``PURE`` without having read the code.  Closure cells holding mutable
containers that are only ever read are reported as ``info`` diagnostics
(purity then depends on nobody mutating the cell) without demoting the
verdict; method calls on closed-over model objects are assumed pure,
matching the runtime contract that protocol parameters are frozen after
construction.

Declared statefulness is handled by declaration, not inspection: a
:class:`~repro.core.reaction.StatefulReactionFunction` (or any reaction of
a protocol with ``is_stateful=True``) reads its own outgoing labels by
contract and classifies ``STATEFUL`` outright.  The cross-check runs the
other way too — a *declared-stateless* protocol whose reaction shows
hidden-state evidence is an ``error``, the exact contradiction this
verifier exists to catch.
"""

from __future__ import annotations

import ast
import enum
import inspect
import random
import sys
import textwrap
import types
from dataclasses import dataclass

from repro.core.reaction import StatefulReactionFunction
from repro.exceptions import Diagnostic
from repro.service.fingerprint import reached_functions, reaction_hooks

#: Method names whose call on a closed-over (or ``self``-reachable) object
#: mutates it in place.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)


def _rows(kind: str, owner: str, names: str) -> dict:
    return {f"{owner}.{name}": kind for name in names.split()}


#: Hidden inputs by qualified name, each with its rule kind.  Purity
#: reports every row as ``purity/<kind>``; the lint reports the
#: ``wall-clock`` and ``environ-read`` rows in the kernel paths.  Seeding
#: helpers (``random.seed``, ``numpy.random.default_rng``) are absent:
#: building a seeded generator is not a draw.
HIDDEN_INPUTS = {
    **_rows(
        "wall-clock",
        "time",
        "monotonic monotonic_ns perf_counter perf_counter_ns time time_ns",
    ),
    **_rows("wall-clock", "datetime.datetime", "now utcnow today"),
    **_rows("wall-clock", "datetime.date", "today"),
    **_rows("environ-read", "os", "environ getenv"),
    **_rows(
        "unseeded-rng",
        "random",
        "betavariate choice choices expovariate gauss getrandbits randbytes"
        " randint random randrange sample shuffle triangular uniform"
        " vonmisesvariate",
    ),
    **_rows(
        "unseeded-rng",
        "numpy.random",
        "binomial choice exponential normal permutation poisson rand randint"
        " randn random random_sample shuffle standard_normal uniform",
    ),
}


def import_bindings(tree) -> dict:
    """Local name -> qualified name for every import in ``tree``.

    ``import a.b`` binds ``a``; ``import a.b as c`` and ``from a import b
    as c`` bind ``c`` to ``a.b``.  Relative imports bind nothing.
    """
    bindings = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    root = alias.name.partition(".")[0]
                    bindings[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bindings[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bindings


def _qualified(node, bindings) -> str | None:
    """The qualified name a ``Name``/``Attribute`` load resolves to."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in bindings:
        return None
    return ".".join([bindings[node.id], *reversed(attrs)])


def hidden_inputs(tree, bindings) -> list:
    """``(node, qualified name, kind)`` for each name or attribute load in
    ``tree`` that ``bindings`` resolves to a :data:`HIDDEN_INPUTS` row, in
    source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
            node.ctx, ast.Load
        ):
            name = _qualified(node, bindings)
            if name in HIDDEN_INPUTS:
                found.append((node, name, HIDDEN_INPUTS[name]))
    found.sort(key=lambda item: (item[0].lineno, item[0].col_offset))
    return found


def _table_objects() -> dict:
    """``id -> qualified name`` of every non-module object a row of
    :data:`HIDDEN_INPUTS`, or a prefix of one, names in an imported module
    (``time.perf_counter``, ``os.environ``, the ``datetime.datetime``
    class): a scope name bound to one of them binds to that row."""
    objects = {}
    for row in HIDDEN_INPUTS:
        parts = row.split(".")
        obj = sys.modules.get(parts[0])
        for depth in range(2, len(parts) + 1):
            obj = getattr(obj, "__dict__", {}).get(parts[depth - 1])
            if obj is None:
                break
            if not isinstance(obj, types.ModuleType):
                objects[id(obj)] = ".".join(parts[:depth])
    return objects


#: Builtin container types whose closure cells are flagged as mutable.
MUTABLE_CELL_TYPES = (list, dict, set, bytearray)

#: The AST nodes a function's source parses to.
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class Purity(enum.Enum):
    """The verifier's per-reaction verdict."""

    #: Inspected and free of hidden-state evidence.
    PURE = "pure"
    #: Hidden state found, or statefulness declared by type/flag.
    STATEFUL = "stateful"
    #: Source unavailable or dynamic features defeated the analysis.
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ReactionVerdict:
    """One reaction's verdict with the evidence that produced it.

    ``node`` is the protocol node index when the reaction was reached
    through a protocol (``None`` for standalone callables); ``target``
    names the analyzed object (class path or function qualname); ``path``/
    ``line`` locate its source when available.
    """

    verdict: Purity
    target: str
    node: int | None = None
    path: str | None = None
    line: int | None = None
    diagnostics: tuple = ()

    @property
    def errors(self) -> tuple:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    def record(self) -> dict:
        return {
            "node": self.node,
            "verdict": self.verdict.value,
            "target": self.target,
            "path": self.path,
            "line": self.line,
            "diagnostics": [d.record() for d in self.diagnostics],
        }

    def describe(self) -> str:
        where = "" if self.node is None else f"node {self.node}: "
        return f"{where}{self.verdict.value.upper()} ({self.target})"


@dataclass(frozen=True)
class PurityReport:
    """Per-node verdicts for one protocol, plus the flag cross-check."""

    protocol: str
    declared_stateful: bool
    verdicts: tuple
    diagnostics: tuple = ()

    @property
    def ok(self) -> bool:
        """No error-severity finding anywhere in the report."""
        return not self.errors

    @property
    def errors(self) -> tuple:
        found = [d for d in self.diagnostics if d.severity == "error"]
        for verdict in self.verdicts:
            found.extend(verdict.errors)
        return tuple(found)

    def counts(self) -> dict:
        tally = {purity.value: 0 for purity in Purity}
        for verdict in self.verdicts:
            tally[verdict.verdict.value] += 1
        return tally

    def record(self) -> dict:
        return {
            "protocol": self.protocol,
            "declared_stateful": self.declared_stateful,
            "counts": self.counts(),
            "verdicts": [v.record() for v in self.verdicts],
            "diagnostics": [d.record() for d in self.diagnostics],
        }

    def describe(self) -> str:
        tally = self.counts()
        parts = ", ".join(
            f"{count} {name}" for name, count in tally.items() if count
        )
        return f"{self.protocol}: {parts or 'no reactions'}"


def _classpath(obj) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def _source_location(fn) -> tuple[str | None, int | None]:
    code = getattr(fn, "__code__", None)
    if code is None:
        return None, None
    return code.co_filename, code.co_firstlineno


class _FunctionAnalysis(ast.NodeVisitor):
    """One function's AST walk: collect hidden-state evidence.

    ``free_names`` are the function's closure variables (mutating them
    leaks state across calls); ``bindings`` maps names in the function's
    runtime scope and its own imports to qualified names, so
    :data:`HIDDEN_INPUTS` rows are recognized however they were imported.
    """

    def __init__(self, analyzer, fn, tree):
        self.analyzer = analyzer
        self.fn = fn
        self.path = fn.__code__.co_filename
        self.free_names = set(fn.__code__.co_freevars)
        #: A constructor's ``self`` is the object being built, not state
        #: that survives activations (a class the key reaches is read
        #: method by method).
        self.self_is_state = fn.__name__ not in ("__init__", "__new__", "__post_init__")
        self.bindings: dict[str, str] = {}
        #: Names that resolve to live ``random.Random`` instances (globals
        #: or closure cells): any method call on one is a stateful draw.
        self.rng_names: set[str] = set()
        #: Names bound to builtin mutable containers (module globals or
        #: closure cells): a mutator-method call on one leaks state, while
        #: the same call on a closed-over *model object* is assumed pure
        #: (the runtime contract freezes protocol parameters after
        #: construction — a documented limitation of the analysis).
        self.mutable_names: set[str] = set()
        scope = dict(fn.__globals__)
        scope.update(self.analyzer.closure_values(fn))
        for name, value in scope.items():
            if isinstance(value, types.ModuleType):
                self.bindings[name] = value.__name__
            elif id(value) in analyzer.table_objects:
                self.bindings[name] = analyzer.table_objects[id(value)]
            elif isinstance(value, random.Random):
                self.rng_names.add(name)
            elif isinstance(value, MUTABLE_CELL_TYPES):
                self.mutable_names.add(name)
        self.bindings.update(import_bindings(tree))
        self._tree = tree

    # -- helpers -----------------------------------------------------------

    def _flag(self, rule, node, message):
        self.analyzer.diagnostics.append(
            Diagnostic(
                rule=rule,
                severity="error",
                message=message,
                path=self.path,
                line=getattr(node, "lineno", None),
            )
        )
        self.analyzer.stateful = True

    def _note(self, rule, node, message, severity="info"):
        self.analyzer.diagnostics.append(
            Diagnostic(
                rule=rule,
                severity=severity,
                message=message,
                path=self.path,
                line=getattr(node, "lineno", None),
            )
        )
        if severity == "warning":
            self.analyzer.unknown = True

    def _is_state_root(self, node) -> str | None:
        """``"self"``/``"closure"`` when a store target reaches shared state."""
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return "self" if self.self_is_state else None
            node = node.value
        if isinstance(node, ast.Name) and node.id in self.free_names:
            return "closure"
        return None

    def _check_store_target(self, target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store_target(element)
            return
        if isinstance(target, ast.Name):
            return  # rebinding a local is pure
        root = self._is_state_root(target)
        if root == "self":
            self._flag(
                "purity/self-write",
                target,
                "reaction writes to a `self` attribute — state survives"
                " across activations",
            )
        elif root == "closure":
            self._flag(
                "purity/closure-mutation",
                target,
                "reaction stores into a closed-over object — state survives"
                " across activations",
            )

    # -- visitors ----------------------------------------------------------

    def visit_Global(self, node):
        self._flag(
            "purity/global-write",
            node,
            f"`global {', '.join(node.names)}` declares a cross-call write",
        )

    def visit_Nonlocal(self, node):
        self._flag(
            "purity/nonlocal-write",
            node,
            f"`nonlocal {', '.join(node.names)}` declares a cross-call write",
        )

    def visit_Assign(self, node):
        for target in node.targets:
            self._check_store_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check_store_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self._check_store_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node):
        for target in node.targets:
            self._check_store_target(target)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            root = func.value
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and root.id in self.rng_names:
                self._flag(
                    "purity/rng-state",
                    node,
                    f"{root.id}.{func.attr}() draws from a random.Random"
                    f" the reaction reaches through its scope — the"
                    f" reaction carries RNG state",
                )
            elif func.attr in MUTATING_METHODS:
                state_root = self._is_state_root(func)
                if state_root == "self":
                    self._flag(
                        "purity/self-write",
                        node,
                        f".{func.attr}() mutates a `self` attribute — state"
                        f" survives across activations",
                    )
                elif (
                    isinstance(root, ast.Name)
                    and root.id in self.mutable_names
                ):
                    scope_kind = (
                        "closed-over"
                        if root.id in self.free_names
                        else "module-global"
                    )
                    self._flag(
                        "purity/closure-mutation",
                        node,
                        f"{root.id}.{func.attr}() mutates a {scope_kind}"
                        f" container — state survives across activations",
                    )
        elif isinstance(func, ast.Name):
            if func.id in ("exec", "eval", "compile"):
                self._note(
                    "purity/dynamic-code",
                    node,
                    f"{func.id}() defeats static analysis",
                    severity="warning",
                )
            elif func.id in ("globals", "vars", "setattr", "delattr"):
                self._note(
                    "purity/dynamic-state",
                    node,
                    f"{func.id}() may reach shared state the analysis"
                    f" cannot see",
                    severity="warning",
                )
        self.generic_visit(node)

    def run(self):
        self._check_defaults()
        self.visit(self._tree)
        for node, name, kind in hidden_inputs(self._tree, self.bindings):
            self._flag(
                f"purity/{kind}",
                node,
                f"{name} is a hidden input ({kind}) — state the node does"
                f" not receive on its incoming edges",
            )

    def _check_defaults(self):
        args = self._tree.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            ):
                self._flag(
                    "purity/mutable-default",
                    default,
                    "mutable default argument accumulates state across calls",
                )


class _Analyzer:
    """Drives the per-function walks over one reaction's functions."""

    def __init__(self):
        self.diagnostics: list[Diagnostic] = []
        self.stateful = False
        self.unknown = False
        self.table_objects = _table_objects()

    def closure_values(self, fn) -> dict:
        values: dict = {}
        if fn.__closure__:
            for name, cell in zip(fn.__code__.co_freevars, fn.__closure__, strict=True):
                try:
                    values[name] = cell.cell_contents
                except ValueError:  # empty cell (still being built)
                    continue
        return values

    def analyze_function(self, fn) -> None:
        if not isinstance(fn, types.FunctionType):
            self.unknown = True
            self.diagnostics.append(
                Diagnostic(
                    rule="purity/opaque-callable",
                    severity="warning",
                    message=f"cannot inspect {type(fn).__name__} callable"
                    f" — no Python source to analyze",
                )
            )
            return

        path, line = _source_location(fn)
        try:
            source = textwrap.dedent(inspect.getsource(fn))
            tree = ast.parse(source)
            # Parsed linenos are snippet-relative; shift them back to the
            # function's true position so diagnostics point at the file.
            ast.increment_lineno(tree, (line or 1) - 1)
        except (OSError, TypeError, SyntaxError):
            self.unknown = True
            self.diagnostics.append(
                Diagnostic(
                    rule="purity/no-source",
                    severity="warning",
                    message=f"source for {fn.__qualname__} is unavailable"
                    f" — verdict stays UNKNOWN",
                    path=path,
                    line=line,
                )
            )
            return
        # The def, or for a lambda the first lambda of the statement its
        # source line belongs to.
        function_node = next(
            (n for n in ast.walk(tree) if isinstance(n, _FUNCTION_NODES)), None
        )
        if function_node is None:
            self.unknown = True
            return
        _FunctionAnalysis(self, fn, function_node).run()

        # Runtime defaults: the AST check catches literals; this catches
        # mutable defaults computed elsewhere and passed through.
        for default in fn.__defaults__ or ():
            if isinstance(default, MUTABLE_CELL_TYPES):
                self.stateful = True
                self.diagnostics.append(
                    Diagnostic(
                        rule="purity/mutable-default",
                        severity="error",
                        message="mutable default argument accumulates state"
                        " across calls",
                        path=path,
                        line=line,
                    )
                )

        self._inspect_closure(fn, path, line)

    def _inspect_closure(self, fn, path, line) -> None:
        for name, value in self.closure_values(fn).items():
            if isinstance(value, random.Random):
                self.stateful = True
                self.diagnostics.append(
                    Diagnostic(
                        rule="purity/rng-state",
                        severity="error",
                        message=f"closure cell {name!r} holds a"
                        f" random.Random — the reaction carries RNG state",
                        path=path,
                        line=line,
                    )
                )
            elif isinstance(value, MUTABLE_CELL_TYPES):
                self.diagnostics.append(
                    Diagnostic(
                        rule="purity/mutable-cell",
                        severity="info",
                        message=f"closure cell {name!r} holds a mutable"
                        f" {type(value).__name__} — purity holds only while"
                        f" nothing mutates it",
                        path=path,
                        line=line,
                    )
                )


def verify_reaction(
    reaction, *, node: int | None = None, declared_stateful: bool = False
) -> ReactionVerdict:
    """Classify one reaction callable as PURE / STATEFUL / UNKNOWN.

    Reads, once each, the hooks the reaction's class overrides and every
    function its cache key reaches; with none of them (a builtin, a C
    callable) the verdict is ``UNKNOWN``.  ``declared_stateful`` marks
    reactions reached through a protocol whose ``is_stateful`` flag is set;
    they (and any :class:`~repro.core.reaction.StatefulReactionFunction`)
    classify ``STATEFUL`` by declaration, without needing body evidence.
    """
    target = _classpath(reaction)
    reached = (*reaction_hooks(reaction), *reached_functions(reaction))
    functions = tuple({id(fn): fn for fn in reached}.values())
    path, line = _source_location(functions[0]) if functions else (None, None)

    if declared_stateful or isinstance(reaction, StatefulReactionFunction):
        return ReactionVerdict(
            verdict=Purity.STATEFUL,
            target=target,
            node=node,
            path=path,
            line=line,
            diagnostics=(
                Diagnostic(
                    rule="purity/declared-stateful",
                    severity="info",
                    message="reads its own outgoing labels by declaration"
                    " (is_stateful) — the Theorem B.11 stateful model",
                    path=path,
                    line=line,
                ),
            ),
        )

    analyzer = _Analyzer()
    for fn in functions or (reaction,):
        analyzer.analyze_function(fn)
    if analyzer.stateful:
        verdict = Purity.STATEFUL
    elif analyzer.unknown:
        verdict = Purity.UNKNOWN
    else:
        verdict = Purity.PURE
    return ReactionVerdict(
        verdict=verdict,
        target=target,
        node=node,
        path=path,
        line=line,
        diagnostics=tuple(analyzer.diagnostics),
    )


def verify_protocol_purity(protocol) -> PurityReport:
    """Per-node purity verdicts for a protocol, cross-checked with its flag.

    A declared-stateless protocol containing a reaction with hidden-state
    evidence yields an ``error`` diagnostic (``purity/undeclared-state``):
    the runtime would treat that node as pure — fingerprint it, lift it
    into batch tables — while its behavior depends on state the engine
    never sees.  The converse (declared stateful, no evidence) is only an
    ``info``: the flag is conservative-safe.
    """
    declared = bool(getattr(protocol, "is_stateful", False))
    verdicts = tuple(
        verify_reaction(reaction, node=i, declared_stateful=declared)
        for i, reaction in enumerate(protocol.reactions)
    )
    diagnostics: list[Diagnostic] = []
    if not declared:
        for verdict in verdicts:
            if verdict.verdict is Purity.STATEFUL:
                diagnostics.append(
                    Diagnostic(
                        rule="purity/undeclared-state",
                        severity="error",
                        message=f"node {verdict.node}: hidden state in a"
                        f" declared-stateless protocol ({verdict.target})",
                        path=verdict.path,
                        line=verdict.line,
                    )
                )
    return PurityReport(
        protocol=getattr(protocol, "name", type(protocol).__name__),
        declared_stateful=declared,
        verdicts=verdicts,
        diagnostics=tuple(diagnostics),
    )
