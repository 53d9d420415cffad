"""Repo-invariant lint: AST checks a generic linter cannot express.

Two rules, each encoding a convention this codebase relies on but ruff
has no vocabulary for:

* ``lint/wall-clock`` — no wall-clock or environment reads inside the
  kernel and fingerprint paths: the ``wall-clock`` and ``environ-read``
  rows of :data:`repro.statics.purity.HIDDEN_INPUTS`, the table purity
  checks reactions against, resolved through the module's imports
  (``time.perf_counter()``, ``from datetime import datetime`` then
  ``datetime.now()``, ``from os import environ``, ``os.getenv``).
  Simulation is a pure function of (protocol, schedule, seeds) and
  fingerprints are content addresses; a clock or environment read in
  either would make results run-dependent.
* ``lint/lock-discipline`` — a lightweight static race detector for
  classes that construct their own ``threading.Lock``/``Condition`` in
  ``__init__`` (the :class:`~repro.service.jobs.SweepService` shape).  Any
  ``self.<attr>`` ever touched inside a ``with self._lock:`` block is
  *guarded*; touching a guarded attribute outside such a block, in any
  method other than ``__init__``, is flagged.  Helper methods that are
  only ever invoked with the lock already held opt out by stating so in
  their docstring — the literal sentence ``"Caller holds the lock."``
  (see ``SweepService._finish``) — which keeps the waiver next to the
  code it excuses and greppable.

The detector is intentionally lexical: it sees ``with``-block nesting,
not call graphs, so a guarded attribute reached through an unmarked helper
is a finding even if every current caller holds the lock.  That is the
point — the marker documents the contract the analysis then enforces.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.exceptions import Diagnostic
from repro.statics.purity import hidden_inputs, import_bindings

#: Path suffixes of the kernel/fingerprint modules where wall-clock and
#: environment reads would make pure computations run-dependent.
KERNEL_PATH_SUFFIXES = (
    "core/engine.py",
    "core/compiled.py",
    "core/batch.py",
    "service/fingerprint.py",
)

#: Docstring sentence that waives the lock-discipline check for a method
#: whose contract is to be called with the lock already held.
LOCK_WAIVER = "Caller holds the lock."

#: ``threading`` constructors whose result makes an attribute a lock.
LOCK_CONSTRUCTORS = frozenset({"Condition", "Lock", "RLock"})


def _call_name(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _LockDiscipline:
    """Per-class lock-discipline analysis (see the module docstring)."""

    def __init__(self, path: str, class_node: ast.ClassDef):
        self.path = path
        self.class_node = class_node
        self.method_names = {
            item.name
            for item in class_node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.lock_attrs = self._find_lock_attrs()

    def _find_lock_attrs(self) -> set[str]:
        """Attributes ``__init__`` binds to a ``threading`` lock object."""
        locks: set[str] = set()
        init = next(
            (
                item
                for item in self.class_node.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ),
            None,
        )
        if init is None:
            return locks
        for node in ast.walk(init):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            name = _call_name(node.value.func)
            if name not in LOCK_CONSTRUCTORS:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    locks.add(target.attr)
        return locks

    def _is_lock_context(self, item) -> bool:
        expr = item.context_expr
        return (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in self.lock_attrs
        )

    def _collect(self, node, inside: bool, guarded, bare) -> None:
        """Partition ``self.X`` accesses by lexical lock-block membership."""
        if isinstance(node, ast.With) and any(
            self._is_lock_context(item) for item in node.items
        ):
            inside = True
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr not in self.lock_attrs
            and node.attr not in self.method_names
        ):
            (guarded if inside else bare).append(node)
        for child in ast.iter_child_nodes(node):
            self._collect(child, inside, guarded, bare)

    def run(self) -> list[Diagnostic]:
        guarded_attrs: set[str] = set()
        bare_by_method: list[tuple[str, list]] = []
        for item in self.class_node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue  # construction precedes sharing
            docstring = ast.get_docstring(item) or ""
            guarded: list = []
            bare: list = []
            self._collect(item, False, guarded, bare)
            guarded_attrs.update(node.attr for node in guarded)
            if LOCK_WAIVER not in docstring:
                bare_by_method.append((item.name, bare))

        diagnostics = []
        for method, bare in bare_by_method:
            for node in bare:
                if node.attr in guarded_attrs:
                    diagnostics.append(
                        Diagnostic(
                            rule="lint/lock-discipline",
                            severity="error",
                            message=f"{self.class_node.name}.{method}"
                            f" touches self.{node.attr} outside the lock"
                            f" that guards it elsewhere — take the lock, or"
                            f" state {LOCK_WAIVER!r} in the docstring",
                            path=self.path,
                            line=node.lineno,
                        )
                    )
        return diagnostics


def lint_source(source: str, path: str = "<string>") -> tuple:
    """Both rules over one module's source text."""
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return (
            Diagnostic(
                rule="lint/syntax",
                severity="error",
                message=f"cannot parse: {error.msg}",
                path=path,
                line=error.lineno,
            ),
        )
    diagnostics = []
    if path.replace("\\", "/").endswith(KERNEL_PATH_SUFFIXES):
        for node, name, kind in hidden_inputs(tree, import_bindings(tree)):
            if kind in ("wall-clock", "environ-read"):
                diagnostics.append(
                    Diagnostic(
                        rule="lint/wall-clock",
                        severity="error",
                        message=f"{name} ({kind}) in a kernel/fingerprint path"
                        f" — results must not depend on the clock or the"
                        f" environment",
                        path=path,
                        line=node.lineno,
                    )
                )
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            analysis = _LockDiscipline(path, node)
            if analysis.lock_attrs:
                diagnostics.extend(analysis.run())
    diagnostics.sort(key=lambda d: (d.path or "", d.line or 0, d.rule))
    return tuple(diagnostics)


def lint_paths(paths) -> tuple:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    diagnostics: list[Diagnostic] = []
    for file in files:
        diagnostics.extend(lint_source(file.read_text(), str(file)))
    return tuple(diagnostics)
