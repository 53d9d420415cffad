"""One execution-policy object for every performance knob in the stack.

The repository grew three performance layers — the compiled engine, the
vectorized batch backend, and the frontier-parallel exploration core — and
each grew its own keyword spelling of "how should this run": ``executor=``
and ``kernel=`` and ``processes=`` on the sweep runners, ``frontier=`` /
``symmetry=`` / ``spill_dir=`` / ``batch_min_rows=`` on the exploration
graph.  :class:`ExecutionPolicy` unifies those into one frozen value object
accepted everywhere (:func:`repro.analysis.run_sweep`,
:func:`repro.analysis.run_resilience_sweep`, :func:`repro.service.plan_sweep`,
:func:`repro.service.execute_plan`, :meth:`repro.service.SweepService.submit`,
:class:`repro.stabilization.ExplorationGraph`) — and, just as importantly, it
is the input domain of the cost model
(:mod:`repro.analysis.costmodel`): estimation, planning, admission control,
and execution all describe *how a computation runs* with the same object.

A policy is strictly **cosmetic with respect to results and cache keys**:
every field changes how fast an answer is produced, never which answer.
Case fingerprints (:mod:`repro.service.fingerprint`) exclude it by
construction, so identical physics shares cache entries across executors,
kernels, and policy spellings.

Fields that a consumer does not use are ignored (a sweep does not read
``frontier``; an exploration graph does not read ``processes``), so one
policy value can drive a whole pipeline.

The legacy scattered keywords keep working on every entry point through
shims that emit :class:`DeprecationWarning`; internal call sites are already
migrated, and the shim test suite runs under
``-W error::DeprecationWarning`` to keep it that way.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, fields, replace

from repro.exceptions import ValidationError

#: Executors the sweep runners accept.
SWEEP_EXECUTORS = ("serial", "batch")
#: Batch compute kernels (``None`` defers to the batch backend's default).
BATCH_KERNELS = ("numpy", "numba", "auto")
#: Frontier-expansion engines for the exploration core.
FRONTIER_MODES = ("auto", "batch", "serial")
#: Below this many rows, frontier groups step serially (kernel dispatch
#: overhead would dominate).  Shared default with the exploration core.
DEFAULT_BATCH_MIN_ROWS = 32

#: Sentinel distinguishing "not passed" from any legitimate value, so the
#: deprecation shims can detect explicitly-passed legacy keywords even when
#: the passed value equals the default.
UNSET = type("_Unset", (), {"__repr__": lambda self: "<unset>"})()


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a computation should run — never what it computes.

    * ``executor`` — sweep case backend: ``"serial"`` (one compiled run
      loop per case) or ``"batch"`` (vectorized lockstep, requires numpy).
    * ``kernel`` — batch compute kernel: ``"numpy"``, ``"numba"``, or
      ``"auto"``; requires ``executor="batch"`` (``None`` defers).
    * ``processes`` — ``multiprocessing`` fan-out width for sweeps
      (``None``/``1`` means in-process).
    * ``chunk_rows`` — batch sub-batch size (rows per resident stack);
      ``None`` uses the backend default
      (:data:`repro.core.batch.SWEEP_CHUNK_ROWS`); requires
      ``executor="batch"``.
    * ``frontier`` — exploration expansion engine: ``"auto"``, ``"batch"``,
      or ``"serial"``.
    * ``symmetry`` — exploration quotient: ``"none"``, ``"auto"``, or an
      explicit :class:`~repro.graphs.automorphisms.SymmetryGroup`.
    * ``spill_dir`` — directory for disk-backed (memmap) edge/parent
      arrays in the exploration core; ``None`` keeps them in memory.
    * ``batch_min_rows`` — smallest frontier group worth a kernel call.

    Frozen and value-compared; derive variants with :meth:`merged`.
    """

    executor: str = "serial"
    kernel: str | None = None
    processes: int | None = None
    chunk_rows: int | None = None
    frontier: str = "auto"
    symmetry: object = "none"
    spill_dir: str | os.PathLike | None = None
    batch_min_rows: int = DEFAULT_BATCH_MIN_ROWS

    def __post_init__(self):
        if self.executor not in SWEEP_EXECUTORS:
            raise ValidationError(
                f"unknown executor {self.executor!r};"
                f" expected one of {sorted(SWEEP_EXECUTORS)}"
            )
        if self.kernel is not None:
            if self.kernel not in BATCH_KERNELS:
                raise ValidationError(
                    f"unknown kernel {self.kernel!r};"
                    f" expected one of {sorted(BATCH_KERNELS)}"
                )
            if self.executor != "batch":
                raise ValidationError(
                    "kernel= selects a batch compute kernel;"
                    " it requires executor='batch'"
                )
        if self.chunk_rows is not None:
            if self.executor != "batch":
                raise ValidationError(
                    "chunk_rows= sizes batch sub-batches;"
                    " it requires executor='batch'"
                )
            if self.chunk_rows < 1:
                raise ValidationError("chunk_rows must be >= 1")
        if self.processes is not None and self.processes < 1:
            raise ValidationError("processes must be >= 1")
        if self.frontier not in FRONTIER_MODES:
            raise ValidationError(
                f"unknown frontier mode {self.frontier!r};"
                f" expected one of {sorted(FRONTIER_MODES)}"
            )
        if self.batch_min_rows < 1:
            raise ValidationError("batch_min_rows must be >= 1")

    def merged(self, **overrides) -> "ExecutionPolicy":
        """A copy with the given fields replaced (and re-validated)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        changed = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if getattr(self, f.name) != f.default
        )
        return f"ExecutionPolicy({changed or 'defaults'})"


#: The do-nothing-special policy every entry point defaults to.
DEFAULT_POLICY = ExecutionPolicy()


def resolve_policy(
    policy: ExecutionPolicy | None,
    legacy: dict,
    *,
    api: str,
    fallback: ExecutionPolicy | None = None,
    stacklevel: int = 3,
) -> ExecutionPolicy:
    """The effective policy for one call, shimming legacy keywords.

    ``legacy`` maps field names to the values the caller passed (or
    :data:`UNSET`).  Explicitly-passed legacy keywords emit one
    :class:`DeprecationWarning` naming the replacement and are folded into
    the fallback policy; combining them with an explicit ``policy=`` is an
    error (the call would be ambiguous).  With neither, the ``fallback``
    (e.g. a plan's attached policy) or :data:`DEFAULT_POLICY` applies.
    """
    given = {
        name: value for name, value in legacy.items() if value is not UNSET
    }
    if policy is not None and not isinstance(policy, ExecutionPolicy):
        raise ValidationError(
            f"{api}: policy must be an ExecutionPolicy,"
            f" got {type(policy).__name__}"
        )
    if given:
        if policy is not None:
            raise ValidationError(
                f"{api}: pass either policy= or the legacy keyword(s)"
                f" {sorted(given)}, not both"
            )
        warnings.warn(
            f"{api}: the {', '.join(sorted(given))} keyword(s) are"
            f" deprecated; pass policy=ExecutionPolicy("
            + ", ".join(f"{k}=..." for k in sorted(given))
            + ") instead",
            DeprecationWarning,
            stacklevel=stacklevel,
        )
        return (fallback or DEFAULT_POLICY).merged(**given)
    if policy is not None:
        return policy
    return fallback or DEFAULT_POLICY
