"""One execution-policy object for every performance knob in the stack.

The repository has three performance layers — the compiled engine, the
vectorized batch backend, and the exploration core — and every knob of
them is a field of one frozen value object,
:class:`ExecutionPolicy`, accepted everywhere
(:func:`repro.analysis.run_sweep`, :func:`repro.analysis.run_resilience_sweep`,
:func:`repro.service.plan_sweep`, :func:`repro.service.execute_plan`,
:meth:`repro.service.SweepService.submit`,
:class:`repro.stabilization.ExplorationGraph`) — and, just as importantly, it
is the input domain of the cost model
(:mod:`repro.analysis.costmodel`): estimation, planning, admission control,
and execution all describe *how a computation runs* with the same object.
``policy=`` is the only spelling: no entry point takes a knob as a keyword
of its own, and both fields are checked when the policy is built.  What is
not a field is not a knob: the batch table budget
(:data:`repro.core.batch.DEFAULT_MAX_TABLE_SIZE`) and the symmetry budgets
(:mod:`repro.graphs.automorphisms`) are module constants.

A policy is strictly **cosmetic with respect to results and cache keys**:
every field changes how fast an answer is produced, never which answer.
So ``symmetry`` names no group of the caller's: ``"auto"`` quotients by
the group :func:`repro.graphs.automorphisms.protocol_symmetry_group`
verified against the reactions, the one kind of quotient that keeps every
answer.
Case fingerprints (:mod:`repro.service.fingerprint`) exclude it by
construction, so identical physics shares cache entries across executors
and policy spellings.

Fields that a consumer does not use are ignored (a sweep does not read
``symmetry``; an exploration graph does not read ``executor``), so one
policy value can drive a whole pipeline.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields

from repro.exceptions import ValidationError

#: Executors the sweep runners accept.
SWEEP_EXECUTORS = ("serial", "batch")

#: Exploration quotients: none, or the protocol's verified symmetry group.
SYMMETRY_MODES = ("none", "auto")


def check_count(name: str, value) -> None:
    """Reject ``value`` unless it is an integer (as ``operator.index``
    accepts it: no floats, no strings) of at least 1, and not a bool."""
    try:
        operator.index(value)
    except TypeError:
        integral = False
    else:
        integral = not isinstance(value, bool)
    if not integral:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
    if value < 1:
        raise ValidationError(f"{name} must be >= 1")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a computation should run — never what it computes.

    * ``executor`` — sweep case backend: ``"serial"`` (one compiled run
      loop per case) or ``"batch"`` (vectorized lockstep, requires numpy).
    * ``symmetry`` — exploration quotient: ``"none"`` or ``"auto"`` (the
      protocol's verified symmetry group, when it has one).

    Frozen and value-compared; derive variants with
    :func:`dataclasses.replace`, which validates them again.
    """

    executor: str = "serial"
    symmetry: str = "none"

    def __post_init__(self):
        if self.executor not in SWEEP_EXECUTORS:
            raise ValidationError(
                f"unknown executor {self.executor!r};"
                f" expected one of {sorted(SWEEP_EXECUTORS)}"
            )
        if self.symmetry not in SYMMETRY_MODES:
            raise ValidationError(
                f"unknown symmetry {self.symmetry!r};"
                f" expected one of {sorted(SYMMETRY_MODES)}"
            )

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
    *,
    api: str,
    fallback: ExecutionPolicy | None = None,
) -> ExecutionPolicy:
    """The effective policy for one call of ``api``.

    An explicit ``policy`` wins; without one, the ``fallback`` (e.g. a
    plan's attached policy) or :data:`DEFAULT_POLICY` applies.
    """
    if policy is None:
        return fallback or DEFAULT_POLICY
    if not isinstance(policy, ExecutionPolicy):
        raise ValidationError(
            f"{api}: policy must be an ExecutionPolicy,"
            f" got {type(policy).__name__}"
        )
    return policy
