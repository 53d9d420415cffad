"""Plan preflight: predict batch liftability and fingerprint-safety early.

Two runtime surprises this module moves to submit time:

* **Silent serial batches.**  :class:`repro.core.batch.BatchSimulator`
  runs a batch in lockstep only when every node lifts into a lookup table
  (``src/repro/core/batch.py``, ``node_liftable`` and ``_assemble``);
  any other batch runs row by row on the serial engine.  The answer is
  the same either way, but a sweep the author believed vectorized can
  quietly run at serial speed.  :func:`verify_protocol` applies the
  static part of the gate — statefulness, label-space enumerability, the
  ``|Sigma|**degree`` table budget — per node, through the batch backend's
  own numpy-free rule, :func:`repro.core.batch.lift_demotion`, under its
  constant budget :data:`repro.core.batch.DEFAULT_MAX_TABLE_SIZE`;
  :func:`verify_plan` adds the per-case part (unhashable private inputs),
  so the nodes that keep a batch off the tables are known before any work
  is enqueued.
* **Late fingerprint failure.**  A lambda reaction, a closed-over
  ``random.Random``, or an unregistered type inside a plan only fails once
  a case is first keyed, deep in :mod:`repro.service.fingerprint`.
  :func:`verify_plan` keys the protocol and every case up front, through
  :attr:`~repro.service.plan.SweepPlan.protocol_fingerprint` and
  :meth:`~repro.service.plan.SweepPlan.case_fingerprint`, and reports
  what their walk refused as located diagnostics (lambda source
  positions, the attribute path that reached the RNG).  It checks exactly
  what the key covers, and the digests stay memoized on the plan for
  admission and the executor.

The predictions must stay glued to the runtime: ``tests/test_statics.py``
property-tests each node's predicted lift against
:meth:`~repro.core.batch.BatchCompiledProtocol.node_liftable`, and
``fully_lifted`` against whether the assembled
:class:`~repro.core.batch.BatchSimulator` is ``vectorized``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import batch
from repro.core.compiled import compile_protocol
from repro.exceptions import Diagnostic, StaticAnalysisError
from repro.service.fingerprint import unique_offenders


@dataclass(frozen=True)
class NodeLift:
    """One node's predicted lift decision and, when demoted, the reason:
    one of :func:`repro.core.batch.lift_demotion`'s values, ``"stateful"``,
    ``"space"`` or ``"table"``."""

    node: int
    lifted: bool
    reason: str | None = None
    degree: int = 0
    table_rows: int | None = None

    def record(self) -> dict:
        return {
            "node": self.node,
            "lifted": self.lifted,
            "reason": self.reason,
            "degree": self.degree,
            "table_rows": self.table_rows,
        }


@dataclass(frozen=True)
class ProtocolPreflight:
    """Predicted batch partition for one protocol (input-independent part).

    ``space_size`` is the enumerated code population — ``0`` when the label
    space exceeds the table budget, exactly as
    :class:`~repro.core.batch.BatchCompiledProtocol` would see it.
    """

    protocol: str
    is_stateful: bool
    space_size: int
    max_table_size: int
    lifts: tuple

    @property
    def predicted_lifted(self) -> tuple:
        return tuple(lift.node for lift in self.lifts if lift.lifted)

    @property
    def predicted_fallback(self) -> tuple:
        return tuple(lift.node for lift in self.lifts if not lift.lifted)

    @property
    def fully_lifted(self) -> bool:
        return not self.predicted_fallback

    def record(self) -> dict:
        return {
            "protocol": self.protocol,
            "is_stateful": self.is_stateful,
            "space_size": self.space_size,
            "max_table_size": self.max_table_size,
            "predicted_lifted": list(self.predicted_lifted),
            "predicted_fallback": [
                lift.record() for lift in self.lifts if not lift.lifted
            ],
        }

    def describe(self) -> str:
        lifted = len(self.predicted_lifted)
        return (
            f"{self.protocol}: {lifted}/{len(self.lifts)} nodes lift"
            f" (table budget {self.max_table_size})"
        )


@dataclass(frozen=True)
class PlanPreflight:
    """A plan's full preflight: partition, per-case demotions, fingerprints.

    ``case_demotions`` lists ``(case_index, node)`` pairs the plan's own
    inputs demote beyond the protocol-level prediction;
    ``fingerprint_diagnostics`` are the located offenders canonicalization
    would otherwise only reject one at a time, deep in the walk.
    """

    kind: str
    cases: int
    protocol: ProtocolPreflight
    case_demotions: tuple = ()
    fingerprint_diagnostics: tuple = ()
    diagnostics: tuple = ()

    @property
    def fingerprint_safe(self) -> bool:
        return not any(
            d.severity == "error" for d in self.fingerprint_diagnostics
        )

    @property
    def errors(self) -> tuple:
        return tuple(
            d
            for d in (*self.fingerprint_diagnostics, *self.diagnostics)
            if d.severity == "error"
        )

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_for_errors(self) -> None:
        """Raise :class:`StaticAnalysisError` when any error-severity
        diagnostic is present: ``verify_plan(plan).raise_for_errors()``
        refuses a bad plan at plan time."""
        errors = self.errors
        if errors:
            raise StaticAnalysisError(
                f"plan preflight found {len(errors)} blocking problem(s)",
                diagnostics=errors,
            )

    def record(self) -> dict:
        """The JSON-able form stored in JOB records next to admission."""
        return {
            "ok": self.ok,
            "kind": self.kind,
            "cases": self.cases,
            "fingerprint_safe": self.fingerprint_safe,
            "protocol": self.protocol.record(),
            "case_demotions": [list(pair) for pair in self.case_demotions],
            "diagnostics": [
                d.record()
                for d in (*self.fingerprint_diagnostics, *self.diagnostics)
            ],
        }

    def describe(self) -> str:
        safety = "safe" if self.fingerprint_safe else "UNSAFE"
        return (
            f"{self.protocol.describe()}; {len(self.case_demotions)}"
            f" case-level demotions; fingerprints {safety}"
        )


def verify_protocol(protocol) -> ProtocolPreflight:
    """Predict the batch lift partition for ``protocol``.

    Applies :func:`repro.core.batch.lift_demotion`, the rule
    :meth:`~repro.core.batch.BatchCompiledProtocol.node_liftable` applies,
    without importing numpy or building any tables: stateful protocols and
    over-budget label spaces demote every node; otherwise each node lifts
    exactly when its ``|Sigma|**in_degree`` table fits the budget
    :data:`~repro.core.batch.DEFAULT_MAX_TABLE_SIZE`.
    """
    compiled = compile_protocol(protocol)
    budget = batch.DEFAULT_MAX_TABLE_SIZE
    space = protocol.label_space
    space_size = space.size if space.size <= budget else 0
    declared_stateful = bool(protocol.is_stateful)

    lifts = []
    for i in range(compiled.n):
        degree = len(compiled.in_positions[i])
        reason = batch.lift_demotion(declared_stateful, space_size, degree)
        rows = space_size**degree if reason in (None, "table") else None
        lifts.append(
            NodeLift(
                node=i,
                lifted=reason is None,
                reason=reason,
                degree=degree,
                table_rows=rows,
            )
        )
    return ProtocolPreflight(
        protocol=getattr(protocol, "name", type(protocol).__name__),
        is_stateful=declared_stateful,
        space_size=space_size,
        max_table_size=budget,
        lifts=tuple(lifts),
    )


def _unhashable_inputs(inputs, lifted) -> list:
    """``(node, input)`` for each lifted node whose private input does not
    hash.  A tuple that hashes has no such input (hashing it hashes every
    item), so its items are walked only when that fails."""
    if type(inputs) is tuple:
        try:
            hash(inputs)
        except Exception:
            pass  # the walk below reports or raises item by item, as ever
        else:
            return []
    found = []
    for node, x in enumerate(inputs):
        if node not in lifted:
            continue
        try:
            hash(x)
        except TypeError:
            found.append((node, x))
    return found


def verify_plan(plan) -> PlanPreflight:
    """Full preflight of a :class:`~repro.service.plan.SweepPlan`.

    Combines :func:`verify_protocol` (static lift partition under the
    batch backend's table budget), per-case input hashability (the dynamic
    half of the lift gate), and the fingerprint of the protocol and of
    every spec: the offenders their walk refuses, each reported once.  A
    refused protocol does not hide a spec's own offenders.
    """
    protocol_preflight = verify_protocol(plan.protocol)

    demotions = []
    diagnostics = []
    lifted = set(protocol_preflight.predicted_lifted)
    #: Unhashable lifted inputs by inputs object: cases share one tuple.
    unhashable: dict[int, list] = {}
    for spec in plan.specs:
        inputs = spec.case.inputs
        found = unhashable.get(id(inputs))
        if found is None:
            found = unhashable[id(inputs)] = _unhashable_inputs(inputs, lifted)
        for node, x in found:
            demotions.append((spec.index, node))
            diagnostics.append(
                Diagnostic(
                    rule="preflight/unhashable-input",
                    severity="warning",
                    message=f"case {spec.index}, node {node}: private"
                    f" input of type {type(x).__name__} is unhashable —"
                    f" the batch chunk holding this case runs on the"
                    f" serial engine",
                )
            )

    offenders = []
    try:
        plan.protocol_fingerprint
    except StaticAnalysisError as error:
        offenders.extend(error.diagnostics)
    for spec in plan.specs:
        try:
            plan.case_fingerprint(spec)
        except StaticAnalysisError as error:
            offenders.extend(error.diagnostics)

    return PlanPreflight(
        kind=plan.kind,
        cases=len(plan.specs),
        protocol=protocol_preflight,
        case_demotions=tuple(demotions),
        fingerprint_diagnostics=unique_offenders(offenders),
        diagnostics=tuple(diagnostics),
    )
