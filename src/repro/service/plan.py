"""Sweep planning: turn (cases, factories) into an executable plan.

The planner half of the service layer's planner/executor split.  A
:class:`SweepPlan` is a fully materialized description of a sweep or
resilience sweep: one self-describing, picklable :class:`CaseSpec` per case
— inputs, initial labeling, the *realized* schedule, and (for resilience
plans) the fault plan — plus the protocol and the step budget.  Everything a
worker needs ships inside the plan; nothing is re-derived at execution time.

Planning preserves the one-shot runners' reproducibility contract: the
schedule and fault factories are invoked here, in the calling process, in
case order — so stateful seeded factories see exactly the call sequence
they would see in :func:`repro.analysis.sweeps.run_sweep`, and a plan built
twice from the same seeds is the same plan.

Fingerprints are computed lazily (planning costs nothing beyond the factory
calls): :meth:`SweepPlan.case_fingerprint` combines the protocol digest —
computed once per plan — with the case's own state, the step budget, and
the engine version salt (:mod:`repro.service.fingerprint`).  Two cases get
the same fingerprint exactly when the engine would produce the same
condensed result for both, which is what makes results content-addressable.
Cosmetic state (case ``tag``s, case order, protocol names) is excluded.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from repro.analysis.resilience import FaultFactory, ResilienceReport
from repro.analysis.sweeps import (
    ScheduleFactory,
    SweepCase,
    SweepReport,
    _coerce_case,
)
from repro.core.engine import DEFAULT_MAX_STEPS
from repro.core.protocol import Protocol
from repro.core.schedule import Schedule
from repro.exceptions import (
    FingerprintError,
    StaticAnalysisError,
    ValidationError,
)
from repro.faults.schedules import FaultSchedule
from repro.policy import ExecutionPolicy, check_count
from repro.service.fingerprint import (
    ENGINE_VERSION,
    canonical,
    fingerprint,
    fingerprint_offenders,
    unique_offenders,
)

#: Plan kinds and the report type each aggregates into.
PLAN_KINDS = {"sweep": SweepReport, "resilience": ResilienceReport}


def _located_error(where, error, parts) -> StaticAnalysisError:
    """``error`` located: every offender in ``parts``, ``(suffix, obj)``
    pairs under ``where``, found by the collecting fingerprint walk."""
    diagnostics = unique_offenders(
        diagnostic
        for suffix, obj in parts
        for diagnostic in fingerprint_offenders(obj, where + suffix)
    )
    located = StaticAnalysisError(
        f"cannot fingerprint {where}: {error}", diagnostics=diagnostics
    )
    located.__cause__ = error
    return located


@dataclass(frozen=True)
class CaseSpec:
    """One unit of planned work: a case plus its realized schedule.

    Self-describing and picklable (given module-level reactions), so plans
    serialize into job submissions as-is.  ``faults`` is ``None`` exactly on
    plain-sweep plans; resilience plans carry a
    :class:`~repro.faults.schedules.FaultSchedule` (possibly
    :class:`~repro.faults.NoFaults`) per spec.
    """

    index: int
    case: SweepCase
    schedule: Schedule
    faults: FaultSchedule | None = None


@dataclass(frozen=True)
class SweepPlan:
    """A materialized sweep: protocol, specs, step budget (an integer
    >= 1), and kind.

    ``policy`` (optional) is the plan's *suggested*
    :class:`repro.ExecutionPolicy` — the executor applies it when the call
    passes none of its own.  It is cosmetic: excluded from case and plan
    fingerprints (and from plan equality), because it changes how fast the
    results arrive, never what they are.
    """

    protocol: Protocol
    specs: tuple[CaseSpec, ...]
    kind: str
    max_steps: int = DEFAULT_MAX_STEPS
    policy: ExecutionPolicy | None = field(default=None, compare=False)
    # Digests and spelled key parts, memoized.  Not an init field, so
    # ``dataclasses.replace`` starts an empty memo: a plan with another
    # protocol or step budget is never served the old digests.
    _fingerprints: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        check_count("max_steps", self.max_steps)
        if self.kind not in PLAN_KINDS:
            raise ValidationError(
                f"unknown plan kind {self.kind!r};"
                f" expected one of {sorted(PLAN_KINDS)}"
            )

    def __getstate__(self):
        # The memo dict is keyed by object ids, which are process-local;
        # a pickled plan must rebuild it from scratch on the other side.
        state = self.__dict__.copy()
        state["_fingerprints"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def report_type(self) -> type[SweepReport]:
        return PLAN_KINDS[self.kind]

    def empty_report(self) -> SweepReport:
        return self.report_type(results=())

    @property
    def protocol_fingerprint(self) -> str:
        """Digest of the protocol's compile-level state (topology, label
        space, reactions with their source) — computed once and shared by
        every case key.

        Raises :class:`~repro.exceptions.StaticAnalysisError` locating every
        offender when the protocol cannot be fingerprinted (lambda
        reactions, closed-over RNG state, ...); the refusal is memoized too.
        """
        digest = self._fingerprints.get("protocol")
        if digest is None:
            try:
                digest = fingerprint(self.protocol)
            except FingerprintError as error:
                digest = _located_error(
                    "plan.protocol", error, [("", self.protocol)]
                )
            self._fingerprints["protocol"] = digest
        if isinstance(digest, StaticAnalysisError):
            raise digest.with_traceback(None)
        return digest

    def case_fingerprint(self, spec: CaseSpec) -> str:
        """The content address of one case's condensed result.

        Covers everything the result depends on — protocol digest, inputs,
        initial labeling values, initial outputs, realized schedule, fault
        plan, step budget, plan kind, engine salt — and nothing it does not
        (``tag`` and ``index`` are cosmetic).  Memoized per plan, and so
        are the parts of the key text: the head (salt, kind, protocol
        digest) is spelled once, and a shared schedule, fault plan or
        inputs tuple is canonicalized and spelled once, not once per case.
        The digest is the SHA-256 of exactly ``repr`` of the key tree.

        The same walk checks the case: the
        :class:`~repro.exceptions.StaticAnalysisError` it raises locates
        every offender in the covered fields (``plan.specs[3].schedule.rng``)
        — or, for a clean case, the protocol's — and is what
        :func:`repro.statics.verify_plan` reports.
        """
        cache_key = id(spec)
        cached = self._fingerprints.get(cache_key)
        if cached is not None:
            return cached
        case = spec.case
        inputs = case.inputs
        try:
            own = (
                # Only a tuple is memoized: anything mutable is spelled anew.
                self._shared_text(inputs)
                if type(inputs) is tuple
                else repr(canonical(inputs)),
                repr(canonical(case.labeling.values)),
                repr(canonical(case.initial_outputs)),
                self._shared_text(spec.schedule),
                self._shared_text(spec.faults),
            )
        except FingerprintError as error:
            raise _located_error(
                f"plan.specs[{spec.index}]",
                error,
                [
                    (".case.inputs", case.inputs),
                    (".case.labeling.values", case.labeling.values),
                    (".case.initial_outputs", case.initial_outputs),
                    (".schedule", spec.schedule),
                    (".faults", spec.faults),
                ],
            )
        # ``repr(("case", ENGINE_VERSION, kind, protocol digest, *own,
        # max_steps))``, spelled from its parts.
        head = self._fingerprints.get("head")
        if head is None:
            key = ("case", ENGINE_VERSION, self.kind, self.protocol_fingerprint)
            head = self._fingerprints["head"] = repr(key)[:-1] + ", "
        text = f"{head}{', '.join(own)}, {self.max_steps!r})"
        digest = hashlib.sha256(text.encode()).hexdigest()
        self._fingerprints[cache_key] = digest
        return digest

    def _shared_text(self, component) -> str:
        """``repr`` of a (possibly shared) component's canonical tree,
        memoized by identity: many specs hold one schedule object."""
        if component is None:
            return "None"
        cache_key = id(component)
        text = self._fingerprints.get(cache_key)
        if text is None:
            text = self._fingerprints[cache_key] = repr(canonical(component))
        return text

    def case_fingerprints(self) -> list[str]:
        """All case fingerprints, in case order."""
        return [self.case_fingerprint(spec) for spec in self.specs]

    @cached_property
    def plan_fingerprint(self) -> str:
        """Digest of the whole plan (used to key per-job records)."""
        tree = (
            "plan",
            ENGINE_VERSION,
            self.kind,
            self.max_steps,
            tuple(self.case_fingerprints()),
        )
        return hashlib.sha256(repr(tree).encode()).hexdigest()

    def describe(self) -> str:
        return (
            f"SweepPlan(kind={self.kind}, cases={len(self.specs)},"
            f" max_steps={self.max_steps})"
        )


def plan_sweep(
    protocol: Protocol,
    cases: Iterable[SweepCase | tuple],
    schedule_factory: ScheduleFactory,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    policy: ExecutionPolicy | None = None,
) -> SweepPlan:
    """Plan a sweep: coerce cases and materialize one schedule per case.

    The factory is invoked here, in the calling process, in case order —
    exactly as :func:`repro.analysis.sweeps.run_sweep` always did — so
    seeded stateful factories produce identical plans no matter how the
    plan is later executed or sharded.  ``policy`` attaches a suggested
    :class:`repro.ExecutionPolicy` to the plan (cosmetic: fingerprints and
    reports are unchanged by it).  To refuse a bad plan while the offending
    reaction is still one stack frame away, call
    ``repro.statics.verify_plan(plan).raise_for_errors()`` on it;
    :meth:`~repro.service.jobs.SweepService.submit` runs the same preflight.
    """
    return _plan("sweep", protocol, cases, (schedule_factory,), max_steps, policy)


def plan_resilience_sweep(
    protocol: Protocol,
    cases: Iterable[SweepCase | tuple],
    schedule_factory: ScheduleFactory,
    fault_factory: FaultFactory,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    policy: ExecutionPolicy | None = None,
) -> SweepPlan:
    """Plan a resilience sweep: schedules *and* fault plans per case.

    Factory invocation order matches
    :func:`repro.analysis.resilience.run_resilience_sweep`: for each case in
    order, the schedule factory then the fault factory.  ``policy``
    behaves as in :func:`plan_sweep`.
    """
    factories = (schedule_factory, fault_factory)
    return _plan("resilience", protocol, cases, factories, max_steps, policy)


def _plan(kind, protocol, cases, factories, max_steps, policy) -> SweepPlan:
    """A plan of ``kind``.  The step budget is checked and every case
    coerced before any factory runs, so a refused plan consumes no seeded
    factory call; then, case by case, each of ``factories`` (the schedule
    factory, then a resilience plan's fault factory) is called in order."""
    check_count("max_steps", max_steps)
    case_list = [_coerce_case(case) for case in cases]
    specs = tuple(
        CaseSpec(i, case, *[factory(i, case) for factory in factories])
        for i, case in enumerate(case_list)
    )
    return SweepPlan(
        protocol=protocol, specs=specs, kind=kind, max_steps=max_steps, policy=policy
    )
