"""Resilience sweeps: recovery measurement at sweep scale.

:func:`run_resilience_sweep` is to :func:`repro.analysis.sweeps.run_sweep`
what :func:`repro.faults.run_with_faults` is to ``Simulator.run``: many
``(inputs, initial labeling, schedule, fault plan)`` cases through **one**
compiled protocol, each run injected and recovery-certified, aggregated into
a :class:`ResilienceReport` (recovery rate, recovery-round histogram, worst
case, non-recovery census).

Both the schedule factory and the fault factory are invoked in case order
before any case runs, and seeded fault models derive their RNG from
``(seed, fire time)``, so a seeded resilience sweep is bit-identical on
every executor.

What counts as "recovered" is construction-dependent — the paper's
self-stabilizing constructions settle into three different shapes — so the
criterion is a parameter:

* ``"label"`` — a certified stable labeling (generic protocol, safe BGP);
* ``"output"`` — outputs fixed, labels may cycle (TM/BP/circuit rings);
* ``"orbit"`` — the run provably re-entered a recurrent orbit, i.e. any
  exact verdict except timeout (the D-counter family, whose whole point is
  to keep counting);
* any callable ``FaultCaseResult -> bool`` for sharper domain checks.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.analysis.sweeps import (
    CaseResult,
    ScheduleFactory,
    SweepCase,
    SweepReport,
    _run_cases,
    _run_cases_batch,
)
from repro.core.convergence import RunOutcome
from repro.core.engine import DEFAULT_MAX_STEPS
from repro.core.protocol import Protocol
from repro.exceptions import ValidationError
from repro.faults.schedules import FaultSchedule
from repro.policy import ExecutionPolicy, resolve_policy

#: Builds the fault plan for one case: ``(case_index, case) -> FaultSchedule``.
FaultFactory = Callable[[int, SweepCase], FaultSchedule]

#: Named recovery criteria (see module docstring).
RECOVERY_CRITERIA: dict[str, Callable[["FaultCaseResult"], bool]] = {
    "label": lambda result: result.outcome is RunOutcome.LABEL_STABLE,
    "output": lambda result: result.outcome
    in (RunOutcome.LABEL_STABLE, RunOutcome.OUTPUT_STABLE),
    "orbit": lambda result: result.outcome is not RunOutcome.TIMEOUT,
}


def resolve_criterion(
    recovered: str | Callable[["FaultCaseResult"], bool],
) -> Callable[["FaultCaseResult"], bool]:
    """Map a criterion name (or pass a predicate through) for recovery
    judging; shared with the service executor."""
    if callable(recovered):
        return recovered
    criterion = RECOVERY_CRITERIA.get(recovered)
    if criterion is None:
        raise ValidationError(
            f"unknown recovery criterion {recovered!r};"
            f" expected one of {sorted(RECOVERY_CRITERIA)} or a callable"
        )
    return criterion


@dataclass(frozen=True)
class FaultCaseResult(CaseResult):
    """One resilience case: a ``CaseResult`` plus fault/recovery facts.

    The inherited ``label_rounds`` / ``output_rounds`` count rounds **after
    the last fault** (the recovery time); ``steps_executed`` counts the whole
    run including the pre-fault window.
    """

    faults_fired: int = 0
    last_fault_time: int | None = None
    #: Tail cycle facts (periodic schedules), relative to the last fault.
    cycle_start: int | None = None
    cycle_length: int | None = None
    #: Verdict of the sweep's recovery criterion.
    recovered: bool = False

    @property
    def recovery_rounds(self) -> int | None:
        """Rounds from the last fault to the certified settled regime.

        The sharpest available figure: label rounds when the labeling fixed,
        else output rounds, else entry into the detected cycle.
        """
        if self.label_rounds is not None:
            return self.label_rounds
        if self.output_rounds is not None:
            return self.output_rounds
        return self.cycle_start


@dataclass(frozen=True)
class ResilienceReport(SweepReport):
    """Aggregated resilience results, layered on :class:`SweepReport`."""

    @property
    def recovered_count(self) -> int:
        return sum(1 for result in self.results if result.recovered)

    @property
    def non_recovered_count(self) -> int:
        return len(self.results) - self.recovered_count

    @property
    def recovery_rate(self) -> float:
        """Fraction of cases that recovered (1.0 for an empty sweep)."""
        if not self.results:
            return 1.0
        return self.recovered_count / len(self.results)

    @property
    def all_recovered(self) -> bool:
        return self.recovered_count == len(self.results)

    @property
    def non_recovered(self) -> tuple[FaultCaseResult, ...]:
        return tuple(result for result in self.results if not result.recovered)

    def recovery_histogram(self) -> dict[int, int]:
        """Histogram of recovery rounds over the recovered cases."""
        return dict(
            Counter(
                rounds
                for result in self.results
                if result.recovered
                and (rounds := result.recovery_rounds) is not None
            )
        )

    @property
    def worst_recovery_rounds(self) -> int | None:
        """The slowest certified recovery (None when nothing recovered)."""
        rounds = [
            value
            for result in self.results
            if result.recovered and (value := result.recovery_rounds) is not None
        ]
        return max(rounds) if rounds else None

    def describe(self) -> str:
        worst = self.worst_recovery_rounds
        return (
            f"ResilienceReport(cases={len(self.results)},"
            f" recovered={self.recovered_count},"
            f" non_recovered={self.non_recovered_count},"
            f" worst_recovery_rounds={worst})"
        )


#: Injected-case backends, selected by ``ExecutionPolicy.executor``: the
#: runners of :data:`repro.analysis.sweeps.EXECUTORS`, in a dict of this
#: module's own, so a caller wrapping one module's entries (a tracer)
#: sees only that plan kind's cases.
EXECUTORS = {"serial": _run_cases, "batch": _run_cases_batch}


def run_resilience_sweep(
    protocol: Protocol,
    cases: Iterable[SweepCase | tuple],
    schedule_factory: ScheduleFactory,
    fault_factory: FaultFactory,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    policy: ExecutionPolicy | None = None,
    recovered: str | Callable[[FaultCaseResult], bool] = "label",
) -> ResilienceReport:
    """Inject faults into every case and measure certified recovery.

    ``fault_factory(index, case)`` returns the fault plan for one case
    (return :class:`repro.faults.NoFaults` for fault-free controls);
    ``recovered`` names a criterion from :data:`RECOVERY_CRITERIA` or is a
    predicate over each :class:`FaultCaseResult`.  Everything else matches
    :func:`repro.analysis.sweeps.run_sweep`: ``policy``
    (:class:`repro.ExecutionPolicy`) selects the case backend
    (``executor="batch"`` injects in vectorized lockstep through
    :mod:`repro.core.batch`, with fault models fired via their batch hooks
    — reports equal to serial, case for case).

    Like :func:`run_sweep`, this is now a thin wrapper over the service
    layer's planner/executor split
    (:func:`repro.service.plan_resilience_sweep` +
    :func:`repro.service.execute_plan`).
    """
    # Lazy import — see run_sweep: only the compatibility wrapper reaches
    # back up into the service layer.
    from repro.service.executor import execute_plan
    from repro.service.plan import plan_resilience_sweep

    # Check the policy and criterion before any factory runs.
    policy = resolve_policy(policy, api="run_resilience_sweep")
    resolve_criterion(recovered)
    plan = plan_resilience_sweep(
        protocol, cases, schedule_factory, fault_factory, max_steps=max_steps
    )
    return execute_plan(plan, policy=policy, recovered=recovered)
