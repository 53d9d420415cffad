"""Sweep runner: many cases through one compiled protocol.

Almost every experiment in this repository has the same shape — one protocol,
many ``(inputs, initial labeling, schedule)`` cases: benchmark grids, random
self-stabilization trials, exhaustive input sweeps for the ring machines.
:func:`run_sweep` executes that shape through a single
:class:`~repro.core.compiled.CompiledProtocol`, so the per-protocol
compilation cost is paid once no matter how many cases run, and returns an
aggregated :class:`SweepReport` (per-case results, outcome counts, round
histograms).

Schedules are stateful (seeded random schedules memoize their realized
steps), so cases carry no schedule; instead ``schedule_factory(index, case)``
builds a fresh one per case.  The factory is always invoked in case order,
before any case runs, so a factory that draws from its own RNG (or any
other shared state) sees the same call sequence whatever the executor, and
seeded sweeps are bit-identical across executors.

Two execution backends, chosen by :class:`repro.ExecutionPolicy`, share
this module's aggregation: the default ``executor="serial"`` runs one
compiled run loop per case, while ``executor="batch"`` hands the whole case
list to the vectorized lockstep backend (:mod:`repro.core.batch`, requires
numpy) and gets equal reports back at a fraction of the per-step Python
cost.  A backend (an :data:`EXECUTORS` entry) returns the engine's reports;
the service executor condenses each into a result.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.configuration import Labeling
from repro.core.convergence import RunOutcome
from repro.core.engine import DEFAULT_MAX_STEPS, Simulator
from repro.core.protocol import Protocol
from repro.core.schedule import Schedule
from repro.exceptions import ValidationError
from repro.faults.injection import run_with_faults
from repro.policy import ExecutionPolicy, resolve_policy

#: Builds the schedule for one case: ``(case_index, case) -> Schedule``.
ScheduleFactory = Callable[[int, "SweepCase"], Schedule]


@dataclass(frozen=True)
class SweepCase:
    """One unit of sweep work: an input vector plus an initial labeling."""

    inputs: tuple
    labeling: Labeling
    initial_outputs: tuple | None = None
    #: Caller-chosen identifier carried through to the matching result.
    tag: Any = None


@dataclass(frozen=True)
class CaseResult:
    """The outcome of one sweep case (a condensed ``RunReport``)."""

    index: int
    tag: Any
    outcome: RunOutcome
    label_rounds: int | None
    output_rounds: int | None
    steps_executed: int
    #: Final flat labeling values (canonical edge order).
    final_values: tuple
    #: Final per-node outputs.
    outputs: tuple

    @property
    def label_stable(self) -> bool:
        return self.outcome is RunOutcome.LABEL_STABLE

    @property
    def output_stable(self) -> bool:
        return self.outcome in (RunOutcome.LABEL_STABLE, RunOutcome.OUTPUT_STABLE)


@dataclass(frozen=True)
class SweepReport:
    """Aggregated results of a sweep, in case order."""

    results: tuple[CaseResult, ...]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def merge(self, other: "SweepReport") -> "SweepReport":
        """This report plus another shard of the same sweep.

        Results are keyed by case index and come back sorted, so merging is
        associative and commutative: shard reports can be folded in any
        order (the service layer's incremental aggregation merges shards as
        they complete) and the result equals the one-shot report.  Both
        operands must be the same report type over disjoint case indices.
        """
        if type(other) is not type(self):
            raise ValidationError(
                f"cannot merge {type(other).__name__} into"
                f" {type(self).__name__}: shard reports must share a type"
            )
        if not other.results:
            return self
        if not self.results:
            return other
        overlap = {r.index for r in self.results} & {
            r.index for r in other.results
        }
        if overlap:
            raise ValidationError(
                f"cannot merge overlapping shard reports: case indices"
                f" {sorted(overlap)[:5]} appear in both"
            )
        merged = sorted(
            self.results + other.results, key=lambda result: result.index
        )
        return type(self)(results=tuple(merged))

    @property
    def outcome_counts(self) -> dict[RunOutcome, int]:
        """How many cases ended in each outcome."""
        return dict(Counter(result.outcome for result in self.results))

    def round_histogram(self, kind: str = "label") -> dict[int, int]:
        """Histogram of convergence rounds (cases without a value excluded).

        ``kind`` is ``"label"`` (label stabilization rounds) or ``"output"``
        (output stabilization rounds).
        """
        if kind not in ("label", "output"):
            raise ValidationError("histogram kind must be 'label' or 'output'")
        attr = "label_rounds" if kind == "label" else "output_rounds"
        rounds = [
            value
            for result in self.results
            if (value := getattr(result, attr)) is not None
        ]
        return dict(Counter(rounds))

    @property
    def worst_label_rounds(self) -> int | None:
        values = [r.label_rounds for r in self.results if r.label_rounds is not None]
        return max(values) if values else None

    @property
    def worst_output_rounds(self) -> int | None:
        values = [r.output_rounds for r in self.results if r.output_rounds is not None]
        return max(values) if values else None

    @property
    def all_label_stable(self) -> bool:
        return all(result.label_stable for result in self.results)

    @property
    def all_output_stable(self) -> bool:
        return all(result.output_stable for result in self.results)

    def describe(self) -> str:
        counts = ", ".join(
            f"{outcome.value}={count}"
            for outcome, count in sorted(
                self.outcome_counts.items(), key=lambda item: item[0].value
            )
        )
        return f"SweepReport(cases={len(self.results)}, {counts})"


def _coerce_case(case) -> SweepCase:
    if isinstance(case, SweepCase):
        return case
    if isinstance(case, Labeling):
        raise ValidationError(
            "a sweep case needs inputs and a labeling; wrap it in SweepCase"
        )
    return SweepCase(*case)


def _run_cases(protocol: Protocol, specs: Sequence, max_steps: int) -> list:
    """Run planned cases (:class:`repro.service.plan.CaseSpec`) in-process
    through one compiled protocol; one report per spec, in order: a
    ``RunReport``, or a ``FaultRunReport`` when the spec has a fault plan."""
    reports = []
    for spec in specs:
        case = spec.case
        simulator = Simulator(protocol, case.inputs)
        if spec.faults is None:
            report = simulator.run(
                case.labeling,
                spec.schedule,
                max_steps=max_steps,
                initial_outputs=case.initial_outputs,
            )
        else:
            report = run_with_faults(
                simulator,
                case.labeling,
                spec.schedule,
                spec.faults,
                max_steps=max_steps,
                initial_outputs=case.initial_outputs,
            )
        reports.append(report)
    return reports


def _run_cases_batch(protocol: Protocol, specs: Sequence, max_steps: int) -> list:
    """Run planned cases in lockstep through the vectorized batch backend,
    faulted ones with their models fired via the batch hooks; the reports
    equal :func:`_run_cases`'s, case for case.

    A plan's specs are all faulted or none.  Cases run in consecutive
    slices of :data:`repro.core.batch.SWEEP_CHUNK_ROWS`: they are
    independent, so slicing changes nothing but cache residency.  The
    import is deferred so the serial sweep path never requires numpy.
    """
    from repro.core import batch

    reports = []
    rows = batch.SWEEP_CHUNK_ROWS
    for lo in range(0, len(specs), rows):
        chunk = specs[lo : lo + rows]
        simulator = batch.BatchSimulator(
            protocol, [spec.case.inputs for spec in chunk]
        )
        run = simulator.run_batch
        columns = [
            [spec.case.labeling for spec in chunk],
            [spec.schedule for spec in chunk],
        ]
        if chunk[0].faults is not None:
            run = simulator.run_batch_with_faults
            columns.append([spec.faults for spec in chunk])
        reports.extend(
            run(
                *columns,
                max_steps=max_steps,
                initial_outputs=[spec.case.initial_outputs for spec in chunk],
            )
        )
    return reports


#: Case-execution backends, selected by ``ExecutionPolicy.executor``: each
#: takes ``(protocol, specs, max_steps)`` and returns one report per spec,
#: for plain and resilience plans alike.
EXECUTORS = {"serial": _run_cases, "batch": _run_cases_batch}


def run_sweep(
    protocol: Protocol,
    cases: Iterable[SweepCase | tuple],
    schedule_factory: ScheduleFactory,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    policy: ExecutionPolicy | None = None,
) -> SweepReport:
    """Run every case through one compiled form of ``protocol``.

    ``cases`` may hold :class:`SweepCase` objects or plain tuples in
    ``SweepCase`` field order (``(inputs, labeling[, initial_outputs[,
    tag]])``).  ``schedule_factory(index, case)`` must return a *fresh*
    schedule per case; it is invoked in case order before any case runs,
    so stateful (seeded) factories produce bit-identical sweeps on every
    executor.

    ``policy`` (:class:`repro.ExecutionPolicy`) selects the case backend:
    ``executor="batch"`` steps all cases in lockstep through the numpy
    backend, and the resulting :class:`SweepReport` is equal to the serial
    one, case for case.  The policy changes how fast the report is
    produced, never its contents.

    Since the service layer landed, this is a thin wrapper over the
    planner/executor split: :func:`repro.service.plan_sweep` materializes
    the cases and schedules, :func:`repro.service.execute_plan` runs the
    plan through the same runners as always.  Callers wanting caching,
    sharded streaming, or job submission use those entry points directly.
    """
    # Imported lazily: the service layer sits above analysis in the stack,
    # and only this compatibility wrapper reaches back down into it.
    from repro.service.executor import execute_plan
    from repro.service.plan import plan_sweep

    # Check the policy before invoking any factory.
    policy = resolve_policy(policy, api="run_sweep")
    plan = plan_sweep(protocol, cases, schedule_factory, max_steps=max_steps)
    return execute_plan(plan, policy=policy)
