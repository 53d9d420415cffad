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
builds a fresh one per case.  The factory is always invoked **in the parent
process, in case order** — even when the sweep fans out — so a factory that
draws from its own RNG (or any other shared state) sees exactly the same
call sequence serial and parallel, and seeded sweeps are bit-identical
either way.  Workers receive the materialized schedules, not the factory.

Two execution backends, chosen by :class:`repro.ExecutionPolicy`, share
this module's aggregation: the default ``executor="serial"`` runs one
compiled run loop per case, while ``executor="batch"`` hands the whole case
list to the vectorized lockstep backend (:mod:`repro.core.batch`, requires
numpy) and gets equal reports back at a fraction of the per-step Python
cost.

Optional ``multiprocessing`` fan-out: a policy with ``processes > 1``
splits the case list across worker processes.  This requires the protocol,
the cases and the per-case schedules to be picklable (module-level reaction
functions, no closures); when they are not — or when the platform does not
support worker pools — the sweep transparently falls back to in-process
execution, so callers never need to special-case the environment.
"""

from __future__ import annotations

import pickle
import warnings
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.compiled import compile_protocol
from repro.core.configuration import Labeling
from repro.core.convergence import RunOutcome
from repro.core.engine import DEFAULT_MAX_STEPS, Simulator
from repro.core.protocol import Protocol
from repro.core.schedule import Schedule
from repro.exceptions import ValidationError
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


def _run_cases(
    protocol: Protocol,
    cases: Sequence[SweepCase],
    schedules: Sequence[Schedule],
    max_steps: int,
    start_index: int,
) -> list[CaseResult]:
    """Run a slice of cases in-process through one compiled protocol."""
    compiled = compile_protocol(protocol)
    results = []
    for offset, (case, schedule) in enumerate(zip(cases, schedules, strict=True)):
        index = start_index + offset
        simulator = Simulator(protocol, case.inputs, compiled=compiled)
        report = simulator.run(
            case.labeling,
            schedule,
            max_steps=max_steps,
            initial_outputs=case.initial_outputs,
        )
        results.append(
            CaseResult(
                index=index,
                tag=case.tag,
                outcome=report.outcome,
                label_rounds=report.label_rounds,
                output_rounds=report.output_rounds,
                steps_executed=report.steps_executed,
                final_values=report.final.labeling.values,
                outputs=report.final.outputs,
            )
        )
    return results


def _run_cases_batch(
    protocol: Protocol,
    cases: Sequence[SweepCase],
    schedules: Sequence[Schedule],
    max_steps: int,
    start_index: int,
    chunk_rows: int | None = None,
) -> list[CaseResult]:
    """Run a slice of cases in lockstep through the vectorized batch backend.

    Same contract as :func:`_run_cases` (the reports are equal case for
    case); the import is deferred so the serial sweep path never requires
    numpy.  Large case lists run as several sub-batches of ``chunk_rows``
    (default ``SWEEP_CHUNK_ROWS``) — cases are independent, so slicing
    changes nothing but cache residency.
    """
    from repro.core.batch import SWEEP_CHUNK_ROWS, BatchSimulator

    rows = chunk_rows if chunk_rows is not None else SWEEP_CHUNK_ROWS
    results = []
    for lo in range(0, len(cases), rows):
        chunk = cases[lo : lo + rows]
        simulator = BatchSimulator(protocol, [case.inputs for case in chunk])
        reports = simulator.run_batch(
            [case.labeling for case in chunk],
            schedules[lo : lo + rows],
            max_steps=max_steps,
            initial_outputs=[case.initial_outputs for case in chunk],
        )
        results.extend(
            CaseResult(
                index=start_index + lo + offset,
                tag=case.tag,
                outcome=report.outcome,
                label_rounds=report.label_rounds,
                output_rounds=report.output_rounds,
                steps_executed=report.steps_executed,
                final_values=report.final.labeling.values,
                outputs=report.final.outputs,
            )
            for offset, (case, report) in enumerate(zip(chunk, reports, strict=True))
        )
    return results


#: Case-execution backends, selected by ``ExecutionPolicy.executor``.
EXECUTORS = {"serial": _run_cases, "batch": _run_cases_batch}


def resolve_executor(executor: str, executors=None):
    """Map an executor name to its case runner (shared with resilience)."""
    table = EXECUTORS if executors is None else executors
    runner = table.get(executor)
    if runner is None:
        raise ValidationError(
            f"unknown executor {executor!r}; expected one of {sorted(table)}"
        )
    return runner


def _chunk_bounds(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``chunks`` contiguous slices."""
    chunks = min(chunks, total)
    base, extra = divmod(total, chunks)
    bounds = []
    start = 0
    for k in range(chunks):
        size = base + (1 if k < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def run_sweep(
    protocol: Protocol,
    cases: Iterable[SweepCase | tuple],
    schedule_factory: ScheduleFactory,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    policy: ExecutionPolicy | None = None,
    strict: bool = False,
) -> SweepReport:
    """Run every case through one compiled form of ``protocol``.

    ``cases`` may hold :class:`SweepCase` objects or plain tuples in
    ``SweepCase`` field order (``(inputs, labeling[, initial_outputs[,
    tag]])``).  ``schedule_factory(index, case)`` must return a *fresh*
    schedule per case; it is invoked in the parent process in case order
    regardless of fan-out, so stateful (seeded) factories produce
    bit-identical sweeps serial and parallel.

    ``policy`` (:class:`repro.ExecutionPolicy`) holds every performance
    knob — the case backend (``executor="batch"`` steps all cases in
    lockstep through the numpy backend; the resulting :class:`SweepReport`
    is equal to the serial one, case for case), the ``multiprocessing``
    fan-out width ``processes`` (when everything involved pickles;
    otherwise the sweep runs in-process, emitting a :class:`RuntimeWarning`
    naming the reason — or, with ``strict=True``, re-raising the underlying
    error instead of falling back), and the batch ``chunk_rows``.  The
    policy changes how fast the report is produced, never its contents.

    Since the service layer landed, this is a thin wrapper over the
    planner/executor split: :func:`repro.service.plan_sweep` materializes
    the cases and schedules, :func:`repro.service.execute_plan` runs the
    plan through the same runners as always.  Callers wanting caching,
    sharded streaming, or job submission use those entry points directly.
    """
    # Imported lazily: the service layer sits above analysis in the stack,
    # and only this compatibility wrapper reaches back down into it.
    from repro.service.executor import execute_plan, resolve_plan_runner
    from repro.service.plan import plan_sweep

    policy = resolve_policy(policy, api="run_sweep")
    # Validate the executor before invoking any factory, as the one-shot
    # runner always did.
    resolve_plan_runner("sweep", policy.executor)
    plan = plan_sweep(protocol, cases, schedule_factory, max_steps=max_steps)
    return execute_plan(plan, policy=policy, strict=strict)


def fan_out(runner, protocol, case_list, per_case, max_steps, processes, strict=False):
    """Fan a case list out over a process pool; None means 'run serially'.

    Shared by :func:`run_sweep` and the resilience sweep.  ``runner`` must be
    a picklable module-level callable ``(protocol, cases, per_case,
    max_steps, start_index) -> list``; ``per_case`` holds one
    already-materialized work item (schedule, fault plan, ...) per case.

    Degrading to serial execution is never silent: each fallback path emits
    a :class:`RuntimeWarning` carrying the offending error, so a sweep that
    was asked for 8 processes and ran on one core says why.  ``strict=True``
    re-raises the underlying error instead of falling back.
    """
    try:
        pickle.dumps((protocol, case_list, per_case))
    except Exception as error:
        if strict:
            raise
        warnings.warn(
            f"sweep fan-out disabled, running serially: the protocol, cases,"
            f" or per-case work items do not pickle ({error!r}); use"
            f" module-level reactions and factories to enable fan-out",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    try:
        import multiprocessing

        bounds = _chunk_bounds(len(case_list), processes)
        with multiprocessing.Pool(len(bounds)) as pool:
            chunk_results = pool.starmap(
                runner,
                [
                    (protocol, case_list[lo:hi], per_case[lo:hi], max_steps, lo)
                    for lo, hi in bounds
                ],
            )
    except (OSError, ImportError, PermissionError, RuntimeError) as error:
        # Restricted environments (no /dev/shm, no fork) cannot build pools,
        # and spawn-start platforms raise RuntimeError when the caller has no
        # __main__ guard — fall back to in-process execution either way.
        if strict:
            raise
        warnings.warn(
            f"sweep fan-out disabled, running serially: worker pool"
            f" unavailable ({error!r})",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    return [result for chunk in chunk_results for result in chunk]
