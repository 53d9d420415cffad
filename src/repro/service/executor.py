"""Plan execution: run a :class:`~repro.service.plan.SweepPlan`.

The executor half of the planner/executor split.  It consumes plans and
produces exactly the reports the one-shot runners produce — the one-shot
entry points (:func:`repro.analysis.sweeps.run_sweep`,
:func:`repro.analysis.resilience.run_resilience_sweep`) are thin wrappers
over :func:`plan_sweep` + :func:`execute_plan`, so "plan then execute" and
"run" are the same computation by construction.

On top of the one-shot behavior the executor adds the two service
capabilities:

* **Content-addressed caching.**  With a ``cache``
  (:mod:`repro.service.cache`), every case is first looked up by its
  fingerprint; only misses are simulated, and their results are stored for
  next time as *rows*: plain tuples of the fields a result shares with
  every other sweep holding the same case (no position, tag or recovery
  verdict).  Fingerprints are only computed when a cache is present —
  cacheless execution pays nothing for the machinery.
* **Incremental aggregation.**  :func:`iter_shards` splits the plan into
  contiguous shards and yields a :class:`ShardProgress` as each completes:
  the shard's own results, the running merged report
  (:meth:`SweepReport.merge`), and cumulative cache counters.  Consumers
  see aggregates grow instead of blocking on the full sweep; the final
  aggregate equals the one-shot report exactly.

Every result is built in one place, :class:`_Results`, from a row.  A
runner (an ``EXECUTORS`` entry of :mod:`repro.analysis.sweeps` or
:mod:`repro.analysis.resilience`) returns the engine's reports; each
becomes a row, and the row becomes the result at its spec's position, with
its tag and (for resilience sweeps) the verdict of this sweep's recovery
criterion.  A hit is built from its stored row the same way, so a fully
warm execution returns a report equal to a cold one, bit for bit.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis import resilience as _resilience
from repro.analysis import sweeps as _sweeps
from repro.analysis.resilience import (
    FaultCaseResult,
    ResilienceReport,
    resolve_criterion,
)
from repro.analysis.sweeps import CaseResult, SweepReport
from repro.core.convergence import RunOutcome
from repro.exceptions import ValidationError
from repro.policy import ExecutionPolicy, check_count, resolve_policy
from repro.service.cache import ResultCache
from repro.service.plan import CaseSpec, SweepPlan


@dataclass(frozen=True)
class ShardProgress:
    """One completed shard of a plan execution.

    ``results`` holds just this shard's condensed case results (in case
    order); ``aggregate`` is the merge of every shard completed so far, so
    the last progress item's aggregate is the full report.  The cache
    counters are cumulative over this execution (zero when no cache was
    given).
    """

    shard: int
    total_shards: int
    results: tuple
    aggregate: SweepReport | ResilienceReport
    cache_hits: int
    cache_misses: int

    @property
    def done(self) -> bool:
        return self.shard + 1 == self.total_shards

    def describe(self) -> str:
        return (
            f"shard {self.shard + 1}/{self.total_shards}:"
            f" +{len(self.results)} cases"
            f" -> {len(self.aggregate)} aggregated"
            f" (cache {self.cache_hits} hits / {self.cache_misses} misses)"
        )


#: Per plan kind, the result type and the report attributes behind its
#: fields between ``outcome`` and ``recovered``, in field order.
_RESULT_SHAPES = {
    "sweep": (
        CaseResult,
        (
            "label_rounds",
            "output_rounds",
            "steps_executed",
            "final.labeling.values",
            "final.outputs",
        ),
    ),
    "resilience": (
        FaultCaseResult,
        (
            "recovery_rounds",
            "output_recovery_rounds",
            "steps_executed",
            "final.labeling.values",
            "final.outputs",
            "faults_fired",
            "last_fault_time",
            "cycle_start",
            "cycle_length",
        ),
    ),
}
#: Outcomes by value: a cache row spells its outcome by value string.
_OUTCOMES = {outcome.value: outcome for outcome in RunOutcome}


class _Results:
    """Turns a plan's reports into cache rows and builds every result from
    a row, once, with its final position, tag and recovery verdict.

    A row is ``(outcome value, *fields)``: the fields between ``outcome``
    and ``recovered``, which every position, tag and criterion share.
    Results are built positionally: ``index``, ``tag`` and ``outcome`` lead
    both result types, and ``recovered`` closes a resilience result.
    ``criterion`` judges a resilience result as built (with
    ``recovered=False``); a recovered case costs one more construction.
    """

    def __init__(self, kind: str, criterion):
        self.type, attributes = _RESULT_SHAPES[kind]
        self.criterion = criterion
        self._fields = operator.attrgetter(*attributes)

    def row(self, report) -> tuple:
        """The cache row of an engine ``report``."""
        return (report.outcome.value, *self._fields(report))

    def from_row(self, spec, row):
        """The result a cache ``row`` stands for at ``spec``."""
        outcome = _OUTCOMES[row[0]]
        values = row[1:]
        result = self.type(spec.index, spec.case.tag, outcome, *values)
        criterion = self.criterion
        if criterion is not None and criterion(result):
            # ``recovered`` is the last field of a resilience result.
            result = self.type(spec.index, spec.case.tag, outcome, *values, True)
        return result


def _execute_specs(plan, specs, runner, cache, build):
    """One shard: cache lookups, simulate the misses, fill the store.

    Returns ``(results, hits, misses)`` with results in spec order, each
    built by ``build`` (:class:`_Results`).
    """
    if cache is None:
        reports = runner(plan.protocol, specs, plan.max_steps)
        results = [
            build.from_row(spec, build.row(report))
            for spec, report in zip(specs, reports, strict=True)
        ]
        return results, 0, 0

    results = [None] * len(specs)
    missing: list[tuple[int, CaseSpec, str]] = []
    for position, spec in enumerate(specs):
        key = plan.case_fingerprint(spec)
        row = cache.get(key)
        if row is None:
            missing.append((position, spec, key))
        else:
            results[position] = build.from_row(spec, row)
    if missing:
        reports = runner(
            plan.protocol, [spec for _, spec, _ in missing], plan.max_steps
        )
        for (position, spec, key), report in zip(missing, reports, strict=True):
            row = build.row(report)
            cache.put(key, row)
            results[position] = build.from_row(spec, row)
    return results, len(specs) - len(missing), len(missing)


def check_shard_size(shard_size: int | None) -> None:
    """Reject a shard size that is neither ``None`` nor an integer >= 1."""
    if shard_size is not None:
        check_count("shard_size", shard_size)


def plan_criterion(kind: str, recovered=None):
    """The recovery criterion a plan of ``kind`` is judged by.

    A resilience plan takes ``recovered`` by name or as a predicate
    (default ``"label"``, as in the one-shot runner); a plain sweep plan
    has no criterion and rejects any ``recovered``.
    """
    if kind == "resilience":
        return resolve_criterion("label" if recovered is None else recovered)
    if recovered is not None:
        raise ValidationError(
            "recovered= is a resilience criterion; this is a plain sweep plan"
        )
    return None


def _shard_bounds(total: int, shard_size: int | None) -> list[tuple[int, int]]:
    check_shard_size(shard_size)
    if shard_size is None or shard_size >= total:
        return [(0, total)] if total else []
    return [
        (lo, min(lo + shard_size, total)) for lo in range(0, total, shard_size)
    ]


def iter_shards(
    plan: SweepPlan,
    *,
    cache: ResultCache | None = None,
    shard_size: int | None = None,
    policy: ExecutionPolicy | None = None,
    recovered=None,
) -> Iterator[ShardProgress]:
    """Execute a plan shard by shard, yielding progress as each completes.

    ``policy`` (:class:`repro.ExecutionPolicy`) selects the case backend;
    when omitted, the plan's own attached policy (:attr:`SweepPlan.policy`)
    applies, then the defaults.  ``recovered`` is the recovery criterion
    (:func:`plan_criterion`).  Empty plans yield nothing — callers wanting
    a report either way use :func:`execute_plan`.
    """
    policy = resolve_policy(policy, api="iter_shards", fallback=plan.policy)
    build = _Results(plan.kind, plan_criterion(plan.kind, recovered))
    # Looked up per call, not bound at import: a wrapped entry sees every run.
    module = _sweeps if plan.kind == "sweep" else _resilience
    runner = module.EXECUTORS[policy.executor]
    bounds = _shard_bounds(len(plan.specs), shard_size)
    aggregate = plan.empty_report()
    hits = misses = 0
    for shard, (lo, hi) in enumerate(bounds):
        results, shard_hits, shard_misses = _execute_specs(
            plan, plan.specs[lo:hi], runner, cache, build
        )
        hits += shard_hits
        misses += shard_misses
        results = tuple(results)
        aggregate = aggregate.merge(type(aggregate)(results=results))
        yield ShardProgress(
            shard=shard,
            total_shards=len(bounds),
            results=results,
            aggregate=aggregate,
            cache_hits=hits,
            cache_misses=misses,
        )


def execute_plan(
    plan: SweepPlan,
    *,
    cache: ResultCache | None = None,
    shard_size: int | None = None,
    policy: ExecutionPolicy | None = None,
    recovered=None,
) -> SweepReport | ResilienceReport:
    """Execute a plan to completion and return the aggregated report.

    With the defaults (no cache, one shard, no policy beyond the plan's
    own) this is exactly the one-shot runner on the plan's cases — same
    runners, same report.
    """
    policy = resolve_policy(policy, api="execute_plan", fallback=plan.policy)
    report = plan.empty_report()
    for progress in iter_shards(
        plan,
        cache=cache,
        shard_size=shard_size,
        policy=policy,
        recovered=recovered,
    ):
        report = progress.aggregate
    return report
