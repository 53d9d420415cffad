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
  fingerprint; only misses are simulated (through the ordinary serial or
  batch runners, with the usual ``processes`` fan-out), and their results
  are stored for next time as *rows*: plain tuples of the fields a result
  shares with every other sweep holding the same case (no position, tag or
  recovery verdict).  A hit is built from its row once, directly with its
  position, tag and (for resilience sweeps) the verdict of this sweep's
  recovery criterion, so a fully warm execution returns a report equal to
  a cold one, bit for bit.  Fingerprints are only computed when a cache is
  present — cacheless execution pays nothing for the machinery.
* **Incremental aggregation.**  :func:`iter_shards` splits the plan into
  contiguous shards and yields a :class:`ShardProgress` as each completes:
  the shard's own results, the running merged report
  (:meth:`SweepReport.merge`), and cumulative cache counters.  Consumers
  see aggregates grow instead of blocking on the full sweep; the final
  aggregate equals the one-shot report exactly.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterator
from dataclasses import dataclass, fields

from repro.analysis import resilience as _resilience
from repro.analysis import sweeps as _sweeps
from repro.analysis.resilience import (
    FaultCaseResult,
    ResilienceReport,
    resolve_criterion,
)
from repro.analysis.sweeps import (
    CaseResult,
    SweepReport,
    fan_out,
    resolve_executor,
)
from repro.core.convergence import RunOutcome
from repro.exceptions import ValidationError
from repro.policy import ExecutionPolicy, check_count, resolve_policy
from repro.service.cache import ResultCache
from repro.service.plan import CaseSpec, SweepPlan


def resolve_plan_runner(kind: str, executor: str, chunk_rows: int | None = None):
    """The case-runner callable for a plan kind / executor pair.

    Validation (and the error messages) match the one-shot entry points,
    which call this before touching cases or factories.
    """
    if kind == "sweep":
        table = _sweeps.EXECUTORS
    elif kind == "resilience":
        table = _resilience.EXECUTORS
    else:
        raise ValidationError(
            f"unknown plan kind {kind!r}; expected 'sweep' or 'resilience'"
        )
    runner = resolve_executor(executor, table)
    if chunk_rows is not None:
        if executor != "batch":
            raise ValidationError(
                "chunk_rows= sizes batch sub-batches;"
                " it requires executor='batch'"
            )
        runner = functools.partial(runner, chunk_rows=chunk_rows)
    return runner


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


#: Result type per plan kind.
_RESULT_TYPES = {"sweep": CaseResult, "resilience": FaultCaseResult}
#: Outcomes by value: a cache row spells its outcome by value string.
_OUTCOMES = {outcome.value: outcome for outcome in RunOutcome}


class _Results:
    """Builds each of a plan's results once, with its final position, tag
    and recovery verdict.

    Results are built positionally: ``index``, ``tag`` and ``outcome``
    lead both result types, and ``recovered`` closes a resilience result.
    A cache row is ``(outcome value, *fields)`` with the fields between
    them, so every position, tag and criterion shares one entry.
    ``criterion`` judges a resilience result as built (with
    ``recovered=False``, as a runner builds it); a recovered case costs one
    more construction.
    """

    def __init__(self, kind: str, criterion):
        self.type = _RESULT_TYPES[kind]
        self.criterion = criterion
        own = ("index", "tag", "outcome", "recovered")
        shared = [f.name for f in fields(self.type) if f.name not in own]
        self._shared = operator.attrgetter(*shared)

    def row(self, result) -> tuple:
        """The cache row of ``result``."""
        return (result.outcome.value, *self._shared(result))

    def from_row(self, spec, row):
        """The result a cache ``row`` stands for at ``spec``."""
        return self._judged(spec, _OUTCOMES[row[0]], row[1:])

    def finish(self, spec, result):
        """A runner's ``result`` for ``spec``: kept when its index and
        verdict already hold, else built once more with them."""
        if result.index != spec.index:
            return self._judged(spec, result.outcome, self._shared(result))
        criterion = self.criterion
        if criterion is None or not criterion(result):
            return result
        values = self._shared(result)
        return self.type(spec.index, spec.case.tag, result.outcome, *values, True)

    def _judged(self, spec, outcome, values):
        result = self.type(spec.index, spec.case.tag, outcome, *values)
        criterion = self.criterion
        if criterion is not None and criterion(result):
            # ``recovered`` is the last field of a resilience result.
            result = self.type(spec.index, spec.case.tag, outcome, *values, True)
        return result


def _run_specs(plan, specs, runner, processes, strict):
    """Simulate a list of specs through the plan's runner, in spec order.

    The runner numbers its slice contiguously from the first spec's index,
    so a contiguous list (a cacheless shard, a run of misses) comes back
    with every index right; :meth:`_Results.finish` rebuilds the others.
    """
    if not specs:
        return []
    cases = [spec.case for spec in specs]
    per_case = [spec.work_item() for spec in specs]
    results = None
    if processes is not None and processes > 1 and len(specs) > 1:
        results = fan_out(
            runner,
            plan.protocol,
            cases,
            per_case,
            plan.max_steps,
            processes,
            strict=strict,
        )
    if results is None:
        results = runner(
            plan.protocol, cases, per_case, plan.max_steps, specs[0].index
        )
    return results


def _execute_specs(plan, specs, runner, cache, processes, strict, build):
    """One shard: cache lookups, simulate the misses, fill the store.

    Returns ``(results, hits, misses)`` with results in spec order, each
    built by ``build`` (:class:`_Results`).
    """
    if cache is None:
        results = _run_specs(plan, specs, runner, processes, strict)
        pairs = zip(specs, results, strict=True)
        return [build.finish(spec, result) for spec, result in pairs], 0, 0

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
        computed = _run_specs(
            plan, [spec for _, spec, _ in missing], runner, processes, strict
        )
        for (position, spec, key), result in zip(missing, computed, strict=True):
            cache.put(key, build.row(result))
            results[position] = build.finish(spec, result)
    return results, len(specs) - len(missing), len(missing)


def check_shard_size(shard_size: int | None) -> None:
    """Reject a shard size that is neither ``None`` nor an integer >= 1."""
    if shard_size is not None:
        check_count("shard_size", shard_size)


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
    strict: bool = False,
    recovered=None,
) -> Iterator[ShardProgress]:
    """Execute a plan shard by shard, yielding progress as each completes.

    ``policy`` (:class:`repro.ExecutionPolicy`) selects the case backend,
    fan-out width, and batch chunking; when omitted, the plan's own
    attached policy (:attr:`SweepPlan.policy`) applies, then the defaults.
    ``recovered`` names (or is)
    the recovery criterion for resilience plans (default ``"label"``, as in
    the one-shot runner); it is rejected for plain sweep plans.  Empty
    plans yield nothing — callers wanting a report either way use
    :func:`execute_plan`.
    """
    policy = resolve_policy(policy, api="iter_shards", fallback=plan.policy)
    processes = policy.processes
    runner = resolve_plan_runner(plan.kind, policy.executor, policy.chunk_rows)
    if plan.kind == "resilience":
        criterion = resolve_criterion("label" if recovered is None else recovered)
    else:
        if recovered is not None:
            raise ValidationError(
                "recovered= is a resilience criterion; this is a plain"
                " sweep plan"
            )
        criterion = None

    build = _Results(plan.kind, criterion)
    bounds = _shard_bounds(len(plan.specs), shard_size)
    aggregate = plan.empty_report()
    hits = misses = 0
    for shard, (lo, hi) in enumerate(bounds):
        results, shard_hits, shard_misses = _execute_specs(
            plan, plan.specs[lo:hi], runner, cache, processes, strict, build
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
    strict: bool = False,
    recovered=None,
) -> SweepReport | ResilienceReport:
    """Execute a plan to completion and return the aggregated report.

    With the defaults (no cache, one shard, no policy beyond the plan's
    own) this is exactly the one-shot runner on the plan's cases — same
    runners, same fan-out, same warnings, same report.
    """
    policy = resolve_policy(policy, api="execute_plan", fallback=plan.policy)
    report = plan.empty_report()
    for progress in iter_shards(
        plan,
        cache=cache,
        shard_size=shard_size,
        policy=policy,
        strict=strict,
        recovered=recovered,
    ):
        report = progress.aggregate
    return report
