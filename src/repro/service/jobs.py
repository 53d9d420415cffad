"""The sweep job service: submit plans, watch shards land, fetch reports.

:class:`SweepService` wraps the plan executor (:mod:`repro.service.executor`)
in a submit/status/stream/result/cancel lifecycle backed by a small pool of
worker threads.  Each submitted :class:`~repro.service.plan.SweepPlan` runs
shard by shard through :func:`~repro.service.executor.iter_shards` against
the service's shared result cache, so

* a long sweep streams incremental aggregates instead of blocking callers
  until the end (:meth:`SweepService.stream`);
* resubmitting an identical plan is served from the cache — same report,
  bit for bit, at one fingerprint lookup per case;
* overlapping plans (same cases at different positions, tags, or recovery
  criteria) share cached case results.

Threads carry the jobs: the simulation kernels release no GIL, so the
thread pool's job is overlap of cache-served jobs with simulating ones plus
a responsive control plane (status/cancel while running).

The job table keeps every PENDING and RUNNING job but only the newest
:data:`FINISHED_JOB_LIMIT` terminal ones, so a long-lived service does not
hold every report it ever produced.

Completed jobs can leave a BENCH-style JSON record behind (``records_dir``):
``JOB_<plan-fingerprint prefix>.json`` with the latest run under
``entries`` and every earlier run folded into ``history`` (newest last,
bounded), mirroring the ``benchmarks/_runner.py`` conventions so the same
tooling can read both.
"""

from __future__ import annotations

import enum
import itertools
import json
import queue
import threading
import time
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import AdmissionError, JobError
from repro.policy import ExecutionPolicy, check_count, resolve_policy
from repro.service.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    predict_plan_cost,
)
from repro.service.cache import InMemoryCache, ResultCache
from repro.service.executor import (
    ShardProgress,
    check_shard_size,
    iter_shards,
    plan_criterion,
)
from repro.service.plan import SweepPlan

#: Oldest job-record history snapshots are dropped past this many
#: (newest kept) — matches ``benchmarks/_runner.py``.
HISTORY_LIMIT = 50

#: Terminal jobs past this many (newest kept) are forgotten: their ids
#: become unknown to the service.  PENDING and RUNNING jobs always stay.
FINISHED_JOB_LIMIT = 64


class JobState(enum.Enum):
    """Lifecycle of a submitted job.

    ``PENDING -> RUNNING -> {DONE, FAILED, CANCELLED}``; cancellation can
    also strike a job that never started, and a service with an admission
    policy moves an over-budget submission straight to ``REJECTED``.
    """

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: Refused by the admission policy at submission time (terminal).
    REJECTED = "rejected"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.REJECTED,
        )


@dataclass(frozen=True)
class JobStatus:
    """A point-in-time snapshot of one job (safe to hold across updates)."""

    job_id: str
    state: JobState
    kind: str
    total_cases: int
    cases_done: int
    shards_done: int
    total_shards: int | None
    cache_hits: int
    cache_misses: int
    error: str | None = None
    #: Admission verdict (``"accept"``/``"reject"``), or ``None`` on
    #: services without an admission policy.
    admission: str | None = None

    def describe(self) -> str:
        return (
            f"{self.job_id}: {self.state.value},"
            f" {self.cases_done}/{self.total_cases} cases"
            f" (cache {self.cache_hits} hits / {self.cache_misses} misses)"
        )


@dataclass
class _Job:
    """Mutable per-job record; every field is guarded by the service lock.

    ``plan`` is dropped when the job reaches a terminal state; the plan's
    ``kind``, case count, ``max_steps`` and fingerprint stay, for
    :meth:`SweepService.status` and the JOB record.
    """

    job_id: str
    plan: SweepPlan | None
    kind: str
    cases: int
    max_steps: int
    plan_fingerprint: str
    options: dict
    #: Plan preflight report (:func:`repro.statics.verify_plan`).
    preflight: object
    state: JobState = JobState.PENDING
    progress: list[ShardProgress] = field(default_factory=list)
    report: object = None
    error: str | None = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    started_at: float | None = None
    finished_at: float | None = None
    #: Admission verdict (None without an admission policy).
    admission: AdmissionDecision | None = None


class SweepService:
    """A local sweep job service: worker threads, shared cache, job table.

    ``cache=None`` gives the service its own :class:`InMemoryCache`; pass a
    :class:`~repro.service.cache.SqliteCache` for a cache that survives the
    process.  ``records_dir`` (optional) receives one BENCH-style JSON
    record per completed job.

    ``admission`` (optional :class:`~repro.service.admission.AdmissionPolicy`)
    turns on admission control: every submission's cost is predicted first
    (:func:`~repro.service.admission.predict_plan_cost`, against this
    service's cache — warm cases are discounted), and over-budget plans are
    REJECTED.  The verdict is recorded on the job and in its JSON record.
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        *,
        workers: int = 1,
        records_dir=None,
        admission: AdmissionPolicy | None = None,
    ):
        check_count("workers", workers)
        self.cache = cache if cache is not None else InMemoryCache()
        self.records_dir = Path(records_dir) if records_dir is not None else None
        self.admission = admission
        self._jobs: dict[str, _Job] = {}
        #: Terminal job ids, oldest first (see :data:`FINISHED_JOB_LIMIT`).
        self._finished: deque[str] = deque()
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._updated = threading.Condition(self._lock)
        self._sequence = itertools.count(1)
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"sweep-service-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- lifecycle ---------------------------------------------------------

    def submit(
        self,
        plan: SweepPlan,
        *,
        policy: ExecutionPolicy | None = None,
        shard_size: int | None = None,
        recovered=None,
    ) -> str:
        """Queue a plan for execution and return its job id.

        The execution options mirror :func:`repro.service.execute_plan`:
        ``policy`` (:class:`repro.ExecutionPolicy`) carries the performance
        knobs, defaulting to the plan's own attached policy.  A bad
        ``shard_size`` or ``recovered`` is rejected here, before anything
        is enqueued.  The id embeds the plan fingerprint, so identical
        resubmissions are visibly related (``job-3-0f0b5a…`` vs
        ``job-7-0f0b5a…``).

        Every submission runs :func:`repro.statics.verify_plan` and records
        its report (predicted batch partition, fingerprint safety) on the
        job; it lands in the JSON job record next to the admission
        decision.  ``verify_plan(plan).raise_for_errors()`` refuses a plan
        with a blocking problem before it is ever submitted.

        On a service with an admission policy, an over-budget plan is
        REJECTED: the returned job id stays queryable and the decision is
        recorded.
        """
        check_shard_size(shard_size)
        plan_criterion(plan.kind, recovered)
        policy = resolve_policy(policy, api="SweepService.submit", fallback=plan.policy)
        # Imported here: repro.statics.preflight reaches back into
        # repro.service.fingerprint, so a module-level import would be
        # circular.
        from repro.statics.preflight import verify_plan

        check = verify_plan(plan)
        decision = None
        if self.admission is not None:
            estimate = predict_plan_cost(plan, policy, cache=self.cache)
            decision = self.admission.decide(estimate)
        rejected = decision is not None and decision.action == "reject"
        with self._lock:
            if self._closed:
                raise JobError("service is closed")
            job_id = f"job-{next(self._sequence)}-{plan.plan_fingerprint[:12]}"
            job = _Job(
                job_id=job_id,
                plan=plan,
                kind=plan.kind,
                cases=len(plan),
                max_steps=plan.max_steps,
                plan_fingerprint=plan.plan_fingerprint,
                options={
                    "shard_size": shard_size,
                    "policy": policy,
                    "recovered": recovered,
                },
                preflight=check,
                admission=decision,
            )
            self._jobs[job_id] = job
            if rejected:
                job.error = f"admission rejected: {decision.reason}"
                self._finish(job, JobState.REJECTED)
        if rejected:
            self._write_record(job)
        else:
            self._queue.put(job_id)
        return job_id

    def status(self, job_id: str) -> JobStatus:
        """A snapshot of the job's state and progress counters."""
        with self._lock:
            return _snapshot(self._require(job_id))

    def stream(self, job_id: str) -> Iterator[ShardProgress]:
        """Yield the job's shard progress live, catching up from the start.

        Ends when the job reaches a terminal state; after yielding whatever
        progress the job made, raises :class:`JobError` if that state is
        FAILED or CANCELLED and :class:`AdmissionError` if it is REJECTED.
        """
        with self._lock:
            job = self._require(job_id)
        seen = 0
        while True:
            with self._updated:
                self._updated.wait_for(
                    lambda: len(job.progress) > seen or job.state.terminal
                )
                fresh = job.progress[seen:]
                ended = job.state.terminal
                failure = _failure(job)
            seen += len(fresh)
            yield from fresh
            if failure is not None:
                raise failure
            if ended:
                return

    def result(self, job_id: str, timeout: float | None = None):
        """Block until the job finishes and return its report.

        Raises :class:`JobError` if the job failed, was cancelled, or did
        not finish within ``timeout`` seconds, and :class:`AdmissionError`
        if admission rejected it.
        """
        with self._updated:
            job = self._require(job_id)
            if not self._updated.wait_for(lambda: job.state.terminal, timeout):
                raise JobError(f"job {job_id} did not finish within {timeout}s")
            failure = _failure(job)
            if failure is not None:
                raise failure
            return job.report

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; ``True`` if the job will not run to DONE.

        A PENDING job is cancelled outright; a RUNNING one stops at the next
        shard boundary (its partial progress stays readable).  Cancelling a
        terminal job returns ``False``.
        """
        with self._updated:
            job = self._require(job_id)
            if job.state.terminal:
                return False
            job.cancel_event.set()
            if job.state is JobState.PENDING:
                self._finish(job, JobState.CANCELLED)
            return True

    def jobs(self) -> list[JobStatus]:
        """Snapshots of every job in the table, in submission order."""
        with self._lock:
            return [_snapshot(job) for job in self._jobs.values()]

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting jobs and shut the workers down.

        With ``wait=True`` queued jobs finish first; otherwise pending jobs
        are cancelled and only the in-flight ones run to their next shard
        boundary.
        """
        with self._updated:
            if self._closed:
                return
            self._closed = True
            if not wait:
                # A copy: finishing a job may forget older terminal ones.
                for job in list(self._jobs.values()):
                    if not job.state.terminal:
                        job.cancel_event.set()
                        if job.state is JobState.PENDING:
                            self._finish(job, JobState.CANCELLED)
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- internals ---------------------------------------------------------

    def _require(self, job_id: str) -> _Job:
        """Look up a job or raise. Caller holds the lock."""
        job = self._jobs.get(job_id)
        if job is None:
            raise JobError(f"unknown job {job_id!r}")
        return job

    def _finish(self, job: _Job, state: JobState) -> None:
        """Move a job to a terminal state, release its plan, forget the
        oldest terminal jobs past :data:`FINISHED_JOB_LIMIT`, and wake every
        waiter.

        Caller holds the lock.
        """
        job.state = state
        job.finished_at = time.time()
        job.plan = None
        finished = self._finished
        finished.append(job.job_id)
        while len(finished) > FINISHED_JOB_LIMIT:
            del self._jobs[finished.popleft()]
        self._updated.notify_all()

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._updated:
                job = self._jobs.get(job_id)
                if job is None or job.state is not JobState.PENDING:
                    continue  # cancelled while queued (and maybe forgotten)
                job.state = JobState.RUNNING
                job.started_at = time.time()
                self._updated.notify_all()
            try:
                self._run(job)
            except Exception as error:  # pragma: no cover - defensive
                with self._updated:
                    job.error = f"{type(error).__name__}: {error}"
                    self._finish(job, JobState.FAILED)
            self._write_record(job)

    def _run(self, job: _Job) -> None:
        try:
            shards = iter_shards(job.plan, cache=self.cache, **job.options)
            report = job.plan.empty_report()
            for progress in shards:
                report = progress.aggregate
                with self._updated:
                    job.progress.append(progress)
                    self._updated.notify_all()
                if job.cancel_event.is_set():
                    with self._updated:
                        self._finish(job, JobState.CANCELLED)
                    return
        except Exception as error:
            with self._updated:
                job.error = f"{type(error).__name__}: {error}"
                self._finish(job, JobState.FAILED)
            return
        with self._updated:
            job.report = report
            if job.cancel_event.is_set():
                self._finish(job, JobState.CANCELLED)
            else:
                self._finish(job, JobState.DONE)

    # -- job records -------------------------------------------------------

    def _write_record(self, job: _Job) -> None:
        """Persist one BENCH-style record for a finished job (best effort)."""
        if self.records_dir is None:
            return
        self.records_dir.mkdir(parents=True, exist_ok=True)
        out_path = self.records_dir / f"JOB_{job.plan_fingerprint[:16]}.json"
        record = {
            "job": job.job_id,
            "plan_fingerprint": job.plan_fingerprint,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "entries": self._record_entries(job),
        }
        record = _merge_record_history(out_path, record)
        out_path.write_text(json.dumps(record, indent=2) + "\n")

    def _record_entries(self, job: _Job) -> dict:
        latest = job.progress[-1] if job.progress else None
        elapsed = None
        if job.started_at is not None and job.finished_at is not None:
            elapsed = job.finished_at - job.started_at
        policy = job.options["policy"]
        entries = {
            "state": job.state.value,
            "kind": job.kind,
            "cases": job.cases,
            "cases_done": len(latest.aggregate) if latest else 0,
            "max_steps": job.max_steps,
            "executor": policy.executor if policy else "serial",
            "shard_size": job.options["shard_size"],
            "elapsed_s": elapsed,
            "cache_hits": latest.cache_hits if latest else 0,
            "cache_misses": latest.cache_misses if latest else 0,
        }
        if job.admission is not None:
            entries["admission"] = job.admission.record()
        entries["preflight"] = job.preflight.record()
        if job.error is not None:
            entries["error"] = job.error
        if latest is not None:
            entries["outcomes"] = dict(
                Counter(
                    result.outcome.value for result in latest.aggregate.results
                )
            )
            if job.kind == "resilience":
                entries["recovered"] = latest.aggregate.recovered_count
        return entries


def _snapshot(job: _Job) -> JobStatus:
    """A :class:`JobStatus` of ``job``.  Caller holds the lock."""
    latest = job.progress[-1] if job.progress else None
    return JobStatus(
        job_id=job.job_id,
        state=job.state,
        kind=job.kind,
        total_cases=job.cases,
        cases_done=len(latest.aggregate) if latest else 0,
        shards_done=len(job.progress),
        total_shards=latest.total_shards if latest else None,
        cache_hits=latest.cache_hits if latest else 0,
        cache_misses=latest.cache_misses if latest else 0,
        error=job.error,
        admission=job.admission.action if job.admission else None,
    )


def _failure(job: _Job) -> JobError | None:
    """The error a job that ended FAILED, CANCELLED or REJECTED raises to
    its waiters; ``None`` in every other state.  Caller holds the lock."""
    if job.state is JobState.FAILED:
        return JobError(f"job {job.job_id} failed: {job.error}")
    if job.state is JobState.CANCELLED:
        return JobError(f"job {job.job_id} was cancelled")
    if job.state is JobState.REJECTED:
        return AdmissionError(f"job {job.job_id} was rejected: {job.error}")
    return None


def _merge_record_history(out_path: Path, record: dict) -> dict:
    """Fold the previous job record into ``record["history"]``, newest last.

    Same convention as ``benchmarks/_runner.py``: the committed file's own
    history is carried over, its top-level run appended as one more snapshot
    (skipped when identical), the tail bounded by :data:`HISTORY_LIMIT`.
    """
    history: list = []
    if out_path.exists():
        try:
            previous = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            previous = None
        if isinstance(previous, dict) and previous.get("entries"):
            history = [
                item
                for item in previous.get("history", [])
                if isinstance(item, dict)
            ]
            snapshot = {
                key: previous[key]
                for key in ("job", "recorded_at", "entries")
                if key in previous
            }
            if not history or history[-1].get("entries") != snapshot["entries"]:
                history.append(snapshot)
    record["history"] = history[-HISTORY_LIMIT:]
    return record
