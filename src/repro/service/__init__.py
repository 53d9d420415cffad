"""repro.service — the sweep job service.

The layer above :mod:`repro.analysis`: a planner/executor split with
content-addressed result caching and a submit/stream/result job lifecycle.

* :mod:`repro.service.plan` — :func:`plan_sweep` /
  :func:`plan_resilience_sweep` build a :class:`SweepPlan` of picklable
  :class:`CaseSpec`\\ s with deterministic fingerprints.
* :mod:`repro.service.executor` — :func:`execute_plan` /
  :func:`iter_shards` run plans (optionally sharded and cached), yielding
  :class:`ShardProgress` aggregates that merge to exactly the one-shot
  report.
* :mod:`repro.service.cache` — :class:`InMemoryCache` /
  :class:`SqliteCache` content-addressed stores with hit/miss counters.
* :mod:`repro.service.fingerprint` — the canonicalization scheme behind
  the cache keys (:func:`fingerprint`, :func:`canonical`,
  :data:`ENGINE_VERSION`).
* :mod:`repro.service.jobs` — the :class:`SweepService` worker pool with
  its submit/status/stream/result/cancel lifecycle; callers build a plan
  with :func:`plan_sweep` / :func:`plan_resilience_sweep` and submit it.
  ``python -m repro.service`` is the CLI.
* :mod:`repro.service.admission` — cost-model-backed admission control:
  :func:`predict_plan_cost` prices a plan (cache-hit-aware) and an
  :class:`AdmissionPolicy` accepts or rejects each submission.

The legacy one-shot entry points (:func:`repro.analysis.run_sweep`,
:func:`repro.analysis.run_resilience_sweep`) are thin wrappers over this
layer, so "plan then execute" and "run" are the same computation.
"""

from repro.service.admission import (
    AdmissionDecision,
    AdmissionPolicy,
    predict_plan_cost,
)
from repro.service.cache import (
    CacheStats,
    InMemoryCache,
    ResultCache,
    SqliteCache,
)
from repro.service.executor import (
    ShardProgress,
    execute_plan,
    iter_shards,
)
from repro.service.fingerprint import (
    ENGINE_VERSION,
    canonical,
    fingerprint,
    register_fingerprint,
)
from repro.service.jobs import JobState, JobStatus, SweepService
from repro.service.plan import (
    PLAN_KINDS,
    CaseSpec,
    SweepPlan,
    plan_resilience_sweep,
    plan_sweep,
)

__all__ = [
    "AdmissionDecision",
    "AdmissionPolicy",
    "predict_plan_cost",
    "CacheStats",
    "InMemoryCache",
    "ResultCache",
    "SqliteCache",
    "ShardProgress",
    "execute_plan",
    "iter_shards",
    "ENGINE_VERSION",
    "canonical",
    "fingerprint",
    "register_fingerprint",
    "JobState",
    "JobStatus",
    "SweepService",
    "PLAN_KINDS",
    "CaseSpec",
    "SweepPlan",
    "plan_resilience_sweep",
    "plan_sweep",
]
