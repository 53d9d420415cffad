"""Tests for service admission control.

Deterministic accept/reject decisions from predicted cost, the
cache-hit-aware plan estimator, and the end-to-end service flows: an
over-budget plan is rejected (and recorded), and the identical plan is
admitted once the cache is warm.
"""

import json

import pytest

from repro.analysis import run_sweep
from repro.analysis.costmodel import (
    DEFAULT_CACHE_HIT_WORK,
    estimate_sweep_cost,
)
from repro.exceptions import AdmissionError, JobError, ValidationError
from repro.policy import ExecutionPolicy
from repro.service import (
    AdmissionPolicy,
    InMemoryCache,
    JobState,
    SweepService,
    plan_sweep,
    predict_plan_cost,
)

from tests.test_service_jobs import _plan, _sync

#: Per-case model work for `_plan()`'s shape: a unidirectional 4-ring
#: (in-degree 1) at 60 steps — n*d*S = 4*1*60.
UNIT_WORK = 240.0
HIT = DEFAULT_CACHE_HIT_WORK


def _estimate(cases=8, cached=0, **kwargs):
    return estimate_sweep_cost(
        cases=cases,
        nodes=4,
        degree=1,
        max_steps=60,
        cached_cases=cached,
        **kwargs,
    )


class TestAdmissionPolicy:
    def test_needs_at_least_one_bound(self):
        # The work budget is the one bound, and it is required.
        with pytest.raises(TypeError):
            AdmissionPolicy()

    def test_bounds_must_be_positive(self):
        with pytest.raises(ValidationError, match="max_work must be positive"):
            AdmissionPolicy(max_work=0)
        with pytest.raises(ValidationError, match="max_work must be positive"):
            AdmissionPolicy(max_work=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_work", float("nan")),
            ("max_work", float("inf")),
            ("max_work", "10"),
            ("max_work", True),
        ],
    )
    def test_bounds_must_be_finite_real_numbers(self, field, value):
        # Each of these either admits everything or is no number at all.
        with pytest.raises(ValidationError, match=f"{field} must be positive"):
            AdmissionPolicy(**{field: value})

    def test_huge_finite_bounds_stay_valid(self):
        decision = AdmissionPolicy(max_work=1e30).decide(_estimate())
        assert decision.action == "accept"

    def test_within_budget_accepts(self):
        decision = AdmissionPolicy(max_work=10_000).decide(_estimate())
        assert decision.action == "accept"
        assert "within budget" in decision.reason
        assert decision.predicted_work == 8 * UNIT_WORK
        assert decision.cases == 8
        assert decision.cached_cases == 0

    def test_over_work_budget_rejects_with_the_numbers(self):
        decision = AdmissionPolicy(max_work=500).decide(_estimate())
        assert decision.action == "reject"
        assert "predicted work 1,920 > budget 500" in decision.reason

    def test_warm_cases_are_mentioned_in_the_refusal(self):
        decision = AdmissionPolicy(max_work=500).decide(_estimate(cached=3))
        assert decision.action == "reject"
        assert "after discounting 3/8 warm cases" in decision.reason

    def test_decisions_are_pure_functions_of_the_inputs(self):
        policy = AdmissionPolicy(max_work=500)
        assert policy.decide(_estimate()) == policy.decide(_estimate())

    def test_record_is_json_able(self):
        decision = AdmissionPolicy(max_work=500).decide(_estimate(cached=2))
        record = json.loads(json.dumps(decision.record()))
        assert record["action"] == "reject"
        assert record["cases"] == 8
        assert record["cached_cases"] == 2
        assert record["predicted_work"] == 6 * UNIT_WORK + 2 * HIT

    def test_describe(self):
        text = AdmissionPolicy(max_work=500).describe()
        assert text == "AdmissionPolicy(max_work=500)"
        grouped = AdmissionPolicy(max_work=1_500).describe()
        assert grouped == "AdmissionPolicy(max_work=1,500)"


class TestPredictPlanCost:
    def test_cold_plan_prices_every_case(self):
        plan, _, _ = _plan()
        estimate = predict_plan_cost(plan)
        assert estimate.cases == 8
        assert estimate.cached_cases == 0
        assert estimate.unit_work == UNIT_WORK
        assert estimate.predicted_work == 8 * UNIT_WORK
        assert estimate.layer == "engine.compiled"

    def test_policy_defaults_to_the_plans_attached_policy(self):
        plan, protocol, cases = _plan()
        batched = plan_sweep(
            protocol,
            cases,
            _sync,
            max_steps=60,
            policy=ExecutionPolicy(executor="batch"),
        )
        assert predict_plan_cost(batched).layer == "batch.fused"
        # ... and an explicit policy argument wins over the attached one.
        serial = predict_plan_cost(batched, ExecutionPolicy())
        assert serial.layer == "engine.compiled"

    def test_cache_probe_discounts_stored_cases(self):
        plan, protocol, cases = _plan()
        cache = InMemoryCache()
        with SweepService(cache=cache) as service:
            sub_plan = plan_sweep(protocol, cases[:3], _sync, max_steps=60)
            service.result(service.submit(sub_plan), timeout=30)
        # Warm coverage is by content fingerprint, not case position: a
        # duplicate labeling later in the plan counts as warm too.
        warm_keys = set(sub_plan.case_fingerprints())
        warm = sum(1 for key in plan.case_fingerprints() if key in warm_keys)
        assert warm >= 3
        estimate = predict_plan_cost(plan, cache=cache)
        assert estimate.cached_cases == warm
        assert estimate.predicted_work == (8 - warm) * UNIT_WORK + warm * HIT

    def test_probing_does_not_skew_cache_statistics(self):
        plan, _, _ = _plan()
        cache = InMemoryCache()
        before = cache.stats
        predict_plan_cost(plan, cache=cache)
        after = cache.stats
        assert (after.hits, after.misses) == (before.hits, before.misses)


#: Budget between the warm price (8 hits = 400) and the cold price (1920):
#: the same plan is over budget cold and within budget warm.
REJECT_THEN_ADMIT = AdmissionPolicy(max_work=8 * HIT + UNIT_WORK / 2)


class TestServiceAdmission:
    def test_over_budget_plan_is_rejected_and_recorded(self, tmp_path):
        plan, _, _ = _plan()
        with SweepService(
            admission=REJECT_THEN_ADMIT, records_dir=tmp_path
        ) as service:
            job_id = service.submit(plan)
            status = service.status(job_id)
            assert status.state is JobState.REJECTED
            assert status.admission == "reject"
            assert "predicted work" in status.error
            with pytest.raises(JobError, match="was rejected"):
                service.result(job_id, timeout=5)
            with pytest.raises(JobError, match="was rejected"):
                list(service.stream(job_id))
            # The rejection is queryable and recorded like any other outcome.
            assert [s.state for s in service.jobs()] == [JobState.REJECTED]
        (record_path,) = tmp_path.glob("JOB_*.json")
        entries = json.loads(record_path.read_text())["entries"]
        assert entries["state"] == "rejected"
        assert entries["admission"]["action"] == "reject"
        assert entries["admission"]["predicted_work"] == 8 * UNIT_WORK

    def test_rejected_jobs_raise_admission_error(self):
        plan, _, _ = _plan()
        with SweepService(admission=REJECT_THEN_ADMIT) as service:
            job_id = service.submit(plan)
            with pytest.raises(AdmissionError, match="was rejected") as waited:
                service.result(job_id, timeout=5)
            with pytest.raises(AdmissionError, match="was rejected"):
                list(service.stream(job_id))
        # Still a JobError, so handlers written for any job failure hold.
        assert isinstance(waited.value, JobError)

    def test_same_plan_is_admitted_once_the_cache_is_warm(self):
        plan, protocol, cases = _plan()
        direct = run_sweep(protocol, cases, _sync, max_steps=60)
        cache = InMemoryCache()
        with SweepService(cache=cache, admission=REJECT_THEN_ADMIT) as service:
            cold_id = service.submit(plan)
            assert service.status(cold_id).state is JobState.REJECTED
            # Warm the shared cache through an unbudgeted service...
            with SweepService(cache=cache) as warmup:
                warmup.result(warmup.submit(plan), timeout=30)
            # ... and the identical plan now fits the budget.
            warm_id = service.submit(plan)
            assert service.result(warm_id, timeout=30) == direct
            status = service.status(warm_id)
            assert status.state is JobState.DONE
            assert status.admission == "accept"

    def test_services_without_admission_admit_everything(self):
        plan, _, _ = _plan()
        with SweepService() as service:
            job_id = service.submit(plan)
            service.result(job_id, timeout=30)
            assert service.status(job_id).admission is None
