"""Admission control for the sweep service: predict, then decide.

The service's cost loop closes here.  The cost model
(:mod:`repro.analysis.costmodel`) prices a sweep before it runs;
:func:`predict_plan_cost` grounds that price in a concrete
:class:`~repro.service.plan.SweepPlan` — node count and degree from the
plan's protocol, the step budget as the per-case work bound, and the
service's result cache probed fingerprint by fingerprint so already-stored
cases are discounted to a lookup.  An :class:`AdmissionPolicy` then turns
the :class:`~repro.analysis.costmodel.CostEstimate` into an
:class:`AdmissionDecision`:

* within budget → ``"accept"``: the job queues normally;
* over budget → ``"reject"``: the job lands in the terminal REJECTED state
  (still queryable, still recorded).  The cache only grows, so a plan
  rejected cold can be admitted when resubmitted once enough of its cases
  are warm.

Decisions are pure functions of the estimate and the policy — no clocks,
no load sampling — so an admission outcome is reproducible from the
recorded numbers alone.

Budgets are set in *work units*, the model's elementary-operation counts,
which hold across machines.  The predicted seconds (the model's coarse
per-layer calibration) are recorded beside them for comparison with
measured times; they decide nothing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.analysis.costmodel import estimate_sweep_cost
from repro.exceptions import ValidationError
from repro.policy import ExecutionPolicy
from repro.service.plan import SweepPlan


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict, with the numbers that produced it.

    ``action`` is ``"accept"`` or ``"reject"``; ``reason`` is the
    human-readable justification that job errors and records carry.
    The estimate's headline figures are denormalized in so the decision
    serializes into job records without dragging the estimate along.
    """

    action: str
    reason: str
    predicted_work: float
    predicted_seconds: float
    cases: int
    cached_cases: int

    def record(self) -> dict:
        """The JSON-able form stored under a job record's ``admission``."""
        return {
            "action": self.action,
            "reason": self.reason,
            "predicted_work": self.predicted_work,
            "predicted_seconds": self.predicted_seconds,
            "cases": self.cases,
            "cached_cases": self.cached_cases,
        }

    def describe(self) -> str:
        return f"AdmissionDecision({self.action}: {self.reason})"


@dataclass(frozen=True)
class AdmissionPolicy:
    """A deterministic work budget for submitted plans.

    ``max_work`` bounds the predicted work units: a finite positive real
    number (not a bool).  A plan predicted to exceed it is rejected; omit
    the admission policy entirely to admit everything.
    """

    max_work: float

    def __post_init__(self):
        # NaN and infinity compare false or never exceed, so such a bound
        # could never refuse a plan.
        value = self.max_work
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not 0 < value < math.inf
        ):
            raise ValidationError(
                "max_work must be positive and finite, a real number"
                f" and not a bool; got {value!r}"
            )

    def decide(self, estimate) -> AdmissionDecision:
        """Judge one :class:`~repro.analysis.costmodel.CostEstimate`."""
        if estimate.predicted_work > self.max_work:
            action = "reject"
            reason = (
                f"predicted work {estimate.predicted_work:,.0f}"
                f" > budget {self.max_work:,.0f}"
            )
            if estimate.cached_cases:
                reason += (
                    f" (after discounting {estimate.cached_cases}"
                    f"/{estimate.cases} warm cases)"
                )
        else:
            action = "accept"
            reason = (
                f"predicted work {estimate.predicted_work:,.0f}"
                f" (~{estimate.predicted_seconds:.3g}s,"
                f" {estimate.cached_cases}/{estimate.cases} warm)"
                f" within budget"
            )
        return AdmissionDecision(
            action=action,
            reason=reason,
            predicted_work=estimate.predicted_work,
            predicted_seconds=estimate.predicted_seconds,
            cases=estimate.cases,
            cached_cases=estimate.cached_cases,
        )

    def describe(self) -> str:
        return f"AdmissionPolicy(max_work={self.max_work:,.0f})"


def predict_plan_cost(
    plan: SweepPlan,
    policy: ExecutionPolicy | None = None,
    *,
    cache=None,
):
    """Price a concrete plan under a policy, cache-hit-aware.

    Grounds :func:`repro.analysis.costmodel.estimate_sweep_cost` in the
    plan: node count and maximum in-degree from the plan's protocol, the
    plan's step budget as the per-case work bound, and — when a
    ``cache`` (:class:`~repro.service.cache.ResultCache`) is given — each
    case fingerprint probed with :meth:`~ResultCache.contains` (stat-free,
    and on sqlite a checksum check that never unpickles) so stored cases
    are discounted to a cache-hit lookup.  ``policy``
    defaults to the plan's own attached policy, then the library default.
    Returns a :class:`~repro.analysis.costmodel.CostEstimate`.
    """
    cached = 0
    if cache is not None and len(plan):
        cached = sum(
            1 for key in plan.case_fingerprints() if cache.contains(key)
        )
    protocol = plan.protocol
    degree = max(
        (protocol.topology.in_degree(i) for i in range(protocol.n)),
        default=0,
    )
    return estimate_sweep_cost(
        cases=len(plan),
        nodes=protocol.n,
        degree=degree,
        max_steps=plan.max_steps,
        policy=policy if policy is not None else plan.policy,
        cached_cases=cached,
    )
