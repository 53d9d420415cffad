"""Step budgets: every entry point that takes ``max_steps`` refuses one that
is not an integer >= 1, with a ``ValidationError`` naming the field.

A negative budget used to run to a report with negative ``steps_executed``
and to price a plan at negative work, which any admission budget accepted;
a float failed later, inside ``range()``, with a bare ``TypeError``; and a
zero budget decides nothing.
"""

import dataclasses

import pytest

from repro.core import Simulator, SynchronousSchedule
from repro.core.batch import BatchSimulator
from repro.exceptions import ValidationError
from repro.faults import run_with_faults
from repro.faults.schedules import NoFaults
from repro.service import (
    AdmissionPolicy,
    SweepService,
    plan_resilience_sweep,
    plan_sweep,
)

from tests.helpers import random_bit_labeling
from tests.test_service_jobs import _plan, _ring, _sync

BAD_BUDGETS = [-3, 0, True, 2.5]

RING = _ring(4)
INPUTS = (0,) * 4
START = random_bit_labeling(RING.topology, seed=7)
SYNC = SynchronousSchedule(4)
CASES = [(INPUTS, START)]


def _no_faults(index, case):
    return NoFaults()


ENTRY_POINTS = {
    "Simulator.run": lambda steps: Simulator(RING, INPUTS).run(
        START, SYNC, max_steps=steps
    ),
    "run_with_faults": lambda steps: run_with_faults(
        Simulator(RING, INPUTS), START, SYNC, NoFaults(), max_steps=steps
    ),
    "BatchSimulator.run_batch": lambda steps: BatchSimulator(
        RING, [INPUTS]
    ).run_batch([START], SYNC, max_steps=steps),
    "BatchSimulator.run_batch_with_faults": lambda steps: BatchSimulator(
        RING, [INPUTS]
    ).run_batch_with_faults([START], SYNC, [NoFaults()], max_steps=steps),
    "plan_sweep": lambda steps: plan_sweep(RING, CASES, _sync, max_steps=steps),
    "plan_resilience_sweep": lambda steps: plan_resilience_sweep(
        RING, CASES, _sync, _no_faults, max_steps=steps
    ),
    "SweepPlan": lambda steps: dataclasses.replace(_plan()[0], max_steps=steps),
}


@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_refuse_bad_budgets(entry, budget):
    with pytest.raises(ValidationError, match="max_steps"):
        ENTRY_POINTS[entry](budget)


def test_a_refused_plan_calls_no_factory():
    calls = []

    def schedules(index, case):
        calls.append(("schedule", index))
        return SYNC

    def faults(index, case):
        calls.append(("faults", index))
        return NoFaults()

    for budget in BAD_BUDGETS:
        with pytest.raises(ValidationError, match="max_steps"):
            plan_sweep(RING, CASES, schedules, max_steps=budget)
        with pytest.raises(ValidationError, match="max_steps"):
            plan_resilience_sweep(RING, CASES, schedules, faults, max_steps=budget)
    assert calls == []


def test_a_negative_budget_never_reaches_admission():
    # Priced at negative work, such a plan fit under any admission budget.
    _, protocol, cases = _plan()
    with SweepService(admission=AdmissionPolicy(max_work=1)) as service:
        with pytest.raises(ValidationError, match="max_steps"):
            service.submit(plan_sweep(protocol, cases, _sync, max_steps=-(10**9)))
        assert service.jobs() == []
