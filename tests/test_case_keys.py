"""The case key is the digest of its key tree, however it is assembled.

:meth:`repro.service.plan.SweepPlan.case_fingerprint` spells the key text
from parts memoized per plan (the salted head, shared inputs tuples and
schedule or fault objects by identity).  This pins that assembly to the
plain definition — the SHA-256 of ``repr`` of the whole key tree — over
plans that share and do not share those parts.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SweepCase
from repro.core import Labeling, RandomRFairSchedule, SynchronousSchedule
from repro.faults.models import RandomCorruption
from repro.faults.schedules import BurstFault, NoFaults, OneShotFault
from repro.service import ENGINE_VERSION, canonical
from repro.service.plan import plan_resilience_sweep, plan_sweep
from tests.test_service_fingerprint import _picklable_ring


def _tree_digest(plan, spec) -> str:
    case = spec.case
    tree = (
        "case",
        ENGINE_VERSION,
        plan.kind,
        plan.protocol_fingerprint,
        canonical(case.inputs),
        canonical(case.labeling.values),
        canonical(case.initial_outputs),
        canonical(spec.schedule),
        canonical(spec.faults),
        plan.max_steps,
    )
    return hashlib.sha256(repr(tree).encode()).hexdigest()


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_case_key_is_the_digest_of_its_tree(data):
    n = data.draw(st.integers(3, 5), label="n")
    protocol = _picklable_ring(n)
    topology = protocol.topology
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    shared_inputs = tuple(data.draw(bits))
    schedule_pool = [SynchronousSchedule(n)] + [
        RandomRFairSchedule(n, r=2, seed=seed)
        for seed in data.draw(st.lists(st.integers(0, 99), max_size=2))
    ]
    fractions = st.floats(0.0, 1.0, allow_nan=False)
    fault_pool = [
        NoFaults(),
        OneShotFault(3, RandomCorruption(data.draw(fractions), seed=1)),
    ]

    cases, schedules, faults = [], [], []
    for i in range(data.draw(st.integers(1, 6), label="cases")):
        mode = data.draw(st.sampled_from(["shared", "own", "list"]))
        if mode == "shared":
            inputs = shared_inputs
        elif mode == "own":
            inputs = tuple(data.draw(bits))
        else:
            inputs = list(data.draw(bits))
        values = st.lists(st.integers(0, 1), min_size=topology.m, max_size=topology.m)
        outputs = data.draw(st.none() | bits.map(tuple))
        cases.append(
            SweepCase(inputs, Labeling(topology, tuple(data.draw(values))), outputs)
        )
        schedules.append(data.draw(st.sampled_from(schedule_pool)))
        if data.draw(st.booleans()):
            faults.append(data.draw(st.sampled_from(fault_pool)))
        else:
            start = data.draw(st.integers(0, 20))
            model = RandomCorruption(data.draw(fractions), seed=i)
            faults.append(BurstFault((start, start + 2), model))

    max_steps = data.draw(st.integers(1, 500), label="max_steps")
    if data.draw(st.booleans(), label="resilience"):
        plan = plan_resilience_sweep(
            protocol,
            cases,
            lambda i, case: schedules[i],
            lambda i, case: faults[i],
            max_steps=max_steps,
        )
    else:
        plan = plan_sweep(
            protocol, cases, lambda i, case: schedules[i], max_steps=max_steps
        )
    order = data.draw(st.permutations(range(len(plan.specs))), label="order")
    for position in order:
        spec = plan.specs[position]
        assert plan.case_fingerprint(spec) == _tree_digest(plan, spec)
