"""Price a sweep before running it: the cost model as a capacity planner.

The cost model (`repro.analysis.costmodel`) prices a sweep from its shape
alone — node count, in-degree, step budget, case count — in the model's
*work units* (elementary node activations: S·n·d per case).  The service
layer grounds that price in a concrete plan and a concrete cache
(`repro.service.predict_plan_cost`), and an `AdmissionPolicy` turns it
into an enforced budget: over-budget plans are rejected *before* any
simulation runs.

This example walks the full loop:

1. build a sweep plan and predict its cold cost;
2. submit it to a budgeted service and watch admission reject it;
3. warm the cache through an unbudgeted service;
4. resubmit — the same plan, repriced against the warm cache, now fits;
5. compare the prediction against the measured wall time.

Run:  python examples/capacity_planning.py
"""

import random
import time

from repro import ExecutionPolicy
from repro.analysis import SweepCase
from repro.core import (
    Labeling,
    StatelessProtocol,
    SynchronousSchedule,
    UniformReaction,
    binary,
)
from repro.exceptions import AdmissionError
from repro.graphs import unidirectional_ring
from repro.service import (
    AdmissionPolicy,
    InMemoryCache,
    SweepService,
    plan_sweep,
    predict_plan_cost,
)


def _forward_bit(incoming, _x):
    (value,) = incoming.values()
    return value, value


def build_plan(n=8, cases=64, max_steps=120):
    topology = unidirectional_ring(n)
    reactions = [
        UniformReaction(topology.out_edges(i), _forward_bit) for i in range(n)
    ]
    protocol = StatelessProtocol(topology, binary(), reactions, name="ring")
    rng = random.Random(0)
    population = [
        SweepCase(
            (0,) * n,
            Labeling(topology, tuple(rng.randrange(2) for _ in range(n))),
            tag=k,
        )
        for k in range(cases)
    ]
    return plan_sweep(
        protocol,
        population,
        lambda i, c: SynchronousSchedule(n),
        max_steps=max_steps,
    )


def main() -> None:
    plan = build_plan()
    policy = ExecutionPolicy()  # serial engine; try executor="batch"

    # -- 1: predict ----------------------------------------------------------
    cold = predict_plan_cost(plan, policy)
    print(f"plan: {plan.describe()}")
    print(f"cold estimate: {cold.describe()}")

    # -- 2: a budget the cold plan cannot meet -------------------------------
    # Budget between the warm price (every case a cache hit) and the cold
    # price, so the *same* plan is refused cold and admitted warm.
    budget = AdmissionPolicy(max_work=cold.predicted_work / 2)
    print(f"budget: {budget.describe()}")

    cache = InMemoryCache()
    with SweepService(cache=cache, admission=budget) as service:
        rejected = service.submit(plan)
        status = service.status(rejected)
        print(f"cold submission -> {status.state.value}")
        try:
            service.result(rejected, timeout=5)
        except AdmissionError as error:
            print(f"  {error}")

        # -- 3: warm the cache through an unbudgeted service -----------------
        started = time.perf_counter()
        with SweepService(cache=cache) as warmup:
            report = warmup.result(warmup.submit(plan, policy=policy))
        measured = time.perf_counter() - started
        print(
            f"warmup run: {report.describe()}"
            f"\n  measured {measured:.3f}s vs predicted"
            f" ~{cold.predicted_seconds:.3f}s (coarse calibration constants)"
        )

        # -- 4: the identical plan now fits the budget -----------------------
        warm = predict_plan_cost(plan, policy, cache=cache)
        print(
            f"warm estimate: {warm.describe()}"
            f"\n  cache discount: {warm.cache_discount:.1%}"
        )
        admitted = service.submit(plan, policy=policy)
        served = service.result(admitted, timeout=60)
        status = service.status(admitted)
        print(f"warm submission -> {status.state.value}")
        assert served == report, "cache-served report differs from computed"
        print("cache-served report identical to the computed one")


if __name__ == "__main__":
    main()
