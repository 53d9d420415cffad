"""The sweep job service: submit, stream, resubmit (served from cache).

ISSUE 7's service layer in one sitting: build a resilience sweep over the
paper's Example 1 clique protocol, submit it to a local
:class:`repro.service.SweepService`, watch shard aggregates stream in, then
resubmit the identical job and watch the content-addressed cache serve it —
same report, bit for bit, at a fingerprint lookup per case.  A third
submission reuses the cached physics under a *different* recovery
criterion: the cache stores criterion-free raw results, so re-judging is
free.

Run:  python examples/sweep_service.py
"""

import random

from repro.core import Labeling, RandomRFairSchedule
from repro.faults import NoFaults, OneShotFault, RandomCorruption
from repro.service import SweepService, plan_resilience_sweep
from repro.stabilization import example1_protocol

N = 4
CASES = 48
MAX_STEPS = 400
SHARD_SIZE = 12


def build_plan():
    """Plan the sweep: factories run here, once, in case order."""
    protocol = example1_protocol(N)
    topology = protocol.topology
    rng = random.Random(7)
    from repro.analysis import SweepCase

    cases = [
        SweepCase(
            (0,) * N,
            Labeling(
                topology, tuple(rng.randrange(2) for _ in topology.edges)
            ),
            tag=k,
        )
        for k in range(CASES)
    ]

    def schedule_factory(index, case):
        return RandomRFairSchedule(N, r=2, seed=1_000 + index, p=0.9)

    def fault_factory(index, case):
        if index % 3 == 0:
            return NoFaults()  # every third case is a fault-free control
        return OneShotFault(5, RandomCorruption(0.5, seed=index))

    return plan_resilience_sweep(
        protocol, cases, schedule_factory, fault_factory, max_steps=MAX_STEPS
    )


def main() -> None:
    plan = build_plan()
    print(f"plan: {plan.describe()}")
    print(f"plan fingerprint: {plan.plan_fingerprint[:32]}…")

    with SweepService() as service:
        # -- cold: every case is simulated --------------------------------
        print("\n=== cold submission (streaming shard aggregates) ===")
        job = service.submit(plan, shard_size=SHARD_SIZE)
        for progress in service.stream(job):
            aggregate = progress.aggregate
            print(
                f"  {progress.describe()}"
                f" | recovery so far {aggregate.recovery_rate:.0%}"
            )
        cold = service.result(job)
        print(f"cold report: {cold.describe()}")

        # -- warm: the identical plan is served from the cache ------------
        print("\n=== identical resubmission (served from cache) ===")
        rerun = service.submit(build_plan(), shard_size=SHARD_SIZE)
        for progress in service.stream(rerun):
            print(f"  {progress.describe()}")
        warm = service.result(rerun)
        status = service.status(rerun)
        print(f"warm report: {warm.describe()}")
        print(
            f"bit-identical to cold: {warm == cold}"
            f"  (cache {status.cache_hits} hits / {status.cache_misses} misses)"
        )
        assert warm == cold

        # -- same physics, different recovery criterion -------------------
        # "orbit" counts any certified recurrent orbit as recovered; the
        # cached raw results are re-judged without a single new simulation.
        print("\n=== resubmission under the 'orbit' criterion ===")
        orbit = service.result(service.submit(build_plan(), recovered="orbit"))
        print(f"orbit report: {orbit.describe()}")
        print(f"cache stats: {service.cache.stats.describe()}")


if __name__ == "__main__":
    main()
