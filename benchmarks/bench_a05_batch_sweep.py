"""A5 — batch sweep throughput: the vectorized backend vs the serial sweep.

Acceptance gate for ``repro.core.batch`` (tightened by the packed-code fused
kernels): on a 64-node unidirectional ring with a population of 10^5 random
initial labelings, ``run_sweep`` under ``ExecutionPolicy(executor="batch")``
must deliver

* at least **10x** the configurations/s of the serial compiled sweep
  (measured on a 2048-case subset — the serial engine would need tens of
  minutes for the full population), reports equal case for case, and
* at least **3x** the configurations/s of the committed PR-4 numpy record
  on this same case (7,089.5 configurations/s), i.e. the packed + fused
  kernels must beat the plain int64 lockstep backend by 3x outright.

Workload: every node forwards its incoming bit XORed with its private input;
the input vector has odd parity, so a stable labeling would need the labels
around the ring to XOR to zero *and* to the input parity at once — no stable
labeling exists, every case provably runs the full step budget, and both
executors do an identical, fixed number of global transitions per kernel
call.  The shared seeded random 4-fair schedule memoizes its realized steps,
so serial and batch runs see byte-identical activation sequences.
"""

from _runner import median_time

from repro import ExecutionPolicy
from repro.analysis import SweepCase, run_sweep
from repro.analysis.tables import print_table
from repro.core import (
    Labeling,
    RandomRFairSchedule,
    StatelessProtocol,
    UniformReaction,
    binary,
)
from repro.core.convergence import RunOutcome
from repro.graphs import unidirectional_ring

N = 64
CONFIGURATIONS = 100_000
#: Serial subset: enough for a stable rate and the equivalence check without
#: multi-minute serial runs.
SERIAL_CONFIGURATIONS = 2_048
STEPS = 100
REPEATS = 3
BATCH = ExecutionPolicy(executor="batch")
MIN_SPEEDUP = 10.0
#: The committed PR-4 numpy lockstep record on this exact case
#: (BENCH history: 708,952.4 steps/s at 100 steps/configuration).
PR4_RECORD_CONFIGS_PER_S = 7_089.5
MIN_RECORD_FACTOR = 3.0

#: Global transitions per timed kernel call (consumed by benchmarks/_runner).
BENCH_STEPS = CONFIGURATIONS * STEPS


def _xor_forward(incoming, x):
    (value,) = incoming.values()
    return value ^ x, value


def _xor_ring_protocol(n: int) -> StatelessProtocol:
    topology = unidirectional_ring(n)
    reactions = [
        UniformReaction(topology.out_edges(i), _xor_forward) for i in range(n)
    ]
    return StatelessProtocol(
        topology, binary(), reactions, name=f"xor-ring({n})"
    )


def _population(protocol, count):
    import random

    rng = random.Random(0)
    topology = protocol.topology
    # Odd input parity: no stable labeling exists, every case runs the
    # full budget (see the module docstring).
    inputs = (1,) + (0,) * (topology.n - 1)
    return [
        SweepCase(
            inputs,
            Labeling(
                topology, tuple(rng.randrange(2) for _ in range(topology.m))
            ),
            tag=k,
        )
        for k in range(count)
    ]


def test_a05_batch_sweep_speedup(benchmark):
    protocol = _xor_ring_protocol(N)
    cases = _population(protocol, CONFIGURATIONS)
    subset = cases[:SERIAL_CONFIGURATIONS]
    schedule = RandomRFairSchedule(N, r=4, seed=2, p=0.9)

    def factory(index, case):
        return schedule

    def serial_kernel():
        return run_sweep(protocol, subset, factory, max_steps=STEPS)

    def batch_subset_kernel():
        return run_sweep(
            protocol, subset, factory, max_steps=STEPS, policy=BATCH
        )

    def batch_kernel():
        return run_sweep(
            protocol, cases, factory, max_steps=STEPS, policy=BATCH
        )

    # Equivalence and workload sanity on the serial-sized subset: equal
    # reports, full budget everywhere.
    serial_report = serial_kernel()
    batch_report = batch_subset_kernel()
    assert serial_report == batch_report
    assert all(r.outcome is RunOutcome.TIMEOUT for r in serial_report.results)
    assert all(r.steps_executed == STEPS for r in serial_report.results)

    # Re-measure up to three times, keeping the best median per executor
    # (min-time estimation): the gates compare genuine throughput, so a
    # noisy or contended block must not flip them.  Same retry policy as
    # the a03 overhead gate.
    record_floor = MIN_RECORD_FACTOR * PR4_RECORD_CONFIGS_PER_S
    serial_median = batch_median = float("inf")
    for _attempt in range(3):
        serial_median = min(serial_median, median_time(serial_kernel, REPEATS)[0])
        batch_median = min(batch_median, median_time(batch_kernel, REPEATS)[0])
        serial_rate = SERIAL_CONFIGURATIONS / serial_median
        batch_rate = CONFIGURATIONS / batch_median
        speedup = batch_rate / serial_rate
        if speedup >= MIN_SPEEDUP and batch_rate >= record_floor:
            break

    rows = [
        [
            f"serial compiled sweep ({SERIAL_CONFIGURATIONS} cases)",
            f"{serial_median:.4f}",
            f"{serial_rate:,.0f}",
            "1.0x",
        ],
        [
            "batch (numpy packed, fused windows)",
            f"{batch_median:.4f}",
            f"{batch_rate:,.0f}",
            f"{speedup:.1f}x",
        ],
    ]
    print_table(
        f"A5: batch sweep throughput — {N}-node ring, {CONFIGURATIONS:,}"
        f" configurations x {STEPS} steps, random 4-fair"
        f" (median of {REPEATS})",
        ["executor", "median s / sweep", "configurations/s", "speedup"],
        rows,
    )

    assert speedup >= MIN_SPEEDUP, (
        f"batch executor only {speedup:.2f}x the serial sweep "
        f"({batch_rate:,.0f} vs {serial_rate:,.0f} configurations/s)"
    )
    assert batch_rate >= record_floor, (
        f"batch executor at {batch_rate:,.0f} configurations/s is below"
        f" {MIN_RECORD_FACTOR:.0f}x the committed PR-4 record"
        f" ({PR4_RECORD_CONFIGS_PER_S:,.1f} configurations/s)"
    )
    benchmark(batch_kernel)
