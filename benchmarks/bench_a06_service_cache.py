"""A6 — service cache throughput: warm resubmission vs cold execution.

Acceptance gate for the ``repro.service`` content-addressed result cache
(ISSUE 7): re-submitting an identical 1024-case sweep must be served from
the cache at **at least 5x** the cold configurations/s — and the served
report must equal the computed one bit for bit.

The warm figure deliberately includes the *whole* resubmission cost, not
just the lookups: a fresh plan is built each iteration (factory calls, case
coercion) and every fingerprint is recomputed, exactly what a second
``plan_sweep`` plus ``SweepService.submit`` of the same job pays.  The cold
side runs the serial compiled engine — the baseline a cache must beat is
"just run it again", and the serial executor is the honest floor for that
(the batch executor is itself a separately-gated accelerator, see A5).

Workload: the A5 xor-ring with odd input parity — no stable labeling
exists, so every cold case provably runs the full step budget and the cold
cost is workload-independent of the rng.  16 nodes x 1024 configurations
x 50 steps keeps the cold sweep around a quarter second; the measured
margin is ~10x with planning and fingerprinting included (~80x for the
lookups alone), so the 5x gate has real headroom.

The recorded kernel is a loop of ``WARM_RESUBMITS`` warm resubmissions
(one plan + full cache service each), giving ``check_regression.py`` a
stable ~50-150 ms measurement to gate on instead of a microsecond-noise
single resubmit.

Also asserted here (the ISSUE 7 acceptance criteria that need a sweep of
this size): incremental shard aggregates merge to exactly the one-shot
report, and the warm run's hit counters account for every case.
"""

import random

from _runner import median_time

from repro.analysis import SweepCase
from repro.analysis.tables import print_table
from repro.core import (
    Labeling,
    RandomRFairSchedule,
    RunOutcome,
    StatelessProtocol,
    UniformReaction,
    binary,
)
from repro.graphs import unidirectional_ring
from repro.service import InMemoryCache, execute_plan, iter_shards, plan_sweep

N = 16
CONFIGURATIONS = 1_024
STEPS = 50
REPEATS = 3
MIN_SPEEDUP = 5.0
#: Warm resubmissions per recorded kernel call (see module docstring).
WARM_RESUBMITS = 10
SHARD_SIZE = 128


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
    rng = random.Random(0)
    topology = protocol.topology
    # Odd input parity: no stable labeling exists, every cold case runs the
    # full budget (see the A5 docstring for the argument).
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


def test_a06_service_cache_speedup(benchmark):
    protocol = _xor_ring_protocol(N)
    cases = _population(protocol, CONFIGURATIONS)
    schedule = RandomRFairSchedule(N, r=4, seed=2, p=0.9)

    def factory(index, case):
        return schedule

    def build_plan():
        return plan_sweep(protocol, cases, factory, max_steps=STEPS)

    cache = InMemoryCache()

    def cold_kernel():
        # A cacheless serial execution: what resubmission costs without
        # the service layer.
        return execute_plan(build_plan())

    def warm_resubmit():
        # A full resubmission: plan afresh, fingerprint every case, serve
        # from the shared cache.
        return execute_plan(build_plan(), cache=cache)

    def warm_loop():
        report = None
        for _ in range(WARM_RESUBMITS):
            report = warm_resubmit()
        return report

    # -- correctness first: the gate is meaningless on unequal reports ----
    cold_report = execute_plan(build_plan(), cache=cache)  # fills the cache
    assert all(r.outcome is RunOutcome.TIMEOUT for r in cold_report.results)
    assert all(r.steps_executed == STEPS for r in cold_report.results)
    assert cache.stats.misses == CONFIGURATIONS

    warm_report = warm_resubmit()
    assert warm_report == cold_report, "cache-served report differs"
    assert cache.stats.hits == CONFIGURATIONS

    # Incremental aggregation (ISSUE 7): streamed shard aggregates merge to
    # exactly the one-shot report, warm and sharded alike.
    last = None
    for shard in iter_shards(build_plan(), cache=cache, shard_size=SHARD_SIZE):
        last = shard
    assert last.done and last.total_shards == CONFIGURATIONS // SHARD_SIZE
    assert last.aggregate == cold_report
    assert last.cache_hits == CONFIGURATIONS

    # -- the gate: cold vs warm configurations/s --------------------------
    # Re-measure up to three times keeping the best median per side
    # (min-time estimation), as in the A3/A5 gates: contention must not
    # flip a genuine 50x margin below 5x.
    cold_median = warm_median = float("inf")
    for _attempt in range(3):
        cold_median = min(cold_median, median_time(cold_kernel, REPEATS)[0])
        warm_median = min(
            warm_median, median_time(warm_resubmit, REPEATS)[0]
        )
        speedup = cold_median / warm_median
        if speedup >= MIN_SPEEDUP:
            break

    cold_rate = CONFIGURATIONS / cold_median
    warm_rate = CONFIGURATIONS / warm_median

    # The recorded kernel: a stable multi-resubmit loop over the warm cache.
    looped = benchmark(warm_loop)
    assert looped == cold_report

    print_table(
        f"A6: service cache — {N}-node xor-ring, {CONFIGURATIONS:,}"
        f" configurations x {STEPS} steps, warm resubmission vs cold serial"
        f" (median of {REPEATS})",
        ["path", "median s / sweep", "configurations/s", "speedup"],
        [
            [
                "cold (serial executor, no cache)",
                f"{cold_median:.4f}",
                f"{cold_rate:,.0f}",
                "1.0x",
            ],
            [
                "warm (plan + fingerprint + cache)",
                f"{warm_median:.4f}",
                f"{warm_rate:,.0f}",
                f"{speedup:.1f}x",
            ],
        ],
    )

    assert speedup >= MIN_SPEEDUP, (
        f"warm resubmission only {speedup:.2f}x the cold sweep"
        f" ({warm_rate:,.0f} vs {cold_rate:,.0f} configurations/s)"
    )
