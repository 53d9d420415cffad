"""A8 — complexity-scaling trajectories for the cost model's complexity gate.

Where A2/A5 gate throughput *constants*, this bench records the measured
*scaling ladders* the cost-model gate fits: per-size timings whose fitted
complexity class must stay within the class the implementation shipped
under (``repro.analysis.costmodel.BENCH_EXPECTATIONS``).  A constant-factor
slowdown trips A2/A5's 30% threshold; an O(n) → O(n²) slip can *improve*
the constants while ruining scalability, and only this record catches it.

Two ladders, one per size the implementation promises linearity in:

* ``test_a08_engine_node_scaling`` — the serial compiled engine on XOR
  rings of n = 16..128 nodes at a fixed step budget and case count.  Every
  case does S·n·d work (one gather/react/scatter per node activation), so
  time is linear in n; a quadratic fit means some per-step path started
  touching all-pairs state.
* ``test_a08_batch_width_scaling`` — the batch backend at widths
  B = 2k..16k rows on a fixed 64-node ring.  B rows stepped in lockstep do
  B·S·n·d element work, so time is linear in B; superlinear growth means
  the lockstep kernels stopped vectorizing over rows.

Each entry carries parallel ``sizes`` / ``times_s`` arrays (via
``benchmark.extra``) — exactly the trajectory shape
:func:`repro.analysis.costmodel.fit_trajectory` consumes, and what
``check_regression.py``'s complexity pass re-fits on every run.  The XOR-ring workload has odd input parity, so no stable labeling
exists and every case provably runs the full step budget: measured time is
pure engine work at a fixed, size-independent step count.
"""

from _runner import median_time

from repro import ExecutionPolicy
from repro.analysis import SweepCase, print_table, run_sweep
from repro.core import (
    Labeling,
    RandomRFairSchedule,
    StatelessProtocol,
    UniformReaction,
    binary,
)
from repro.graphs import unidirectional_ring

#: Node-count ladder for the serial engine (fixed cases x steps each).
NODE_SIZES = (16, 32, 64, 128)
NODE_CASES = 16
NODE_STEPS = 150

#: Batch-width ladder for the vectorized backend (fixed nodes and steps).
WIDTH_SIZES = (2_000, 4_000, 8_000, 16_000)
WIDTH_N = 64
WIDTH_STEPS = 100

REPEATS = 3
BATCH = ExecutionPolicy(executor="batch")


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
    # Odd input parity: no stable labeling, every case runs the full budget.
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


def _ladder_table(title, size_label, sizes, times):
    print_table(
        title,
        [size_label, "time (s)", "s / size unit"],
        [
            [f"{size:,}", f"{elapsed:.4f}", f"{elapsed / size:.3g}"]
            for size, elapsed in zip(sizes, times, strict=True)
        ],
    )


def _node_sweep(n):
    # A seeded random r-fair schedule, as in A5: aperiodic activation
    # sequences defeat the engine's cycle detector, so every case provably
    # runs the full budget and measured time is size-independent step work.
    protocol = _xor_ring_protocol(n)
    cases = _population(protocol, NODE_CASES)
    schedule = RandomRFairSchedule(n, r=4, seed=2, p=0.9)
    return run_sweep(
        protocol, cases, lambda i, c: schedule, max_steps=NODE_STEPS
    )


def test_a08_engine_node_scaling(benchmark):
    times = []
    for n in NODE_SIZES:
        elapsed, report = median_time(lambda n=n: _node_sweep(n), REPEATS)
        assert all(r.steps_executed == NODE_STEPS for r in report.results)
        times.append(elapsed)

    # The timed entry kernel re-runs the largest size (so kernel_median_s
    # stays a plain throughput figure); the ladder ships via extra.
    benchmark(lambda: _node_sweep(NODE_SIZES[-1]))
    benchmark.extra["sizes"] = list(NODE_SIZES)
    benchmark.extra["times_s"] = times
    _ladder_table(
        f"A8: serial engine node scaling — {NODE_CASES} cases x"
        f" {NODE_STEPS} steps (median of {REPEATS})",
        "nodes",
        NODE_SIZES,
        times,
    )


def test_a08_batch_width_scaling(benchmark):
    protocol = _xor_ring_protocol(WIDTH_N)
    population = _population(protocol, WIDTH_SIZES[-1])
    schedule = RandomRFairSchedule(WIDTH_N, r=4, seed=2, p=0.9)

    def factory(index, case):
        return schedule

    times = []
    for width in WIDTH_SIZES:

        def kernel(cases=population[:width]):
            return run_sweep(
                protocol, cases, factory, max_steps=WIDTH_STEPS, policy=BATCH
            )

        elapsed, report = median_time(kernel, REPEATS)
        assert len(report) == width
        times.append(elapsed)

    benchmark(
        lambda: run_sweep(
            protocol,
            population[: WIDTH_SIZES[-1]],
            factory,
            max_steps=WIDTH_STEPS,
            policy=BATCH,
        )
    )
    benchmark.extra["sizes"] = list(WIDTH_SIZES)
    benchmark.extra["times_s"] = times
    _ladder_table(
        f"A8: batch width scaling — {WIDTH_N}-node ring x"
        f" {WIDTH_STEPS} steps (median of {REPEATS})",
        "rows",
        WIDTH_SIZES,
        times,
    )
