"""A2 — engine throughput: compiled fast path vs the legacy dict-based step.

Acceptance gate for the compiled engine core: on a 64-node unidirectional
ring under the synchronous schedule, the compiled path must deliver at least
3x the steps/s of the legacy implementation (per-step ``{Edge: Label}`` dict
construction, out-edge set validation, and fresh ``Labeling`` objects —
reproduced verbatim below as the baseline).  The two kernels run in
alternating pairs and the gate reads the median per-pair ratio, so a change
in a shared host's speed between two blocks of runs cannot decide it.
"""

import statistics

from _runner import alternating_pairs, ratio_quartiles

from repro.analysis import print_table
from repro.core import (
    Configuration,
    Labeling,
    Simulator,
    StatelessProtocol,
    SynchronousSchedule,
    UniformReaction,
    binary,
)
from repro.exceptions import ValidationError
from repro.graphs import unidirectional_ring

N = 64
STEPS = 512
PAIRS = 9

#: Global transitions per timed kernel call (consumed by benchmarks/_runner).
BENCH_STEPS = STEPS


def _copy_ring_protocol(n: int) -> StatelessProtocol:
    topology = unidirectional_ring(n)

    def make(i):
        def forward(incoming, _x):
            (value,) = incoming.values()
            return value, value

        return UniformReaction(topology.out_edges(i), forward)

    return StatelessProtocol(
        topology, binary(), [make(i) for i in range(n)], name=f"copy-ring({n})"
    )


def _mixed_labeling(topology) -> Labeling:
    return Labeling(topology, tuple(k % 2 for k in range(topology.m)))


# -- the pre-compiled-engine implementation, kept as the baseline ------------


def _legacy_step(protocol, inputs, config, active):
    labeling = config.labeling
    updates = {}
    outputs = list(config.outputs)
    for i in active:
        incoming = labeling.incoming(i)
        outgoing, y = protocol.reaction(i)(incoming, inputs[i])
        expected = protocol.topology.out_edges(i)
        if set(outgoing) != set(expected):
            raise ValidationError(
                f"reaction of node {i} labeled edges {sorted(outgoing)}"
                f" but must label exactly {sorted(expected)}"
            )
        updates.update(outgoing)
        outputs[i] = y
    new_labeling = labeling.replace(updates) if updates else labeling
    return Configuration(new_labeling, tuple(outputs))


def _legacy_run_trace(protocol, inputs, labeling, schedule, steps):
    config = Configuration(labeling, (None,) * protocol.n)
    trace = [config]
    for t in range(steps):
        config = _legacy_step(protocol, inputs, config, schedule.active(t))
        trace.append(config)
    return trace


# -- measurement -------------------------------------------------------------


def test_a02_engine_throughput(benchmark):
    protocol = _copy_ring_protocol(N)
    labeling = _mixed_labeling(protocol.topology)
    inputs = (0,) * N
    schedule = SynchronousSchedule(N)
    simulator = Simulator(protocol, inputs)

    def compiled_kernel():
        return simulator.run_trace(labeling, schedule, STEPS)

    def legacy_kernel():
        return _legacy_run_trace(protocol, inputs, labeling, schedule, STEPS)

    # The two engines must agree configuration-for-configuration.
    assert compiled_kernel() == legacy_kernel()

    legacy_times, compiled_times = alternating_pairs(
        legacy_kernel, compiled_kernel, PAIRS
    )
    legacy_median = statistics.median(legacy_times)
    compiled_median = statistics.median(compiled_times)
    legacy_rate = STEPS / legacy_median
    compiled_rate = STEPS / compiled_median
    q1, speedup, q3 = ratio_quartiles(legacy_times, compiled_times)

    print_table(
        f"A2: compiled engine throughput — {N}-node ring, synchronous, "
        f"{STEPS} steps ({PAIRS} alternating pairs; speedup is the median"
        f" per-pair ratio, IQR {q1:.1f}-{q3:.1f}x)",
        ["engine", "median s / kernel", "steps/s", "speedup"],
        [
            [
                "legacy dict-based",
                f"{legacy_median:.4f}",
                f"{legacy_rate:,.0f}",
                "1.0x",
            ],
            [
                "compiled fast path",
                f"{compiled_median:.4f}",
                f"{compiled_rate:,.0f}",
                f"{speedup:.1f}x",
            ],
        ],
    )

    assert speedup >= 3.0, (
        f"compiled path only {speedup:.2f}x the legacy engine on the median"
        f" of {PAIRS} alternating pairs ({compiled_rate:,.0f} vs"
        f" {legacy_rate:,.0f} steps/s)"
    )
    benchmark(compiled_kernel)
