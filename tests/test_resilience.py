"""Resilience sweeps: the PR-2 acceptance matrix.

Every self-stabilizing construction in the library (generic protocol,
D-counter, TM-on-ring, circuit-on-ring, safe BGP) shows **100% recovery**
under ``RandomCorruption``; the non-stabilizing oscillation gadgets
(Example 1 under its (n-1)-fair schedule, the rotating copy-ring, the BGP
bad gadget) show **non-recovery**.  Plus the sweep mechanics: criteria,
the no-fault control, and the report surface.
"""

import random

import pytest

from repro.analysis import (
    RECOVERY_CRITERIA,
    ResilienceReport,
    SweepCase,
    run_resilience_sweep,
)
from repro.core import (
    Labeling,
    RandomRFairSchedule,
    RunOutcome,
    StatelessProtocol,
    SynchronousSchedule,
    UniformReaction,
    binary,
    default_inputs,
)
from repro.dynamics import NO_ROUTE, bad_gadget, bgp_protocol, good_gadget
from repro.exceptions import ValidationError
from repro.faults import (
    BurstFault,
    NoFaults,
    OneShotFault,
    RandomCorruption,
    StuckAtFault,
    TargetedCorruption,
)
from repro.graphs import clique, unidirectional_ring
from repro.power import (
    RingCircuitLayout,
    circuit_ring_protocol,
    d_counter_protocol,
    generic_protocol,
    machine_ring_protocol,
    machine_ring_round_bound,
    ring_inputs,
)
from repro.stabilization import (
    example1_protocol,
    one_token_labeling,
    oscillating_schedule,
)
from repro.substrates.circuits import parity_circuit
from repro.substrates.turing import ConfigurationGraph, parity_machine

from tests.helpers import random_bit_labeling


def _sync(index, case):
    return SynchronousSchedule(len(case.inputs))


def _random_cases(protocol, inputs, count, seed):
    rng = random.Random(seed)
    return [
        SweepCase(
            tuple(inputs),
            Labeling.random(protocol.topology, protocol.label_space, rng),
            tag=k,
        )
        for k in range(count)
    ]


class TestSelfStabilizingConstructionsRecover:
    def test_generic_protocol_full_recovery(self):
        topology = clique(4)
        f = lambda bits: (bits[0] & bits[1]) ^ bits[3]  # noqa: E731
        protocol = generic_protocol(topology, f)
        rng = random.Random(0)
        cases = []
        for _ in range(8):
            x = tuple(rng.randrange(2) for _ in range(4))
            cases.append(
                SweepCase(
                    x,
                    Labeling.random(topology, protocol.label_space, rng),
                    tag=x,
                )
            )
        report = run_resilience_sweep(
            protocol,
            cases,
            _sync,
            lambda i, c: OneShotFault(9, RandomCorruption(0.5, seed=i)),
            max_steps=60,
            recovered="label",
        )
        assert isinstance(report, ResilienceReport)
        assert report.all_recovered
        assert report.recovery_rate == 1.0
        # and the recovered outputs are the recomputed function values
        for result in report.results:
            assert set(result.outputs) == {f(result.tag)}
        # recovery bounded by the paper's 2n+2 rounds
        assert report.worst_recovery_rounds <= 2 * 4 + 2

    def test_d_counter_full_recovery(self):
        n, modulus = 5, 7
        protocol = d_counter_protocol(n, modulus)
        cases = _random_cases(protocol, (0,) * n, 6, seed=1)
        report = run_resilience_sweep(
            protocol,
            cases,
            _sync,
            lambda i, c: OneShotFault(4 * n + 4, RandomCorruption(0.6, seed=i)),
            max_steps=600,
            # the counter's job is to keep counting: recovery = the run
            # provably re-entered a cycle with synchronized outputs
            recovered=lambda r: r.outcome is RunOutcome.OSCILLATING
            and len(set(r.outputs)) == 1,
        )
        assert report.all_recovered
        assert report.non_recovered == ()

    def test_tm_on_ring_full_recovery(self):
        n = 3
        graph = ConfigurationGraph(parity_machine(), n)
        protocol = machine_ring_protocol(graph)
        bound = machine_ring_round_bound(graph)
        rng = random.Random(2)
        x = (1, 0, 1)
        cases = [
            SweepCase(
                x, Labeling.random(protocol.topology, protocol.label_space, rng), tag=k
            )
            for k in range(5)
        ]
        report = run_resilience_sweep(
            protocol,
            cases,
            _sync,
            lambda i, c: OneShotFault(bound // 2, RandomCorruption(0.5, seed=i)),
            max_steps=3 * bound + 200,
            recovered="output",
        )
        assert report.all_recovered
        for result in report.results:
            assert set(result.outputs) == {sum(x) % 2}
        assert report.worst_recovery_rounds <= bound

    def test_circuit_on_ring_full_recovery(self):
        circuit = parity_circuit(3)
        layout = RingCircuitLayout(circuit)
        protocol = circuit_ring_protocol(circuit)
        x = (1, 1, 0)
        inputs = ring_inputs(layout, x)
        rng = random.Random(3)
        cases = [
            SweepCase(
                inputs,
                Labeling.random(protocol.topology, protocol.label_space, rng),
                tag=k,
            )
            for k in range(4)
        ]
        report = run_resilience_sweep(
            protocol,
            cases,
            _sync,
            lambda i, c: OneShotFault(
                layout.round_bound() // 2, RandomCorruption(0.5, seed=i)
            ),
            max_steps=3 * layout.round_bound(),
            recovered="output",
        )
        assert report.all_recovered
        for result in report.results:
            assert set(result.outputs) == {circuit.evaluate(x)}

    def test_safe_bgp_full_recovery(self):
        protocol = bgp_protocol(good_gadget())
        initial = Labeling.uniform(protocol.topology, NO_ROUTE)
        cases = [
            SweepCase(default_inputs(protocol), initial, tag=k) for k in range(8)
        ]
        report = run_resilience_sweep(
            protocol,
            cases,
            _sync,
            lambda i, c: BurstFault([5, 9], RandomCorruption(0.5, seed=i)),
            max_steps=200,
            recovered="label",
        )
        assert report.all_recovered
        # the unique routing tree is restored in every case
        for result in report.results:
            assert result.outputs[1] == (1, 0)


class TestOscillationGadgetsDoNotRecover:
    def test_bgp_bad_gadget_never_recovers(self):
        # No stable routing solution exists, so no corruption can help.
        protocol = bgp_protocol(bad_gadget())
        initial = Labeling.uniform(protocol.topology, NO_ROUTE)
        cases = [
            SweepCase(default_inputs(protocol), initial, tag=k) for k in range(6)
        ]
        report = run_resilience_sweep(
            protocol,
            cases,
            _sync,
            lambda i, c: OneShotFault(5, RandomCorruption(0.5, seed=i)),
            max_steps=400,
            recovered="label",
        )
        assert report.recovery_rate == 0.0
        assert report.non_recovered_count == len(cases)
        assert {r.outcome for r in report.results} == {RunOutcome.OSCILLATING}

    def test_copy_ring_stuck_at_fault_never_recovers(self):
        # A single stuck edge knocks the stable uniform labeling into the
        # rotating orbit, and the forwarding ring can never repair it.
        protocol = _copy_ring(4)
        uniform = Labeling.uniform(protocol.topology, 0)
        cases = [SweepCase((0,) * 4, uniform, tag=k) for k in range(3)]
        report = run_resilience_sweep(
            protocol,
            cases,
            _sync,
            lambda i, c: OneShotFault(
                5 + i, StuckAtFault([protocol.topology.edges[0]], 1)
            ),
            max_steps=100,
            recovered="label",
        )
        assert report.recovery_rate == 0.0
        assert {r.outcome for r in report.results} == {RunOutcome.OSCILLATING}

    def test_example1_adversarial_token_replant_keeps_oscillating(self):
        # An adversarial targeted fault re-plants the token exactly where
        # the (n-1)-fair oscillating schedule expects it: the run keeps
        # oscillating after the fault.
        n = 4
        protocol = example1_protocol(n)
        token = one_token_labeling(n)
        replant = TargetedCorruption(
            protocol.topology.edges,
            labels=one_token_labeling(n, holder=0).as_dict(),
        )
        cases = [SweepCase(default_inputs(protocol), token, tag=0)]
        report = run_resilience_sweep(
            protocol,
            cases,
            lambda i, c: oscillating_schedule(n),
            lambda i, c: OneShotFault(2 * n, replant),
            max_steps=200,
            recovered="label",
        )
        (result,) = report.results
        assert result.outcome is RunOutcome.OSCILLATING
        assert not result.recovered
        assert report.recovery_rate == 0.0


# -- sweep mechanics ----------------------------------------------------------


def _forward_bit(incoming, _x):
    (value,) = incoming.values()
    return value, value


def _copy_ring(n):
    topology = unidirectional_ring(n)
    reactions = [
        UniformReaction(topology.out_edges(i), _forward_bit) for i in range(n)
    ]
    return StatelessProtocol(topology, binary(), reactions, name="copy-ring")


def _seeded_random_schedule(index, case):
    return RandomRFairSchedule(len(case.inputs), r=3, seed=index)


class TestResilienceSweepMechanics:
    def test_no_fault_control_matches_plain_sweep(self):
        from repro.analysis import run_sweep

        protocol = _copy_ring(4)
        cases = [
            SweepCase((0,) * 4, random_bit_labeling(protocol.topology, seed=s), tag=s)
            for s in range(6)
        ]
        plain = run_sweep(protocol, cases, _seeded_random_schedule, max_steps=60)
        control = run_resilience_sweep(
            protocol,
            cases,
            _seeded_random_schedule,
            lambda i, c: NoFaults(),
            max_steps=60,
        )
        for bare, injected in zip(plain.results, control.results, strict=True):
            assert injected.outcome == bare.outcome
            assert injected.label_rounds == bare.label_rounds
            assert injected.output_rounds == bare.output_rounds
            assert injected.steps_executed == bare.steps_executed
            assert injected.final_values == bare.final_values
            assert injected.outputs == bare.outputs
            assert injected.faults_fired == 0

    def test_recovery_criteria_and_report_surface(self):
        protocol = _copy_ring(3)
        stable = Labeling.uniform(protocol.topology, 0)
        rotating = Labeling(protocol.topology, (1, 0, 0))
        report = run_resilience_sweep(
            protocol,
            [
                SweepCase((0,) * 3, stable, tag="stable"),
                SweepCase((0,) * 3, rotating, tag="rotates"),
            ],
            _sync,
            lambda i, c: NoFaults(),
            max_steps=50,
            recovered="label",
        )
        assert report.recovered_count == 1
        assert report.non_recovered_count == 1
        assert report.recovery_rate == 0.5
        assert not report.all_recovered
        assert report.recovery_histogram() == {0: 1}
        assert report.worst_recovery_rounds == 0
        (loser,) = report.non_recovered
        assert loser.tag == "rotates"
        assert "recovered=1" in report.describe()
        # the orbit criterion accepts the provable oscillation too
        orbit = run_resilience_sweep(
            protocol,
            [SweepCase((0,) * 3, rotating, tag="rotates")],
            _sync,
            lambda i, c: NoFaults(),
            max_steps=50,
            recovered="orbit",
        )
        assert orbit.all_recovered

    def test_unknown_criterion_rejected(self):
        protocol = _copy_ring(3)
        with pytest.raises(ValidationError):
            run_resilience_sweep(
                protocol,
                [SweepCase((0,) * 3, Labeling.uniform(protocol.topology, 0))],
                _sync,
                lambda i, c: NoFaults(),
                recovered="nonsense",
            )

    def test_empty_sweep(self):
        protocol = _copy_ring(3)
        report = run_resilience_sweep(
            protocol, [], _sync, lambda i, c: NoFaults()
        )
        assert len(report) == 0
        assert report.recovery_rate == 1.0
        assert report.all_recovered

    def test_criteria_registry_is_consistent(self):
        assert set(RECOVERY_CRITERIA) == {"label", "output", "orbit"}
