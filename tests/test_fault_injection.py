"""Transient-fault injection: the operational meaning of self-stabilization.

The paper (Section 1.2): a self-stabilizing system recovers from *any*
transient fault, provided code and inputs stay intact.  These tests corrupt
the edge labels mid-run — arbitrarily, repeatedly — through the
``repro.faults`` subsystem and verify that every self-stabilizing
construction in the library re-converges to the correct state afterwards:

* the generic protocol (Prop 2.3) re-computes f;
* the D-counter re-synchronizes;
* the TM-on-ring protocol re-stabilizes to M(x);
* the circuit-on-ring protocol re-stabilizes to C(x);
* BGP on a safe instance re-converges to its unique routing tree.

Recovery is certified by the engine (cycle detection / fixed-point
certification on the post-fault tail), not inferred from settled-looking
outputs.
"""

import random

import pytest

from repro.core import (
    Labeling,
    RunOutcome,
    Simulator,
    SynchronousSchedule,
    default_inputs,
)
from repro.dynamics import NO_ROUTE, bgp_protocol, good_gadget
from repro.faults import BurstFault, OneShotFault, RandomCorruption
from repro.graphs import clique
from repro.power import (
    RingCircuitLayout,
    circuit_ring_protocol,
    d_counter_protocol,
    generic_protocol,
    machine_ring_protocol,
    machine_ring_round_bound,
    ring_inputs,
)
from repro.substrates.circuits import parity_circuit
from repro.substrates.turing import ConfigurationGraph, parity_machine


class TestGenericProtocolRecovery:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recomputes_after_corruption(self, seed):
        rng = random.Random(seed)
        topology = clique(4)
        f = lambda bits: (bits[0] ^ bits[2]) | bits[3]  # noqa: E731
        protocol = generic_protocol(topology, f)
        x = tuple(rng.randrange(2) for _ in range(4))
        initial = Labeling.random(topology, protocol.label_space, rng)
        simulator = Simulator(protocol, x)
        report = simulator.run_with_faults(
            initial,
            SynchronousSchedule(4),
            OneShotFault(9, RandomCorruption(fraction=0.5, seed=seed)),
            max_steps=9 + 2 * 4 + 2,
        )
        assert report.faults_fired == 1
        assert report.recovered
        assert all(y == f(x) for y in report.outputs)
        # recovery happened within the paper's 2n+2 round bound
        assert report.recovery_rounds <= 2 * 4 + 2

    def test_repeated_faults(self):
        rng = random.Random(7)
        topology = clique(3)
        f = lambda bits: bits[0] & bits[1]  # noqa: E731
        protocol = generic_protocol(topology, f)
        x = (1, 1, 0)
        simulator = Simulator(protocol, x)
        initial = Labeling.random(topology, protocol.label_space, rng)
        # corrupt at t=0, then twice more mid-run, 8 steps apart
        faults = BurstFault([0, 8, 16], RandomCorruption(fraction=0.5, seed=7))
        report = simulator.run_with_faults(
            initial, SynchronousSchedule(3), faults, max_steps=16 + 8
        )
        assert report.faults_fired == 3
        assert report.last_fault_time == 16
        assert report.recovered
        assert all(y == f(x) for y in report.outputs)


class TestCounterRecovery:
    def test_d_counter_resynchronizes(self):
        n, modulus = 5, 7
        rng = random.Random(3)
        protocol = d_counter_protocol(n, modulus)
        simulator = Simulator(protocol, (0,) * n)
        initial = Labeling.random(protocol.topology, protocol.label_space, rng)
        # stabilize, corrupt at 4n+4, let the engine certify the new orbit
        report = simulator.run_with_faults(
            initial,
            SynchronousSchedule(n),
            OneShotFault(4 * n + 4, RandomCorruption(fraction=0.5, seed=3)),
            max_steps=600,
        )
        # the counter never label-stabilizes — it re-enters a counting cycle
        assert report.outcome is RunOutcome.OSCILLATING
        assert report.recovery_rounds is None
        assert report.cycle_start is not None
        # now synchronized again: all equal and incrementing
        config = report.final
        previous = config.outputs
        config = simulator.step(config, frozenset(range(n)))
        assert len(set(previous)) == 1
        assert len(set(config.outputs)) == 1
        assert config.outputs[0] == (previous[0] + 1) % modulus


class TestRingSimulationRecovery:
    def test_tm_on_ring_recovers(self):
        n = 3
        graph = ConfigurationGraph(parity_machine(), n)
        protocol = machine_ring_protocol(graph)
        bound = machine_ring_round_bound(graph)
        rng = random.Random(11)
        for fault_seed, x in enumerate(((1, 0, 1), (1, 1, 1))):
            initial = Labeling.random(protocol.topology, protocol.label_space, rng)
            report = Simulator(protocol, x).run_with_faults(
                initial,
                SynchronousSchedule(n),
                OneShotFault(bound // 2, RandomCorruption(0.5, seed=fault_seed)),
                max_steps=3 * bound,
            )
            assert report.output_recovered
            assert set(report.outputs) == {sum(x) % 2}
            assert report.output_recovery_rounds <= bound

    def test_circuit_on_ring_recovers(self):
        circuit = parity_circuit(3)
        layout = RingCircuitLayout(circuit)
        protocol = circuit_ring_protocol(circuit)
        rng = random.Random(13)
        x = (1, 0, 1)
        inputs = ring_inputs(layout, x)
        initial = Labeling.random(protocol.topology, protocol.label_space, rng)
        report = Simulator(protocol, inputs).run_with_faults(
            initial,
            SynchronousSchedule(protocol.n),
            OneShotFault(layout.round_bound() // 2, RandomCorruption(0.5, seed=13)),
            max_steps=3 * layout.round_bound(),
        )
        # the ring's labels cycle mod the layout modulus; outputs settle
        assert report.output_recovered
        assert set(report.outputs) == {circuit.evaluate(x)}


class TestBGPRecovery:
    def test_good_gadget_reconverges(self):
        instance = good_gadget()
        protocol = bgp_protocol(instance)
        initial = Labeling.uniform(protocol.topology, NO_ROUTE)
        simulator = Simulator(protocol, default_inputs(protocol))
        report = simulator.run_with_faults(
            initial,
            SynchronousSchedule(protocol.n),
            OneShotFault(5, RandomCorruption(fraction=0.5, seed=17)),
            max_steps=25,
        )
        assert report.outputs[1] == (1, 0)
        # and the reached labeling is a certified, true fixed point
        assert report.recovered
        assert simulator.compiled.is_fixed_point(
            report.final.labeling.values, simulator.inputs
        )
