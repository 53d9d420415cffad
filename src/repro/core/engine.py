"""The simulation engine.

Implements the paper's global transition (Section 2.1): at each time step the
scheduled nodes simultaneously apply their reaction functions to the *previous*
labeling,

    (l^t_{+i}, y^t_i) = delta_i(l^{t-1}_{-i}, x_i)    for every i in sigma(t),

while unscheduled nodes keep their outgoing labels and outputs.

The hot loops run on the **compiled fast path** (:mod:`repro.core.compiled`):
the protocol is lowered once to per-node index arrays and reaction adapters,
and every transition is an index-gather → reaction → index-scatter over plain
label tuples.  ``Labeling``/``Configuration`` objects are materialized only at
the API boundary (``step``, run reports, traces), so results are identical to
the object-based implementation while steps stay allocation-light.

Convergence detection:

* For **periodic schedules** (synchronous, round-robin, cyclic explicit) the
  run is eventually periodic in the finite space ``configurations x phase``;
  the engine hashes visited states and classifies the detected cycle exactly
  as label-stable / output-stable / oscillating.
* For **aperiodic schedules** (seeded random r-fair) the engine certifies
  label stabilization once every node has been activated at least once while
  the labeling remained unchanged — each such activation witnesses that the
  node's reaction is at a fixed point, so the labeling can never change again.
  A node activated on the very step the labeling last changed is *not* a
  witness (it reacted to a pre-fixed-point labeling), and an empty activation
  set witnesses nothing.  Oscillation cannot be certified for aperiodic
  schedules; runs that do not stabilize end in ``TIMEOUT``.

Every schedule is infinite, so a run ends only in a verdict or at its step
budget; :meth:`Simulator.run_trace` records the configurations of a run.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.core.compiled import CompiledProtocol, compile_protocol
from repro.core.configuration import Configuration, Labeling
from repro.core.convergence import RunOutcome, RunReport
from repro.core.protocol import Protocol
from repro.core.schedule import Schedule
from repro.exceptions import ValidationError
from repro.policy import check_count

DEFAULT_MAX_STEPS = 10_000

#: Internal raw state: (flat label tuple, output tuple).
_Raw = tuple[tuple, tuple]


class Simulator:
    """Drives one protocol on one input vector."""

    def __init__(self, protocol: Protocol, inputs: Sequence[Any]):
        if len(inputs) != protocol.n:
            raise ValidationError(
                f"need {protocol.n} inputs, got {len(inputs)}"
            )
        self.protocol = protocol
        self.inputs = tuple(inputs)
        self._topology = protocol.topology
        self._compiled = compile_protocol(protocol)

    @property
    def compiled(self) -> CompiledProtocol:
        """The shared compiled form of the protocol, from
        :func:`~repro.core.compiled.compile_protocol`'s weak cache."""
        return self._compiled

    # -- single step -------------------------------------------------------

    def step(self, config: Configuration, active: frozenset[int]) -> Configuration:
        """Apply one global transition with the given activation set."""
        labeling = config.labeling
        self._check_topology(labeling)
        values, outputs = self._compiled.step_values(
            labeling.values, config.outputs, active, self.inputs
        )
        if values is not labeling.values:
            labeling = Labeling(self._topology, values)
        return Configuration(labeling, outputs)

    def initial_configuration(
        self, labeling: Labeling, initial_outputs: Sequence[Any] | None = None
    ) -> Configuration:
        outputs = (
            tuple(initial_outputs)
            if initial_outputs is not None
            else (None,) * self.protocol.n
        )
        return Configuration(labeling, outputs)

    def _check_topology(self, labeling: Labeling) -> None:
        """The compiled index arrays are positional, so the labeling must use
        the protocol topology's canonical edge order (value-equality with the
        same order is fine; identity is the cheap common case)."""
        topology = labeling.topology
        if topology is not self._topology and (
            topology.n != self._topology.n
            or topology.edges != self._topology.edges
        ):
            raise ValidationError(
                "labeling topology does not match the protocol's topology"
            )

    def _initial_raw(
        self, labeling: Labeling, initial_outputs: Sequence[Any] | None
    ) -> _Raw:
        self._check_topology(labeling)
        if initial_outputs is None:
            outputs = (None,) * self.protocol.n
        else:
            outputs = tuple(initial_outputs)
            if len(outputs) != self.protocol.n:
                raise ValidationError("outputs must have one entry per node")
        return labeling.values, outputs

    def _materialize(self, values: tuple, outputs: tuple) -> Configuration:
        return Configuration(Labeling(self._topology, values), outputs)

    # -- plain trace -------------------------------------------------------

    def run_trace(
        self,
        labeling: Labeling,
        schedule: Schedule,
        steps: int,
        initial_outputs: Sequence[Any] | None = None,
    ) -> list[Configuration]:
        """Configurations at times ``0..steps`` (inclusive), no analysis."""
        values, outputs = self._initial_raw(labeling, initial_outputs)
        step = self._compiled.step_values
        active = schedule.active
        inputs = self.inputs
        raw: list[_Raw] = [(values, outputs)]
        for t in range(steps):
            values, outputs = step(values, outputs, active(t), inputs)
            raw.append((values, outputs))
        return [self._materialize(v, o) for v, o in raw]

    # -- analyzed run ------------------------------------------------------

    def run(
        self,
        labeling: Labeling,
        schedule: Schedule,
        max_steps: int = DEFAULT_MAX_STEPS,
        initial_outputs: Sequence[Any] | None = None,
    ) -> RunReport:
        """Run until the outcome is decided or ``max_steps`` (an integer
        >= 1) elapse."""
        check_count("max_steps", max_steps)
        if schedule.period is not None:
            return self._run_periodic(labeling, schedule, max_steps, initial_outputs)
        return self._run_aperiodic(labeling, schedule, max_steps, initial_outputs)

    def run_with_faults(
        self,
        labeling: Labeling,
        schedule: Schedule,
        faults,
        max_steps: int = DEFAULT_MAX_STEPS,
        initial_outputs: Sequence[Any] | None = None,
    ):
        """Run under ``schedule`` while injecting transient faults.

        ``faults`` is a :class:`repro.faults.FaultSchedule` (anything with a
        ``fires_within(horizon)`` method yielding ``(time, model)`` pairs).
        The run steps raw values through the fault window, applies each fault
        to the labeling at its fire time, and then hands the tail to the
        normal analyzed run — exact cycle detection for periodic schedules,
        fixed-point certification for aperiodic ones — so recovery after the
        last fault is certified, not guessed.  Returns a
        :class:`repro.faults.FaultRunReport`.

        The import is deferred: the faults layer builds on the engine, and
        this method is only its entry-point sugar.
        """
        from repro.faults.injection import run_with_faults as _run

        return _run(
            self,
            labeling,
            schedule,
            faults,
            max_steps=max_steps,
            initial_outputs=initial_outputs,
        )

    def _run_periodic(self, labeling, schedule, max_steps, initial_outputs):
        period = schedule.period
        preperiod = schedule.preperiod
        values, outputs = self._initial_raw(labeling, initial_outputs)
        step = self._compiled.step_values
        active = schedule.active
        inputs = self.inputs
        raw: list[_Raw] = [(values, outputs)]
        seen: dict[tuple[tuple, tuple, int], int] = {}
        if preperiod == 0:
            seen[(values, outputs, 0)] = 0
        for t in range(max_steps):
            values, outputs = step(values, outputs, active(t), inputs)
            now = t + 1
            if now >= preperiod:
                key = (values, outputs, (now - preperiod) % period)
                if key in seen:
                    return self._classify_cycle(raw, seen[key], now)
                seen[key] = now
            raw.append((values, outputs))
        return RunReport(
            outcome=RunOutcome.TIMEOUT,
            label_rounds=None,
            output_rounds=None,
            final=self._materialize(values, outputs),
            steps_executed=max_steps,
        )

    def _classify_cycle(self, raw, cycle_start, now):
        outcome, label_rounds, output_rounds, (final_values, final_outputs) = (
            classify_cycle(raw, cycle_start, now)
        )
        return RunReport(
            outcome=outcome,
            label_rounds=label_rounds,
            output_rounds=output_rounds,
            final=self._materialize(final_values, final_outputs),
            steps_executed=now,
            cycle_start=cycle_start,
            cycle_length=max(now - cycle_start, 1),
        )

    def _run_aperiodic(self, labeling, schedule, max_steps, initial_outputs):
        n = self.protocol.n
        values, outputs = self._initial_raw(labeling, initial_outputs)
        step = self._compiled.step_values
        active = schedule.active
        inputs = self.inputs
        last_label_change = -1
        last_output_change = -1
        witnessed: set[int] = set()
        for t in range(max_steps):
            current = active(t)
            next_values, next_outputs = step(values, outputs, current, inputs)
            if next_values is not values and next_values != values:
                last_label_change = t
                # Nodes active at a changing step reacted to a pre-fixed-point
                # labeling, so they witness nothing — reset, don't record.
                witnessed = set()
            else:
                witnessed.update(current)
            if next_outputs is not outputs and next_outputs != outputs:
                last_output_change = t
            values, outputs = next_values, next_outputs
            if len(witnessed) == n:
                return RunReport(
                    outcome=RunOutcome.LABEL_STABLE,
                    label_rounds=last_label_change + 1,
                    output_rounds=last_output_change + 1,
                    final=self._materialize(values, outputs),
                    steps_executed=t + 1,
                )
        return RunReport(
            outcome=RunOutcome.TIMEOUT,
            label_rounds=None,
            output_rounds=None,
            final=self._materialize(values, outputs),
            steps_executed=max_steps,
        )


def classify_cycle(raw, cycle_start, now):
    """Classify a detected revisit in a periodic run's raw state history.

    ``raw`` holds one ``(values, outputs)`` pair per step (indices
    ``0..now-1``); the state reached at local time ``now`` was first seen at
    ``cycle_start``, so ``raw[cycle_start:now]`` is exactly one period of the
    run's final cycle.  Returns ``(outcome, label_rounds, output_rounds,
    final_pair)``.

    The pairs only need well-defined equality — the engine passes label/output
    tuples, the batch backend (:mod:`repro.core.batch`) passes the byte views
    of its interned code rows, and both classify identically because code
    equality mirrors label equality.
    """
    cycle = raw[cycle_start:now] or [raw[cycle_start]]
    cycle_values = {v for v, _ in cycle}
    cycle_outputs = {o for _, o in cycle}
    final = cycle[0]
    final_values, final_outputs = final
    label_rounds = None
    output_rounds = None
    if len(cycle_values) == 1:
        outcome = RunOutcome.LABEL_STABLE
        label_rounds = settle_time(raw, 0, final_values)
        output_rounds = settle_time(raw, 1, final_outputs)
    elif len(cycle_outputs) == 1:
        outcome = RunOutcome.OUTPUT_STABLE
        output_rounds = settle_time(raw, 1, final_outputs)
    else:
        outcome = RunOutcome.OSCILLATING
    return outcome, label_rounds, output_rounds, final


def settle_time(raw, component, final_value) -> int:
    """Smallest T such that raw[t][component] == final_value for all t >= T."""
    settle = len(raw)
    for t in range(len(raw) - 1, -1, -1):
        if raw[t][component] != final_value:
            break
        settle = t
    return settle


def synchronous_run(
    protocol: Protocol,
    inputs: Sequence[Any],
    labeling: Labeling,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunReport:
    """Convenience wrapper: run under the 1-fair (all nodes) schedule."""
    from repro.core.schedule import SynchronousSchedule

    simulator = Simulator(protocol, inputs)
    return simulator.run(
        labeling, SynchronousSchedule(protocol.n), max_steps=max_steps
    )
