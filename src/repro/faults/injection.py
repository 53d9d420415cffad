"""Fault injection through the compiled engine, with certified recovery.

:func:`run_with_faults` is the operational reading of the paper's
self-stabilization claim (Section 1.2): drive a run, corrupt the labeling at
the scheduled fault times, and measure whether — and how fast — the system
re-converges once the faults stop.

The mechanics are built so injection costs nothing when no fault fires:

* the fault schedule is materialized **once** into a sorted fire list
  (:meth:`repro.faults.schedules.FaultSchedule.fires_within`), so the step
  loop never asks "is there a fault now?";
* the pre-fault window steps raw ``(values, outputs)`` tuples through
  :meth:`CompiledProtocol.step_values`, exactly like the engine's own run
  loops;
* the tail — everything after the last fault — is handed to
  ``Simulator.run`` on the schedule shifted to the current time
  (:meth:`repro.core.schedule.Schedule.shifted`), which re-uses the engine's
  exact convergence analysis: cycle detection for periodic schedules, the
  aperiodic fixed-point certifier otherwise.  Recovery is therefore
  *certified*, never inferred from "the outputs looked settled".

All round counts in the report are relative to the **last** fault, which is
the paper's notion of recovery time: rounds from the final perturbation to
stabilization.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.core.configuration import Configuration, Labeling
from repro.core.convergence import RunOutcome
from repro.core.engine import DEFAULT_MAX_STEPS, Simulator
from repro.exceptions import ValidationError
from repro.policy import check_count


@dataclass(frozen=True)
class FaultRunReport:
    """The result of one run with injected faults.

    ``recovery_rounds`` / ``output_recovery_rounds`` / ``cycle_start`` count
    steps *after the last fault* (they are the tail run's ``label_rounds``,
    ``output_rounds`` and ``cycle_start``); ``steps_executed`` counts the
    whole run including the pre-fault window.
    """

    outcome: RunOutcome
    #: Rounds after the last fault until the labeling fixed (None if it
    #: never did within budget).
    recovery_rounds: int | None
    #: Rounds after the last fault until the outputs fixed.
    output_recovery_rounds: int | None
    #: When the tail entered its final cycle (periodic schedules only).
    cycle_start: int | None
    cycle_length: int | None
    faults_fired: int
    fault_times: tuple[int, ...]
    last_fault_time: int | None
    steps_executed: int
    final: Configuration = field(repr=False)

    @property
    def recovered(self) -> bool:
        """Label stabilization certified after the last fault."""
        return self.outcome is RunOutcome.LABEL_STABLE

    @property
    def output_recovered(self) -> bool:
        """Output stabilization (implied by label stabilization)."""
        return self.outcome in (RunOutcome.LABEL_STABLE, RunOutcome.OUTPUT_STABLE)

    @property
    def outputs(self) -> tuple[Any, ...]:
        return self.final.outputs

    def describe(self) -> str:
        parts = [f"outcome={self.outcome.value}", f"faults={self.faults_fired}"]
        if self.last_fault_time is not None:
            parts.append(f"last_fault={self.last_fault_time}")
        if self.recovery_rounds is not None:
            parts.append(f"recovery_rounds={self.recovery_rounds}")
        if self.output_recovery_rounds is not None:
            parts.append(f"output_recovery_rounds={self.output_recovery_rounds}")
        if self.cycle_length is not None:
            parts.append(f"cycle={self.cycle_start}+{self.cycle_length}")
        parts.append(f"steps={self.steps_executed}")
        return "FaultRunReport(" + ", ".join(parts) + ")"


def validate_fires(fires, max_steps: int) -> None:
    """Check a materialized fire list obeys the injection contract.

    Shared by this serial injector and the batch backend
    (:meth:`repro.core.batch.BatchSimulator.run_batch_with_faults`), so the
    two executors accept exactly the same fault plans.
    """
    for (time, _model) in fires:
        if time < 0 or time >= max_steps:
            raise ValidationError(
                f"fault schedule fired at {time}, outside 0..{max_steps - 1}"
            )
    if any(fires[k][0] > fires[k + 1][0] for k in range(len(fires) - 1)):
        raise ValidationError("fault schedule fires must be sorted by time")


def run_with_faults(
    simulator: Simulator,
    labeling: Labeling,
    schedule,
    faults,
    max_steps: int = DEFAULT_MAX_STEPS,
    initial_outputs: Sequence[Any] | None = None,
) -> FaultRunReport:
    """Run ``simulator`` under ``schedule`` while injecting ``faults``.

    A fault at time ``t`` corrupts the configuration at time ``t``, before
    the activation set ``sigma(t)`` applies — so a fault at time 0 corrupts
    the initial configuration.  Faults at or past ``max_steps`` (an integer
    >= 1) never fire.

    Also reachable as ``Simulator.run_with_faults`` sugar.
    """
    check_count("max_steps", max_steps)
    fires = faults.fires_within(max_steps)
    validate_fires(fires, max_steps)

    # Raw pre-fault window: identical stepping to the engine's run loops.
    values, outputs = simulator._initial_raw(labeling, initial_outputs)
    topology = simulator.protocol.topology
    space = simulator.protocol.label_space
    step = simulator.compiled.step_values
    active = schedule.active
    inputs = simulator.inputs
    t = 0
    fault_times = []
    for (fire_time, model) in fires:
        while t < fire_time:
            values, outputs = step(values, outputs, active(t), inputs)
            t += 1
        values = model.apply(values, topology, space, fire_time)
        fault_times.append(fire_time)

    # Certified tail: the ordinary analyzed run on the shifted schedule.
    tail = simulator.run(
        Labeling(topology, values),
        schedule.shifted(t),
        max_steps=max_steps - t,
        initial_outputs=outputs,
    )
    return FaultRunReport(
        outcome=tail.outcome,
        recovery_rounds=tail.label_rounds,
        output_recovery_rounds=tail.output_rounds,
        cycle_start=tail.cycle_start,
        cycle_length=tail.cycle_length,
        faults_fired=len(fault_times),
        fault_times=tuple(fault_times),
        last_fault_time=fault_times[-1] if fault_times else None,
        steps_executed=t + tail.steps_executed,
        final=tail.final,
    )
