"""Run outcomes and convergence reports.

The paper distinguishes *output stabilization* (every node's output sequence
converges) from the stronger *label stabilization* (the labeling sequence
converges, i.e. all reaction functions reach a fixed point) — Section 2.2.
:class:`RunReport` captures which of the two a concrete run achieved and the
convergence times, which are the paper's round-complexity measurements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.core.configuration import Configuration


class RunOutcome(enum.Enum):
    """How a simulated run ended."""

    #: The labeling reached a global fixed point (label stabilization).
    LABEL_STABLE = "label-stable"
    #: Outputs converged but the labeling cycles forever (output stabilization
    #: without label stabilization).
    OUTPUT_STABLE = "output-stable"
    #: The run provably cycles with non-constant outputs (periodic schedules).
    OSCILLATING = "oscillating"
    #: ``max_steps`` elapsed without a verdict.
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class RunReport:
    """The result of one simulated run."""

    outcome: RunOutcome
    #: Smallest T with labeling(t) == labeling(T) for all t >= T, when known.
    label_rounds: int | None
    #: Smallest T with outputs(t) == outputs(T) for all t >= T, when known.
    output_rounds: int | None
    #: The stabilized configuration (stable outcomes) or last configuration.
    final: Configuration
    steps_executed: int
    cycle_start: int | None = None
    cycle_length: int | None = None

    @property
    def label_stable(self) -> bool:
        return self.outcome is RunOutcome.LABEL_STABLE

    @property
    def output_stable(self) -> bool:
        """True when outputs converged (label stabilization implies this)."""
        return self.outcome in (RunOutcome.LABEL_STABLE, RunOutcome.OUTPUT_STABLE)

    @property
    def oscillating(self) -> bool:
        return self.outcome is RunOutcome.OSCILLATING

    @property
    def outputs(self) -> tuple[Any, ...]:
        """The (final) output vector."""
        return self.final.outputs

    def describe(self) -> str:
        parts = [f"outcome={self.outcome.value}"]
        if self.label_rounds is not None:
            parts.append(f"label_rounds={self.label_rounds}")
        if self.output_rounds is not None:
            parts.append(f"output_rounds={self.output_rounds}")
        if self.cycle_length is not None:
            parts.append(f"cycle={self.cycle_start}+{self.cycle_length}")
        parts.append(f"steps={self.steps_executed}")
        return "RunReport(" + ", ".join(parts) + ")"
