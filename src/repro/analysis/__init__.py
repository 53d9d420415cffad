"""Measurement and reporting toolkit.

The cost model and complexity gates live in :mod:`repro.analysis.costmodel`
and are imported from there; ``benchmarks/check_regression.py`` runs the
gate on every benchmark record.
"""

from repro.analysis.complexity import (
    RoundComplexityReport,
    measure_round_complexity,
    output_settle_time,
    settled_outputs,
)
from repro.analysis.resilience import (
    RECOVERY_CRITERIA,
    FaultCaseResult,
    ResilienceReport,
    run_resilience_sweep,
)
from repro.analysis.sweeps import CaseResult, SweepCase, SweepReport, run_sweep
from repro.analysis.tables import print_table, render_table

__all__ = [
    "CaseResult",
    "FaultCaseResult",
    "RECOVERY_CRITERIA",
    "ResilienceReport",
    "RoundComplexityReport",
    "SweepCase",
    "SweepReport",
    "measure_round_complexity",
    "output_settle_time",
    "print_table",
    "render_table",
    "run_resilience_sweep",
    "run_sweep",
    "settled_outputs",
]
