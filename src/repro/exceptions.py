"""Exception hierarchy for the stateless-computation library.

Also home to :class:`Diagnostic`, the record type every static-analysis
pass (:mod:`repro.statics`) emits: exceptions that carry diagnostics
(:class:`StaticAnalysisError`) and the code that raises them live on
opposite sides of the import graph, and this module is the one place both
can reach without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Diagnostic severities, most severe first.  ``error`` means the analyzed
#: code violates an invariant; ``warning`` means the analysis could not
#: prove it either way; ``info`` is advisory context.
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding: a rule, a severity, and a location.

    ``rule`` is a stable ``pass/check`` identifier (``"purity/self-write"``,
    ``"lint/lock-discipline"``, ...) so reports are machine-filterable;
    ``path``/``line`` point at the offending source when the analysis could
    locate it and are ``None`` otherwise.
    """

    rule: str
    severity: str
    message: str
    path: str | None = None
    line: int | None = None

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValidationError(
                f"unknown severity {self.severity!r};"
                f" expected one of {SEVERITIES}"
            )

    @property
    def location(self) -> str:
        """``path:line`` when known, a placeholder otherwise."""
        if self.path is None:
            return "<unknown>"
        return self.path if self.line is None else f"{self.path}:{self.line}"

    def record(self) -> dict:
        """The JSON-able form used by reports and job records."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "path": self.path,
            "line": self.line,
        }

    def describe(self) -> str:
        return f"{self.severity}: {self.location}: [{self.rule}] {self.message}"


class ReproError(Exception):
    """Base class for all library errors."""


class ValidationError(ReproError):
    """A model object (graph, protocol, labeling, ...) is malformed."""


class ConvergenceError(ReproError):
    """A run did not reach the state a caller required."""


class SearchBudgetExceeded(ReproError):
    """An exhaustive search exceeded its configured state budget."""


class FingerprintError(ReproError):
    """An object cannot be canonicalized into a stable cache fingerprint."""


class StaticAnalysisError(ReproError):
    """A static-analysis pass found (or hit) a blocking problem.

    Carries the :class:`Diagnostic` records that justify the failure, so
    callers see *which* rule fired *where* instead of a bare message —
    e.g. the preflight diagnostic (with source location) a lambda reaction
    produces at plan time, rather than a :class:`FingerprintError` from
    deep inside canonicalization.
    """

    def __init__(self, message: str, diagnostics: tuple = ()):
        self.diagnostics = tuple(diagnostics)
        located = "\n".join(
            f"  {diagnostic.describe()}" for diagnostic in self.diagnostics
        )
        super().__init__(message if not located else f"{message}\n{located}")


class JobError(ReproError):
    """A sweep-service job failed, was cancelled, or does not exist."""


class AdmissionError(JobError):
    """A sweep-service job was refused by the admission policy."""
