"""Static analysis for the stateless-computation model.

Three passes, one premise: the paper's guarantees hold only for *pure*
reactions, and promises like that should be checked at the boundary, not
discovered at runtime.

* :mod:`repro.statics.purity` — classify every reaction ``PURE /
  STATEFUL / UNKNOWN`` by AST + closure inspection of the code its cache
  key reaches, cross-checked against the protocol's declared
  ``is_stateful`` flag.
* :mod:`repro.statics.preflight` — predict a plan's batch liftability
  partition and fingerprint-safety before any work is enqueued
  (``SweepService.submit`` records the result in JOB records next to the
  admission decision).
* :mod:`repro.statics.lint` — repo-invariant AST checks: no wall clocks
  or environment reads in kernel paths (purity's hidden-input table), and
  lock discipline over the threaded service.

``python -m repro.statics [src/ | PLAN.pkl]`` runs the passes from the
command line with a machine-readable report (:mod:`repro.statics.__main__`).
"""

from repro.service.fingerprint import fingerprint_offenders
from repro.statics.lint import lint_paths, lint_source
from repro.statics.preflight import (
    NodeLift,
    PlanPreflight,
    ProtocolPreflight,
    verify_plan,
    verify_protocol,
)
from repro.statics.purity import (
    Purity,
    PurityReport,
    ReactionVerdict,
    verify_protocol_purity,
    verify_reaction,
)

__all__ = [
    "NodeLift",
    "PlanPreflight",
    "ProtocolPreflight",
    "Purity",
    "PurityReport",
    "ReactionVerdict",
    "fingerprint_offenders",
    "lint_paths",
    "lint_source",
    "verify_plan",
    "verify_protocol",
    "verify_protocol_purity",
    "verify_reaction",
]
