"""repro — a library reproducing "Stateless Computation" (Dolev, Erdmann,
Lutz, Schapira, Zair; PODC 2017, arXiv:1611.10068).

The package implements the paper's model of stateless, self-stabilizing
distributed computation and every construction in it:

* ``repro.core`` — label spaces, reaction functions, protocols, schedules and
  the simulation engine (Section 2).
* ``repro.graphs`` — directed topologies and their properties.
* ``repro.stabilization`` — stable labelings, the Theorem 3.1 states-graph,
  an exhaustive r-fair model checker, and Example 1.
* ``repro.substrates`` — Boolean circuits, branching programs, logspace
  Turing machines (the classical models of Part II).
* ``repro.power`` — the computational-power constructions of Sections 2 and 5
  (generic protocol, counters, ring simulations of TMs/BPs/circuits,
  counting bound).
* ``repro.lowerbounds`` — the fooling-set method of Section 6.
* ``repro.hardness`` — snake-in-the-box gadgets, the communication and
  PSPACE hardness reductions of Section 4 / Appendix B.
* ``repro.dynamics`` — best-response dynamics applications (BGP routing,
  diffusion, congestion, asynchronous circuits) from Sections 1 and 3.
* ``repro.faults`` — adversarial fault injection: fault models on flat label
  tuples, fault schedules, certified recovery runs, and convergence-delaying
  adversarial schedules (the operational reading of Section 1.2).
* ``repro.analysis`` — round/label complexity measurement, reporting, the
  sweep runners (``run_sweep``, ``run_resilience_sweep``: many cases
  through one compiled protocol), and the cost model with its complexity
  gates (``repro.analysis.costmodel``).
* ``repro.service`` — the sweep job service: planner/executor split,
  content-addressed result caching, and cost-model-backed admission
  control.
* ``repro.statics`` — static analysis: the statelessness/purity verifier,
  plan preflight (predicted batch partition, fingerprint-safety), and the
  repo-invariant lint gate (``python -m repro.statics``).

How any of these *run* — sweep executor, symmetry quotient — is
described by one frozen value object,
:class:`repro.ExecutionPolicy`, the only spelling of those knobs that the
sweep runners, the service layer, and the exploration core accept
(``policy=``).  Policies are cosmetic:
they change how fast answers arrive, never which answers (or which cache
keys).

See ``ARCHITECTURE.md`` for the layer stack, including the compiled
fast-path engine core (``repro.core.compiled``).
"""

from repro.core import (
    CompiledProtocol,
    Configuration,
    Labeling,
    RunOutcome,
    RunReport,
    Simulator,
    StatefulProtocol,
    StatelessProtocol,
    SynchronousSchedule,
    compile_protocol,
    synchronous_run,
)
from repro.exceptions import Diagnostic, StaticAnalysisError
from repro.graphs import Topology
from repro.policy import DEFAULT_POLICY, ExecutionPolicy

__version__ = "1.4.0"

__all__ = [
    "CompiledProtocol",
    "Configuration",
    "DEFAULT_POLICY",
    "Diagnostic",
    "ExecutionPolicy",
    "Labeling",
    "RunOutcome",
    "RunReport",
    "Simulator",
    "StatefulProtocol",
    "StatelessProtocol",
    "StaticAnalysisError",
    "SynchronousSchedule",
    "Topology",
    "__version__",
    "compile_protocol",
    "synchronous_run",
]
