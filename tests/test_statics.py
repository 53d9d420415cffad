"""The static statelessness verifier and the repo-invariant lint gate.

Three layers of evidence that :mod:`repro.statics` tells the truth:

* **Adversarial reactions** — every known way to smuggle hidden state
  (self-writes, nonlocal counters, mutable defaults, RNG draws, clocks,
  environment reads) must classify ``STATEFUL``; a single false-``PURE``
  here means the verifier rubber-stamps the exact violations it exists to
  catch.
* **Golden verdicts** (``tests/fixtures/golden_statics.json``): the
  protocol zoo's verdicts are committed, mirroring the golden-fingerprint
  fixtures, so verifier drift fails loudly rather than silently
  reclassifying the corpus.
* **Predicted-vs-actual lift partitions** — a hypothesis property test
  that :func:`repro.statics.verify_protocol`'s predicted batch fallback
  set equals what the assembled :class:`~repro.core.batch.BatchSimulator`
  actually reports, across random protocols and table budgets.
"""

from __future__ import annotations

import json
import pickle
import random
import time
from datetime import date, datetime
from itertools import product
from os import environ
from pathlib import Path
from time import perf_counter
from time import time as now
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StatelessProtocol
from repro.core.labels import ExplicitLabelSpace, binary
from repro.core.reaction import TabularReaction, UniformReaction
from repro.exceptions import Diagnostic, ValidationError
from repro.graphs import unidirectional_ring
from repro.graphs.standard import clique
from repro.statics import (
    Purity,
    lint_paths,
    lint_source,
    verify_protocol,
    verify_protocol_purity,
    verify_reaction,
)
from repro.statics.__main__ import main as statics_main
from tests.test_service_fingerprint import _zoo_protocols

np = pytest.importorskip("numpy")
from repro.core import batch  # noqa: E402 - needs numpy
from repro.core.batch import BatchSimulator  # noqa: E402

FIXTURE = Path(__file__).parent / "fixtures" / "golden_statics.json"
SRC = Path(__file__).parent.parent / "src"
PLANS = Path(__file__).parent.parent / "examples" / "plans"


# -- adversarial reactions ----------------------------------------------------
#
# Module-level (not nested in test bodies) so ``inspect.getsource`` sees
# real files; reactions defined in a REPL would come back UNKNOWN instead.


class _SelfWriter:
    def __call__(self, labels, x):
        self.count = getattr(self, "count", 0) + 1  # <- self-write
        return labels, self.count


def _nonlocal_counter():
    n = 0

    def react(labels, x):
        nonlocal n  # <- nonlocal-counter
        n += 1
        return labels, n

    return react


def _global_writer(labels, x):
    global _SOME_GLOBAL  # <- global-write
    _SOME_GLOBAL = x
    return labels, x


def _mutable_default(labels, x, acc=[]):  # noqa: B006  # <- mutable-default
    acc.append(x)
    return labels, len(acc)


def _unseeded_rng(labels, x):
    return labels, random.random()  # <- unseeded-rng


def _wall_clock(labels, x):
    return labels, time.time()  # <- wall-clock


def _environ_reader(labels, x):
    import os

    return labels, os.environ.get("HOME")  # <- environ-read


_MODULE_RNG = random.Random(7)


def _rng_through_global(labels, x):
    return labels, _MODULE_RNG.random()  # <- rng-global


def _rng_in_closure():
    rng = random.Random(3)

    def react(labels, x):
        return labels, rng.random()  # <- rng-closure

    return react


def _numpy_global_rng(labels, x):
    import numpy

    return labels, numpy.random.rand()  # <- numpy-global-rng


def _cell_mutator():
    seen = []

    def react(labels, x):
        seen.append(x)  # <- cell-mutator
        return labels, len(seen)

    return react


# Hidden inputs spelled through from-imports, module-level or local.


def _from_perf_counter(labels, x):
    return labels, perf_counter()  # <- from-perf-counter


def _from_time_as_now(labels, x):
    return labels, now()  # <- from-time-as-now


def _from_random_random(labels, x):
    from random import random

    return labels, random()  # <- from-random-random


def _from_os_environ(labels, x):
    return labels, environ.get("HOME")  # <- from-os-environ


def _datetime_now(labels, x):
    return labels, datetime.now().second  # <- datetime-now


def _date_today(labels, x):
    return labels, date.today().day  # <- date-today


def _os_getenv(labels, x):
    import os

    return labels, os.getenv("HOME")  # <- os-getenv


# Stateful functions a reaction reaches the way its cache key does.


def _forwarding(inner):
    def react(labels, x):
        return inner(labels, x)

    return react


def _deep_draw(labels, x):
    return labels, random.getrandbits(1)  # <- closure-depth-8


def _closure_depth_8():
    react = _deep_draw
    for _ in range(8):
        react = _forwarding(react)
    return react


def _dispatched_clock(labels, x):
    return labels, time.perf_counter_ns()  # <- closed-over-dict


def _closed_over_dict():
    handlers = {"step": _dispatched_clock}

    def react(labels, x):
        return handlers["step"](labels, x)

    return react


class _Holder:
    def __init__(self, step):
        self.step = step


def _held_environ(labels, x):
    import os

    return labels, os.environ["HOME"]  # <- closed-over-attribute


def _closed_over_attribute():
    holder = _Holder(_held_environ)

    def react(labels, x):
        return holder.step(labels, x)

    return react


def _default_draw(labels, x):
    return labels, random.randint(0, 1)  # <- default-argument


def _default_argument(labels, x, draw=_default_draw):
    return draw(labels, x)


class _Box:
    def __init__(self, value):
        self.value = value


def _closed_over_class():
    box = _Box

    def react(labels, x):
        return box(labels).value, x

    return react


def _pure_table_closure():
    table = {0: 1, 1: 0}

    def react(labels, x):
        return tuple(table[value] for value in labels), x

    return react


STATEFUL_REACTIONS = [
    ("self-write", _SelfWriter(), "purity/self-write"),
    ("nonlocal-counter", _nonlocal_counter(), "purity/nonlocal-write"),
    ("global-write", _global_writer, "purity/global-write"),
    ("mutable-default", _mutable_default, "purity/mutable-default"),
    ("unseeded-rng", _unseeded_rng, "purity/unseeded-rng"),
    ("wall-clock", _wall_clock, "purity/wall-clock"),
    ("environ-read", _environ_reader, "purity/environ-read"),
    ("rng-global", _rng_through_global, "purity/rng-state"),
    ("rng-closure", _rng_in_closure(), "purity/rng-state"),
    ("numpy-global-rng", _numpy_global_rng, "purity/unseeded-rng"),
    ("cell-mutator", _cell_mutator(), "purity/closure-mutation"),
    ("from-perf-counter", _from_perf_counter, "purity/wall-clock"),
    ("from-time-as-now", _from_time_as_now, "purity/wall-clock"),
    ("from-random-random", _from_random_random, "purity/unseeded-rng"),
    ("from-os-environ", _from_os_environ, "purity/environ-read"),
    ("datetime-now", _datetime_now, "purity/wall-clock"),
    ("date-today", _date_today, "purity/wall-clock"),
    ("os-getenv", _os_getenv, "purity/environ-read"),
    ("closure-depth-8", _closure_depth_8(), "purity/unseeded-rng"),
    ("closed-over-dict", _closed_over_dict(), "purity/wall-clock"),
    ("closed-over-attribute", _closed_over_attribute(), "purity/environ-read"),
    ("default-argument", _default_argument, "purity/unseeded-rng"),
]


def _marked_line(name: str) -> int:
    """The line of this file that ends with ``# <- name``: where the
    reaction named ``name`` in :data:`STATEFUL_REACTIONS` reads or writes
    hidden state."""
    lines = Path(__file__).read_text().splitlines()
    (line,) = [i for i, text in enumerate(lines, 1) if text.endswith(f"# <- {name}")]
    return line


class TestAdversarialReactions:
    """Zero false-PURE on known-stateful reactions — the hard guarantee."""

    @pytest.mark.parametrize(
        "reaction,rule",
        [(fn, rule) for _, fn, rule in STATEFUL_REACTIONS],
        ids=[name for name, _, __ in STATEFUL_REACTIONS],
    )
    def test_classifies_stateful_with_the_right_rule(self, reaction, rule):
        verdict = verify_reaction(reaction)
        assert verdict.verdict is Purity.STATEFUL
        assert rule in {d.rule for d in verdict.diagnostics}

    @pytest.mark.parametrize(
        "name,reaction,rule",
        STATEFUL_REACTIONS,
        ids=[name for name, _, __ in STATEFUL_REACTIONS],
    )
    def test_diagnostics_carry_source_locations(self, name, reaction, rule):
        verdict = verify_reaction(reaction)
        located = [d for d in verdict.errors if d.path and d.line]
        assert located, "stateful evidence must point at source"
        assert all(d.path.endswith("test_statics.py") for d in located)
        assert (rule, _marked_line(name)) in {(d.rule, d.line) for d in located}

    def test_pure_closure_stays_pure(self):
        verdict = verify_reaction(_pure_table_closure())
        assert verdict.verdict is Purity.PURE
        # The read-only mutable cell is advisory, never demoting.
        assert {d.severity for d in verdict.diagnostics} <= {"info"}

    def test_a_closed_over_class_stays_pure(self):
        # The key reaches the class's methods; building an instance writes
        # the new object's attributes, not state across activations.
        verdict = verify_reaction(_closed_over_class())
        assert verdict.verdict is Purity.PURE

    def test_unknown_when_source_is_unavailable(self):
        verdict = verify_reaction(len)  # a C builtin: nothing to parse
        assert verdict.verdict is Purity.UNKNOWN


class TestProtocolCrossCheck:
    """Verdicts are cross-checked against the declared ``is_stateful``."""

    def test_hidden_state_in_stateless_protocol_is_an_error(self):
        topology = unidirectional_ring(3)
        reactions = [
            UniformReaction(topology.out_edges(i), _nonlocal_counter())
            for i in range(3)
        ]
        protocol = StatelessProtocol(topology, binary(), reactions)
        report = verify_protocol_purity(protocol)
        assert not report.ok
        assert all(v.verdict is Purity.STATEFUL for v in report.verdicts)
        assert {"purity/undeclared-state"} <= {d.rule for d in report.errors}

    def test_declared_stateful_protocol_is_stateful_by_declaration(self):
        from repro.hardness.stateful_reduction import stateful_protocol_from_g
        from repro.hardness.string_oscillation import HALT

        def always_halt(strings):
            return HALT

        protocol = stateful_protocol_from_g(always_halt, ("a", "b"), 2)
        report = verify_protocol_purity(protocol)
        assert report.declared_stateful
        assert all(v.verdict is Purity.STATEFUL for v in report.verdicts)
        # Declared statefulness is the contract, not a contradiction.
        assert report.ok

    def test_metanode_compilation_is_pure(self):
        from repro.hardness.stateful_reduction import (
            metanode_compile,
            stateful_protocol_from_g,
        )
        from repro.hardness.string_oscillation import HALT

        def always_halt(strings):
            return HALT

        stateful = stateful_protocol_from_g(always_halt, ("a", "b"), 2)
        stateless = metanode_compile(stateful)
        report = verify_protocol_purity(stateless)
        assert all(v.verdict is Purity.PURE for v in report.verdicts)

    def test_report_records_are_json_able(self):
        report = verify_protocol_purity(_zoo_protocols()["example1_clique_n4"])
        json.dumps(report.record())


class TestGoldenStatics:
    """Committed zoo verdicts — verifier drift must fail loudly."""

    def _built(self) -> dict:
        from repro.hardness.stateful_reduction import stateful_protocol_from_g
        from repro.hardness.string_oscillation import always_halt

        protocols = dict(_zoo_protocols())
        protocols["stateful_always_halt_ab_m2"] = stateful_protocol_from_g(
            always_halt, ("a", "b"), 2
        )
        built = {}
        for name, protocol in sorted(protocols.items()):
            report = verify_protocol_purity(protocol)
            built[name] = {
                "declared_stateful": report.declared_stateful,
                "verdicts": [v.verdict.value for v in report.verdicts],
            }
        return built

    def test_zoo_matches_golden(self):
        golden = json.loads(FIXTURE.read_text())
        assert self._built() == golden["protocols"]

    def test_no_false_pure_against_runtime_flag(self):
        # Any reaction of a declared-stateful protocol claiming PURE would
        # mean the verifier contradicts the runtime model.
        golden = json.loads(FIXTURE.read_text())
        for entry in golden["protocols"].values():
            if entry["declared_stateful"]:
                assert all(v == "stateful" for v in entry["verdicts"])


class TestDiagnosticRecord:
    def test_severity_is_validated(self):
        with pytest.raises(ValidationError):
            Diagnostic(rule="x/y", severity="fatal", message="nope")

    def test_describe_and_location(self):
        diagnostic = Diagnostic(
            rule="purity/self-write",
            severity="error",
            message="writes self.count",
            path="module.py",
            line=12,
        )
        assert diagnostic.location == "module.py:12"
        assert "purity/self-write" in diagnostic.describe()
        assert diagnostic.record()["line"] == 12


# -- repo-invariant lint ------------------------------------------------------


class TestLintRules:
    def test_wall_clock_in_kernel_path_is_flagged(self):
        source = "import time\n\nstart = time.perf_counter()\n"
        diagnostics = lint_source(source, "src/repro/core/engine.py")
        assert [d.rule for d in diagnostics] == ["lint/wall-clock"]

    def test_wall_clock_outside_kernel_paths_is_allowed(self):
        source = "import time\n\nstart = time.perf_counter()\n"
        assert not lint_source(source, "src/repro/service/jobs.py")

    def test_environ_read_in_fingerprint_path_is_flagged(self):
        source = "import os\n\nsalt = os.environ['SALT']\n"
        diagnostics = lint_source(source, "src/repro/service/fingerprint.py")
        assert [d.rule for d in diagnostics] == ["lint/wall-clock"]

    @pytest.mark.parametrize(
        "source",
        [
            "from datetime import datetime\n\nstamp = datetime.now()\n",
            "from os import environ\n\nhome = environ.get('HOME')\n",
            "import os\n\nhome = os.getenv('HOME')\n",
        ],
        ids=["datetime-now", "from-os-environ", "os-getenv"],
    )
    def test_imported_spellings_are_flagged_in_kernel_paths(self, source):
        diagnostics = lint_source(source, "src/repro/core/engine.py")
        assert [(d.rule, d.line) for d in diagnostics] == [("lint/wall-clock", 3)]
        assert not lint_source(source, "src/repro/service/jobs.py")

    def test_syntax_error_is_reported_not_raised(self):
        diagnostics = lint_source("def broken(:\n", "bad.py")
        assert [d.rule for d in diagnostics] == ["lint/syntax"]


LOCKED_CLASS = """
import threading

class Service:
    def __init__(self):
        self._lock = threading.Lock()
        self._jobs = {}

    def add(self, job):
        with self._lock:
            self._jobs[job.id] = job

    def peek(self, job_id):
        return self._jobs.get(job_id)
"""

WAIVED_CLASS = LOCKED_CLASS.replace(
    "    def peek(self, job_id):\n",
    "    def peek(self, job_id):\n"
    '        """Caller holds the lock."""\n',
)


class TestLockDiscipline:
    def test_guarded_attribute_outside_lock_is_flagged(self):
        diagnostics = lint_source(LOCKED_CLASS, "service.py")
        assert [d.rule for d in diagnostics] == ["lint/lock-discipline"]
        assert "peek" in diagnostics[0].message

    def test_docstring_waiver_suppresses_the_finding(self):
        assert not lint_source(WAIVED_CLASS, "service.py")

    def test_class_without_own_lock_is_skipped(self):
        source = LOCKED_CLASS.replace(
            "        self._lock = threading.Lock()\n", ""
        ).replace("        with self._lock:\n            ", "        ")
        assert not lint_source(source, "service.py")

    def test_init_is_exempt(self):
        source = LOCKED_CLASS.replace(
            "        self._jobs = {}\n",
            "        self._jobs = {}\n        self._jobs['boot'] = None\n",
        )
        diagnostics = lint_source(source, "service.py")
        # Only peek() is flagged; construction precedes sharing.
        assert [d.rule for d in diagnostics] == ["lint/lock-discipline"]


class TestRepoIsClean:
    """`python -m repro.statics src/ --strict` is a CI gate; keep it green."""

    def test_src_tree_passes_the_lint_gate(self):
        diagnostics = lint_paths([SRC])
        assert diagnostics == ()

    def test_example_plans_pass_the_preflight_gate(self):
        plans = sorted(str(path) for path in PLANS.glob("PLAN_*.pkl"))
        assert plans
        assert statics_main([*plans, "--strict"]) == 0

    def test_a_clock_reading_protocol_fails_the_gate(self, tmp_path, capsys):
        topology = unidirectional_ring(3)
        reactions = [
            UniformReaction(topology.out_edges(i), _from_perf_counter)
            for i in range(3)
        ]
        path = tmp_path / "clock.pkl"
        protocol = StatelessProtocol(topology, binary(), reactions)
        path.write_bytes(pickle.dumps(protocol))
        assert statics_main([str(path)]) == 1
        assert "purity/wall-clock" in capsys.readouterr().out


# -- predicted vs. actual batch partitions ------------------------------------


def _tabular_protocol(n, k, use_clique, seed):
    """A total, in-space TabularReaction protocol: every (node, input=0)
    table exists, so the runtime lift decision is exactly the static gate
    (no escaping labels, no invalid rows)."""
    topology = clique(n) if use_clique else unidirectional_ring(n)
    space = ExplicitLabelSpace(tuple(range(k)))
    rng = random.Random(seed)
    reactions = []
    for i in range(n):
        in_edges = topology.in_edges(i)
        out_edges = topology.out_edges(i)
        table = {}
        for combo in product(range(k), repeat=len(in_edges)):
            outgoing = tuple(rng.randrange(k) for _ in out_edges)
            table[(combo, 0)] = (outgoing, rng.randrange(k))
        reactions.append(TabularReaction(in_edges, out_edges, table))
    return StatelessProtocol(
        topology, space, reactions, name=f"tabular({n},{k})"
    )


class TestPredictedPartition:
    @given(
        n=st.integers(2, 5),
        k=st.integers(1, 4),
        use_clique=st.booleans(),
        seed=st.integers(0, 2**16),
        max_table_size=st.sampled_from([1, 2, 4, 16, 64, 256, 1 << 16]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_batch_simulator(
        self, n, k, use_clique, seed, max_table_size
    ):
        # A fresh protocol per example, so batch_compile's cache never
        # serves a compilation made under another budget.
        protocol = _tabular_protocol(n, k, use_clique, seed)
        with patch.object(batch, "DEFAULT_MAX_TABLE_SIZE", max_table_size):
            predicted = verify_protocol(protocol)
            compiled = batch.batch_compile(protocol)
            decisions = [compiled.node_liftable(i) for i in range(n)]
            simulator = BatchSimulator(protocol, [(0,) * n])
        assert predicted.max_table_size == max_table_size
        assert [lift.lifted for lift in predicted.lifts] == decisions
        assert predicted.fully_lifted == simulator.vectorized

    def test_stateful_protocol_predicts_total_fallback(self):
        from repro.hardness.stateful_reduction import stateful_protocol_from_g
        from repro.hardness.string_oscillation import HALT

        def always_halt(strings):
            return HALT

        protocol = stateful_protocol_from_g(always_halt, ("a", "b"), 2)
        predicted = verify_protocol(protocol)
        assert predicted.predicted_lifted == ()
        assert {lift.reason for lift in predicted.lifts} == {"stateful"}
        simulator = BatchSimulator(protocol, [(None,) * protocol.n])
        assert not simulator.vectorized

    def test_demotion_reasons_name_the_gate(self, monkeypatch):
        protocol = _tabular_protocol(4, 4, True, seed=1)
        # |Sigma|**3 = 64 > 16: per-node table demotion, space still fits.
        monkeypatch.setattr(batch, "DEFAULT_MAX_TABLE_SIZE", 16)
        predicted = verify_protocol(protocol)
        assert {lift.reason for lift in predicted.lifts} == {"table"}
        # Space itself over budget: nothing is enumerated at all.
        monkeypatch.setattr(batch, "DEFAULT_MAX_TABLE_SIZE", 2)
        predicted = verify_protocol(protocol)
        assert {lift.reason for lift in predicted.lifts} == {"space"}
