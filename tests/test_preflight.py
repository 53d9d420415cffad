"""Plan preflight and its service integration.

:func:`repro.statics.verify_plan` moves two runtime surprises to submit
time: silently serial batches and late fingerprint failure.  These
tests pin the preflight surface itself (offender collection with located
diagnostics, the per-case unhashable-input demotions, record shapes) and
the three places it is wired in: ``SweepService.submit`` (every job),
``verify_plan(plan).raise_for_errors()`` at plan time, and the upgraded
:class:`~repro.exceptions.StaticAnalysisError` the fingerprint path now
raises instead of a bare, unlocated ``FingerprintError``.

Preflight and the cache key share one walk, so the offender zoo below pins
them to each other: a plan is unsafe exactly when keying it raises, and
both report the same located diagnostics.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.analysis import SweepCase
from repro.core import (
    StatelessProtocol,
    SynchronousSchedule,
    UniformReaction,
    binary,
)
from repro.core import batch
from repro.exceptions import FingerprintError, StaticAnalysisError
from repro.faults.models import FaultModel
from repro.faults.schedules import NoFaults, OneShotFault
from repro.graphs import Topology, unidirectional_ring
from repro.service import (
    JobState,
    SweepService,
    execute_plan,
    plan_resilience_sweep,
    plan_sweep,
)
from repro.service.fingerprint import fingerprint
from repro.statics import fingerprint_offenders, verify_plan, verify_protocol
from tests.helpers import random_bit_labeling
from tests.test_service_jobs import _forward_bit, _plan, _ring, _sync


def _lambda_ring(n=3):
    """A ring whose reactions close over a lambda — unfingerprintable."""
    topology = unidirectional_ring(n)
    reactions = [
        UniformReaction(topology.out_edges(i), lambda incoming, x: (0, x))
        for i in range(n)
    ]
    return StatelessProtocol(topology, binary(), reactions, name="lambda-ring")


def _parity(incoming, _x):
    value = sum(incoming.values()) % 2
    return value, value


def _two_degree_protocol():
    """Nodes 0 and 1 read one edge, node 2 reads two: under a two-row table
    budget, nodes 0 and 1 lift and node 2 does not."""
    topology = Topology(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    reactions = [
        UniformReaction(topology.out_edges(i), _parity) for i in range(3)
    ]
    return StatelessProtocol(topology, binary(), reactions, name="two-degree")


class _CountedHash:
    """A hashable input that counts how often it is hashed."""

    calls = 0

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        type(self).calls += 1
        return hash(self.value)


def _cases(protocol, count=2):
    n = protocol.n
    return [
        SweepCase((0,) * n, random_bit_labeling(protocol.topology, seed=s))
        for s in range(count)
    ]


class TestVerifyProtocol:
    def test_small_ring_fully_lifts(self):
        preflight = verify_protocol(_ring(4))
        assert preflight.fully_lifted
        assert preflight.predicted_lifted == (0, 1, 2, 3)
        assert not preflight.is_stateful
        assert "4/4 nodes lift" in preflight.describe()

    def test_record_is_json_able(self):
        record = verify_protocol(_ring(3)).record()
        json.dumps(record)
        assert record["predicted_fallback"] == []
        assert record["space_size"] == 2


class TestFingerprintOffenders:
    def test_clean_protocol_has_no_offenders(self):
        assert fingerprint_offenders(_ring(3)) == ()

    def test_lambda_is_located_at_its_source(self):
        offenders = fingerprint_offenders(_lambda_ring(), "plan.protocol")
        assert offenders, "the lambda must be found"
        assert {d.rule for d in offenders} == {"preflight/lambda"}
        diagnostic = offenders[0]
        assert diagnostic.severity == "error"
        assert diagnostic.path.endswith("test_preflight.py")
        assert diagnostic.line is not None
        assert "plan.protocol" in diagnostic.message

    def test_rng_state_names_the_attribute_path(self):
        class Holder:
            def __init__(self):
                self.rng = random.Random(3)

        (diagnostic,) = fingerprint_offenders(Holder(), "case")
        assert diagnostic.rule == "preflight/rng-state"
        assert "case.rng" in diagnostic.message

    def test_a_refused_lambda_is_walked_on(self):
        rng = random.Random(5)
        reaction = lambda incoming, _x: (0, rng.random())  # noqa: E731
        offenders = fingerprint_offenders(reaction, "case")
        assert [d.rule for d in offenders] == [
            "preflight/lambda",
            "preflight/rng-state",
        ]
        assert offenders[1].message.startswith("case closure[rng]: ")
        with pytest.raises(FingerprintError, match="lambda"):
            fingerprint(reaction)

    def test_unregistered_opaque_type_is_flagged(self):
        class Opaque:
            __slots__ = ()

        (diagnostic,) = fingerprint_offenders(Opaque())
        assert diagnostic.rule == "preflight/unregistered-type"
        assert "register_fingerprint" in diagnostic.message


class TestVerifyPlan:
    def test_clean_plan_is_ok(self):
        plan, _, _ = _plan(count=3)
        preflight = verify_plan(plan)
        assert preflight.ok
        assert preflight.fingerprint_safe
        assert preflight.kind == "sweep"
        assert preflight.cases == 3
        assert preflight.case_demotions == ()
        assert preflight.protocol.fully_lifted
        json.dumps(preflight.record())

    def test_shared_lambda_is_reported_once(self):
        protocol = _lambda_ring(4)
        plan = plan_sweep(protocol, _cases(protocol), _sync, max_steps=20)
        preflight = verify_plan(plan)
        assert not preflight.ok
        assert not preflight.fingerprint_safe
        # 4 reactions x (protocol + 2 specs) all share one lambda: the
        # report collapses them to a single located diagnostic.
        assert len(preflight.errors) == 1
        with pytest.raises(StaticAnalysisError) as excinfo:
            preflight.raise_for_errors()
        assert "preflight/lambda" in str(excinfo.value)

    def test_unhashable_input_demotes_that_case_only(self):
        protocol = _ring(3)
        labeling = random_bit_labeling(protocol.topology, seed=0)
        cases = [
            SweepCase((0, 0, 0), labeling),
            SweepCase((0, [1], 0), labeling),  # a list input: unhashable
        ]
        plan = plan_sweep(protocol, cases, _sync, max_steps=20)
        preflight = verify_plan(plan)
        assert preflight.case_demotions == ((1, 1),)
        assert [d.rule for d in preflight.diagnostics] == [
            "preflight/unhashable-input"
        ]
        # Demotion is a performance warning, not a blocker.
        assert preflight.ok

    def test_each_inputs_object_is_hashed_once(self, monkeypatch):
        monkeypatch.setattr(batch, "DEFAULT_MAX_TABLE_SIZE", 2)
        protocol = _two_degree_protocol()
        labeling = random_bit_labeling(protocol.topology, seed=0)
        _CountedHash.calls = 0
        shared = (_CountedHash(0), 0, 0)
        inputs = [
            shared,
            [0, 1, 0],  # a list input with hashable items
            shared,
            (0, [1], 0),  # unhashable at a lifted node
            (0, 0, {2}),  # unhashable at the non-lifted node only
            [[0], 1, [2]],  # a list unhashable at a lifted and the other node
            shared,
        ]
        plan = plan_sweep(
            protocol,
            [SweepCase(x, labeling) for x in inputs],
            _sync,
            max_steps=20,
        )
        preflight = verify_plan(plan)
        assert preflight.protocol.predicted_lifted == (0, 1)
        # Three cases share one tuple; it is hashed once.
        assert _CountedHash.calls == 1

        # The diagnostics are the per-case, per-node walk's, in its order.
        expected = []
        for spec in plan.specs:
            for node, x in enumerate(spec.case.inputs):
                if node in (0, 1):
                    try:
                        hash(x)
                    except TypeError:
                        expected.append((spec.index, node, type(x).__name__))
        assert [(i, node) for i, node, _ in expected] == [(3, 1), (5, 0)]
        assert preflight.case_demotions == tuple(
            (i, node) for i, node, _ in expected
        )
        assert [d.message for d in preflight.diagnostics] == [
            f"case {i}, node {node}: private input of type {name} is"
            f" unhashable — the batch chunk holding this case runs on the"
            f" serial engine"
            for i, node, name in expected
        ]
        assert preflight.ok

    def test_record_sits_next_to_admission_shape(self):
        plan, _, _ = _plan(count=2)
        record = verify_plan(plan).record()
        assert record["ok"] is True
        assert set(record) == {
            "ok",
            "kind",
            "cases",
            "fingerprint_safe",
            "protocol",
            "case_demotions",
            "diagnostics",
        }


class TestPlanTimePreflight:
    """``verify_plan(plan).raise_for_errors()`` fails while the offending
    reaction is still one stack frame away."""

    def test_lambda_reaction_raises_at_plan_time(self):
        protocol = _lambda_ring()
        plan = plan_sweep(protocol, _cases(protocol), _sync, max_steps=20)
        with pytest.raises(StaticAnalysisError) as excinfo:
            verify_plan(plan).raise_for_errors()
        diagnostics = excinfo.value.diagnostics
        assert {d.rule for d in diagnostics} == {"preflight/lambda"}
        assert diagnostics[0].path.endswith("test_preflight.py")

    def test_preflight_off_defers_to_fingerprint_time(self):
        protocol = _lambda_ring()
        plan = plan_sweep(protocol, _cases(protocol), _sync, max_steps=20)
        # Planning succeeded; the failure now comes at first fingerprint
        # use — but upgraded to a located StaticAnalysisError rather than
        # the bare FingerprintError canonicalization raises internally.
        with pytest.raises(StaticAnalysisError) as excinfo:
            plan.plan_fingerprint
        assert isinstance(excinfo.value.__cause__, FingerprintError)
        assert "plan.protocol" in str(excinfo.value)
        assert {d.rule for d in excinfo.value.diagnostics} == {
            "preflight/lambda"
        }
        assert excinfo.value.diagnostics[0].line is not None


class TestSubmitPreflight:
    def test_warn_records_preflight_next_to_admission(self, tmp_path):
        plan, _, _ = _plan(count=2)
        with SweepService(records_dir=tmp_path) as service:
            service.result(service.submit(plan), timeout=30)
        (path,) = tmp_path.glob("JOB_*.json")
        entries = json.loads(path.read_text())["entries"]
        assert entries["preflight"]["ok"] is True
        assert entries["preflight"]["kind"] == "sweep"
        assert entries["preflight"]["cases"] == 2
        assert entries["preflight"]["fingerprint_safe"] is True
        assert entries["preflight"]["protocol"]["predicted_fallback"] == []



# -- the offender zoo ---------------------------------------------------------


class _CarrierSchedule(SynchronousSchedule):
    """A synchronous schedule that also holds ``payload``."""

    def __init__(self, n, payload):
        super().__init__(n)
        self.payload = payload


class _CarrierFault(FaultModel):
    """A fault model holding arbitrary attributes; never fired here."""

    def __init__(self, **attributes):
        self.__dict__.update(attributes)

    def apply(self, values, topology, space, step):
        return values


class _Opaque:
    """No extractor, no attributes: nothing to canonicalize."""

    __slots__ = ()


def _closing_over(payload):
    """A named reaction that carries ``payload`` in a closure cell."""

    def forward(incoming, _x):
        (value,) = incoming.values()
        return value, (value, payload)

    return forward


def _reaction_with_bad_cells():
    """A named reaction closing over a lambda and an RNG."""
    helper = lambda value: value  # noqa: E731
    rng = random.Random(7)

    def forward(incoming, _x):
        (value,) = incoming.values()
        return helper(value), rng.random()

    return forward


def _zoo() -> dict:
    """Offender -> (the reaction carrying it into a protocol, the object one
    spec carries, and the spec field that carries it)."""
    lambda_reaction = lambda incoming, _x: (0, 0)  # noqa: E731
    bad_cells = _reaction_with_bad_cells()
    fault_model = _CarrierFault(module=random, stream=(i for i in range(3)))
    loop = []
    loop.append(loop)
    return {
        "lambda-reaction": (lambda_reaction, lambda_reaction, "schedule"),
        "closure-lambda-and-rng": (bad_cells, bad_cells, "schedule"),
        "schedule-rng": (
            _closing_over(random.Random(11)),
            random.Random(11),
            "schedule",
        ),
        "fault-module-and-generator": (
            _closing_over(fault_model),
            fault_model,
            "faults",
        ),
        "cycle": (_closing_over(loop), loop, "schedule"),
        "unregistered-slotless": (
            _closing_over(_Opaque()),
            _Opaque(),
            "schedule",
        ),
    }


#: The rules each zoo entry must trip.
ZOO_RULES = {
    "lambda-reaction": {"preflight/lambda"},
    "closure-lambda-and-rng": {"preflight/lambda", "preflight/rng-state"},
    "schedule-rng": {"preflight/rng-state"},
    "fault-module-and-generator": {"preflight/process-local"},
    "cycle": {"preflight/cycle"},
    "unregistered-slotless": {"preflight/unregistered-type"},
}


def zoo_plan(name: str, placement: str):
    """A fresh three-case plan with zoo entry ``name`` in the protocol
    (node 0's reaction) or in spec 1 (its schedule or fault plan)."""
    reaction, payload, field = _zoo()[name]
    topology = unidirectional_ring(3)
    reactions = [
        UniformReaction(topology.out_edges(i), _forward_bit) for i in range(3)
    ]
    if placement == "protocol":
        reactions[0] = UniformReaction(topology.out_edges(0), reaction)
    protocol = StatelessProtocol(topology, binary(), reactions, name="zoo")
    in_spec = placement == "spec"

    def schedule(index, case):
        if in_spec and field == "schedule" and index == 1:
            return _CarrierSchedule(3, payload)
        return SynchronousSchedule(3)

    def faults(index, case):
        if in_spec and index == 1:
            return OneShotFault(2, payload)
        return NoFaults()

    cases = _cases(protocol, count=3)
    if field == "faults":
        return plan_resilience_sweep(
            protocol, cases, schedule, faults, max_steps=20
        )
    return plan_sweep(protocol, cases, schedule, max_steps=20)


def _located(diagnostics) -> list:
    return [(d.rule, d.message, d.path, d.line) for d in diagnostics]


class TestOffenderZoo:
    """Preflight reports exactly what keying the plan refuses."""

    @pytest.mark.parametrize("placement", ["protocol", "spec"])
    @pytest.mark.parametrize("name", sorted(ZOO_RULES))
    def test_unsafe_exactly_when_keying_raises(self, name, placement):
        preflight = verify_plan(zoo_plan(name, placement))
        assert not preflight.fingerprint_safe
        assert {d.rule for d in preflight.errors} == ZOO_RULES[name]
        with pytest.raises(StaticAnalysisError) as excinfo:
            zoo_plan(name, placement).plan_fingerprint
        assert isinstance(excinfo.value.__cause__, FingerprintError)
        assert _located(excinfo.value.diagnostics) == _located(
            preflight.fingerprint_diagnostics
        )

    @pytest.mark.parametrize("name", sorted(ZOO_RULES))
    def test_spec_offenders_are_located_in_their_field(self, name):
        field = _zoo()[name][2]
        preflight = verify_plan(zoo_plan(name, "spec"))
        for diagnostic in preflight.fingerprint_diagnostics:
            assert diagnostic.message.startswith(f"plan.specs[1].{field}")

    @pytest.mark.parametrize("name", sorted(ZOO_RULES))
    def test_a_refused_protocol_still_reports_spec_offenders(self, name):
        plan = zoo_plan(name, "spec")
        own = verify_plan(plan).fingerprint_diagnostics
        refused = dataclasses.replace(plan, protocol=_lambda_ring(3))
        reported = verify_plan(refused).fingerprint_diagnostics
        assert reported[0].rule == "preflight/lambda"
        assert reported[0].message.startswith("plan.protocol")
        assert _located(reported[1:]) == _located(own)

    def test_clean_plan_keys_and_passes(self):
        plan = plan_sweep(
            _ring(3), _cases(_ring(3), count=3), _sync, max_steps=20
        )
        assert verify_plan(plan).fingerprint_safe
        assert len(plan.plan_fingerprint) == 64


class TestClosureCells:
    @staticmethod
    def _reaction(bind: bool):
        def forward(incoming, _x):
            (value,) = incoming.values()
            return value ^ bool(late), value

        if bind:
            late = None
        return forward

    def _plan(self, bind):
        topology = unidirectional_ring(3)
        reaction = self._reaction(bind)
        reactions = [
            UniformReaction(topology.out_edges(i), reaction) for i in range(3)
        ]
        protocol = StatelessProtocol(topology, binary(), reactions)
        return plan_sweep(protocol, _cases(protocol), _sync, max_steps=20)

    def test_an_empty_cell_fingerprints(self):
        plan = self._plan(bind=False)
        assert verify_plan(plan).fingerprint_safe
        assert len(plan.plan_fingerprint) == 64

    def test_an_empty_cell_differs_from_a_cell_holding_none(self):
        empty, holding_none = self._plan(False), self._plan(True)
        assert empty.protocol_fingerprint != holding_none.protocol_fingerprint


class TestCosmeticFields:
    """Preflight checks what the key covers, and nothing else."""

    def _rng_tagged_plan(self):
        protocol = _ring(3)
        cases = [
            SweepCase(
                (0, 0, 0),
                random_bit_labeling(protocol.topology, seed=s),
                tag=random.Random(s),
            )
            for s in range(3)
        ]
        return plan_sweep(protocol, cases, _sync, max_steps=20)

    def test_rng_tags_pass_preflight(self):
        preflight = verify_plan(self._rng_tagged_plan())
        assert preflight.fingerprint_safe
        assert preflight.ok

    def test_strict_submit_runs_a_plan_with_rng_tags(self, tmp_path):
        # The strict check runs at plan time; the job records a clean
        # preflight of its own.
        plan = self._rng_tagged_plan()
        verify_plan(plan).raise_for_errors()
        with SweepService(records_dir=tmp_path) as service:
            job_id = service.submit(plan)
            report = service.result(job_id, timeout=30)
            assert service.status(job_id).state is JobState.DONE
        (path,) = tmp_path.glob("JOB_*.json")
        assert json.loads(path.read_text())["entries"]["preflight"]["ok"] is True
        assert report == execute_plan(plan)
