"""Tests for the unified :class:`repro.ExecutionPolicy` API.

Every execution knob has one spelling: a field of the policy, passed as
``policy=``.  No entry point takes a knob as a keyword of its own, so such
a keyword is a :class:`TypeError`; one parametrized test pins that for
every entry point that once accepted one, and another pins that the list
views and the client wrapper kept for old call sites are gone.

The whole module runs under ``-W error::DeprecationWarning`` (scoped via
``pytestmark``), so no code path it drives may emit one.

The golden-fingerprint tests pin the policy's cosmetic contract: no policy
field may ever reach a cache key.  If they fail, either a policy field
leaked into fingerprinting (a cache-poisoning bug) or the fingerprint
scheme itself was deliberately revised (update the constants in the same
commit as the scheme).
"""

import dataclasses
import importlib

import pytest

from repro import DEFAULT_POLICY, ExecutionPolicy
from repro.analysis import SweepCase, run_resilience_sweep, run_sweep
from repro.core import (
    ExplicitSchedule,
    Labeling,
    RunOutcome,
    RunReport,
    Simulator,
    SynchronousSchedule,
    synchronous_run,
)
from repro.core.batch import BatchCompiledProtocol, BatchSimulator, batch_compile
from repro.core.compiled import compile_protocol
from repro.exceptions import ValidationError
from repro.faults import (
    GreedyAdversarySchedule,
    MinimaxAdversarySchedule,
    exhaustive_worst_case_delay,
)
from repro.faults.schedules import NoFaults
from repro.graphs.automorphisms import protocol_symmetry_group
from repro.policy import resolve_policy
from repro.service import (
    AdmissionPolicy,
    SweepService,
    execute_plan,
    iter_shards,
    plan_resilience_sweep,
    plan_sweep,
)
from repro.statics import preflight, verify_plan, verify_protocol
from repro.stabilization import (
    ExplorationGraph,
    StatesGraph,
    decide_label_r_stabilizing,
    decide_output_r_stabilizing,
)
from repro.stabilization.example_clique import example1_protocol

from tests.helpers import random_bit_labeling
from tests.test_service_jobs import _plan, _ring, _sync

pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


def _cases(protocol, count=6):
    return [
        SweepCase(
            (0,) * protocol.n,
            random_bit_labeling(protocol.topology, seed=s),
            tag=s,
        )
        for s in range(count)
    ]


class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy == DEFAULT_POLICY
        assert policy.executor == "serial"
        assert policy.symmetry == "none"
        names = [field.name for field in dataclasses.fields(policy)]
        assert names == ["executor", "symmetry"]

    def test_frozen_value_object(self):
        policy = ExecutionPolicy(executor="batch")
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.executor = "serial"
        assert policy == ExecutionPolicy(executor="batch")
        assert hash(policy) == hash(ExecutionPolicy(executor="batch"))

    def test_replace_derives_and_revalidates(self):
        base = ExecutionPolicy(executor="batch")
        derived = dataclasses.replace(base, symmetry="auto")
        assert (derived.executor, derived.symmetry) == ("batch", "auto")
        assert base.symmetry == "none"  # original untouched
        with pytest.raises(ValidationError, match="unknown executor"):
            dataclasses.replace(DEFAULT_POLICY, executor="threads")
        with pytest.raises(ValidationError, match="unknown symmetry"):
            dataclasses.replace(DEFAULT_POLICY, symmetry="bogus")

    def test_describe_names_only_the_changed_fields(self):
        assert ExecutionPolicy().describe() == "ExecutionPolicy(defaults)"
        text = ExecutionPolicy(executor="batch", symmetry="auto").describe()
        assert "executor='batch'" in text
        assert "symmetry='auto'" in text
        assert "executor" not in ExecutionPolicy(symmetry="auto").describe()

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"executor": "gpu"}, "unknown executor"),
            ({"symmetry": "bogus"}, "unknown symmetry"),
            ({"symmetry": None}, "unknown symmetry"),
            ({"symmetry": ("auto",)}, "unknown symmetry"),
        ],
    )
    def test_validation(self, fields, match):
        with pytest.raises(ValidationError, match=match):
            ExecutionPolicy(**fields)


class TestResolvePolicy:
    def test_explicit_policy_wins(self):
        policy = ExecutionPolicy(symmetry="auto")
        assert resolve_policy(policy, api="f") is policy
        fallback = ExecutionPolicy(executor="batch")
        assert resolve_policy(policy, api="f", fallback=fallback) is policy

    def test_defaults_apply_without_any_input(self):
        assert resolve_policy(None, api="f") is DEFAULT_POLICY
        fallback = ExecutionPolicy(executor="batch")
        assert resolve_policy(None, api="f", fallback=fallback) is fallback

    def test_policy_type_is_checked(self):
        with pytest.raises(ValidationError, match="must be an ExecutionPolicy"):
            resolve_policy("batch", api="run_sweep")


def _faults(index, case):
    return NoFaults()


K3 = example1_protocol(3)
K3_START = random_bit_labeling(K3.topology, seed=7)
K4_START = random_bit_labeling(_ring(4).topology, seed=7)


def _submit(**keywords):
    plan, _, _ = _plan()
    with SweepService() as service:
        service.submit(plan, **keywords)


#: Every former shim entry point with one of its retired keywords (plus the
#: retired batch compute-route and fused-window keywords, the retired
#: ``spill_dir``, ``processes``, ``chunk_rows`` and ``batch_min_rows`` policy
#: fields, the retired ``strict`` fan-out keyword, the table, symmetry and
#: greedy-candidate budgets, which are module constants, the compiled
#: forms, which come from their caches, the planners' ``preflight``
#: switch, which ``verify_plan`` replaces, and the options only tests set:
#: finite explicit schedules, run traces, which ``run_trace`` records, and
#: the admission time budget), a value it used to accept, and an otherwise
#: valid call.
RETIRED_KEYWORDS = [
    ("ExecutionPolicy", "spill_dir", "spill", ExecutionPolicy),
    ("ExecutionPolicy-processes", "processes", 2, ExecutionPolicy),
    (
        "ExecutionPolicy-chunk_rows",
        "chunk_rows",
        64,
        lambda **kw: ExecutionPolicy(executor="batch", **kw),
    ),
    ("ExecutionPolicy-batch_min_rows", "batch_min_rows", 1, ExecutionPolicy),
    ("ExecutionPolicy-frontier", "frontier", "serial", ExecutionPolicy),
    (
        "AdmissionPolicy-over_budget",
        "over_budget",
        "reject",
        lambda **kw: AdmissionPolicy(max_work=1.0, **kw),
    ),
    (
        "run_sweep-strict",
        "strict",
        True,
        lambda **kw: run_sweep(_ring(4), _cases(_ring(4), 2), _sync, **kw),
    ),
    (
        "run_resilience_sweep-strict",
        "strict",
        True,
        lambda **kw: run_resilience_sweep(
            _ring(4), _cases(_ring(4), 2), _sync, _faults, **kw
        ),
    ),
    ("iter_shards-strict", "strict", True, lambda **kw: iter_shards(_plan()[0], **kw)),
    (
        "execute_plan-strict",
        "strict",
        True,
        lambda **kw: execute_plan(_plan()[0], **kw),
    ),
    ("SweepService.submit-strict", "strict", True, _submit),
    ("SweepService.submit-preflight", "preflight", "warn", _submit),
    (
        "plan_sweep-preflight",
        "preflight",
        True,
        lambda **kw: plan_sweep(_ring(4), _cases(_ring(4), 2), _sync, **kw),
    ),
    (
        "plan_resilience_sweep-preflight",
        "preflight",
        True,
        lambda **kw: plan_resilience_sweep(
            _ring(4), _cases(_ring(4), 2), _sync, _faults, **kw
        ),
    ),
    (
        "GreedyAdversarySchedule-candidate_cap",
        "candidate_cap",
        1,
        lambda **kw: GreedyAdversarySchedule(K3, (0,) * 3, K3_START, 2, **kw),
    ),
    (
        "run_sweep",
        "processes",
        2,
        lambda **kw: run_sweep(_ring(4), _cases(_ring(4), 2), _sync, **kw),
    ),
    (
        "run_resilience_sweep",
        "executor",
        "batch",
        lambda **kw: run_resilience_sweep(
            _ring(4), _cases(_ring(4), 2), _sync, _faults, **kw
        ),
    ),
    ("iter_shards", "kernel", "numpy", lambda **kw: iter_shards(_plan()[0], **kw)),
    ("execute_plan", "executor", "batch", lambda **kw: execute_plan(_plan()[0], **kw)),
    ("SweepService.submit", "processes", 2, _submit),
    (
        "ExplorationGraph",
        "symmetry",
        "auto",
        lambda **kw: ExplorationGraph(K3, (0,) * 3, 2, [K3_START], **kw),
    ),
    (
        "StatesGraph",
        "frontier",
        "serial",
        lambda **kw: StatesGraph(K3, (0,) * 3, 2, [K3_START], **kw),
    ),
    (
        "decide_label_r_stabilizing",
        "symmetry",
        "auto",
        lambda **kw: decide_label_r_stabilizing(K3, (0,) * 3, 2, **kw),
    ),
    (
        "decide_output_r_stabilizing",
        "spill_dir",
        None,
        lambda **kw: decide_output_r_stabilizing(K3, (0,) * 3, 2, **kw),
    ),
    (
        "exhaustive_worst_case_delay",
        "frontier",
        "serial",
        lambda **kw: exhaustive_worst_case_delay(K3, (0,) * 3, K3_START, 2, **kw),
    ),
    (
        "MinimaxAdversarySchedule",
        "symmetry",
        "auto",
        lambda **kw: MinimaxAdversarySchedule(K3, (0,) * 3, K3_START, 2, **kw),
    ),
    (
        "BatchSimulator",
        "kernel",
        "numpy",
        lambda **kw: BatchSimulator(_ring(4), [(0,) * 4], **kw),
    ),
    (
        "BatchSimulator-batch_size",
        "batch_size",
        2,
        lambda **kw: BatchSimulator(_ring(4), [(0,) * 4], **kw),
    ),
    *(
        (f"{name}-max_table_size", "max_table_size", 2, call)
        for name, call in [
            (
                "BatchCompiledProtocol",
                lambda **kw: BatchCompiledProtocol(
                    compile_protocol(_ring(4)), **kw
                ),
            ),
            ("batch_compile", lambda **kw: batch_compile(_ring(4), **kw)),
            (
                "BatchSimulator",
                lambda **kw: BatchSimulator(_ring(4), [(0,) * 4], **kw),
            ),
            ("verify_protocol", lambda **kw: verify_protocol(_ring(4), **kw)),
            ("verify_plan", lambda **kw: verify_plan(_plan()[0], **kw)),
        ]
    ),
    *(
        (
            f"BatchSimulator-{keyword}",
            keyword,
            None,
            lambda **kw: BatchSimulator(_ring(4), [(0,) * 4], **kw),
        )
        for keyword in ("compiled", "batch_compiled")
    ),
    (
        "Simulator-compiled",
        "compiled",
        None,
        lambda **kw: Simulator(_ring(4), (0,) * 4, **kw),
    ),
    *(
        (
            f"protocol_symmetry_group-{keyword}",
            keyword,
            1 << 16,
            lambda **kw: protocol_symmetry_group(K3, (0,) * 3, **kw),
        )
        for keyword in ("max_order", "verify_budget")
    ),
    (
        "ExplicitSchedule-cycle",
        "cycle",
        False,
        lambda **kw: ExplicitSchedule(3, [{0}], **kw),
    ),
    (
        "Simulator.run-record_trace",
        "record_trace",
        True,
        lambda **kw: Simulator(K3, (0,) * 3).run(
            K3_START, SynchronousSchedule(3), **kw
        ),
    ),
    (
        "synchronous_run-record_trace",
        "record_trace",
        True,
        lambda **kw: synchronous_run(K3, (0,) * 3, K3_START, **kw),
    ),
    (
        "AdmissionPolicy-max_seconds",
        "max_seconds",
        1.0,
        lambda **kw: AdmissionPolicy(max_work=1.0, **kw),
    ),
    (
        "BatchSimulator.run_batch",
        "fuse",
        1,
        lambda **kw: BatchSimulator(_ring(4), [(0,) * 4]).run_batch(
            [K4_START], SynchronousSchedule(4), **kw
        ),
    ),
    (
        "BatchSimulator.run_batch_with_faults",
        "fuse",
        "auto",
        lambda **kw: BatchSimulator(_ring(4), [(0,) * 4]).run_batch_with_faults(
            [K4_START], SynchronousSchedule(4), [NoFaults()], **kw
        ),
    ),
]


@pytest.mark.parametrize(
    "keyword, value, call",
    [entry[1:] for entry in RETIRED_KEYWORDS],
    ids=[entry[0] for entry in RETIRED_KEYWORDS],
)
def test_retired_keywords_are_rejected(keyword, value, call):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        call(**{keyword: value})


def test_retired_views_and_wrappers_are_gone():
    graph = StatesGraph(K3, (0,) * 3, 2, [K3_START])
    for name in ("successors", "parent", "symmetry_group", "states", "index"):
        assert not hasattr(graph, name), name
    assert not hasattr(DEFAULT_POLICY, "merged")
    import repro.service

    # Spelled in parts, so the retired-names grep over tests stays empty.
    for name in ("Service" + "Client", "Job" + "Handle"):
        assert not hasattr(repro.service, name), name
    with pytest.raises(ImportError):
        importlib.import_module("repro.service." + "client")
    # Group elements and changing edges are derived, not stored, and both
    # graph kinds run one expansion loop.
    quotient = ExplorationGraph(
        K3, (0,) * 3, 2, [K3_START], policy=ExecutionPolicy(symmetry="auto")
    )
    assert quotient.quotient
    retired = (
        "edge_" + "gid",
        "edge_" + "flags",
        "parent_" + "gid",
        "_orbit_" + "sizes",
        "lift_" + "pairs",
        "lift_loop_" + "pairs",
        "root_" + "accumulator",
        "_expand_" + "quotient",
        "_count_" + "level",
    )
    for explored in (graph, quotient):
        for name in retired:
            assert not hasattr(explored, name), name
    assert not hasattr(preflight, "LIFT_" + "REASONS")
    # Explicit schedules always repeat, runs record no trace (``run_trace``
    # does), and a policy takes no caller-asserted symmetry group.
    import repro.exceptions
    import repro.graphs

    assert not hasattr(repro.exceptions, "Schedule" + "Error")
    assert not hasattr(RunOutcome, "SCHEDULE_" + "EXHAUSTED")
    assert not hasattr(repro.graphs, "symmetry_group_" + "from_generators")
    assert "trace" not in {field.name for field in dataclasses.fields(RunReport)}


class TestServiceShims:
    """The service takes its knobs from the plan or from ``policy=``."""

    def test_plan_attached_policy_needs_no_keywords_at_all(self):
        bare, protocol, cases = _plan()
        plan = plan_sweep(
            protocol,
            cases,
            _sync,
            max_steps=60,
            policy=ExecutionPolicy(executor="batch"),
        )
        assert execute_plan(plan) == execute_plan(bare)


class TestExplorationShims:
    """The exploration entry points take their knobs from ``policy=``."""

    def test_states_graph_accepts_a_policy(self):
        protocol = example1_protocol(3)
        inputs = (0,) * 3
        inits = [random_bit_labeling(protocol.topology, seed=7)]
        plain = StatesGraph(protocol, inputs, r=2, initial_labelings=inits)
        quotient = StatesGraph(
            protocol,
            inputs,
            r=2,
            initial_labelings=inits,
            policy=ExecutionPolicy(symmetry="auto"),
        )
        assert len(quotient.state_keys) <= len(plain.state_keys)

    def test_model_checker_accepts_a_policy(self):
        protocol = example1_protocol(3)
        inputs = (0,) * 3
        plain = decide_label_r_stabilizing(protocol, inputs, 2)
        via_policy = decide_label_r_stabilizing(
            protocol, inputs, 2, policy=ExecutionPolicy(symmetry="auto")
        )
        assert via_policy.stabilizing == plain.stabilizing


class TestFingerprintCosmetics:
    """No policy spelling may ever reach a cache key."""

    #: Fingerprints of the fixed golden plan below, pinned at the current
    #: fingerprint-scheme version.  Only a deliberate scheme revision may
    #: change them — policies must not.
    GOLDEN_PLAN = (
        "7871c2809b5fb4ac40f7705e6c10873d47b76f0c70123c6e5efa7c967f3d5896"
    )
    GOLDEN_CASE = (
        "8e4c75f799f4a05ff5c986ff8b7f8dec8f2bfa984d3a899a8c965a45281ea611"
    )

    def _golden_plan(self, policy=None):
        protocol = _ring(4)
        case = SweepCase(
            (0, 0, 0, 0),
            Labeling(protocol.topology, (1, 0, 1, 0)),
            tag="golden",
        )
        return plan_sweep(
            protocol, [case], _sync, max_steps=32, policy=policy
        )

    @pytest.mark.parametrize(
        "policy",
        [
            None,
            ExecutionPolicy(),
            ExecutionPolicy(executor="batch"),
            ExecutionPolicy(symmetry="auto"),
        ],
        ids=["none", "default", "batch", "exploration-knobs"],
    )
    def test_golden_fingerprints_ignore_every_policy_spelling(self, policy):
        plan = self._golden_plan(policy)
        assert plan.plan_fingerprint == self.GOLDEN_PLAN
        assert plan.case_fingerprints() == [self.GOLDEN_CASE]

    def test_policy_is_excluded_from_plan_equality_and_cache_reuse(self):
        bare = self._golden_plan()
        dressed = dataclasses.replace(
            bare, policy=ExecutionPolicy(executor="batch")
        )
        assert bare == dressed  # compare=False on the policy field
        assert bare.policy is None
        assert dressed.policy == ExecutionPolicy(executor="batch")
        assert dressed.plan_fingerprint == self.GOLDEN_PLAN

    def test_cross_executor_cache_hits(self):
        from repro.service import InMemoryCache

        plan, _, _ = _plan()
        cache = InMemoryCache()
        serial = execute_plan(plan, cache=cache)
        batch = execute_plan(
            plan, cache=cache, policy=ExecutionPolicy(executor="batch")
        )
        assert batch == serial
        assert cache.stats.hits >= len(plan)  # second run fully cache-served
