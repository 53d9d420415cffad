"""Tests for the unified :class:`repro.ExecutionPolicy` API.

The whole module runs under ``-W error::DeprecationWarning`` (scoped via
``pytestmark``): any *internal* code path that still routes through a
legacy scattered keyword blows up here.  Legacy spellings are exercised
only inside explicit ``pytest.warns(DeprecationWarning)`` blocks, where the
shim contract is the thing under test: same report, bit for bit, plus one
warning naming the replacement.

The golden-fingerprint tests pin the policy's cosmetic contract: no policy
field may ever reach a cache key.  If they fail, either a policy field
leaked into fingerprinting (a cache-poisoning bug) or the fingerprint
scheme itself was deliberately revised (update the constants in the same
commit as the scheme).
"""

import dataclasses

import pytest

from repro import DEFAULT_POLICY, ExecutionPolicy
from repro.analysis import SweepCase, run_resilience_sweep, run_sweep
from repro.core import Labeling
from repro.exceptions import ValidationError
from repro.faults.schedules import NoFaults
from repro.policy import UNSET, resolve_policy
from repro.service import SweepService, execute_plan, plan_sweep
from repro.stabilization import (
    ExplorationGraph,
    StatesGraph,
    decide_label_r_stabilizing,
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
        assert policy.kernel is None
        assert policy.processes is None
        assert policy.frontier == "auto"
        assert policy.symmetry == "none"

    def test_frozen_value_object(self):
        policy = ExecutionPolicy(executor="batch")
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.executor = "serial"
        assert policy == ExecutionPolicy(executor="batch")
        assert hash(policy) == hash(ExecutionPolicy(executor="batch"))

    def test_merged_derives_and_revalidates(self):
        base = ExecutionPolicy(executor="batch")
        derived = base.merged(kernel="numpy", processes=2)
        assert derived.kernel == "numpy"
        assert base.kernel is None  # original untouched
        with pytest.raises(ValidationError, match="executor='batch'"):
            DEFAULT_POLICY.merged(kernel="numpy")

    def test_describe_names_only_the_changed_fields(self):
        assert ExecutionPolicy().describe() == "ExecutionPolicy(defaults)"
        text = ExecutionPolicy(executor="batch", processes=2).describe()
        assert "executor='batch'" in text
        assert "processes=2" in text
        assert "frontier" not in text

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"executor": "gpu"}, "unknown executor"),
            ({"executor": "batch", "kernel": "metal"}, "unknown kernel"),
            ({"kernel": "numpy"}, "executor='batch'"),
            ({"chunk_rows": 512}, "executor='batch'"),
            ({"executor": "batch", "chunk_rows": 0}, "chunk_rows"),
            ({"processes": 0}, "processes"),
            ({"frontier": "threads"}, "unknown frontier"),
            ({"batch_min_rows": 0}, "batch_min_rows"),
        ],
    )
    def test_validation(self, fields, match):
        with pytest.raises(ValidationError, match=match):
            ExecutionPolicy(**fields)


class TestResolvePolicy:
    def test_explicit_policy_wins(self):
        policy = ExecutionPolicy(processes=2)
        resolved = resolve_policy(policy, {"processes": UNSET}, api="f")
        assert resolved is policy

    def test_defaults_apply_without_any_input(self):
        assert resolve_policy(None, {}, api="f") is DEFAULT_POLICY
        fallback = ExecutionPolicy(executor="batch")
        assert resolve_policy(None, {}, api="f", fallback=fallback) is fallback

    def test_unset_legacy_values_are_not_passed(self):
        # No warning may escape (the module-level error filter enforces it).
        resolved = resolve_policy(
            None, {"processes": UNSET, "executor": UNSET}, api="f"
        )
        assert resolved is DEFAULT_POLICY

    def test_legacy_keywords_warn_and_fold_into_the_fallback(self):
        fallback = ExecutionPolicy(executor="batch", kernel="numpy")
        with pytest.warns(DeprecationWarning, match="f: the processes"):
            resolved = resolve_policy(
                None, {"processes": 3, "executor": UNSET}, api="f",
                fallback=fallback,
            )
        assert resolved == fallback.merged(processes=3)

    def test_warning_names_every_passed_keyword(self):
        with pytest.warns(
            DeprecationWarning, match="executor, kernel.*deprecated"
        ):
            resolve_policy(
                None,
                {"executor": "batch", "kernel": "numpy", "processes": UNSET},
                api="f",
            )

    def test_policy_plus_legacy_is_ambiguous(self):
        with pytest.raises(ValidationError, match="not both"):
            resolve_policy(
                DEFAULT_POLICY, {"processes": 2}, api="run_sweep"
            )

    def test_policy_type_is_checked(self):
        with pytest.raises(ValidationError, match="must be an ExecutionPolicy"):
            resolve_policy("batch", {}, api="run_sweep")


class TestSweepShims:
    """Legacy keywords on the sweep runners: warn once, same report."""

    def test_run_sweep_legacy_executor_matches_policy(self):
        protocol = _ring(4)
        cases = _cases(protocol)
        via_policy = run_sweep(
            protocol,
            cases,
            _sync,
            max_steps=60,
            policy=ExecutionPolicy(executor="batch"),
        )
        with pytest.warns(DeprecationWarning, match="run_sweep: the executor"):
            via_legacy = run_sweep(
                protocol, cases, _sync, max_steps=60, executor="batch"
            )
        assert via_legacy == via_policy
        # ... and both match the plain serial default.
        assert via_policy == run_sweep(protocol, cases, _sync, max_steps=60)

    def test_run_sweep_legacy_processes_matches_policy(self):
        protocol = _ring(4)
        cases = _cases(protocol)
        via_policy = run_sweep(
            protocol,
            cases,
            _sync,
            max_steps=60,
            policy=ExecutionPolicy(processes=2),
        )
        with pytest.warns(
            DeprecationWarning, match="pass policy=ExecutionPolicy"
        ):
            via_legacy = run_sweep(
                protocol, cases, _sync, max_steps=60, processes=2
            )
        assert via_legacy == via_policy

    def test_run_sweep_rejects_policy_plus_legacy(self):
        protocol = _ring(4)
        with pytest.raises(ValidationError, match="not both"):
            run_sweep(
                protocol,
                _cases(protocol, 2),
                _sync,
                max_steps=60,
                policy=ExecutionPolicy(executor="batch"),
                executor="batch",
            )

    def test_run_resilience_sweep_shim(self):
        protocol = _ring(4)
        cases = _cases(protocol)

        def faults(index, case):
            return NoFaults()

        via_policy = run_resilience_sweep(
            protocol,
            cases,
            _sync,
            faults,
            max_steps=60,
            policy=ExecutionPolicy(executor="batch"),
        )
        with pytest.warns(
            DeprecationWarning, match="run_resilience_sweep: the executor"
        ):
            via_legacy = run_resilience_sweep(
                protocol, cases, _sync, faults, max_steps=60, executor="batch"
            )
        assert via_legacy == via_policy


class TestServiceShims:
    def test_execute_plan_shim(self):
        plan, _, _ = _plan()
        via_policy = execute_plan(plan, policy=ExecutionPolicy(executor="batch"))
        with pytest.warns(
            DeprecationWarning, match="execute_plan: the executor"
        ):
            via_legacy = execute_plan(plan, executor="batch")
        assert via_legacy == via_policy
        assert via_policy == execute_plan(plan)

    def test_plan_attached_policy_needs_no_keywords_at_all(self):
        bare, protocol, cases = _plan()
        plan = plan_sweep(
            protocol,
            cases,
            _sync,
            max_steps=60,
            policy=ExecutionPolicy(executor="batch"),
        )
        # Executing the plan touches no legacy path and emits no warning.
        assert execute_plan(plan) == execute_plan(bare)

    def test_service_submit_shim(self):
        plan, _, _ = _plan()
        with SweepService() as service:
            via_policy = service.result(
                service.submit(plan, policy=ExecutionPolicy(executor="batch")),
                timeout=30,
            )
            with pytest.warns(
                DeprecationWarning, match="SweepService.submit: the executor"
            ):
                legacy_id = service.submit(plan, executor="batch")
            assert service.result(legacy_id, timeout=30) == via_policy


class TestExplorationShims:
    def test_exploration_graph_legacy_symmetry_matches_policy(self):
        protocol = example1_protocol(3)
        inputs = (0,) * 3
        inits = [random_bit_labeling(protocol.topology, seed=7)]
        via_policy = ExplorationGraph(
            protocol,
            inputs,
            2,
            inits,
            policy=ExecutionPolicy(symmetry="auto", frontier="serial"),
        )
        with pytest.warns(
            DeprecationWarning, match="ExplorationGraph: the .*symmetry"
        ):
            via_legacy = ExplorationGraph(
                protocol, inputs, 2, inits, symmetry="auto", frontier="serial"
            )
        assert via_legacy.state_keys == via_policy.state_keys
        assert len(via_legacy.edge_dst) == len(via_policy.edge_dst)

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
        with pytest.warns(DeprecationWarning, match="StatesGraph"):
            legacy = StatesGraph(
                protocol, inputs, r=2, initial_labelings=inits, symmetry="auto"
            )
        assert len(legacy.state_keys) == len(quotient.state_keys)

    def test_model_checker_accepts_a_policy(self):
        protocol = example1_protocol(3)
        inputs = (0,) * 3
        plain = decide_label_r_stabilizing(protocol, inputs, 2)
        via_policy = decide_label_r_stabilizing(
            protocol, inputs, 2, policy=ExecutionPolicy(symmetry="auto")
        )
        assert via_policy.stabilizing == plain.stabilizing
        with pytest.warns(
            DeprecationWarning, match="decide_label_r_stabilizing"
        ):
            via_legacy = decide_label_r_stabilizing(
                protocol, inputs, 2, symmetry="auto"
            )
        assert via_legacy.stabilizing == plain.stabilizing


class TestFingerprintCosmetics:
    """No policy spelling may ever reach a cache key."""

    #: Fingerprints of the fixed golden plan below, pinned at the current
    #: fingerprint-scheme version.  Only a deliberate scheme revision may
    #: change them — policies must not.
    GOLDEN_PLAN = (
        "3261791dae0c6595cb38cb68264fff22c7a45e73b71a377f811d270ff118421c"
    )
    GOLDEN_CASE = (
        "2d7477d2ef6d072be5fc67ae31ba93e24f84377bf7a855d7a244a82192c130c6"
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
            ExecutionPolicy(executor="batch", kernel="numba", processes=4),
            ExecutionPolicy(
                frontier="serial", symmetry="auto", batch_min_rows=1
            ),
        ],
        ids=["none", "default", "batch-numba-fanout", "exploration-knobs"],
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
