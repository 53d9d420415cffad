"""Tests for the sweep runner (repro.analysis.sweeps)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionPolicy
from repro.analysis import SweepCase, SweepReport, run_sweep
from repro.core import (
    Labeling,
    RandomRFairSchedule,
    RunOutcome,
    Simulator,
    StatelessProtocol,
    SynchronousSchedule,
    UniformReaction,
    binary,
)
from repro.exceptions import ValidationError
from repro.graphs import clique, unidirectional_ring

from tests.helpers import or_clique_protocol, random_bit_labeling


# Module-level pieces, shared by the tests below.
def _forward_bit(incoming, _x):
    (value,) = incoming.values()
    return value, value


def _copy_ring(n):
    topology = unidirectional_ring(n)
    reactions = [
        UniformReaction(topology.out_edges(i), _forward_bit) for i in range(n)
    ]
    return StatelessProtocol(topology, binary(), reactions, name="copy-ring")


def _sync_factory(index, case):
    return SynchronousSchedule(len(case.inputs))


class TestRunSweep:
    def test_results_match_individual_runs(self):
        protocol = or_clique_protocol(clique(3))
        cases = [
            SweepCase(
                inputs=(0, 0, 0),
                labeling=random_bit_labeling(protocol.topology, seed=s),
                tag=s,
            )
            for s in range(6)
        ]
        report = run_sweep(protocol, cases, _sync_factory)
        assert len(report) == 6
        for case, result in zip(cases, report.results, strict=True):
            single = Simulator(protocol, case.inputs).run(
                case.labeling, SynchronousSchedule(3)
            )
            assert result.outcome == single.outcome
            assert result.label_rounds == single.label_rounds
            assert result.output_rounds == single.output_rounds
            assert result.steps_executed == single.steps_executed
            assert result.final_values == single.final.labeling.values
            assert result.outputs == single.final.outputs
            assert result.tag == case.tag

    def test_outcome_counts_and_histogram(self):
        protocol = _copy_ring(4)
        stable = Labeling.uniform(protocol.topology, 0)
        rotating = Labeling(protocol.topology, (1, 0, 0, 0))
        report = run_sweep(
            protocol,
            [
                SweepCase((0,) * 4, stable, tag="stable"),
                SweepCase((0,) * 4, rotating, tag="rotates"),
            ],
            _sync_factory,
        )
        counts = report.outcome_counts
        assert counts[RunOutcome.LABEL_STABLE] == 1
        assert counts[RunOutcome.OSCILLATING] == 1
        assert report.round_histogram("label") == {0: 1}
        assert not report.all_label_stable
        assert "cases=2" in report.describe()

    def test_plain_tuple_cases_and_index_order(self):
        protocol = or_clique_protocol(clique(3))
        cases = [
            ((0, 0, 0), random_bit_labeling(protocol.topology, seed=s))
            for s in range(4)
        ]
        report = run_sweep(protocol, cases, _sync_factory)
        assert [r.index for r in report.results] == [0, 1, 2, 3]
        assert all(r.tag is None for r in report.results)

    def test_schedule_factory_receives_index_and_case(self):
        protocol = or_clique_protocol(clique(3))
        seen = []

        def factory(index, case):
            seen.append((index, case.tag))
            return RandomRFairSchedule(3, r=2, seed=index)

        cases = [
            SweepCase(
                (0, 0, 0),
                random_bit_labeling(protocol.topology, seed=s),
                tag=f"case{s}",
            )
            for s in range(3)
        ]
        run_sweep(protocol, cases, factory)
        assert seen == [(0, "case0"), (1, "case1"), (2, "case2")]

    def test_empty_sweep(self):
        protocol = or_clique_protocol(clique(3))
        report = run_sweep(protocol, [], _sync_factory)
        assert len(report) == 0
        assert report.outcome_counts == {}
        assert report.worst_label_rounds is None

    def test_max_steps_respected(self):
        protocol = _copy_ring(3)
        rotating = Labeling(protocol.topology, (1, 0, 0))
        report = run_sweep(
            protocol,
            [SweepCase((0,) * 3, rotating)],
            lambda i, c: RandomRFairSchedule(3, r=1, seed=0),
            max_steps=10,
        )
        (result,) = report.results
        assert result.outcome is RunOutcome.TIMEOUT
        assert result.steps_executed == 10

    def test_bad_histogram_kind_rejected(self):
        report = SweepReport(results=())
        with pytest.raises(ValidationError):
            report.round_histogram("nonsense")

    def test_factory_invoked_in_parent_in_case_order_despite_fanout(self):
        protocol = _copy_ring(4)
        seen = []

        def factory(index, case):
            seen.append(index)
            return SynchronousSchedule(4)

        cases = [
            SweepCase((0,) * 4, random_bit_labeling(protocol.topology, seed=s))
            for s in range(6)
        ]
        run_sweep(protocol, cases, factory, policy=ExecutionPolicy(executor="batch"))
        # one invocation per case, in order, before any case runs
        assert seen == [0, 1, 2, 3, 4, 5]


class TestFanOutDiagnostics:
    """A sweep runs in-process, so closure reactions, which do not pickle,
    run without a warning."""

    def _unpicklable_cases(self):
        protocol = or_clique_protocol(clique(3))  # closure reactions
        cases = [
            SweepCase((0, 0, 0), random_bit_labeling(protocol.topology, seed=s))
            for s in range(4)
        ]
        return protocol, cases

    def test_serial_run_never_warns(self):
        import warnings as _warnings

        protocol, cases = self._unpicklable_cases()
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            report = run_sweep(protocol, cases, _sync_factory)
        assert len(report) == 4


class TestSweepReportMerge:
    """The merge satellite: shard reports fold back to the one-shot report."""

    def _report(self, count=12):
        protocol = or_clique_protocol(clique(4))
        cases = [
            SweepCase((0,) * 4, random_bit_labeling(protocol.topology, seed=s))
            for s in range(count)
        ]
        return run_sweep(protocol, cases, _sync_factory)

    def test_merge_two_halves_equals_one_shot(self):
        report = self._report()
        lo = SweepReport(results=report.results[:5])
        hi = SweepReport(results=report.results[5:])
        assert lo.merge(hi) == report
        assert hi.merge(lo) == report  # commutative

    def test_empty_shards_are_identity(self):
        report = self._report(4)
        empty = SweepReport(results=())
        assert empty.merge(report) == report
        assert report.merge(empty) == report
        assert empty.merge(empty) == empty

    def test_overlapping_shards_are_rejected(self):
        report = self._report(4)
        lo = SweepReport(results=report.results[:3])
        hi = SweepReport(results=report.results[2:])
        with pytest.raises(ValidationError, match="overlapping shard"):
            lo.merge(hi)

    def test_type_mismatch_is_rejected(self):
        from repro.analysis import ResilienceReport

        report = self._report(2)
        with pytest.raises(ValidationError, match="share a type"):
            report.merge(ResilienceReport(results=()))
        # And the other way round: a plain shard cannot join a resilience
        # aggregate (a FaultCaseResult-less report would break its stats).
        with pytest.raises(ValidationError, match="share a type"):
            ResilienceReport(results=()).merge(report)

    @given(
        partition=st.lists(
            st.integers(min_value=0, max_value=3), min_size=12, max_size=12
        ),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_partition_any_order_merges_to_one_shot(self, partition, order):
        """Property: split the sweep into up to 4 shards by an arbitrary
        assignment, fold them in an arbitrary order — always the one-shot
        report.  (Associativity + commutativity + identity in one shape.)"""
        report = self._report()
        shards = [
            SweepReport(
                results=tuple(
                    result
                    for result, bucket in zip(report.results, partition, strict=True)
                    if bucket == which
                )
            )
            for which in range(4)
        ]
        order.shuffle(shards)
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)
        assert merged == report
        assert [r.index for r in merged.results] == list(range(12))
