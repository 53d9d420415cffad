"""Tests for the service planner/executor and the result caches.

The contract under test is ISSUE 7's tentpole: ``plan_sweep`` +
``execute_plan`` is the same computation as the one-shot runners (which are
now thin wrappers over it), the content-addressed cache serves identical
resubmissions bit for bit, and incremental shard aggregates merge to
exactly the one-shot report.
"""

import dataclasses
import pickle
import random
import sqlite3
from contextlib import closing

import pytest

from repro.analysis import (
    CaseResult,
    ResilienceReport,
    SweepCase,
    SweepReport,
    run_resilience_sweep,
    run_sweep,
)
from repro.analysis.resilience import resolve_criterion
from repro.core import (
    Labeling,
    RandomRFairSchedule,
    RunOutcome,
    StatelessProtocol,
    SynchronousSchedule,
    UniformReaction,
    binary,
)
from repro import ExecutionPolicy
from repro.exceptions import ValidationError
from repro.faults.models import RandomCorruption
from repro.faults.schedules import NoFaults, OneShotFault
from repro.graphs import clique, unidirectional_ring
from repro.service import (
    InMemoryCache,
    SqliteCache,
    SweepPlan,
    execute_plan,
    iter_shards,
    plan_resilience_sweep,
    plan_sweep,
)

from tests.helpers import or_clique_protocol, random_bit_labeling


# Module-level pieces so plans pickle.
def _xor_bit(incoming, _x):
    (value,) = incoming.values()
    return value, value


def _ring(n):
    topology = unidirectional_ring(n)
    reactions = [
        UniformReaction(topology.out_edges(i), _xor_bit) for i in range(n)
    ]
    return StatelessProtocol(topology, binary(), reactions, name="ring")


def _sync(index, case):
    return SynchronousSchedule(len(case.inputs))


def _population(protocol, count, seed=0):
    return [
        SweepCase(
            (0,) * protocol.topology.n,
            random_bit_labeling(protocol.topology, seed=seed + s),
            tag=s,
        )
        for s in range(count)
    ]


def _fault_factory(i, case):
    if i % 2:
        return OneShotFault(3, RandomCorruption(0.5, seed=i))
    return NoFaults()


def _faults_by_tag(i, case):
    """:func:`_fault_factory` keyed by the case's tag, not its position, so
    a case keeps its key in any plan."""
    return _fault_factory(case.tag, case)


def _odd_tags(result):
    """A criterion that reads the cosmetic tag: a verdict must be decided
    on the result as the sweep returns it."""
    return result.tag % 2 == 1


class TestCaches:
    def test_in_memory_roundtrip_and_stats(self):
        cache = InMemoryCache()
        assert cache.get("a") is None
        cache.put("a", ("value", 1))
        assert cache.get("a") == ("value", 1)
        assert len(cache) == 1
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.lookups) == (1, 1, 2)
        assert stats.hit_rate == 0.5
        assert "50.00%" in stats.describe()

    def test_untouched_cache_reports_zero_rate(self):
        assert InMemoryCache().stats.hit_rate == 0.0

    def test_sqlite_roundtrip(self, tmp_path):
        with SqliteCache(tmp_path / "cache.db") as cache:
            cache.put("k", {"nested": (1, 2.5, "x")})
            assert cache.get("k") == {"nested": (1, 2.5, "x")}
            cache.put("k", "overwritten")
            assert cache.get("k") == "overwritten"
            assert len(cache) == 1

    def test_sqlite_persists_across_connections(self, tmp_path):
        path = tmp_path / "cache.db"
        with SqliteCache(path) as cache:
            cache.put("k", 42)
        with SqliteCache(path) as reopened:
            assert reopened.get("k") == 42
            # counters are per-connection, contents are not
            assert reopened.stats.hits == 1

    def test_sqlite_undecodable_rows_are_counted_misses(self, tmp_path):
        protocol = _ring(4)
        plan = plan_sweep(protocol, _population(protocol, 5), _sync, max_steps=50)
        path = tmp_path / "cache.db"
        with SqliteCache(path) as cache:
            execute_plan(plan, cache=cache)
        with closing(sqlite3.connect(path)) as raw, raw:
            rows = raw.execute(
                "SELECT key, value FROM results ORDER BY key LIMIT 2"
            ).fetchall()
            (garbled, blob), (truncated, other) = rows
            raw.execute(
                "UPDATE results SET value = ? WHERE key = ?",
                (bytes(b ^ 0xFF for b in blob), garbled),
            )
            raw.execute(
                "UPDATE results SET value = ? WHERE key = ?",
                (other[: len(other) // 2], truncated),
            )

        with SqliteCache(path) as cache:
            for key in (garbled, truncated):
                assert cache.get(key) is None
                assert not cache.contains(key)
            stats = cache.stats
            assert (stats.hits, stats.misses, stats.corrupt) == (0, 2, 2)
            assert "corrupt=2" in stats.describe()

            assert execute_plan(plan, cache=cache) == execute_plan(plan)
            stats = cache.stats
            assert (stats.hits, stats.misses, stats.corrupt) == (3, 4, 4)
            # the re-run recomputed both cases and overwrote their rows
            assert cache.contains(garbled) and cache.contains(truncated)
            assert execute_plan(plan, cache=cache) == execute_plan(plan)
            assert cache.stats.corrupt == 4


    def test_sqlite_row_garbled_into_another_value_is_a_counted_miss(
        self, tmp_path
    ):
        result = CaseResult(
            index=-1,
            tag=None,
            outcome=RunOutcome.LABEL_STABLE,
            label_rounds=3,
            output_rounds=3,
            steps_executed=17,
            final_values=(0, 1, 0),
            outputs=(0, 1, 0),
        )
        path = tmp_path / "cache.db"
        with SqliteCache(path) as cache:
            cache.put("k", result)
        with closing(sqlite3.connect(path)) as raw, raw:
            (blob,) = raw.execute(
                "SELECT value FROM results WHERE key = 'k'"
            ).fetchone()
            # BININT1 17, the pickled steps_executed; 18 still unpickles.
            assert blob.count(b"K\x11") == 1
            raw.execute(
                "UPDATE results SET value = ? WHERE key = 'k'",
                (blob.replace(b"K\x11", b"K\x12"),),
            )

        with SqliteCache(path) as cache:
            assert cache.get("k") is None
            assert not cache.contains("k")
            stats = cache.stats
            assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 1)
            cache.put("k", result)
            assert cache.get("k") == result


    def test_sqlite_probe_checks_the_checksum_without_unpickling(
        self, tmp_path, monkeypatch
    ):
        row = ("label-stable", 1, 1, 3, (0, 1, 0), (0, 1, 0))
        path = tmp_path / "cache.db"
        with SqliteCache(path) as cache:
            for key in ("intact", "garbled", "truncated"):
                cache.put(key, row)
        with closing(sqlite3.connect(path)) as raw, raw:
            (blob,) = raw.execute(
                "SELECT value FROM results WHERE key = 'intact'"
            ).fetchone()
            raw.execute(
                "UPDATE results SET value = ? WHERE key = 'garbled'",
                (bytes(b ^ 0xFF for b in blob),),
            )
            raw.execute(
                "UPDATE results SET value = ? WHERE key = 'truncated'",
                (blob[: len(blob) // 2],),
            )

        def refuse(data, *args, **kwargs):
            raise pickle.UnpicklingError("the probe must not unpickle")

        monkeypatch.setattr(pickle, "loads", refuse)
        with SqliteCache(path) as cache:
            assert cache.contains("intact")
            assert not cache.contains("garbled")
            assert not cache.contains("truncated")
            assert cache.stats == type(cache.stats)()  # probes count nothing
            # A row whose checksum holds but whose pickle does not load is
            # warm to the probe and a counted corrupt miss to ``get``.
            assert cache.get("intact") is None
            stats = cache.stats
            assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 1)
        monkeypatch.undo()
        with SqliteCache(path) as cache:
            assert cache.get("intact") == row


class TestPlanning:
    def test_plan_shape(self):
        protocol = _ring(3)
        plan = plan_sweep(protocol, _population(protocol, 5), _sync)
        assert len(plan) == 5
        assert [spec.index for spec in plan] == list(range(5))
        assert plan.kind == "sweep"
        assert plan.report_type is SweepReport
        assert all(spec.faults is None for spec in plan.specs)
        assert "cases=5" in plan.describe()

    def test_resilience_plan_carries_fault_plans(self):
        protocol = _ring(3)
        plan = plan_resilience_sweep(
            protocol, _population(protocol, 4), _sync, _fault_factory
        )
        assert plan.kind == "resilience"
        assert plan.report_type is ResilienceReport
        assert all(spec.faults is not None for spec in plan.specs)
        assert isinstance(plan.specs[1].faults, OneShotFault)

    def test_unknown_plan_kind_is_rejected(self):
        protocol = _ring(3)
        with pytest.raises(ValidationError, match="unknown plan kind"):
            SweepPlan(protocol=protocol, specs=(), kind="mystery")

    def test_factories_run_in_parent_in_case_order(self):
        calls = []
        protocol = _ring(3)

        def factory(index, case):
            calls.append(("s", index))
            return SynchronousSchedule(3)

        def faults(index, case):
            calls.append(("f", index))
            return NoFaults()

        plan_resilience_sweep(
            protocol, _population(protocol, 3), factory, faults
        )
        assert calls == [
            ("s", 0), ("f", 0), ("s", 1), ("f", 1), ("s", 2), ("f", 2)
        ]


class TestExecutorEquivalence:
    """execute_plan(plan_sweep(...)) == run_sweep(...) — by construction,
    and measured."""

    def test_sweep_matches_one_shot(self):
        protocol = or_clique_protocol(clique(4))
        cases = _population(protocol, 8)
        plan = plan_sweep(protocol, cases, _sync)
        assert execute_plan(plan) == run_sweep(protocol, cases, _sync)

    def test_batch_executor_matches_serial(self):
        protocol = _ring(4)
        cases = _population(protocol, 6)
        plan = plan_sweep(protocol, cases, _sync, max_steps=50)
        serial = execute_plan(plan)
        batch = execute_plan(plan, policy=ExecutionPolicy(executor="batch"))
        assert serial == batch

    def test_seeded_stateful_factory_is_planned_once(self):
        # The PR-2 reproducibility contract: a stateful factory sees the
        # same call sequence under planning as under the one-shot runner.
        protocol = _ring(4)
        cases = _population(protocol, 6)

        def stateful():
            rng = random.Random(7)
            return lambda i, c: RandomRFairSchedule(
                4, r=2, seed=rng.randrange(2**32)
            )

        report = run_sweep(protocol, cases, stateful(), max_steps=60)
        plan = plan_sweep(protocol, cases, stateful(), max_steps=60)
        assert execute_plan(plan) == report

    def test_resilience_matches_one_shot(self):
        protocol = or_clique_protocol(clique(4))
        cases = _population(protocol, 6)
        plan = plan_resilience_sweep(
            protocol, cases, _sync, _fault_factory, max_steps=80
        )
        one_shot = run_resilience_sweep(
            protocol, cases, _sync, _fault_factory, max_steps=80
        )
        assert execute_plan(plan) == one_shot

    def test_empty_plan_returns_empty_report(self):
        plan = plan_sweep(_ring(3), [], _sync)
        assert execute_plan(plan) == SweepReport(results=())
        assert list(iter_shards(plan)) == []

    def test_validation_happens_before_factories(self):
        # A bad policy or criterion errors without touching cases.
        def exploding_factory(i, c):
            raise AssertionError("factory must not run")

        protocol = _ring(3)
        with pytest.raises(ValidationError, match="must be an ExecutionPolicy"):
            run_sweep(
                protocol,
                _population(protocol, 2),
                exploding_factory,
                policy="batch",
            )
        with pytest.raises(ValidationError, match="unknown recovery"):
            run_resilience_sweep(
                protocol,
                _population(protocol, 2),
                exploding_factory,
                exploding_factory,
                recovered="sometimes",
            )

    def test_recovered_rejected_on_sweep_plans(self):
        plan = plan_sweep(_ring(3), _population(_ring(3), 1), _sync)
        with pytest.raises(ValidationError, match="resilience criterion"):
            execute_plan(plan, recovered="label")

    def test_bad_shard_size_is_rejected(self):
        protocol = _ring(3)
        plan = plan_sweep(protocol, _population(protocol, 3), _sync)
        with pytest.raises(ValidationError, match="shard_size"):
            list(iter_shards(plan, shard_size=0))


class TestIncrementalAggregation:
    def test_shard_aggregates_grow_to_the_one_shot_report(self):
        protocol = or_clique_protocol(clique(4))
        cases = _population(protocol, 10)
        plan = plan_sweep(protocol, cases, _sync)
        one_shot = run_sweep(protocol, cases, _sync)
        seen = 0
        progress = None
        for progress in iter_shards(plan, shard_size=3):
            seen += len(progress.results)
            assert len(progress.aggregate) == seen
            assert progress.done == (seen == 10)
        assert progress.aggregate == one_shot
        assert progress.total_shards == 4
        assert "shard 4/4" in progress.describe()

    def test_shard_results_partition_the_plan(self):
        protocol = _ring(4)
        plan = plan_sweep(protocol, _population(protocol, 7), _sync)
        indices = []
        for progress in iter_shards(plan, shard_size=2):
            indices.extend(result.index for result in progress.results)
        assert indices == list(range(7))

    def test_batch_sharded_equals_serial_unsharded(self):
        protocol = _ring(4)
        plan = plan_sweep(protocol, _population(protocol, 9), _sync, max_steps=50)
        serial = execute_plan(plan)
        assert (
            execute_plan(
                plan,
                policy=ExecutionPolicy(executor="batch"),
                shard_size=4,
            )
            == serial
        )


class TestResultCacheIntegration:
    def test_warm_execution_is_bit_identical(self):
        protocol = or_clique_protocol(clique(4))
        plan = plan_sweep(protocol, _population(protocol, 8), _sync)
        cache = InMemoryCache()
        cold = execute_plan(plan, cache=cache)
        warm = execute_plan(plan, cache=cache)
        assert warm == cold
        assert cache.stats.hits == 8 and cache.stats.misses == 8
        assert len(cache) == 8

    def test_cacheless_execution_computes_no_fingerprints(self):
        protocol = _ring(3)
        plan = plan_sweep(protocol, _population(protocol, 4), _sync)
        execute_plan(plan)
        assert plan._fingerprints == {}

    def test_hits_are_reattached_to_position_and_tag(self):
        protocol = or_clique_protocol(clique(4))
        labeling = random_bit_labeling(protocol.topology, seed=3)
        first = plan_sweep(
            protocol, [SweepCase((0,) * 4, labeling, tag="cold")], _sync
        )
        second = plan_sweep(
            protocol,
            [
                SweepCase((1,) * 4, labeling, tag="other"),
                SweepCase((0,) * 4, labeling, tag="warm"),
            ],
            _sync,
        )
        cache = InMemoryCache()
        execute_plan(first, cache=cache)
        report = execute_plan(second, cache=cache)
        assert cache.stats.hits == 1  # same physical case, new tag/position
        assert report.results[1].tag == "warm"
        assert report.results[1].index == 1

    def test_cache_is_shared_across_executors(self):
        protocol = _ring(4)
        plan = plan_sweep(protocol, _population(protocol, 6), _sync, max_steps=50)
        cache = InMemoryCache()
        cold = execute_plan(plan, cache=cache)
        warm = execute_plan(
            plan, cache=cache, policy=ExecutionPolicy(executor="batch")
        )
        assert warm == cold
        assert cache.stats.hits == 6

    def test_criterion_is_applied_to_cached_results(self):
        protocol = or_clique_protocol(clique(4))
        plan = plan_resilience_sweep(
            protocol,
            _population(protocol, 6),
            _sync,
            _fault_factory,
            max_steps=80,
        )
        cache = InMemoryCache()
        label = execute_plan(plan, cache=cache)
        never = execute_plan(plan, cache=cache, recovered=lambda result: False)
        # The second run is fully warm yet re-judged under its own criterion.
        assert cache.stats.hits == 6
        assert label.recovered_count == 6
        assert never.recovered_count == 0
        # Outcomes (the cached physics) agree case for case.
        assert [r.outcome for r in never.results] == [
            r.outcome for r in label.results
        ]

    @pytest.mark.parametrize("shard_size", [2, None], ids=["shards-of-2", "one"])
    @pytest.mark.parametrize("recovered", ["label", _odd_tags], ids=["label", "tag"])
    def test_batch_hits_and_misses_carry_index_tag_and_verdict(
        self, recovered, shard_size
    ):
        protocol = or_clique_protocol(clique(4))
        population = _population(protocol, 8)
        batch = ExecutionPolicy(executor="batch")

        def plan(cases):
            return plan_resilience_sweep(
                protocol, cases, _sync, _faults_by_tag, max_steps=80
            )

        # Warm a scattered half: shards mix hits and misses, and in one
        # shard the misses are not contiguous, so the runner numbers some
        # of them wrong.
        cache = InMemoryCache()
        warm = [population[i] for i in (0, 3, 4, 7)]
        execute_plan(plan(warm), cache=cache, policy=batch)
        full = plan(population)
        reference = execute_plan(full, recovered=recovered)
        judge = resolve_criterion(recovered)
        for rerun in range(2):  # half warm, then fully warm
            report = execute_plan(
                full,
                cache=cache,
                policy=batch,
                shard_size=shard_size,
                recovered=recovered,
            )
            assert report == reference
            for i, result in enumerate(report.results):
                assert result.index == i
                assert result.tag == population[i].tag
                unjudged = dataclasses.replace(result, recovered=False)
                assert result.recovered == judge(unjudged)
        assert (cache.stats.hits, cache.stats.misses) == (4 + 8, 4 + 4)
        if recovered is _odd_tags:
            assert {r.recovered for r in reference.results} == {False, True}

    def test_sqlite_cache_serves_a_new_process_shape(self, tmp_path):
        # Plan pickled + cache on disk: the full submit-elsewhere story.
        protocol = _ring(4)
        plan = plan_sweep(protocol, _population(protocol, 5), _sync, max_steps=50)
        path = tmp_path / "cache.db"
        with SqliteCache(path) as cache:
            cold = execute_plan(plan, cache=cache)
        clone = pickle.loads(pickle.dumps(plan))
        with SqliteCache(path) as cache:
            warm = execute_plan(clone, cache=cache)
            assert cache.stats.hits == 5
        assert warm == cold

    def test_near_miss_cases_do_not_share_entries(self):
        # Differing only in schedule seed: every case must miss.
        protocol = _ring(4)
        cases = _population(protocol, 1) * 2  # the same case twice

        def factory(i, c):
            return RandomRFairSchedule(4, r=2, seed=i)

        specs = plan_sweep(protocol, cases, factory, max_steps=40)
        cache = InMemoryCache()
        execute_plan(specs, cache=cache)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_non_stable_cases_cache_like_stable_ones(self):
        # A rotating ring labeling never stabilizes (the engine certifies
        # the orbit as OSCILLATING); non-stable results round-trip from the
        # cache just like stable ones.
        protocol = _ring(3)
        rotating = Labeling(protocol.topology, (1, 0, 0))
        plan = plan_sweep(
            protocol, [SweepCase((0, 0, 0), rotating)], _sync, max_steps=30
        )
        cache = InMemoryCache()
        cold = execute_plan(plan, cache=cache)
        warm = execute_plan(plan, cache=cache)
        assert warm == cold
        assert warm.results[0].outcome is RunOutcome.OSCILLATING
        assert warm.results[0].steps_executed == cold.results[0].steps_executed


def _fair_by_tag(i, case):
    """A seeded fair schedule keyed by the case's tag (see
    :func:`_faults_by_tag`)."""
    return RandomRFairSchedule(len(case.inputs), r=2, seed=case.tag)


class TestBatchChunkBoundaries:
    """The batch runners run ``SWEEP_CHUNK_ROWS`` rows at a time; a run that
    spans several slices reports exactly what the serial runner does, with
    or without a cache, and with its misses scattered among hits."""

    @pytest.mark.parametrize("kind", ["sweep", "resilience"])
    def test_sliced_batch_runs_match_serial(self, monkeypatch, kind):
        from repro.core import batch

        rows = []

        class Recording(batch.BatchSimulator):
            def __init__(self, protocol, inputs, *args, **kwargs):
                rows.append(len(inputs))
                super().__init__(protocol, inputs, *args, **kwargs)

        monkeypatch.setattr(batch, "SWEEP_CHUNK_ROWS", 4)
        monkeypatch.setattr(batch, "BatchSimulator", Recording)
        protocol = _ring(5)

        def plan_of(cases):
            if kind == "sweep":
                return plan_sweep(protocol, cases, _fair_by_tag, max_steps=15)
            return plan_resilience_sweep(
                protocol, cases, _fair_by_tag, _faults_by_tag, max_steps=15
            )

        cases = _population(protocol, 10)
        plan = plan_of(cases)
        serial = execute_plan(plan)
        # Half the cases time out, so a result out of place would show.
        assert len(serial.outcome_counts) == 2
        policy = ExecutionPolicy(executor="batch")
        assert execute_plan(plan, policy=policy) == serial
        assert rows == [4, 4, 2]

        rows.clear()
        cache = InMemoryCache()
        execute_plan(plan_of(cases[::2]), cache=cache)
        scattered = execute_plan(plan, cache=cache, policy=policy)
        warm = execute_plan(plan, cache=cache, policy=policy)
        assert scattered == serial
        assert warm == serial
        assert rows == [4, 1]  # the five odd cases missed
        assert (cache.stats.hits, cache.stats.misses) == (15, 10)
