"""Tests for the sweep job service and its CLI.

Lifecycle (submit/status/stream/result/cancel), cache-served resubmission,
BENCH-style job records, and the ``python -m repro.service`` entry point.
"""

import gc
import io
import json
import pickle
import sys
import threading
import weakref

import pytest

from repro.analysis import SweepCase, run_sweep
from repro.core import (
    StatelessProtocol,
    SynchronousSchedule,
    UniformReaction,
    binary,
)
from repro.exceptions import JobError, ValidationError
from repro.faults.models import RandomCorruption
from repro.faults.schedules import NoFaults, OneShotFault
from repro.graphs import unidirectional_ring
from repro.service import (
    InMemoryCache,
    JobState,
    SweepService,
    plan_resilience_sweep,
    plan_sweep,
)
from repro.service import jobs as jobs_module
from repro.service.__main__ import main as service_main

from tests.helpers import random_bit_labeling


# Module-level reaction so plans pickle for the CLI round-trip tests.
def _forward_bit(incoming, _x):
    (value,) = incoming.values()
    return value, value


def _ring(n):
    topology = unidirectional_ring(n)
    reactions = [
        UniformReaction(topology.out_edges(i), _forward_bit) for i in range(n)
    ]
    return StatelessProtocol(topology, binary(), reactions, name="ring")


def _sync(index, case):
    return SynchronousSchedule(len(case.inputs))


def _plan(count=8, n=4, max_steps=60):
    protocol = _ring(n)
    cases = [
        SweepCase(
            (0,) * n, random_bit_labeling(protocol.topology, seed=s), tag=s
        )
        for s in range(count)
    ]
    return plan_sweep(protocol, cases, _sync, max_steps=max_steps), protocol, cases


class TestSweepService:
    def test_submit_result_lifecycle(self):
        plan, protocol, cases = _plan()
        one_shot = run_sweep(protocol, cases, _sync, max_steps=60)
        with SweepService() as service:
            job_id = service.submit(plan)
            assert plan.plan_fingerprint[:12] in job_id
            report = service.result(job_id, timeout=30)
            assert report == one_shot
            status = service.status(job_id)
            assert status.state is JobState.DONE
            assert status.cases_done == status.total_cases == 8
            assert status.error is None
            assert "done" in status.describe()

    def test_stream_yields_every_shard_and_ends(self):
        plan, protocol, cases = _plan()
        one_shot = run_sweep(protocol, cases, _sync, max_steps=60)
        with SweepService() as service:
            job_id = service.submit(plan, shard_size=3)
            seen = list(service.stream(job_id))
            assert [len(p.results) for p in seen] == [3, 3, 2]
            assert seen[-1].done
            assert seen[-1].aggregate == one_shot

    def test_identical_resubmission_is_cache_served(self):
        plan, protocol, cases = _plan()
        with SweepService() as service:
            first = service.result(service.submit(plan), timeout=30)
            second_id = service.submit(plan)
            second = service.result(second_id, timeout=30)
            assert second == first
            status = service.status(second_id)
            assert status.cache_hits == 8
            assert status.cache_misses == 0

    def test_unknown_job_raises(self):
        with SweepService() as service:
            with pytest.raises(JobError, match="unknown job"):
                service.status("job-999-cafebabe")

    def test_failed_job_surfaces_its_error(self):
        plan, _, _ = _plan(count=2)

        class BrokenCache(InMemoryCache):
            def _load(self, key):
                raise OSError("store unavailable")

        with SweepService(cache=BrokenCache()) as service:
            # The store fails at run time -> the worker fails the job
            # instead of crashing the service.
            job_id = service.submit(plan)
            with pytest.raises(JobError, match="failed"):
                service.result(job_id, timeout=30)
            status = service.status(job_id)
            assert status.state is JobState.FAILED
            assert "store unavailable" in status.error
            # the stream sees the same terminal failure
            with pytest.raises(JobError, match="failed"):
                list(service.stream(job_id))

    def test_cancel_between_shards(self):
        plan, _, _ = _plan(count=6, max_steps=60)
        release = threading.Event()

        class GatedCache(InMemoryCache):
            # Blocks the worker inside shard 1 until the test has cancelled,
            # making "cancel strikes between shards" deterministic.
            def _load(self, key):
                release.wait(timeout=30)
                return super()._load(key)

        with SweepService(cache=GatedCache()) as service:
            job_id = service.submit(plan, shard_size=2)
            assert service.cancel(job_id) is True
            release.set()
            with pytest.raises(JobError, match="cancelled"):
                service.result(job_id, timeout=30)
            status = service.status(job_id)
            assert status.state is JobState.CANCELLED
            assert status.shards_done < 3
            # cancelling a terminal job is a no-op
            assert service.cancel(job_id) is False

    def test_cancel_pending_job_never_runs(self):
        plan, _, _ = _plan(count=2)
        gate = threading.Event()

        class GatedCache(InMemoryCache):
            def _load(self, key):
                gate.wait(timeout=30)
                return super()._load(key)

        with SweepService(cache=GatedCache()) as service:
            blocker = service.submit(plan)  # occupies the single worker
            victim = service.submit(plan)
            assert service.cancel(victim) is True
            assert service.status(victim).state is JobState.CANCELLED
            gate.set()
            service.result(blocker, timeout=30)
            assert service.status(victim).shards_done == 0

    def test_a_finished_job_releases_its_plan(self):
        plan, protocol, cases = _plan()
        one_shot = run_sweep(protocol, cases, _sync, max_steps=60)
        released = weakref.ref(plan)
        with SweepService() as service:
            job_id = service.submit(plan, shard_size=3)
            service.result(job_id, timeout=30)
        del plan
        gc.collect()
        assert released() is None
        status = service.status(job_id)
        assert status.state is JobState.DONE
        assert (status.kind, status.total_cases, status.cases_done) == ("sweep", 8, 8)
        assert service.result(job_id) == one_shot
        progress = list(service.stream(job_id))
        assert len(progress) == status.shards_done == 3
        assert progress[-1].aggregate == one_shot
        assert service.jobs() == [status]

    def test_closed_service_rejects_submissions(self):
        plan, _, _ = _plan(count=1)
        service = SweepService()
        service.close()
        with pytest.raises(JobError, match="closed"):
            service.submit(plan)

    def test_jobs_lists_in_submission_order(self):
        plan, _, _ = _plan(count=2)
        with SweepService() as service:
            ids = [service.submit(plan) for _ in range(3)]
            service.result(ids[-1], timeout=30)
            assert [status.job_id for status in service.jobs()] == ids

    def test_the_job_table_keeps_the_newest_finished_jobs(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "FINISHED_JOB_LIMIT", 2)
        plan, protocol, cases = _plan(count=2)
        gate = threading.Event()

        class GatedCache(InMemoryCache):
            def _load(self, key):
                gate.wait(timeout=30)
                return super()._load(key)

        with SweepService(cache=GatedCache()) as service:
            first = service.submit(plan)  # occupies the single worker
            queued = [service.submit(plan) for _ in range(4)]
            for job_id in queued[:3]:
                assert service.cancel(job_id) is True
            # Three jobs ended and the newest two are kept; no unfinished
            # job is ever dropped.
            with pytest.raises(JobError, match="unknown job"):
                service.status(queued[0])
            assert [s.job_id for s in service.jobs()] == [first, *queued[1:]]
            gate.set()
            service.result(queued[3], timeout=30)
            assert [s.job_id for s in service.jobs()] == [first, queued[3]]
            assert service.result(first) == run_sweep(
                protocol, cases, _sync, max_steps=60
            )

    def test_concurrent_finishes_keep_the_table_bounded(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "FINISHED_JOB_LIMIT", 3)
        plan, _, _ = _plan(count=2)
        ids = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            service = SweepService(workers=4)

            def client():
                for _ in range(5):
                    ids.append(service.submit(plan))

            clients = [threading.Thread(target=client) for _ in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in clients)
            service.close()  # waits for every queued job
        finally:
            sys.setswitchinterval(interval)
        assert len(set(ids)) == 20
        kept = service.jobs()
        assert [status.state for status in kept] == [JobState.DONE] * 3
        assert {status.job_id for status in kept} <= set(ids)

    def test_a_stream_outlives_its_forgotten_job(self, monkeypatch):
        monkeypatch.setattr(jobs_module, "FINISHED_JOB_LIMIT", 2)
        plan, _, _ = _plan(count=2)
        with SweepService() as service:
            job_id = service.submit(plan, shard_size=1)
            service.result(job_id, timeout=30)
            progress = service.stream(job_id)
            first = next(progress)  # the stream has looked its job up
            for _ in range(2):
                service.result(service.submit(plan), timeout=30)
            with pytest.raises(JobError, match="unknown job"):
                service.status(job_id)
            rest = list(progress)
        assert [p.shard for p in (first, *rest)] == [0, 1]

    def test_workers_validation(self):
        for workers in (0, True, 1.5, "2"):
            with pytest.raises(ValidationError, match="workers"):
                SweepService(workers=workers)

    @pytest.mark.parametrize("shard_size", [0, 2.5, True])
    def test_bad_shard_size_is_rejected_before_anything_is_queued(self, shard_size):
        plan, _, _ = _plan(count=2)
        with SweepService() as service:
            with pytest.raises(ValidationError, match="shard_size"):
                service.submit(plan, shard_size=shard_size)
            assert service.jobs() == []

    def test_bad_recovered_is_rejected_before_anything_is_queued(self):
        plan, protocol, cases = _plan(count=2)
        resilience = plan_resilience_sweep(
            protocol, cases, _sync, lambda i, c: NoFaults(), max_steps=60
        )
        with SweepService() as service:
            with pytest.raises(ValidationError, match="resilience criterion"):
                service.submit(plan, recovered="label")
            with pytest.raises(ValidationError, match="unknown recovery"):
                service.submit(resilience, recovered="sometimes")
            assert service.jobs() == []

    def test_two_workers_share_one_cache(self):
        plan, _, _ = _plan()
        distinct = len(set(plan.case_fingerprints()))
        with SweepService(workers=2) as service:
            ids = [service.submit(plan) for _ in range(4)]
            reports = [service.result(job_id, timeout=30) for job_id in ids]
            assert all(report == reports[0] for report in reports)
            stats = service.cache.stats
            # Every simulated case landed in the shared store; later jobs
            # hit it (racing jobs may each simulate a case once, so the
            # only hard bounds are these).
            assert stats.hits >= len(plan)
            assert len(service.cache) == distinct


class TestJobRecords:
    def test_record_shape_and_history_folding(self, tmp_path):
        plan, _, _ = _plan(count=4)
        records = tmp_path / "records"
        with SweepService(records_dir=records) as service:
            service.result(service.submit(plan), timeout=30)
            service.result(service.submit(plan), timeout=30)
        (path,) = records.glob("JOB_*.json")
        assert path.name == f"JOB_{plan.plan_fingerprint[:16]}.json"
        record = json.loads(path.read_text())
        entries = record["entries"]
        assert entries["state"] == "done"
        assert entries["kind"] == "sweep"
        assert entries["cases"] == entries["cases_done"] == 4
        assert entries["cache_hits"] == 4  # the warm resubmission
        assert sum(entries["outcomes"].values()) == 4
        assert entries["elapsed_s"] >= 0
        # the cold run was folded into history, newest last
        assert len(record["history"]) == 1
        assert record["history"][0]["entries"]["cache_misses"] == 4

    def test_resilience_record_counts_recoveries(self, tmp_path):
        protocol = _ring(4)
        cases = [
            SweepCase((0,) * 4, random_bit_labeling(protocol.topology, seed=s))
            for s in range(3)
        ]
        plan = plan_resilience_sweep(
            protocol,
            cases,
            _sync,
            lambda i, c: OneShotFault(2, RandomCorruption(0.5, seed=i))
            if i
            else NoFaults(),
            max_steps=60,
        )
        with SweepService(records_dir=tmp_path) as service:
            service.result(service.submit(plan), timeout=30)
        (path,) = tmp_path.glob("JOB_*.json")
        entries = json.loads(path.read_text())["entries"]
        assert entries["kind"] == "resilience"
        assert "recovered" in entries


class TestCli:
    def test_demo_shows_warm_resubmission(self):
        out = io.StringIO()
        assert service_main(["demo", "--cases", "6"], out=out) == 0
        text = out.getvalue()
        assert "cold submission" in text
        assert "warm resubmission" in text
        assert "hits" in text
        assert "report: SweepReport" in text

    def test_run_and_inspect_a_pickled_plan(self, tmp_path):
        plan, _, _ = _plan(count=3)
        path = tmp_path / "plan.pkl"
        path.write_bytes(pickle.dumps(plan))

        out = io.StringIO()
        assert service_main(["inspect", str(path)], out=out) == 0
        assert plan.plan_fingerprint in out.getvalue()
        assert plan.case_fingerprints()[0] in out.getvalue()

        out = io.StringIO()
        cache = tmp_path / "cache.db"
        args = ["run", str(path), "--cache", str(cache), "--shard-size", "2"]
        assert service_main(args, out=out) == 0
        assert "misses" in out.getvalue()
        # second invocation over the on-disk cache is fully warm
        out = io.StringIO()
        assert service_main(args, out=out) == 0
        assert "cache 3 hits / 0 misses" in out.getvalue()

    def test_run_rejects_non_plan_pickles(self, tmp_path):
        path = tmp_path / "junk.pkl"
        path.write_bytes(pickle.dumps({"not": "a plan"}))
        with pytest.raises(SystemExit, match="does not contain a SweepPlan"):
            service_main(["run", str(path)], out=io.StringIO())
