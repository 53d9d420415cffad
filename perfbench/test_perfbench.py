"""Tests of the benchmark's own arithmetic: self time across threads, the
tail-percentile rule, failure counting, overhead, and the layer accounting.

    python3 -m pytest perfbench -q
"""

import json
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import METRICS, WRAPS, check_predictions, layer_values  # noqa: E402
from spans import (  # noqa: E402
    Tally,
    Tracer,
    covered_length,
    overhead_fraction,
    percentile,
    samples_beyond,
    self_times,
    tail_percentile,
)


class FakeClock:
    """A clock the test sets by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def on_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_covered_length_merges_and_clips():
    assert covered_length(0, 10, [(2, 4), (3, 6), (8, 12), (-5, 1)]) == 4 + 2 + 1
    assert covered_length(0, 10, []) == 0
    assert covered_length(5, 6, [(0, 1)]) == 0


def test_self_time_subtracts_children_on_another_thread():
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.open("bench.op", request="job-1")
    tracer.bind("plan", root)

    clock.now = 1.0
    submit = tracer.open("service.jobs.submit")
    clock.now = 2.0
    tracer.close(submit)

    def worker():
        clock.now = 3.0
        shard = tracer.open("service.executor.self", key="plan")
        clock.now = 4.0
        get = tracer.open("service.cache.get")
        clock.now = 5.0
        tracer.close(get)
        clock.now = 8.0
        tracer.close(shard)

    on_thread(worker)
    clock.now = 10.0
    tracer.close(root)

    by_name = {span.name: span for span in tracer.spans}
    shard = by_name["service.executor.self"]
    assert shard.parent == root.id
    assert shard.thread != root.thread
    assert by_name["service.cache.get"].request == "job-1"
    own = self_times(tracer.spans)
    assert own[root.id] == pytest.approx(10 - 1 - 5)
    assert own[shard.id] == pytest.approx(5 - 1)
    assert sum(own.values()) == pytest.approx(root.duration)


def test_child_outside_its_parent_counts_only_inside():
    clock = FakeClock()
    tracer = Tracer(clock)
    parent = tracer.open("parent")
    tracer.bind("k", parent)
    clock.now = 4.0
    tracer.close(parent)

    def late_child():
        clock.now = 3.0
        child = tracer.open("child", key="k")
        clock.now = 6.0
        tracer.close(child)

    on_thread(late_child)
    assert self_times(tracer.spans)[parent.id] == pytest.approx(3.0)


def test_generator_span_covers_first_next_to_exhaustion():
    clock = FakeClock()
    tracer = Tracer(clock)

    def shards():
        clock.now += 1
        yield 1
        clock.now += 1
        yield 2

    traced = tracer.wrap(shards, "gen")
    clock.now = 10.0
    items = []
    for item in traced():
        items.append(item)
        clock.now += 5  # the consumer's time between items
    assert items == [1, 2]
    (span,) = tracer.spans
    assert (span.start, span.end) == (10.0, 22.0)


def test_paused_tracer_records_nothing():
    tracer = Tracer(FakeClock())
    traced = tracer.wrap(lambda: 7, "f")
    with tracer.paused():
        assert traced() == 7
    assert tracer.spans == []
    assert traced() == 7
    assert len(tracer.spans) == 1


def test_percentile_interpolates():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 90) == pytest.approx(90.1)
    assert samples_beyond(values, 90) == 10


@pytest.mark.parametrize(
    ("count", "expected"),
    [(1000, 99.0), (200, 95.0), (100, 90.0), (20, 50.0), (10, None)],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    values = [float(v) for v in range(1, count + 1)]
    tail = tail_percentile(values)
    if expected is None:
        assert tail is None
    else:
        q, value = tail
        assert q == expected
        assert samples_beyond(values, q) >= 10
        assert value == pytest.approx(percentile(values, q))


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    tally.add(True)
    tally.add(False, "job 2 failed")
    tally.add_many(100, 3, "3 rows")
    tally.add_many(0, 1, "subset row")
    assert (tally.attempted, tally.failed) == (102, 5)
    assert tally.reasons == ["job 2 failed", "3 rows", "subset row"]


def test_batch_sweep_counts_rows_that_miss_the_budget():
    import repro
    from workloads import BatchSweep

    workload = BatchSweep(seed=0, run_dir=None)
    workload.repro = repro
    workload.CONFIGURATIONS = 4
    workload.subset = None
    timeout = repro.core.RunOutcome.TIMEOUT
    stable = repro.core.RunOutcome.LABEL_STABLE
    rows = [
        SimpleNamespace(outcome=timeout, steps_executed=workload.STEPS),
        SimpleNamespace(outcome=stable, steps_executed=3),
        SimpleNamespace(outcome=timeout, steps_executed=workload.STEPS - 1),
        SimpleNamespace(outcome=timeout, steps_executed=workload.STEPS),
    ]
    tally = Tally()
    workload.check(0, SimpleNamespace(results=tuple(rows)), tally)
    assert (tally.attempted, tally.failed) == (4, 2)


def test_overhead_fraction_compares_medians():
    assert overhead_fraction([1.0, 1.0, 9.0], [1.1, 1.1, 0.1]) == pytest.approx(0.1)
    assert overhead_fraction([2.0], [1.5]) == pytest.approx(-0.25)


def test_layer_accounting_sums_to_the_traced_wall():
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.open("bench.op")
    job = tracer.open("bench.job")
    tracer.bind("plan", job)
    clock.now = 1.0
    submit = tracer.open("service.jobs.submit")
    clock.now = 2.0
    tracer.close(submit)

    def worker():
        clock.now = 3.0
        shard = tracer.open("service.executor.self", key="plan")
        clock.now = 4.0
        get = tracer.open("service.cache.get")
        clock.now = 5.0
        tracer.close(get)
        clock.now = 8.0
        tracer.close(shard)

    on_thread(worker)
    clock.now = 10.0
    tracer.close(job)
    tracer.close(root)

    counters = Counter({"service.cache.hits": 1, "service.cache.misses": 3})
    values, wall_s = layer_values(tracer.spans, counters, 0.5, [1.0], [1.2])
    assert wall_s == 10.0
    assert values["service.jobs.queue_wait_s"] == pytest.approx(1.0)
    assert values["service.jobs.finish_s"] == pytest.approx(2.0)
    # The job's own time is [0, 1], the queue wait [2, 3] and the finish
    # [8, 10]; only the first is nobody's.
    assert values["trace.unattributed_s"] == pytest.approx(1.0)
    assert values["service.cache.hit_ratio"] == pytest.approx(0.25)
    assert values["trace.overhead_frac"] == pytest.approx(0.2)
    held = check_predictions("service-jobs", values, wall_s, tracer.spans)
    assert held["self times + trace.unattributed_s == traced wall (1%)"]
    assert not held["0.4 <= service.cache.hit_ratio <= 0.6"]


def test_every_span_feeds_a_metric():
    names = {metric.name for metric in METRICS}
    assert len(names) == len(METRICS)
    for wrap in WRAPS:
        assert wrap.span + "_s" in names
    assert "core.configuration.population_s" in names


def test_benchmark_json_matches_the_code():
    import run
    from workloads import WORKLOAD_TYPES

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOAD_TYPES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END.items()
    )
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
