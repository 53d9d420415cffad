"""The layer map: which public entry points the traced run wraps, the
per-layer metrics their spans and counters feed, and what each metric is
predicted to do on each workload.

A layer is a module of ``repro``.  Every wrapped entry point records spans
under one name, and a span name is its metric's name without the ``_s``:
the self time of all ``core.batch.run`` spans is ``core.batch.run_s``.
Counters come from what the wrapped calls return: batch reports, verdict
``stats`` and cache lookups.

``METRICS`` is the map BENCHMARK.json's ``per_layer`` list is built from:
for each metric, the end-to-end metrics it should move, the workloads it
should move them on, and the workloads where it should read zero.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass

from spans import overhead_fraction, self_times

WORKLOADS = ("batch-sweep", "service-jobs", "verify-clique", "verify-gadget")
SWEEPS = ("batch-sweep", "service-jobs")
VERIFY = ("verify-clique", "verify-gadget")
NOT_SERVICE = ("batch-sweep", *VERIFY)

#: Times that are not shares of the traced wall time.
NOT_SELF_TIME = frozenset(
    {"repro.import_s", "trace.unattributed_s", "core.batch.row_steps_per_s"}
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: The end-to-end metrics this one should move.
    moves: str
    #: Workloads it should move them on (and read nonzero).
    on: tuple
    #: Workloads where it should read zero.
    zero_on: tuple = ()

    @property
    def is_self_time(self) -> bool:
        """Whether the metric is a share of the traced wall time."""
        return self.name.endswith("_s") and self.name not in NOT_SELF_TIME


def _group(layer, names, moves, on, zero_on=()):
    return tuple(
        Metric(f"{layer}.{name}", unit, better, moves, on, zero_on)
        for name, unit, better in names
    )


def _s(name):
    return (name, "s", "lower")


def _n(name, better="lower"):
    return (name, "count", better)


METRICS = (
    Metric("repro.import_s", "s", "lower", "setup_s", SWEEPS),
    Metric(
        "core.configuration.population_s", "s", "lower",
        "op_min_s peak_rss_mb", SWEEPS, VERIFY,
    ),
    Metric("core.compiled.compile_s", "s", "lower", "op_min_s", WORKLOADS),
    Metric(
        "service.plan.plan_s", "s", "lower", "op_min_s", SWEEPS, VERIFY
    ),
    *_group(
        "service.fingerprint", (_s("digest_s"), _n("digests")), "op_min_s",
        ("service-jobs",), NOT_SERVICE,
    ),
    *_group(
        "service.cache",
        (
            _s("get_s"),
            _s("put_s"),
            _s("contains_s"),
            _n("hits", "higher"),
            _n("misses"),
            ("hit_ratio", "ratio", "higher"),
        ),
        "op_min_s", ("service-jobs",), NOT_SERVICE,
    ),
    *_group(
        "statics.preflight", (_s("verify_plan_s"), _n("calls")), "op_min_s",
        ("service-jobs",), NOT_SERVICE,
    ),
    Metric(
        "service.admission.predict_s", "s", "lower", "op_min_s",
        ("service-jobs",), NOT_SERVICE,
    ),
    Metric(
        "analysis.costmodel.estimate_s", "s", "lower", "op_min_s",
        ("service-jobs",), NOT_SERVICE,
    ),
    *_group(
        "service.jobs",
        (_s("submit_s"), _s("queue_wait_s"), _s("finish_s")),
        "op_min_s", ("service-jobs",), NOT_SERVICE,
    ),
    Metric(
        "service.executor.self_s", "s", "lower", "op_min_s",
        SWEEPS, VERIFY,
    ),
    Metric(
        "analysis.sweeps.self_s", "s", "lower", "op_min_s",
        SWEEPS, VERIFY,
    ),
    Metric(
        "analysis.resilience.self_s", "s", "lower", "op_min_s",
        ("service-jobs",), NOT_SERVICE,
    ),
    # The exploration frontier batch-compiles and bulk-encodes too, so only
    # the lockstep run and its row counters read zero on verify-*.
    *_group(
        "core.batch", (_s("compile_s"), _s("encode_s")), "op_min_s",
        WORKLOADS,
    ),
    *_group(
        "core.batch",
        (
            _s("run_s"),
            _n("rows"),
            _n("row_steps"),
            ("row_steps_per_s", "1/s", "higher"),
        ),
        "op_min_s", SWEEPS, VERIFY,
    ),
    *_group(
        "core.batch", (_s("step_codes_s"), _n("step_codes_calls")), "op_min_s",
        VERIFY, SWEEPS,
    ),
    *_group(
        "faults", (_s("fire_batch_s"), _n("fired")), "op_min_s",
        ("service-jobs",), NOT_SERVICE,
    ),
    *_group(
        "stabilization.exploration",
        (
            _s("build_s"),
            _n("states"),
            _n("covered_states", "higher"),
            _n("edges"),
            _n("transition_misses"),
            ("transition_miss_ratio", "ratio", "lower"),
            _n("batch_calls"),
            _n("batch_rows"),
            _n("peak_frontier"),
        ),
        "op_min_s peak_rss_mb", VERIFY, SWEEPS,
    ),
    *_group(
        "graphs.automorphisms",
        (
            _s("group_s"),
            _s("canonical_s"),
            _n("canonicalizations"),
            _n("canonical_cache_hits", "higher"),
        ),
        "op_min_s", ("verify-clique",), ("verify-gadget", *SWEEPS),
    ),
    Metric(
        "stabilization.model_checker.self_s", "s", "lower", "op_min_s",
        VERIFY, SWEEPS,
    ),
    Metric("trace.overhead_frac", "ratio", "lower", "", ()),
    Metric("trace.unattributed_s", "s", "lower", "", ()),
)

METRIC_NAMES = tuple(metric.name for metric in METRICS)


# -- counters read off what wrapped calls return ----------------------------


def _count_rows(counters, args, reports):
    counters["core.batch.rows"] += len(reports)
    counters["core.batch.row_steps"] += sum(r.steps_executed for r in reports)


def _count_lookup(counters, args, value):
    counters["service.cache.misses" if value is None else "service.cache.hits"] += 1


def _count_fired(counters, args, result):
    counters["faults.fired"] += len(args[2])


def _count_verdict(counters, args, verdict):
    stats = verdict.stats
    prefix = "stabilization.exploration."
    for name in ("states", "covered_states", "edges", "batch_calls", "batch_rows"):
        counters[prefix + name] += getattr(stats, name)
    counters[prefix + "transition_misses"] += stats.transition_cache_misses
    counters[prefix + "transition_lookups"] += (
        stats.transition_cache_hits + stats.transition_cache_misses
    )
    peak = prefix + "peak_frontier"
    counters[peak] = max(counters[peak], stats.peak_frontier)
    counters["graphs.automorphisms.canonicalizations"] += stats.canonicalizations
    counters["graphs.automorphisms.canonical_cache_hits"] += (
        stats.canonical_cache_hits
    )


# -- the wrapped entry points -----------------------------------------------


@dataclass(frozen=True)
class Wrap:
    """One entry point: a dotted attribute path inside ``module``."""

    module: str
    attribute: str
    span: str
    #: ``key(args)``: the binding a call adopts on a thread with no open span.
    key: object = None
    #: ``count(counters, args, result)``: counters read off the result.
    count: object = None


def _plan_key(args):
    return id(args[0])


FAULT_MODELS = (
    "RandomCorruption",
    "TargetedCorruption",
    "StuckAtFault",
    "ComposedFault",
)

WRAPS = (
    Wrap("repro.core.compiled", "compile_protocol", "core.compiled.compile"),
    Wrap("repro.core.batch", "batch_compile", "core.batch.compile"),
    Wrap("repro.core.batch", "BatchCompiledProtocol.column", "core.batch.compile"),
    Wrap("repro.core.batch", "BatchSimulator.__init__", "core.batch.compile"),
    Wrap("repro.core.batch", "LabelInterner.bulk_encode", "core.batch.encode"),
    Wrap(
        "repro.core.batch", "BatchSimulator.run_batch", "core.batch.run",
        count=_count_rows,
    ),
    Wrap(
        "repro.core.batch", "BatchSimulator.run_batch_with_faults",
        "core.batch.run", count=_count_rows,
    ),
    Wrap("repro.core.batch", "BatchSimulator.step_codes", "core.batch.step_codes"),
    Wrap("repro.service.plan", "plan_sweep", "service.plan.plan"),
    Wrap("repro.service.plan", "plan_resilience_sweep", "service.plan.plan"),
    Wrap(
        "repro.service.plan", "SweepPlan.case_fingerprint",
        "service.fingerprint.digest",
    ),
    Wrap("repro.service.fingerprint", "fingerprint", "service.fingerprint.digest"),
    Wrap(
        "repro.service.cache", "ResultCache.get", "service.cache.get",
        count=_count_lookup,
    ),
    Wrap("repro.service.cache", "ResultCache.put", "service.cache.put"),
    Wrap("repro.service.cache", "ResultCache.contains", "service.cache.contains"),
    Wrap("repro.statics.preflight", "verify_plan", "statics.preflight.verify_plan"),
    Wrap(
        "repro.service.admission", "predict_plan_cost", "service.admission.predict"
    ),
    Wrap(
        "repro.analysis.costmodel", "estimate_sweep_cost",
        "analysis.costmodel.estimate",
    ),
    Wrap("repro.service.jobs", "SweepService.submit", "service.jobs.submit"),
    Wrap("repro.service.executor", "execute_plan", "service.executor.self"),
    Wrap(
        "repro.service.executor", "iter_shards", "service.executor.self",
        key=_plan_key,
    ),
    Wrap("repro.analysis.sweeps", "run_sweep", "analysis.sweeps.self"),
    Wrap("repro.analysis.sweeps", "EXECUTORS.serial", "analysis.sweeps.self"),
    Wrap("repro.analysis.sweeps", "EXECUTORS.batch", "analysis.sweeps.self"),
    Wrap(
        "repro.analysis.resilience", "run_resilience_sweep",
        "analysis.resilience.self",
    ),
    Wrap("repro.analysis.resilience", "EXECUTORS.serial", "analysis.resilience.self"),
    Wrap("repro.analysis.resilience", "EXECUTORS.batch", "analysis.resilience.self"),
    *(
        Wrap(
            "repro.faults.models", f"{model}.fire_batch", "faults.fire_batch",
            count=_count_fired,
        )
        for model in FAULT_MODELS
    ),
    Wrap(
        "repro.stabilization.exploration", "ExplorationGraph.__init__",
        "stabilization.exploration.build",
    ),
    Wrap(
        "repro.graphs.automorphisms", "protocol_symmetry_group",
        "graphs.automorphisms.group",
    ),
    Wrap(
        "repro.graphs.automorphisms", "StateCanonicalizer.canonical",
        "graphs.automorphisms.canonical",
    ),
    Wrap(
        "repro.stabilization.model_checker", "decide_label_r_stabilizing",
        "stabilization.model_checker.self", count=_count_verdict,
    ),
)


class Installed:
    """Every entry point of ``WRAPS`` traced; ``remove`` restores them.

    Module-level functions are rebound in every ``repro`` module that
    imported them by name, so callers inside the library reach the traced
    version too.  Counters are shared with the service's worker thread and
    updated under a lock.
    """

    def __init__(self, tracer, counters):
        self._tracer = tracer
        self._counters = counters
        self._lock = threading.Lock()
        self._undo: list = []
        try:
            for wrap in WRAPS:
                self._install(wrap)
        except BaseException:
            self.remove()
            raise

    def _install(self, wrap: Wrap) -> None:
        owner = importlib.import_module(wrap.module)
        *path, name = wrap.attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        if isinstance(owner, dict):
            original = owner[name]
            owner[name] = self._traced(original, wrap)
            self._undo.append((dict.__setitem__, owner, name, original))
        elif isinstance(owner, type):
            original = owner.__dict__[name]
            setattr(owner, name, self._traced(original, wrap))
            self._undo.append((setattr, owner, name, original))
        else:
            original = getattr(owner, name)
            traced = self._traced(original, wrap)
            for module_name, module in list(sys.modules.items()):
                if module is None or module_name.split(".")[0] != "repro":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._undo.append((setattr, module, attr, original))

    def _traced(self, fn, wrap: Wrap):
        if wrap.count is not None:
            fn = self._counting(fn, wrap.count)
        return self._tracer.wrap(fn, wrap.span, key=wrap.key)

    def _counting(self, fn, count):
        tracer, counters, lock = self._tracer, self._counters, self._lock

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.recording:
                with lock:
                    count(counters, args, result)
            return result

        return counted

    def remove(self) -> None:
        while self._undo:
            restore, owner, name, original = self._undo.pop()
            restore(owner, name, original)


# -- from spans and counters to metrics -------------------------------------

#: Counters reported per operation under their own names.
PER_OP_COUNTERS = (
    "service.cache.hits",
    "service.cache.misses",
    "core.batch.rows",
    "core.batch.row_steps",
    "faults.fired",
    "stabilization.exploration.states",
    "stabilization.exploration.covered_states",
    "stabilization.exploration.edges",
    "stabilization.exploration.transition_misses",
    "stabilization.exploration.batch_calls",
    "stabilization.exploration.batch_rows",
    "graphs.automorphisms.canonicalizations",
    "graphs.automorphisms.canonical_cache_hits",
)

#: Call counts reported per operation: metric -> span name.
PER_OP_CALLS = {
    "service.fingerprint.digests": "service.fingerprint.digest",
    "statics.preflight.calls": "statics.preflight.verify_plan",
    "core.batch.step_codes_calls": "core.batch.step_codes",
}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _service_waits(children, jobs):
    """Summed over ``bench.job`` spans: submit's end to the worker's first
    shard, and the worker's last shard to the job's end (when ``result`` has
    returned)."""
    queue_wait = finish = 0.0
    for job in jobs:
        submits = [s for s in children[job.id] if s.name == "service.jobs.submit"]
        shards = [
            s
            for s in children[job.id]
            if s.name == "service.executor.self" and s.thread != job.thread
        ]
        if submits and shards:
            queue_wait += max(0.0, shards[0].start - submits[-1].end)
            finish += max(0.0, job.end - shards[-1].end)
    return queue_wait, finish


def layer_values(spans, counters, import_s, untraced_s, traced_s):
    """Every per-layer metric, per operation, plus the accounting check.

    Returns ``(values, wall_s)``: ``wall_s`` is the traced wall time per
    operation, which the self times plus ``trace.unattributed_s`` sum to.
    """
    spans = [span for span in spans if span.end is not None]
    own = self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    children: dict = defaultdict(list)
    for span in spans:
        self_by_name[span.name] += own[span.id]
        calls[span.name] += 1
        children[span.parent].append(span)
    roots = [span for span in spans if span.name == "bench.op"]
    ops = len(roots)
    queue_wait, finish = _service_waits(
        children, [span for span in spans if span.name == "bench.job"]
    )
    bench_self = sum(t for name, t in self_by_name.items() if name.startswith("bench."))

    values = {}
    for metric in METRICS:
        if metric.is_self_time:
            values[metric.name] = self_by_name.get(metric.name[:-2], 0.0) / ops
    values["service.jobs.queue_wait_s"] = queue_wait / ops
    values["service.jobs.finish_s"] = finish / ops
    values["trace.unattributed_s"] = (bench_self - queue_wait - finish) / ops
    values["repro.import_s"] = import_s
    for name in PER_OP_COUNTERS:
        values[name] = counters[name] / ops
    for name, span_name in PER_OP_CALLS.items():
        values[name] = calls[span_name] / ops
    values["service.cache.hit_ratio"] = _ratio(
        counters["service.cache.hits"],
        counters["service.cache.hits"] + counters["service.cache.misses"],
    )
    values["core.batch.row_steps_per_s"] = _ratio(
        counters["core.batch.row_steps"], self_by_name["core.batch.run"]
    )
    exploration = "stabilization.exploration."
    values[exploration + "transition_miss_ratio"] = _ratio(
        counters[exploration + "transition_misses"],
        counters[exploration + "transition_lookups"],
    )
    values[exploration + "peak_frontier"] = counters[exploration + "peak_frontier"]
    values["trace.overhead_frac"] = overhead_fraction(untraced_s, traced_s)
    wall_s = sum(root.duration for root in roots) / ops
    return {name: values[name] for name in METRIC_NAMES}, wall_s


def check_predictions(workload, values, wall_s, spans):
    """The design predictions for ``workload``: description -> held."""
    held = {}
    for metric in METRICS:
        if workload in metric.zero_on:
            held[f"{metric.name} == 0"] = values[metric.name] == 0
        elif workload in metric.on:
            held[f"{metric.name} > 0"] = values[metric.name] > 0
    attributed = values["trace.unattributed_s"] + sum(
        values[metric.name] for metric in METRICS if metric.is_self_time
    )
    held["self times + trace.unattributed_s == traced wall (1%)"] = (
        abs(attributed - wall_s) <= 0.01 * wall_s + 1e-3
    )
    if workload == "service-jobs":
        ratio = values["service.cache.hit_ratio"]
        held["0.4 <= service.cache.hit_ratio <= 0.6"] = 0.4 <= ratio <= 0.6
    if workload == "verify-clique":
        per_task = Counter(
            span.request.split("/")[0]
            for span in spans
            if span.name == "core.batch.step_codes"
        )
        held["core.batch.step_codes_calls > 0 on K5"] = per_task["K5"] > 0
        held["core.batch.step_codes_calls == 0 on K6q"] = per_task["K6q"] == 0
    return held
