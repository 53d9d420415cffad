"""Thread-aware span recording and the arithmetic the benchmark reports.

A span is one call into a layer: its name, start, end, the span that caused
it, and the request (job or verdict) it serves.  Spans stay in memory while
the benchmark runs and are written out when it ends.

Service jobs run on the service's worker thread, so a span can start on a
thread where no span is open.  Such a span takes its parent from a *binding*
the caller made beforehand (``Tracer.bind``), keyed by an object both sides
see, such as the submitted plan.  A span's self time is its duration minus
the part of its interval that its children cover, wherever they ran.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    """One recorded call: ``[start, end]`` on the tracer's clock."""

    __slots__ = ("id", "name", "parent", "request", "thread", "start", "end")

    def __init__(self, span_id, name, parent, request, thread, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.thread = thread
        self.start = start
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> list:
        return [
            self.id,
            self.name,
            self.parent,
            self.request,
            self.thread,
            self.start,
            self.end,
        ]


class Tracer:
    """Records spans from any thread into one in-memory list."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._bound: dict = {}
        #: Wrapped calls record nothing while this is false.
        self.recording = True

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind(self, key, span: Span) -> None:
        """Adopt spans that open under ``key`` on a thread with no open span."""
        self._bound[key] = span

    def bind_current(self, key) -> None:
        """``bind`` ``key`` to the span open on the calling thread."""
        self.bind(key, self._stack()[-1])

    def unbind(self, key) -> None:
        self._bound.pop(key, None)

    def open(self, name: str, *, request=None, key=None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._bound.get(key) if key is not None else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            next(self._ids),
            name,
            parent.id if parent is not None else None,
            request,
            threading.get_ident(),
            self.clock(),
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str, *, request=None):
        opened = self.open(name, request=request)
        try:
            yield opened
        finally:
            self.close(opened)

    def wrap(self, fn, name: str, key=None):
        """``fn`` recording one span per call.

        ``key(args)`` names the binding a call adopts when it starts on a
        thread with no open span.  A generator function's span runs from
        its first ``next`` to its end.
        """
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if not self.recording:
                    return fn(*args, **kwargs)
                bound = key(args) if key is not None else None
                return self._traced_iter(fn(*args, **kwargs), name, bound)

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self.open(name, key=key(args) if key is not None else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    def _traced_iter(self, iterator, name, key):
        span = self.open(name, key=key)
        try:
            while True:
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                # Between items the consumer runs; spans it opens are not
                # this generator's children.
                self._stack().pop()
                try:
                    yield item
                finally:
                    self._stack().append(span)
        finally:
            self.close(span)


class NullTracer:
    """The untraced run's stand-in: benchmark-side spans cost nothing."""

    @contextmanager
    def paused(self):
        yield

    def bind_current(self, key) -> None:
        pass

    def unbind(self, key) -> None:
        pass

    @contextmanager
    def span(self, name: str, *, request=None):
        yield None


def covered_length(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start
    )
    total = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if hi <= lo:
            continue
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.

    Children may have run on another thread; overlapping children count
    once, and a child reaching outside its parent counts only inside it.
    """
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - covered_length(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    lo = math.floor(position)
    hi = math.ceil(position)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def samples_beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


#: Percentiles considered for a tail latency, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values, minimum_beyond: int = 10):
    """The highest percentile with at least ``minimum_beyond`` samples above
    it, as ``(q, value)``; ``None`` when even the median has too few."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(values, q) >= minimum_beyond:
            return q, percentile(values, q)
    return None


def overhead_fraction(untraced_s, traced_s) -> float:
    """Tracing overhead as a share of the untraced median operation time."""
    base = statistics.median(untraced_s)
    return (statistics.median(traced_s) - base) / base


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def add_many(self, attempted: int, failed: int, reason: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.reasons) < 20:
            self.reasons.append(reason)
