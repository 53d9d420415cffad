"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload service-jobs --seed 1 --seconds 36 --trace 0

Run from the repository root; ``repro`` is imported from ``src/``.  After
one untimed warm-up operation, the workload repeats its operation until
``--seconds`` of operation time have passed (and at least its minimum number
of operations ran), checking every result outside the timed region.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
untraced loop, then a traced one, and reports the per-layer metrics
(BENCHMARK.json lists both).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run outputs
(job records, the span file) go under ``.perfbench-out/``.

Operation time is reported as the fastest operation of the run.  Every
operation of a run does the same work, and on a shared host other tenants
only ever add time: on a shared two-core host the same code ran at two
speeds about 1.6 times apart, switching every few seconds, with the slow
share changing from run to run.  Medians and upper percentiles follow that
share; the fastest operation is the estimate of the program's own cost that
repeats.  The median and the highest percentile with ten samples beyond it
are printed beside it, with the sample count.
"""

import argparse
import gc
import gzip
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
#: Fresh processes timed from spawn to readiness, spread over the run;
#: setup_s is their median.
SETUP_SAMPLES = 7

#: Field order of each span in the span file.
SPAN_COLUMNS = ["id", "name", "parent", "request", "thread", "start", "end"]

#: name -> unit; BENCHMARK.json's end_to_end list.
END_TO_END = {
    "setup_s": "s",
    "op_min_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    from workloads import WORKLOAD_TYPES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_TYPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_repro():
    """``repro`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: repro imported from {repro.__file__}, not {SRC}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, tracer, seconds, first_op, tally, min_ops=None, between=None):
    """Operations until ``seconds`` of operation time and ``min_ops`` (by
    default the workload's minimum).

    Returns their durations, the configurations they decided, the next
    operation's index, and the peak RSS after the first ``min_ops`` of
    them: a fixed amount of work, so the figure does not grow with speed.
    ``between(op_seconds)`` runs after each operation's check, outside the
    timed region, with the operation time so far.
    """
    if min_ops is None:
        min_ops = workload.min_ops
    durations, configurations, rss_mb = [], 0, None
    k = first_op
    while sum(durations) < seconds or len(durations) < min_ops:
        if workload.one_shot:
            gc.collect()
        start = time.perf_counter()
        with tracer.span("bench.op", request=f"{workload.name}/{k}"):
            result, decided = workload.op(tracer, k)
        durations.append(time.perf_counter() - start)
        configurations += decided
        with tracer.paused():
            workload.check(k, result, tally)
        del result
        if len(durations) == min_ops:
            rss_mb = peak_rss_mb()
        if between is not None:
            between(sum(durations))
        k += 1
    return durations, configurations, k, rss_mb


def setup_sample(args) -> float:
    """Seconds from spawning a fresh run of this workload to its readiness."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-only",
    ]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up run exited {code} after {line!r}")
    return elapsed


def spread_setup_samples(args, samples: list):
    """A ``between`` hook for ``measure`` that appends set-up times to
    ``samples``, spread evenly over the run's operation time, so that their
    median meets the host's slow spells in proportion rather than in one
    stretch."""

    def between(op_seconds: float) -> None:
        due = len(samples) * args.seconds / SETUP_SAMPLES
        if len(samples) < SETUP_SAMPLES and op_seconds >= due:
            samples.append(setup_sample(args))

    return between


def git_sha():
    """HEAD of the checkout when it is a git repository, read from files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _version(package):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(args, workload):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **workload.provenance(),
    }


def end_to_end(args, setup_s, durations, rss_mb):
    while len(setup_s) < SETUP_SAMPLES:
        setup_s.append(setup_sample(args))
    return {
        "setup_s": statistics.median(setup_s),
        "op_min_s": min(durations),
        "peak_rss_mb": rss_mb,
    }


def traced_run(args, workload, first_op, import_s, untraced, tally):
    """The traced loop; writes the spans and returns the per-layer metrics."""
    from layers import METRICS, Installed, check_predictions, layer_values
    from spans import Tracer

    tracer = Tracer()
    counters: Counter = Counter()
    installed = Installed(tracer, counters)
    try:
        traced = measure(workload, tracer, args.seconds, first_op, tally)[0]
    finally:
        installed.remove()
    values, wall_s = layer_values(tracer.spans, counters, import_s, untraced, traced)
    held = check_predictions(args.workload, values, wall_s, tracer.spans)
    for claim, ok in held.items():
        print(f"prediction {'holds' if ok else 'FAILS'}: {claim}")
    print(f"traced operations: {len(traced)}; traced wall per operation {wall_s:.6f} s")
    with gzip.open(workload.run_dir / "trace.json.gz", "wt") as handle:
        json.dump(
            {
                "provenance": provenance(args, workload),
                "columns": SPAN_COLUMNS,
                "spans": [span.record() for span in tracer.spans],
                "counters": dict(counters),
                "metrics": values,
                "predictions": held,
            },
            handle,
        )
    units = {metric.name: metric.unit for metric in METRICS}
    return {name: (value, units[name]) for name, value in values.items()}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    from spans import NullTracer, Tally, tail_percentile
    from workloads import WORKLOAD_TYPES

    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    workload = WORKLOAD_TYPES[args.workload](args.seed, run_dir)
    start = time.perf_counter()
    import_repro()
    workload.import_modules()
    import_s = time.perf_counter() - start
    workload.setup()
    if args.setup_only:
        print("ready", flush=True)
        workload.close()
        return 0
    in_process_setup_s = time.perf_counter() - started

    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tally = Tally()
    setup_s: list[float] = []
    between = None if args.trace else spread_setup_samples(args, setup_s)
    try:
        # One untimed, checked operation first: later operations then run in
        # a warm process (heap pages touched, module-wide caches filled).
        first_op = measure(workload, NullTracer(), 0, 0, tally, min_ops=1)[2]
        durations, configurations, next_op, rss_mb = measure(
            workload, NullTracer(), args.seconds, first_op, tally, between=between
        )
        if args.trace:
            metrics = traced_run(args, workload, next_op, import_s, durations, tally)
        workload.finish(tally)
    finally:
        workload.close()
    if not args.trace:
        values = end_to_end(args, setup_s, durations, rss_mb)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    print("provenance " + json.dumps(provenance(args, workload), sort_keys=True))
    tail = tail_percentile(durations)
    print(
        f"operations: {len(durations)} untraced;"
        f" median {statistics.median(durations):.4f} s;"
        " highest percentile with ten samples beyond it: "
        + (f"p{tail[0]:g} = {tail[1]:.4f} s" if tail else "none")
        + f"; {configurations / sum(durations):.1f} configurations/s;"
        f" in-process set-up {in_process_setup_s:.3f} s,"
        f" repro imports {import_s:.3f} s"
    )
    print("operation seconds: " + " ".join(f"{d:.4f}" for d in durations))
    for reason in tally.reasons:
        print(f"failure: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:>16.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
