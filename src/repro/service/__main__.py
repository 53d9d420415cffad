"""CLI front-end for the sweep service: ``python -m repro.service``.

Three subcommands:

``demo``
    Build a small Example-1 clique sweep, submit it through a local
    :class:`~repro.service.jobs.SweepService`, stream the shard progress,
    then resubmit the identical plan to show the content-addressed cache
    serving it (and assert the two reports are equal, bit for bit).

``run PLAN.pkl``
    Execute a pickled :class:`~repro.service.plan.SweepPlan` (built with
    :func:`repro.service.plan_sweep` / :func:`plan_resilience_sweep` and
    ``pickle.dump``-ed), streaming progress to stdout.

``inspect PLAN.pkl``
    Print a plan's shape and fingerprints without running anything.

Both ``demo`` and ``run`` take ``--cache PATH`` to back the service with an
on-disk :class:`~repro.service.cache.SqliteCache` — rerunning the same
command then starts from a warm cache.
"""

from __future__ import annotations

import argparse
import pickle
import random
import sys

from repro.core import Labeling
from repro.core.schedule import SynchronousSchedule
from repro.policy import ExecutionPolicy
from repro.service.cache import InMemoryCache, SqliteCache
from repro.service.jobs import SweepService
from repro.service.plan import SweepPlan, plan_sweep


def _open_cache(path):
    return InMemoryCache() if path is None else SqliteCache(path)


def _load_plan(path) -> SweepPlan:
    with open(path, "rb") as stream:
        plan = pickle.load(stream)
    if not isinstance(plan, SweepPlan):
        raise SystemExit(f"{path} does not contain a SweepPlan: {plan!r}")
    return plan


def _stream_job(service, job_id, out) -> None:
    for progress in service.stream(job_id):
        print(f"  {progress.describe()}", file=out, flush=True)


def _demo_plan(cases: int, max_steps: int) -> SweepPlan:
    from repro.analysis.sweeps import SweepCase
    from repro.stabilization.example_clique import example1_protocol

    protocol = example1_protocol(4)
    topology = protocol.topology
    rng = random.Random(0)
    population = [
        SweepCase(
            (0,) * topology.n,
            Labeling(
                topology, tuple(rng.randrange(2) for _ in range(topology.m))
            ),
            tag=k,
        )
        for k in range(cases)
    ]
    return plan_sweep(
        protocol,
        population,
        lambda i, case: SynchronousSchedule(topology.n),
        max_steps=max_steps,
    )


def cmd_demo(args, out=sys.stdout) -> int:
    plan = _demo_plan(args.cases, args.max_steps)
    print(f"plan: {plan.describe()}", file=out)
    print(f"plan fingerprint: {plan.plan_fingerprint}", file=out)
    with _open_cache(args.cache) as cache:
        with SweepService(cache=cache, records_dir=args.records_dir) as service:
            options = {
                "policy": ExecutionPolicy(executor=args.executor),
                "shard_size": args.shard_size,
            }
            print("cold submission:", file=out)
            first = service.submit(plan, **options)
            _stream_job(service, first, out)
            print("warm resubmission (same plan):", file=out)
            second = service.submit(plan, **options)
            _stream_job(service, second, out)
            cold, warm = service.result(first), service.result(second)
            assert warm == cold, "cache-served report differs from computed"
            print(f"report: {cold.describe()}", file=out)
            print(f"cache: {cache.stats.describe()}", file=out)
    return 0


def cmd_run(args, out=sys.stdout) -> int:
    plan = _load_plan(args.plan)
    print(f"plan: {plan.describe()}", file=out)
    with _open_cache(args.cache) as cache:
        with SweepService(cache=cache, records_dir=args.records_dir) as service:
            job_id = service.submit(
                plan,
                policy=ExecutionPolicy(executor=args.executor),
                shard_size=args.shard_size,
                recovered=args.recovered,
            )
            _stream_job(service, job_id, out)
            report = service.result(job_id)
            print(f"report: {report.describe()}", file=out)
            print(f"cache: {cache.stats.describe()}", file=out)
    return 0


def cmd_inspect(args, out=sys.stdout) -> int:
    plan = _load_plan(args.plan)
    print(f"plan: {plan.describe()}", file=out)
    print(f"plan fingerprint: {plan.plan_fingerprint}", file=out)
    for spec, digest in zip(plan.specs, plan.case_fingerprints(), strict=True):
        tag = "" if spec.case.tag is None else f"  tag={spec.case.tag!r}"
        print(f"  case {spec.index}: {digest}{tag}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_execution_options(sub):
        sub.add_argument(
            "--cache",
            default=None,
            metavar="PATH",
            help="back the service with an on-disk sqlite cache",
        )
        sub.add_argument(
            "--executor", default="serial", choices=["serial", "batch"]
        )
        sub.add_argument("--shard-size", type=int, default=None)
        sub.add_argument(
            "--records-dir",
            default=None,
            metavar="DIR",
            help="write a BENCH-style JOB_*.json record per finished job",
        )

    demo = commands.add_parser("demo", help="run the built-in demo sweep")
    demo.add_argument("--cases", type=int, default=32)
    demo.add_argument("--max-steps", type=int, default=200)
    add_execution_options(demo)
    demo.set_defaults(fn=cmd_demo, shard_size=8)

    run = commands.add_parser("run", help="execute a pickled SweepPlan")
    run.add_argument("plan", help="path to a pickled SweepPlan")
    run.add_argument(
        "--recovered",
        default=None,
        help="recovery criterion name (resilience plans only)",
    )
    add_execution_options(run)
    run.set_defaults(fn=cmd_run)

    inspect = commands.add_parser(
        "inspect", help="print a pickled plan's fingerprints"
    )
    inspect.add_argument("plan", help="path to a pickled SweepPlan")
    inspect.set_defaults(fn=cmd_inspect)
    return parser


def main(argv=None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args, out=out)


if __name__ == "__main__":
    raise SystemExit(main())
