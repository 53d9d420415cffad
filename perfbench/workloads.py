"""The benchmark's four workloads, driven through ``repro``'s public API.

Each workload builds its fixtures once (``setup``), then runs operations a
caller waits for (``op``); the runner times each operation and hands its
result to ``check`` outside the timed region.  Every input comes from the
run's seed.  Functions are looked up on their modules at call time, so the
traced run's wrappers see every call.

Operations build their protocols afresh, so each one pays what a one-shot
caller pays once per protocol (``compile_protocol``, ``batch_compile``,
``protocol_symmetry_group``).  service-jobs is the exception: a long-running
service keeps its protocol, and its first job pays that work.
"""

from __future__ import annotations

import importlib
import random

from spans import NullTracer


def add_mod3(incoming, x):
    """Forward the incoming label plus the private input, mod 3."""
    (value,) = incoming.values()
    return (value + x) % 3, value


def xor_forward(incoming, x):
    """Forward the incoming bit XORed with the private input."""
    (value,) = incoming.values()
    return value ^ x, value


class Workload:
    name = ""
    #: Imported during set-up, so no operation pays a lazy import.
    modules: tuple = ()
    #: Operations a run makes at least, whatever ``--seconds`` says.
    min_ops = 1
    #: Whether each operation stands for a one-shot caller, and so starts
    #: from a collected heap; a long-running service's jobs do not.
    one_shot = True

    def __init__(self, seed: int, run_dir):
        self.seed = seed
        self.run_dir = run_dir

    def import_modules(self) -> None:
        for module in self.modules:
            importlib.import_module(module)
        self.repro = importlib.import_module("repro")

    def setup(self) -> None:
        """Fixtures the operations share; runs after ``import_modules``."""

    def op(self, tracer, k: int):
        """Operation ``k``: returns ``(result, configurations decided)``."""
        raise NotImplementedError

    def check(self, k: int, result, tally) -> None:
        """Count operation ``k``'s attempts and failures into ``tally``."""
        raise NotImplementedError

    def finish(self, tally) -> None:
        """Checks made once, after the last operation."""

    def close(self) -> None:
        pass

    def provenance(self) -> dict:
        return {}


class BatchSweep(Workload):
    """One ``run_sweep`` over random labelings of a 64-node mod-3 ring.

    The input ``(1, 0, ..., 0)`` sums to 1 mod 3, so no labeling of the
    forward-add ring is stable and every row runs the whole step budget.

    Not listed in BENCHMARK.json: at 10^5 rows an operation takes about 8 s,
    so a run holds too few of them for a steady median on a shared two-core
    host.  Its layers are all measured on service-jobs; run it by hand to
    see the sweep path without the service in front of it.
    """

    name = "batch-sweep"
    modules = (
        "repro.analysis",
        "repro.core",
        "repro.core.batch",
        "repro.graphs",
        "repro.service.executor",
        "repro.service.plan",
    )
    N = 64
    CONFIGURATIONS = 100_000
    STEPS = 100
    #: Cases compared with the serial executor.
    SUBSET = 2_048

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.population_seed = rng.getrandbits(64)
        self.schedule_seed = rng.getrandbits(32)
        self.inputs = (1,) + (0,) * (self.N - 1)
        self.subset = None

    def _sweep(self, tracer, count, policy):
        core, analysis = self.repro.core, self.repro.analysis
        topology = self.repro.graphs.unidirectional_ring(self.N)
        reactions = [
            core.UniformReaction(topology.out_edges(i), add_mod3)
            for i in range(self.N)
        ]
        protocol = core.StatelessProtocol(
            topology, core.IntegerRange(3), reactions, name=f"add3-ring({self.N})"
        )
        schedule = core.RandomRFairSchedule(self.N, r=4, seed=self.schedule_seed, p=0.9)
        rng = random.Random(self.population_seed)
        with tracer.span("core.configuration.population"):
            cases = [
                analysis.SweepCase(
                    self.inputs,
                    core.Labeling(
                        topology, tuple(rng.randrange(3) for _ in range(topology.m))
                    ),
                    tag=k,
                )
                for k in range(count)
            ]
        return analysis.run_sweep(
            protocol,
            cases,
            lambda index, case: schedule,
            max_steps=self.STEPS,
            policy=policy,
        )

    def op(self, tracer, k):
        policy = self.repro.ExecutionPolicy(executor="batch")
        return self._sweep(tracer, self.CONFIGURATIONS, policy), self.CONFIGURATIONS

    def check(self, k, report, tally):
        timeout = self.repro.core.RunOutcome.TIMEOUT
        full = sum(
            1
            for result in report.results
            if result.outcome is timeout and result.steps_executed == self.STEPS
        )
        tally.add_many(
            self.CONFIGURATIONS,
            self.CONFIGURATIONS - full,
            f"op {k}: {self.CONFIGURATIONS - full} rows did not time out at the budget",
        )
        subset = report.results[: self.SUBSET]
        if self.subset is None:
            self.subset = subset
        else:
            differ = sum(a != b for a, b in zip(subset, self.subset, strict=True))
            tally.add_many(0, differ, f"op {k}: {differ} rows differ from op 0")

    def finish(self, tally):
        serial = self._sweep(NullTracer(), self.SUBSET, self.repro.ExecutionPolicy())
        differ = sum(
            a != b for a, b in zip(serial.results, self.subset, strict=True)
        )
        tally.add_many(0, differ, f"{differ} subset rows differ from serial")


class ServiceJobs(Workload):
    """A closed loop of one client and one ``SweepService`` worker.

    One operation is a round of two jobs, each submitted and awaited in
    turn: a plain plan, then a resilience plan.  Every operation then does
    the same work, so the fastest one covers both kinds.  Job ``q`` of a
    kind covers tags ``[256q, 256q + 512)``, so half its cases repeat the
    previous job of that kind and are served from the cache.
    """

    name = "service-jobs"
    modules = (
        "repro.analysis",
        "repro.analysis.costmodel",
        "repro.core",
        "repro.core.batch",
        "repro.faults",
        "repro.graphs",
        "repro.service",
        "repro.statics.preflight",
    )
    N = 16
    CASES = 512
    STEPS = 200
    POOL = 8
    #: Over a hundred jobs, whatever the host's speed.
    min_ops = 51
    one_shot = False
    #: Sqlite in memory: on disk every ``put`` commits and syncs, which
    #: would time the disk rather than the program.
    CACHE_PATH = ":memory:"
    JOB_TIMEOUT_S = 120.0

    def setup(self) -> None:
        core, service = self.repro.core, self.repro.service
        rng = random.Random(self.seed)
        bits = [rng.randrange(2) for _ in range(self.N - 1)]
        # Even parity: stable labelings exist, and rows reach them at
        # different steps within the budget.
        self.inputs = (*bits, sum(bits) % 2)
        self.pool = [
            core.RandomRFairSchedule(self.N, r=4, seed=rng.getrandbits(32), p=0.5)
            for _ in range(self.POOL)
        ]
        self.label_seed = rng.getrandbits(32)
        self.fault_seed = rng.getrandbits(32)
        topology = self.repro.graphs.unidirectional_ring(self.N)
        reactions = [
            core.UniformReaction(topology.out_edges(i), xor_forward)
            for i in range(self.N)
        ]
        self.protocol = core.StatelessProtocol(
            topology, core.binary(), reactions, name=f"xor-ring({self.N})"
        )
        self.policy = self.repro.ExecutionPolicy(executor="batch")
        self.cache = service.SqliteCache(self.CACHE_PATH)
        self.records_dir = self.run_dir / "records"
        self.service = service.SweepService(
            self.cache,
            workers=1,
            records_dir=self.records_dir,
            admission=service.AdmissionPolicy(max_work=1e30),
        )

    def _labeling(self, kind_bit, tag):
        rng = random.Random((self.label_seed << 40) | (tag << 1) | kind_bit)
        topology = self.protocol.topology
        values = tuple(rng.randrange(2) for _ in range(topology.m))
        return self.repro.core.Labeling(topology, values)

    def _schedule(self, index, case):
        return self.pool[case.tag % self.POOL]

    def _faults(self, index, case):
        faults = self.repro.faults
        tag_seed = (self.fault_seed << 40) | case.tag
        start = random.Random(tag_seed).randrange(5, 40)
        return faults.BurstFault(
            (start, start + 3, start + 6),
            faults.RandomCorruption(0.25, seed=tag_seed),
        )

    def _job(self, tracer, kind_bit, q):
        """Job ``q`` of a kind, submitted and awaited."""
        service = self.repro.service
        first = q * (self.CASES // 2)
        with tracer.span("core.configuration.population"):
            cases = [
                self.repro.analysis.SweepCase(
                    self.inputs, self._labeling(kind_bit, tag), tag=tag
                )
                for tag in range(first, first + self.CASES)
            ]
        if kind_bit == 0:
            plan = service.plan_sweep(
                self.protocol, cases, self._schedule,
                max_steps=self.STEPS, policy=self.policy,
            )
        else:
            plan = service.plan_resilience_sweep(
                self.protocol, cases, self._schedule, self._faults,
                max_steps=self.STEPS, policy=self.policy,
            )
        tracer.bind_current(id(plan))
        try:
            job_id = self.service.submit(plan)
            try:
                report = self.service.result(job_id, timeout=self.JOB_TIMEOUT_S)
            except self.repro.exceptions.JobError:
                report = None
        finally:
            tracer.unbind(id(plan))
        return plan, job_id, report

    def op(self, tracer, k):
        jobs = []
        for kind_bit in (0, 1):
            with tracer.span("bench.job"):
                jobs.append(self._job(tracer, kind_bit, k))
        return jobs, len(jobs) * self.CASES

    def check(self, k, jobs, tally):
        for plan, job_id, report in jobs:
            state = self.service.status(job_id).state
            if state is not self.repro.service.JobState.DONE or report is None:
                tally.add(False, f"job {job_id} ended {state.value}")
                continue
            reference = self.repro.service.execute_plan(plan)
            tally.add(report == reference, f"job {job_id}: differs from execute_plan")

    def close(self):
        self.service.close()
        self.cache.close()

    def provenance(self):
        stats = self.cache.stats
        return {
            "cache": f"SqliteCache({self.CACHE_PATH!r})",
            "records_dir": str(self.records_dir),
            "cache_hits": stats.hits,
            "cache_misses": stats.misses,
        }


def replays_as_oscillation(repro, protocol, inputs, witness, r) -> bool:
    """Whether the serial engine oscillates under the witness's schedule.

    The schedule must be r-fair, the labeling after one loop must equal the
    labeling before it, and some step of the loop must change it.
    """
    prefix, period = len(witness.prefix), len(witness.loop)
    if period == 0 or witness.r != r:
        return False
    schedule = witness.to_schedule(protocol.n)
    if not repro.core.is_r_fair(schedule, r, prefix + 2 * period + r):
        return False
    trace = repro.core.Simulator(protocol, inputs).run_trace(
        witness.initial_labeling, schedule, prefix + period
    )
    values = [configuration.labeling.values for configuration in trace]
    changes = any(values[t] != values[t + 1] for t in range(prefix, prefix + period))
    return changes and values[prefix] == values[prefix + period]


class Verify(Workload):
    """Exact verdicts on the Theorem 3.1 states-graph, from the broadcast
    labelings in a seeded order.  One operation is every verdict of the
    workload."""

    modules = (
        "repro.core",
        "repro.core.batch",
        "repro.graphs.automorphisms",
        "repro.hardness",
        "repro.stabilization",
    )

    def tasks(self):
        """``(task, protocol factory, r, policy, stabilizing, stats)``: the
        verdict the paper predicts and exact ``stats`` values to match."""
        raise NotImplementedError

    def op(self, tracer, k):
        stabilization = self.repro.stabilization
        verdicts = []
        configurations = 0
        for task, build, r, policy, expected, counts in self.tasks():
            with tracer.span("bench.verdict", request=f"{task}/{k}"):
                protocol = build()
                inputs = self.repro.core.default_inputs(protocol)
                labelings = list(
                    stabilization.broadcast_labelings(
                        protocol.topology, protocol.label_space
                    )
                )
                order = random.Random(f"{self.seed}/{task}").sample(
                    range(len(labelings)), len(labelings)
                )
                verdict = stabilization.decide_label_r_stabilizing(
                    protocol,
                    inputs,
                    r,
                    initial_labelings=[labelings[i] for i in order],
                    policy=policy,
                )
            configurations += verdict.stats.covered_states
            verdicts.append((task, protocol, inputs, r, verdict, expected, counts))
        return verdicts, configurations

    def check(self, k, verdicts, tally):
        for task, protocol, inputs, r, verdict, expected, counts in verdicts:
            problems = []
            if verdict.stabilizing != expected:
                problems.append(f"stabilizing={verdict.stabilizing}")
            for field, value in counts.items():
                if getattr(verdict.stats, field) != value:
                    problems.append(f"{field}={getattr(verdict.stats, field)}")
            if verdict.witness is not None and not replays_as_oscillation(
                self.repro, protocol, inputs, verdict.witness, r
            ):
                problems.append("witness does not replay")
            if not expected and verdict.witness is None:
                problems.append("no witness")
            tally.add(not problems, f"op {k} {task}: {', '.join(problems)}")


class VerifyClique(Verify):
    """Example 1: label r-stabilizing exactly when r < n - 1.

    K_5 at r = 4 on the concrete states-graph (not stabilizing: a witness
    is built and replayed), then K_6 at r = 4 on its symmetry quotient.
    The larger tiers of ``examples/states_graph.py`` (K_6 concrete, K_7
    quotient) take about 5 s together; a run then holds so few operations
    that its median moves with the speed of a shared host.  These two take
    about 1 s, exercise the same frontier and canonicalization paths, and
    K_6's quotient must cover exactly the 27,634 states of K_6's concrete
    graph.
    """

    name = "verify-clique"

    def tasks(self):
        example1 = self.repro.stabilization.example1_protocol
        policy = self.repro.ExecutionPolicy
        return (
            ("K5", lambda: example1(5), 4, policy(), False, {"states": 5_507}),
            (
                "K6q",
                lambda: example1(6),
                4,
                policy(symmetry="auto"),
                True,
                {"covered_states": 27_634, "states": 299},
            ),
        )


class VerifyGadget(Verify):
    """The Theorem 4.1 EQ latch on K_8, r = 2: stabilizing iff x != y.

    Not listed in BENCHMARK.json, for the same reason as batch-sweep: on a
    shared two-core host its run-to-run spread needs longer runs than the
    benchmark's time budget allows for more than two workloads.  Its layers
    are measured on verify-clique; run it by hand for the frontier on a
    workload with a high transition-cache miss rate.
    """

    name = "verify-gadget"
    N = 8
    R = 2

    def setup(self):
        self.snake = self.repro.hardness.normalized_snake(self.N - 4)
        segments = -(-len(self.snake) // (3 * self.R))
        # x is fixed; y = x and its complement differ in every segment.
        # Inputs that differ only in the short last segment do not latch.
        self.x = (1,) * segments
        self.y = (0,) * segments

    def tasks(self):
        hardness = self.repro.hardness
        policy = self.repro.ExecutionPolicy()

        def gadget(y):
            return lambda: hardness.eq_latch_gadget_protocol(
                self.N, self.x, y, r=self.R, snake=self.snake
            )

        return (
            ("equal", gadget(self.x), self.R, policy, False, {}),
            ("unequal", gadget(self.y), self.R, policy, True, {}),
        )


WORKLOAD_TYPES = {
    workload.name: workload
    for workload in (BatchSweep, ServiceJobs, VerifyClique, VerifyGadget)
}
