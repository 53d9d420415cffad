"""Batch backend equivalence with the serial engine.

The contract of :mod:`repro.core.batch` is *equality*: for any case the
serial engine can run, the batch backend must produce an equal report —
outcome, round counts, steps, cycle facts, and final configuration.  These
tests drive that contract property-style over randomly generated protocols,
schedules, and fault plans, plus directed tests for each lift/fallback tier.
"""

from __future__ import annotations

import contextlib
import operator
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionPolicy
from repro.analysis import SweepCase, run_resilience_sweep, run_sweep
from repro.core import (
    BatchSimulator,
    BitStrings,
    ExplicitLabelSpace,
    ExplicitSchedule,
    IntegerRange,
    Labeling,
    LambdaStatefulReaction,
    LassoSchedule,
    RandomRFairSchedule,
    RoundRobinSchedule,
    Simulator,
    StatefulProtocol,
    StatelessProtocol,
    SynchronousSchedule,
    TabularReaction,
    UniformReaction,
    batch_compile,
    binary,
    compile_protocol,
)
from repro.core.batch import (
    MAX_FUSE_WINDOW,
    LabelInterner,
    _Lockstep,
    packed_dtype,
)
from repro.exceptions import ValidationError
from repro.faults import (
    BurstFault,
    ComposedFault,
    ComposedFaultSchedule,
    FaultModel,
    NoFaults,
    OneShotFault,
    PeriodicFault,
    RandomCorruption,
    StuckAtFault,
    TargetedCorruption,
    WindowFault,
)
from repro.graphs import Topology, clique, unidirectional_ring

from tests.helpers import ScriptedAperiodicSchedule, xor_ring_protocol

np = pytest.importorskip("numpy")

BATCH = ExecutionPolicy(executor="batch")


@contextlib.contextmanager
def fuse_cap(value: int):
    """Temporarily cap the fused-window size (1 = one step per kernel call)."""
    import repro.core.batch as batch_module

    saved = batch_module.MAX_FUSE_WINDOW
    batch_module.MAX_FUSE_WINDOW = value
    try:
        yield
    finally:
        batch_module.MAX_FUSE_WINDOW = saved


@contextlib.contextmanager
def tile_cap(value: int):
    """Temporarily shrink the ring kernel's row tiles (``MONO_TILE_BYTES``),
    so one run spans several tiles."""
    import repro.core.batch as batch_module

    saved = batch_module.MONO_TILE_BYTES
    batch_module.MONO_TILE_BYTES = value
    try:
        yield
    finally:
        batch_module.MONO_TILE_BYTES = saved


def count_routes(monkeypatch) -> Counter:
    """Count kernel calls per route from here on: ``"ring"`` for the ring
    kernel's windows, ``"groups"`` for the group route's steps."""
    calls: Counter = Counter()
    for route, name in (("ring", "_fill_ring"), ("groups", "_apply_groups")):
        original = getattr(BatchSimulator, name)

        def counted(self, *args, _route=route, _original=original):
            calls[_route] += 1
            return _original(self, *args)

        monkeypatch.setattr(BatchSimulator, name, counted)
    return calls


#: How rows share schedule objects: one object per row, a pool of 2-3
#: objects, or one object for all rows.  The batch backend groups rows by
#: schedule object, so each mode is a different group shape; the property
#: tests run every mode on every drawn case.
SHARING = ("per-row", "pool", "shared")


def share_schedules(rng: random.Random, schedules, sharing: str):
    if sharing == "per-row":
        return schedules
    if sharing == "shared":
        return [schedules[0]] * len(schedules)
    pool = schedules[: rng.randrange(2, 4)]
    return [rng.choice(pool) for _ in schedules]


RUN_FIELDS = (
    "outcome",
    "label_rounds",
    "output_rounds",
    "steps_executed",
    "cycle_start",
    "cycle_length",
)
FAULT_FIELDS = (
    "outcome",
    "recovery_rounds",
    "output_recovery_rounds",
    "cycle_start",
    "cycle_length",
    "faults_fired",
    "fault_times",
    "last_fault_time",
    "steps_executed",
)


def assert_reports_equal(serial, batch, fields=RUN_FIELDS):
    for field in fields:
        assert getattr(serial, field) == getattr(batch, field), (
            field,
            serial.describe(),
            batch.describe(),
        )
    assert serial.final == batch.final


# -- random case generators --------------------------------------------------


def random_tabular_protocol(rng: random.Random) -> StatelessProtocol:
    """A complete random lookup-table protocol on a small ring or clique."""
    if rng.random() < 0.5:
        topology = unidirectional_ring(rng.randrange(3, 7))
    else:
        topology = clique(rng.randrange(3, 5))
    labels = tuple(range(rng.randrange(2, 4)))
    space = ExplicitLabelSpace(labels)
    reactions = []
    for i in range(topology.n):
        in_edges = topology.in_edges(i)
        out_edges = topology.out_edges(i)
        table = {}
        for combo in product(labels, repeat=len(in_edges)):
            for x in (0, 1):
                table[(combo, x)] = (
                    tuple(rng.choice(labels) for _ in out_edges),
                    rng.randrange(3),
                )
        reactions.append(TabularReaction(in_edges, out_edges, table))
    return StatelessProtocol(topology, space, reactions, name="random-tabular")


def random_schedule(rng: random.Random, n: int):
    kind = rng.randrange(6)
    if kind == 0:
        return SynchronousSchedule(n)
    if kind == 1:
        return RoundRobinSchedule(n)
    if kind == 2:
        return RandomRFairSchedule(
            n, r=rng.randrange(1, 4), seed=rng.randrange(1 << 20), p=0.4
        )
    if kind == 3:
        steps = [
            rng.sample(range(n), rng.randrange(1, n + 1))
            for _ in range(rng.randrange(1, 6))
        ]
        return ExplicitSchedule(n, steps)
    if kind == 4:
        steps = [
            rng.sample(range(n), rng.randrange(1, n + 1))
            for _ in range(rng.randrange(1, 25))
        ]
        return ScriptedAperiodicSchedule(n, steps)
    prefix = [
        rng.sample(range(n), rng.randrange(1, n + 1))
        for _ in range(rng.randrange(0, 4))
    ]
    loop = [
        rng.sample(range(n), rng.randrange(1, n + 1))
        for _ in range(rng.randrange(1, 4))
    ]
    return LassoSchedule(n, prefix, loop)


def random_fault_model(rng: random.Random, topology, space):
    kind = rng.randrange(4)
    edges = list(topology.edges)
    labels = list(space)
    if kind == 0:
        return RandomCorruption(rng.random(), seed=rng.randrange(1 << 20))
    if kind == 1:
        chosen = rng.sample(edges, rng.randrange(1, len(edges) + 1))
        return TargetedCorruption(chosen, seed=rng.randrange(1 << 20))
    if kind == 2:
        chosen = rng.sample(edges, rng.randrange(1, 3))
        return StuckAtFault(chosen, rng.choice(labels))
    return ComposedFault(
        [random_fault_model(rng, topology, space) for _ in range(rng.randrange(1, 3))]
    )


def random_fault_plan(rng: random.Random, topology, space, horizon: int):
    kind = rng.randrange(6)
    model = random_fault_model(rng, topology, space)
    if kind == 0:
        return NoFaults()
    if kind == 1:
        return OneShotFault(rng.randrange(horizon), model)
    if kind == 2:
        times = sorted(
            rng.sample(range(horizon), rng.randrange(1, min(4, horizon)))
        )
        return BurstFault(times, model)
    if kind == 3:
        start = rng.randrange(horizon - 1)
        return WindowFault(start, rng.randrange(start + 1, horizon), model)
    if kind == 4:
        start = rng.randrange(horizon)
        return PeriodicFault(rng.randrange(1, 8), model, start=start)
    return ComposedFaultSchedule(
        [
            random_fault_plan(rng, topology, space, horizon)
            for _ in range(rng.randrange(1, 3))
        ]
    )


def random_rows(rng: random.Random, protocol, count: int):
    topology = protocol.topology
    labels = list(protocol.label_space)
    labelings = [
        Labeling(
            topology, tuple(rng.choice(labels) for _ in range(topology.m))
        )
        for _ in range(count)
    ]
    inputs = [
        tuple(rng.randrange(2) for _ in range(topology.n))
        for _ in range(count)
    ]
    schedules = [random_schedule(rng, topology.n) for _ in range(count)]
    return labelings, inputs, schedules


# -- property-style equivalence ----------------------------------------------


class TestRunEquivalence:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_cases_match_serial(self, seed):
        rng = random.Random(seed)
        protocol = random_tabular_protocol(rng)
        count = rng.randrange(2, 7)
        max_steps = rng.choice([4, 30, 120])
        labelings, inputs, per_row = random_rows(rng, protocol, count)
        for sharing in SHARING:
            schedules = share_schedules(rng, per_row, sharing)
            serial = [
                Simulator(protocol, inputs[b]).run(
                    labelings[b], schedules[b], max_steps=max_steps
                )
                for b in range(count)
            ]
            batch = BatchSimulator(protocol, inputs).run_batch(
                labelings, schedules, max_steps=max_steps
            )
            with fuse_cap(1):
                single = BatchSimulator(protocol, inputs).run_batch(
                    labelings, schedules, max_steps=max_steps
                )
            for s, r, r1 in zip(serial, batch, single, strict=True):
                assert_reports_equal(s, r)
                assert_reports_equal(s, r1)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=20, deadline=None)
    def test_arbitrary_fault_plans_match_serial(self, seed):
        rng = random.Random(seed)
        protocol = random_tabular_protocol(rng)
        space = protocol.label_space
        count = rng.randrange(2, 6)
        max_steps = rng.choice([20, 80])
        labelings, inputs, per_row = random_rows(rng, protocol, count)
        plans = [
            random_fault_plan(rng, protocol.topology, space, max_steps)
            for _ in range(count)
        ]
        for sharing in SHARING:
            schedules = share_schedules(rng, per_row, sharing)
            serial = [
                Simulator(protocol, inputs[b]).run_with_faults(
                    labelings[b], schedules[b], plans[b], max_steps=max_steps
                )
                for b in range(count)
            ]
            batch = BatchSimulator(protocol, inputs).run_batch_with_faults(
                labelings, schedules, plans, max_steps=max_steps
            )
            with fuse_cap(1):
                single = BatchSimulator(protocol, inputs).run_batch_with_faults(
                    labelings, schedules, plans, max_steps=max_steps
                )
            for s, r, r1 in zip(serial, batch, single, strict=True):
                assert_reports_equal(s, r, FAULT_FIELDS)
                assert_reports_equal(s, r1, FAULT_FIELDS)

    def test_seed_stress(self):
        """600-seed stress: light random cases, serial vs batch."""
        for seed in range(600):
            rng = random.Random(seed)
            protocol = random_tabular_protocol(rng)
            count = 2
            max_steps = rng.choice([6, 14])
            labelings, inputs, schedules = random_rows(rng, protocol, count)
            serial = [
                Simulator(protocol, inputs[b]).run(
                    labelings[b], schedules[b], max_steps=max_steps
                )
                for b in range(count)
            ]
            batch = BatchSimulator(protocol, inputs).run_batch(
                labelings, schedules, max_steps=max_steps
            )
            for s, r in zip(serial, batch, strict=True):
                assert_reports_equal(s, r)

    def test_initial_outputs_and_shared_schedule(self):
        rng = random.Random(5)
        protocol = random_tabular_protocol(rng)
        n = protocol.n
        count = 4
        labelings, inputs, _ = random_rows(rng, protocol, count)
        outputs = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(count)]
        schedule = SynchronousSchedule(n)
        serial = [
            Simulator(protocol, inputs[b]).run(
                labelings[b],
                schedule,
                max_steps=60,
                initial_outputs=outputs[b],
            )
            for b in range(count)
        ]
        batch = BatchSimulator(protocol, inputs).run_batch(
            labelings, schedule, max_steps=60, initial_outputs=outputs
        )
        for s, r in zip(serial, batch, strict=True):
            assert_reports_equal(s, r)


# -- sweep-level equivalence -------------------------------------------------


class TestSweepEquivalence:
    def _cases(self, protocol, count, seed):
        rng = random.Random(seed)
        topology = protocol.topology
        return [
            SweepCase(
                tuple(rng.randrange(2) for _ in range(topology.n)),
                Labeling(
                    topology,
                    tuple(rng.randrange(2) for _ in range(topology.m)),
                ),
                tag=("case", k),
            )
            for k in range(count)
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_sweep_batch_equals_serial(self, seed):
        protocol = xor_ring_protocol(8)
        cases = self._cases(protocol, 16, seed)

        def factory(index, case):
            return RandomRFairSchedule(8, r=3, seed=1000 * seed + index)

        serial = run_sweep(protocol, cases, factory, max_steps=120)
        batch = run_sweep(
            protocol,
            cases,
            factory,
            max_steps=120,
            policy=BATCH,
        )
        assert serial == batch
        assert serial.outcome_counts == batch.outcome_counts
        assert serial.round_histogram() == batch.round_histogram()
        assert [r.index for r in batch] == list(range(len(cases)))
        assert [r.tag for r in batch] == [case.tag for case in cases]

    @pytest.mark.parametrize("criterion", ["label", "orbit"])
    def test_resilience_sweep_batch_equals_serial(self, criterion):
        protocol = xor_ring_protocol(7)
        cases = self._cases(protocol, 12, 3)
        edges = protocol.topology.edges

        def schedule_factory(index, case):
            return RandomRFairSchedule(7, r=3, seed=index)

        def fault_factory(index, case):
            if index % 4 == 0:
                return NoFaults()
            if index % 4 == 1:
                return BurstFault([3, 11], RandomCorruption(0.5, seed=index))
            if index % 4 == 2:
                return WindowFault(2, 6, StuckAtFault([edges[0]], 1))
            return OneShotFault(
                5, TargetedCorruption([edges[1], edges[2]], seed=index)
            )

        serial = run_resilience_sweep(
            protocol,
            cases,
            schedule_factory,
            fault_factory,
            max_steps=100,
            recovered=criterion,
        )
        batch = run_resilience_sweep(
            protocol,
            cases,
            schedule_factory,
            fault_factory,
            max_steps=100,
            recovered=criterion,
            policy=BATCH,
        )
        assert serial == batch
        assert serial.recovery_rate == batch.recovery_rate
        assert serial.recovery_histogram() == batch.recovery_histogram()

    def test_shared_schedule_resilience_sweep(self):
        # One schedule object for every row, faults at staggered times: rows
        # already in their analyzed tail must not disturb later fires.
        protocol = xor_ring_protocol(6)
        cases = self._cases(protocol, 4, 0)
        schedule = RandomRFairSchedule(6, r=3, seed=5)

        def schedule_factory(index, case):
            return schedule

        def fault_factory(index, case):
            return BurstFault((2 + 30 * index,), RandomCorruption(0.5, seed=index))

        serial = run_resilience_sweep(
            protocol, cases, schedule_factory, fault_factory, max_steps=200
        )
        batch = run_resilience_sweep(
            protocol,
            cases,
            schedule_factory,
            fault_factory,
            max_steps=200,
            policy=BATCH,
        )
        assert serial == batch
        assert [r.last_fault_time for r in batch] == [
            2 + 30 * index for index in range(4)
        ]

    def test_chunked_batch_sweep_equals_serial(self, monkeypatch):
        # Force several sub-batches (chunk boundaries inside the case list)
        # and check the stitched report is still equal, indexes included.
        monkeypatch.setattr("repro.core.batch.SWEEP_CHUNK_ROWS", 5)
        protocol = xor_ring_protocol(6)
        cases = self._cases(protocol, 17, 7)

        def factory(index, case):
            return RandomRFairSchedule(6, r=3, seed=index)

        def fault_factory(index, case):
            if index % 3 == 0:
                return NoFaults()
            return OneShotFault(4, RandomCorruption(0.5, seed=index))

        serial = run_sweep(protocol, cases, factory, max_steps=90)
        batch = run_sweep(
            protocol, cases, factory, max_steps=90, policy=BATCH
        )
        assert serial == batch
        assert [r.index for r in batch] == list(range(len(cases)))
        serial_res = run_resilience_sweep(
            protocol, cases, factory, fault_factory, max_steps=90
        )
        batch_res = run_resilience_sweep(
            protocol,
            cases,
            factory,
            fault_factory,
            max_steps=90,
            policy=BATCH,
        )
        assert serial_res == batch_res

    def test_unknown_executor_rejected(self):
        protocol = xor_ring_protocol(5)
        cases = self._cases(protocol, 2, 0)
        with pytest.raises(ValidationError, match="unknown executor"):
            run_sweep(
                protocol,
                cases,
                lambda i, c: SynchronousSchedule(5),
                policy=ExecutionPolicy(executor="gpu"),
            )
        with pytest.raises(ValidationError, match="unknown executor"):
            run_resilience_sweep(
                protocol,
                cases,
                lambda i, c: SynchronousSchedule(5),
                lambda i, c: NoFaults(),
                policy=ExecutionPolicy(executor="gpu"),
            )


# -- schedule groups ----------------------------------------------------------


class TestScheduleGroups:
    """Rows grouped by schedule object, on the flat narrow-row ring kernel."""

    @pytest.mark.parametrize("faults", [False, True], ids=["plain", "faults"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["shift-m-1", "shift-1"])
    def test_xor_ring_schedule_pools_match_serial(
        self, reverse, faults, monkeypatch
    ):
        self._check_ring_pools(operator.xor, reverse, faults, monkeypatch)

    @pytest.mark.parametrize("reverse", [False, True], ids=["shift-m-1", "shift-1"])
    def test_and_ring_schedule_pools_match_serial(self, reverse, monkeypatch):
        # ``value & x`` is no plain xor (its flip row is the input vector),
        # so the ring kernel stages the shift and selects arithmetically.
        self._check_ring_pools(operator.and_, reverse, True, monkeypatch)

    def _check_ring_pools(self, op, reverse, faults, monkeypatch):
        n = 12
        count = 48
        max_steps = 150
        protocol = xor_ring_protocol(n, reverse=reverse, op=op)
        topology = protocol.topology
        rng = random.Random(17 + reverse)
        bits = [rng.randrange(2) for _ in range(n - 1)]
        # Even parity: stable labelings exist, and rows reach them at
        # different steps.
        inputs = (*bits, sum(bits) % 2)
        pool = [
            RandomRFairSchedule(n, r=3, seed=rng.randrange(1 << 20))
            for _ in range(3)
        ]
        labelings = [
            Labeling(topology, tuple(rng.randrange(2) for _ in range(n)))
            for _ in range(count)
        ]
        schedules = [rng.choice(pool) for _ in range(count)]
        plans = None
        if faults:
            plans = []
            for b in range(count):
                start = rng.randrange(2, 40)
                plans.append(
                    BurstFault(
                        (start, start + 3), RandomCorruption(0.5, seed=b)
                    )
                )

        def run_serial(b):
            simulator = Simulator(protocol, inputs)
            if plans is None:
                return simulator.run(
                    labelings[b], schedules[b], max_steps=max_steps
                )
            return simulator.run_with_faults(
                labelings[b], schedules[b], plans[b], max_steps=max_steps
            )

        def run_batch():
            simulator = BatchSimulator(protocol, [inputs] * count)
            assert simulator._mono.shift == (1 if reverse else n - 1)
            if plans is None:
                reports = simulator.run_batch(
                    labelings, schedules, max_steps=max_steps
                )
            else:
                reports = simulator.run_batch_with_faults(
                    labelings, schedules, plans, max_steps=max_steps
                )
            return reports

        serial = [run_serial(b) for b in range(count)]
        calls = count_routes(monkeypatch)
        fields = FAULT_FIELDS if faults else RUN_FIELDS
        runs = [run_batch()]
        with tile_cap(5 * n):
            runs.append(run_batch())
        with fuse_cap(1):
            runs.append(run_batch())
        for reports in runs:
            for s, r in zip(serial, reports, strict=True):
                assert_reports_equal(s, r, fields)
        # Every window of a binary shift ring takes the ring kernel.
        assert calls["ring"] and not calls["groups"]
        settled = {
            r.steps_executed for r in serial if r.outcome.value == "label-stable"
        }
        assert len(settled) > 1


def _add_mod3(incoming, x):
    (value,) = incoming.values()
    return (value + x) % 3, value


#: Binary ring reactions: with one input vector, xor rings take the fused
#: select and and rings the staged one.  Mod-3 rings (``_add_mod3``), and
#: every ring with per-row input vectors, take the u16 table.
BINARY_RING_OPS = {"xor": operator.xor, "and": operator.and_}

#: Pairwise coverage of reaction x input vectors x schedule objects x
#: faults x tiles.
RING_CASES = (
    ("xor", 1, 1, False, "default"),
    ("xor", 4, 8, True, "tiles"),
    ("and", 1, 1, True, "fuse-1"),
    ("mod3", 4, 8, False, "fuse-1"),
    ("and", 1, 8, False, "tiles"),
    ("mod3", 4, 1, True, "default"),
    ("and", 4, 8, False, "default"),
    ("mod3", 1, 1, False, "tiles"),
    ("xor", 1, 1, False, "fuse-1"),
)


def _ring_of(op: str, n: int, space=None) -> StatelessProtocol:
    if op in BINARY_RING_OPS:
        return xor_ring_protocol(n, op=BINARY_RING_OPS[op])
    topology = unidirectional_ring(n)
    reactions = [
        UniformReaction(topology.out_edges(i), _add_mod3) for i in range(n)
    ]
    return StatelessProtocol(
        topology, space or IntegerRange(3), reactions, name=f"{op}-ring({n})"
    )


def _equals_serial(protocol, inputs, labelings, schedules, plans, steps):
    """Run the batch and check it report for report against serial runs;
    returns the simulator."""
    simulator = BatchSimulator(protocol, inputs)
    if plans is None:
        reports = simulator.run_batch(labelings, schedules, max_steps=steps)
    else:
        reports = simulator.run_batch_with_faults(
            labelings, schedules, plans, max_steps=steps
        )
    for b, report in enumerate(reports):
        serial = Simulator(protocol, inputs[b])
        if plans is None:
            expected = serial.run(labelings[b], schedules[b], max_steps=steps)
        else:
            expected = serial.run_with_faults(
                labelings[b], schedules[b], plans[b], max_steps=steps
            )
        assert report == expected
    return simulator


class TestRingRoute:
    """Which route each ring shape takes, and that it equals serial.

    One-byte shift rings run every window in the ring kernel; rings with
    wider codes and degree-1 graphs whose in-edge map is no rotation take
    the group route.
    """

    N = 12
    ROWS = 32
    STEPS = 100

    @pytest.mark.parametrize(
        "op, vectors, pool, faults, tiles",
        RING_CASES,
        ids=["-".join(map(str, case)) for case in RING_CASES],
    )
    def test_ring_kernel_equals_serial(
        self, op, vectors, pool, faults, tiles, monkeypatch
    ):
        n = self.N
        rng = random.Random(f"{op}/{vectors}/{pool}/{faults}/{tiles}")
        protocol = _ring_of(op, n)
        topology = protocol.topology
        q = protocol.label_space.size
        bits = [rng.randrange(2) for _ in range(n - 1)]
        # Even parity first: xor rows then settle at many different steps.
        # (A leading zero keeps the and ring's flip row off all ones.)
        vector_pool = [(0, *bits[1:], sum(bits[1:]) % 2)] + [
            (0, *(rng.randrange(2) for _ in range(n - 1)))
            for _ in range(vectors - 1)
        ]
        inputs = [vector_pool[b % vectors] for b in range(self.ROWS)]
        schedule_pool = [
            RandomRFairSchedule(n, r=3, seed=rng.randrange(1 << 20))
            for _ in range(pool)
        ]
        schedules = [schedule_pool[b % pool] for b in range(self.ROWS)]
        labelings = [
            Labeling(topology, tuple(rng.randrange(q) for _ in range(n)))
            for _ in range(self.ROWS)
        ]
        plans = None
        if faults:
            plans = []
            for b in range(self.ROWS):
                start = rng.randrange(2, 40)
                model = RandomCorruption(0.5, seed=b)
                plans.append(BurstFault((start, start + 3), model))
        tiling = {
            "default": contextlib.nullcontext(),
            "tiles": tile_cap(5 * n),
            "fuse-1": fuse_cap(1),
        }[tiles]
        calls = count_routes(monkeypatch)
        with tiling:
            simulator = _equals_serial(
                protocol, inputs, labelings, schedules, plans, self.STEPS
            )
        assert calls["ring"] and not calls["groups"]
        ring = simulator._mono.ring
        select = op != "mod3" and vectors == 1
        assert (ring.table is None) == select
        if select:
            assert all(ring.units) == (op == "xor")

    def test_wide_labels_take_the_group_route(self, monkeypatch):
        n, rows = 6, 16
        protocol = _ring_of("mod3", n, space=IntegerRange(300))
        rng = random.Random(300)
        inputs = [tuple(rng.randrange(2) for _ in range(n))] * rows
        labelings = [
            Labeling(
                protocol.topology, tuple(rng.randrange(300) for _ in range(n))
            )
            for _ in range(rows)
        ]
        schedules = [RandomRFairSchedule(n, r=3, seed=b) for b in range(rows)]
        calls = count_routes(monkeypatch)
        simulator = _equals_serial(
            protocol, inputs, labelings, schedules, None, 60
        )
        assert simulator._mono is None
        assert calls["groups"] and not calls["ring"]

    def test_wide_outputs_take_the_group_route(self, monkeypatch):
        # Initial outputs intern past one byte after assembly, so the ring
        # is assembled for the ring route but its windows take the group
        # route.
        n, rows = 3, 300
        protocol = xor_ring_protocol(n)
        rng = random.Random(301)
        inputs = (1, 0, 1)
        labelings = [
            Labeling(protocol.topology, tuple(rng.randrange(2) for _ in range(n)))
            for _ in range(rows)
        ]
        outputs = [(1000 + b, None, None) for b in range(rows)]
        schedule = RandomRFairSchedule(n, r=2, seed=7)
        calls = count_routes(monkeypatch)
        simulator = BatchSimulator(protocol, [inputs] * rows)
        assert simulator._mono is not None
        reports = simulator.run_batch(
            labelings, schedule, max_steps=40, initial_outputs=outputs
        )
        for b, report in enumerate(reports):
            assert report == Simulator(protocol, inputs).run(
                labelings[b], schedule, max_steps=40, initial_outputs=outputs[b]
            )
        assert calls["groups"] and not calls["ring"]

    def test_non_rotation_degree_one_graph_takes_the_group_route(
        self, monkeypatch
    ):
        # Node i owns edge i but reads edges 3, 2, 0, 1: no cyclic shift.
        topology = Topology(4, [(0, 2), (1, 3), (2, 1), (3, 0)])

        def make(i):
            def fn(incoming, x):
                (value,) = incoming.values()
                return value ^ x, value

            return UniformReaction(topology.out_edges(i), fn)

        protocol = StatelessProtocol(
            topology, binary(), [make(i) for i in range(4)], name="perm"
        )
        rng = random.Random(4)
        rows = 16
        inputs = [(1, 0, 1, 0)] * rows
        labelings = [
            Labeling(topology, tuple(rng.randrange(2) for _ in range(4)))
            for _ in range(rows)
        ]
        schedules = [RandomRFairSchedule(4, r=2, seed=b) for b in range(rows)]
        calls = count_routes(monkeypatch)
        simulator = _equals_serial(
            protocol, inputs, labelings, schedules, None, 60
        )
        assert simulator._mono is None
        assert simulator.vectorized
        assert calls["groups"] and not calls["ring"]


# -- fused windows ------------------------------------------------------------


class TestFusedWindows:
    """Fused k-step windows must equal k single steps, case for case."""

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=15, deadline=None)
    def test_fused_equals_single_step_windows(self, seed):
        rng = random.Random(seed)
        protocol = random_tabular_protocol(rng)
        count = rng.randrange(2, 6)
        max_steps = rng.choice([30, 120])
        labelings, inputs, schedules = random_rows(rng, protocol, count)
        fused = BatchSimulator(protocol, inputs).run_batch(
            labelings, schedules, max_steps=max_steps
        )
        with fuse_cap(1):
            single = BatchSimulator(protocol, inputs).run_batch(
                labelings, schedules, max_steps=max_steps
            )
        for f, s in zip(fused, single, strict=True):
            assert_reports_equal(s, f)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=15, deadline=None)
    def test_faults_split_fused_windows(self, seed):
        # Fault plans fire at arbitrary steps, so plans landing inside a
        # fused window force a split; the split must be invisible in the
        # report.
        rng = random.Random(seed)
        protocol = random_tabular_protocol(rng)
        space = protocol.label_space
        count = rng.randrange(2, 5)
        max_steps = 80
        labelings, inputs, per_row = random_rows(rng, protocol, count)
        plans = [
            random_fault_plan(rng, protocol.topology, space, max_steps)
            for _ in range(count)
        ]
        for sharing in SHARING:
            schedules = share_schedules(rng, per_row, sharing)
            fused = BatchSimulator(protocol, inputs).run_batch_with_faults(
                labelings, schedules, plans, max_steps=max_steps
            )
            with fuse_cap(1):
                single = BatchSimulator(protocol, inputs).run_batch_with_faults(
                    labelings, schedules, plans, max_steps=max_steps
                )
            for f, s in zip(fused, single, strict=True):
                assert_reports_equal(s, f, FAULT_FIELDS)

    def test_finished_rows_leave_mid_window(self):
        # A forwarding ring: the all-zeros labeling is stable immediately,
        # a single token circulates forever, and intermediate labelings
        # settle at different times — rows retire mid-window while others
        # keep stepping.
        n = 6
        topology = unidirectional_ring(n)

        def make(i):
            def fn(incoming, x):
                (value,) = incoming.values()
                return value & x, value

            return UniformReaction(topology.out_edges(i), fn)

        protocol = StatelessProtocol(
            topology, binary(), [make(i) for i in range(n)], name="and-ring"
        )
        rng = random.Random(13)
        labelings = [
            Labeling(topology, tuple(rng.randrange(2) for _ in range(n)))
            for _ in range(8)
        ]
        inputs = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(8)]
        schedule = SynchronousSchedule(n)
        simulator = BatchSimulator(protocol, inputs)
        batch = simulator.run_batch(labelings, schedule, max_steps=100)
        with fuse_cap(1):
            single = BatchSimulator(protocol, inputs).run_batch(
                labelings, schedule, max_steps=100
            )
        settle_steps = set()
        for b, (labeling, report) in enumerate(zip(labelings, batch, strict=True)):
            serial = Simulator(protocol, inputs[b]).run(
                labeling, schedule, max_steps=100
            )
            assert_reports_equal(serial, report)
            assert_reports_equal(serial, single[b])
            settle_steps.add(report.steps_executed)
        # The point of the test: rows genuinely finished at distinct times.
        assert len(settle_steps) > 1


# -- window rule --------------------------------------------------------------


def _even_parity_ring(rng: random.Random, n: int):
    """An xor ring whose inputs have even parity: stable labelings exist,
    and rows reach them at many different steps."""
    bits = [rng.randrange(2) for _ in range(n - 1)]
    return xor_ring_protocol(n), (*bits, sum(bits) % 2)


class TestWindowRule:
    """After rows conclude, a window keeps doubling while its frames fit
    one kernel tile and halves past it; rows settle exactly either way."""

    N = 12
    ROWS = 64
    STEPS = 150

    @pytest.mark.parametrize("faults", [False, True], ids=["plain", "faults"])
    @pytest.mark.parametrize("sharing", SHARING)
    def test_batch_equals_serial_on_both_sides_of_the_tile(
        self, sharing, faults, monkeypatch
    ):
        rng = random.Random(31 + 2 * SHARING.index(sharing) + faults)
        protocol, inputs = _even_parity_ring(rng, self.N)
        topology = protocol.topology
        labelings = [
            Labeling(topology, tuple(rng.randrange(2) for _ in range(self.N)))
            for _ in range(self.ROWS)
        ]
        per_row = [
            RandomRFairSchedule(self.N, r=3, seed=rng.randrange(1 << 20))
            for _ in range(self.ROWS)
        ]
        schedules = share_schedules(rng, per_row, sharing)
        plans = None
        if faults:
            plans = []
            for b in range(self.ROWS):
                start = rng.randrange(2, 40)
                model = RandomCorruption(0.5, seed=b)
                plans.append(BurstFault((start, start + 3), model))

        def run_serial(b):
            simulator = Simulator(protocol, inputs)
            if plans is None:
                return simulator.run(
                    labelings[b], schedules[b], max_steps=self.STEPS
                )
            return simulator.run_with_faults(
                labelings[b], schedules[b], plans[b], max_steps=self.STEPS
            )

        def run_batch():
            simulator = BatchSimulator(protocol, [inputs] * self.ROWS)
            if plans is None:
                return simulator.run_batch(
                    labelings, schedules, max_steps=self.STEPS
                )
            return simulator.run_batch_with_faults(
                labelings, schedules, plans, max_steps=self.STEPS
            )

        log = []
        grow = _Lockstep.grow

        def logged(run, window, finished):
            after = grow(run, window, finished)
            log.append((window, len(finished), after))
            return after

        monkeypatch.setattr(_Lockstep, "grow", logged)
        serial = [run_serial(b) for b in range(self.ROWS)]
        fields = FAULT_FIELDS if faults else RUN_FIELDS

        # Default tiles: every window fits one, so it doubles on through
        # the conclusions.
        reports = run_batch()
        concluded = [(w, after) for w, done, after in log if done]
        assert len(concluded) >= 3
        assert all(after == min(2 * w, MAX_FUSE_WINDOW) for w, _, after in log)
        for s, r in zip(serial, reports, strict=True):
            assert_reports_equal(s, r, fields)

        # A tile smaller than one frame: a window that concludes rows
        # halves.
        log.clear()
        with tile_cap(4 * self.N):
            reports = run_batch()
        # (The last window may leave no live rows: nothing to halve for.)
        concluded = [(w, after) for w, done, after in log[:-1] if done]
        assert len(concluded) >= 3
        assert all(after == max(w // 2, 1) for w, after in concluded)
        assert any(after < w for w, after in concluded)
        for s, r in zip(serial, reports, strict=True):
            assert_reports_equal(s, r, fields)

    def test_service_shape_runs_in_few_windows(self, monkeypatch):
        # 256 rows of a 16-node xor ring over a pool of 8 schedules: rows
        # conclude in most windows, so a window that restarts at one step
        # on every conclusion ran 61 of them over the 200 steps.
        n, rows = 16, 256
        rng = random.Random(4242)
        protocol, inputs = _even_parity_ring(rng, n)
        pool = [
            RandomRFairSchedule(n, r=4, seed=rng.getrandbits(32), p=0.5)
            for _ in range(8)
        ]
        labelings = [
            Labeling(
                protocol.topology, tuple(rng.randrange(2) for _ in range(n))
            )
            for _ in range(rows)
        ]
        schedules = [pool[b % 8] for b in range(rows)]
        windows = []
        masks = _Lockstep.masks

        def counted(run, t, k):
            windows.append(k)
            return masks(run, t, k)

        monkeypatch.setattr(_Lockstep, "masks", counted)
        reports = BatchSimulator(protocol, [inputs] * rows).run_batch(
            labelings, schedules, max_steps=200
        )
        assert len(windows) <= 16
        assert len({r.steps_executed for r in reports}) > 16


# -- packed interner ----------------------------------------------------------


class TestPackedInterner:
    def test_packed_dtype_ladder(self):
        assert packed_dtype(2) is np.uint8
        assert packed_dtype(1 << 8) is np.uint8
        assert packed_dtype((1 << 8) + 1) is np.uint16
        assert packed_dtype(1 << 16) is np.uint16
        assert packed_dtype((1 << 16) + 1) is np.uint32
        assert packed_dtype((1 << 32) + 1) is np.int64

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    def test_bulk_encode_accepts_narrow_dtypes(self, dtype):
        interner = LabelInterner(range(6))
        rows = np.array([[0, 5, 2], [3, 1, 4]], dtype=dtype)
        bulk = interner.bulk_encode(rows)
        assert bulk is not None
        # Emitted in the smallest dtype covering the interner, with no
        # int64 round trip for already-narrow input.
        assert bulk.dtype == np.uint8
        for encoded, row in zip(bulk, rows, strict=True):
            assert interner.decode_values(encoded) == tuple(row.tolist())

    def test_bulk_encode_explicit_dtype_and_u16_round_trip(self):
        interner = LabelInterner(range(300))
        rows = [[0, 299, 257], [256, 1, 2]]
        bulk = interner.bulk_encode(rows)
        assert bulk is not None
        assert bulk.dtype == np.uint16
        wide = interner.bulk_encode(rows, dtype=np.int64)
        assert wide.dtype == np.int64
        assert (bulk == wide).all()
        assert interner.decode_values(bulk[0]) == (0, 299, 257)

    def test_bulk_encode_never_interns_or_overflows(self):
        interner = LabelInterner(range(4))
        # Codes outside the interned population: refuse (never intern, never
        # wrap into the packed dtype).
        assert interner.bulk_encode([[0, 4]]) is None
        assert interner.bulk_encode([[-1, 0]]) is None
        assert interner.size == 4
        # Non-identity interners take the per-element path.
        assert LabelInterner(["a", "b"]).bulk_encode([[0, 1]]) is None
        # Ragged or non-integer rows: ineligible, not an exception.
        assert interner.bulk_encode([[0, 1], [2]]) is None
        assert interner.bulk_encode([[0.5, 1.0]]) is None

    def test_escaping_counter_never_grows_the_interner(self):
        # A counter ring whose labels escape the declared 2-label space and
        # keep growing past the u8 code range: no table closes over them,
        # so every row runs on the serial engine and the interner stays the
        # declared space.
        n = 3
        topology = unidirectional_ring(n)

        def make(i):
            def fn(incoming, x):
                (value,) = incoming.values()
                return value + 1, value

            return UniformReaction(topology.out_edges(i), fn)

        protocol = StatelessProtocol(
            topology,
            ExplicitLabelSpace((0, 1)),
            [make(i) for i in range(n)],
            name="counter-ring",
        )
        labelings = [
            Labeling(topology, (0, 1, 0)),
            Labeling(topology, (1, 1, 1)),
        ]
        schedule = SynchronousSchedule(n)
        simulator = BatchSimulator(protocol, [(0,) * n] * 2)
        assert not simulator.vectorized
        batch = simulator.run_batch(labelings, schedule, max_steps=300)
        for labeling, report in zip(labelings, batch, strict=True):
            serial = Simulator(protocol, (0,) * n).run(
                labeling, schedule, max_steps=300
            )
            assert_reports_equal(serial, report)
        assert simulator._interner.size == 2

    def test_escaping_cycle_matches_serial(self):
        # Labels count modulo 300, outside the declared space, and the first
        # revisit comes only after 300 steps: the cycle facts are the serial
        # engine's.
        n = 3
        topology = unidirectional_ring(n)

        def make(i):
            def fn(incoming, x):
                (value,) = incoming.values()
                return (value + 1) % 300, value % 5

            return UniformReaction(topology.out_edges(i), fn)

        protocol = StatelessProtocol(
            topology,
            ExplicitLabelSpace((0, 1)),
            [make(i) for i in range(n)],
            name="mod-counter-ring",
        )
        labelings = [
            Labeling(topology, values)
            for values in ((0, 1, 0), (1, 1, 1), (0, 0, 0))
        ]
        for schedule in (SynchronousSchedule(n), RoundRobinSchedule(n)):
            batch = BatchSimulator(protocol, [(0,) * n] * 3).run_batch(
                labelings, schedule, max_steps=1000
            )
            for labeling, report in zip(labelings, batch, strict=True):
                serial = Simulator(protocol, (0,) * n).run(
                    labeling, schedule, max_steps=1000
                )
                assert_reports_equal(serial, report)
                assert report.cycle_length == 300


# -- routes: the lockstep or the serial engine ---------------------------------


class TestLiftTiers:
    """A batch runs in lockstep only when every node lifts to its tables and
    every label stays in the declared space; any other batch runs row by
    row on the serial engine, with equal reports."""

    def test_small_space_protocol_fully_lifted(self):
        protocol = xor_ring_protocol(6)
        simulator = BatchSimulator(protocol, [(0,) * 6, (1, 0, 0, 0, 0, 0)])
        assert simulator.vectorized

    def test_huge_space_falls_back_to_python_apply(self):
        n = 4
        topology = unidirectional_ring(n)
        space = BitStrings(20)

        def make(i):
            def fn(incoming, x):
                (value,) = incoming.values()
                return tuple(1 - bit for bit in value), sum(value)

            return UniformReaction(topology.out_edges(i), fn)

        protocol = StatelessProtocol(
            topology, space, [make(i) for i in range(n)], name="big-space"
        )
        rng = random.Random(3)
        labelings = [
            Labeling(
                topology, tuple(space.sample(rng) for _ in range(topology.m))
            )
            for _ in range(3)
        ]
        simulator = BatchSimulator(protocol, [(0,) * n] * 3)
        assert not simulator.vectorized
        schedule = SynchronousSchedule(n)
        batch = simulator.run_batch(labelings, schedule, max_steps=40)
        for labeling, report in zip(labelings, batch, strict=True):
            serial = Simulator(protocol, (0,) * n).run(
                labeling, schedule, max_steps=40
            )
            assert_reports_equal(serial, report)

    def test_batch_compile_caches_per_compiled_form(self):
        protocol = xor_ring_protocol(5)
        compiled = compile_protocol(protocol)
        batch = batch_compile(compiled)
        assert batch is batch_compile(protocol)
        assert batch.compiled is compiled
        simulator = BatchSimulator(protocol, [(0,) * 5])
        assert simulator.batch_compiled is batch
        assert batch_compile(xor_ring_protocol(5)) is not batch

    def test_max_table_size_gates_the_lift(self, monkeypatch):
        import repro.core.batch as batch_module

        # A fresh protocol, so no cached compilation predates the budget.
        protocol = xor_ring_protocol(5)
        monkeypatch.setattr(batch_module, "DEFAULT_MAX_TABLE_SIZE", 1)
        simulator = BatchSimulator(protocol, [(0,) * 5] * 2)
        assert not simulator.vectorized
        rng = random.Random(0)
        labelings = [
            Labeling(
                protocol.topology,
                tuple(rng.randrange(2) for _ in range(protocol.topology.m)),
            )
            for _ in range(2)
        ]
        schedule = RoundRobinSchedule(5)
        batch_reports = simulator.run_batch(labelings, schedule, max_steps=60)
        for labeling, report in zip(labelings, batch_reports, strict=True):
            serial = Simulator(protocol, (0,) * 5).run(
                labeling, schedule, max_steps=60
            )
            assert_reports_equal(serial, report)

    def test_out_of_space_reaction_runs_serially(self):
        n = 5
        topology = unidirectional_ring(n)

        def make(i):
            if i == 0:
                # Emits label 2, which is outside the declared binary space.
                def escape(incoming, x):
                    (value,) = incoming.values()
                    return (2 if value == 1 else 0), value

                return UniformReaction(topology.out_edges(i), escape)

            def forward(incoming, x):
                (value,) = incoming.values()
                return value, value

            return UniformReaction(topology.out_edges(i), forward)

        protocol = StatelessProtocol(
            topology, binary(), [make(i) for i in range(n)], name="escaper"
        )
        simulator = BatchSimulator(protocol, [(0,) * n] * 3)
        # Node 0's table would leave the space, so no node runs on tables.
        assert not simulator.vectorized
        rng = random.Random(9)
        labelings = [
            Labeling(
                topology, tuple(rng.randrange(2) for _ in range(topology.m))
            )
            for _ in range(3)
        ]
        schedule = RoundRobinSchedule(n)
        batch = simulator.run_batch(labelings, schedule, max_steps=50)
        for labeling, report in zip(labelings, batch, strict=True):
            serial = Simulator(protocol, (0,) * n).run(
                labeling, schedule, max_steps=50
            )
            assert_reports_equal(serial, report)
        assert batch_compile(protocol).interner.size == 2

    def test_stateful_protocol_uses_fallback(self):
        n = 4
        topology = unidirectional_ring(n)

        def make(i):
            def fn(incoming, own, x):
                (value,) = incoming.values()
                (mine,) = own.values()
                return {
                    edge: value ^ mine for edge in topology.out_edges(i)
                }, mine

            return LambdaStatefulReaction(fn)

        protocol = StatefulProtocol(
            topology, binary(), [make(i) for i in range(n)], name="stateful"
        )
        simulator = BatchSimulator(protocol, [(0,) * n] * 2)
        assert not simulator.vectorized
        rng = random.Random(11)
        labelings = [
            Labeling(
                topology, tuple(rng.randrange(2) for _ in range(topology.m))
            )
            for _ in range(2)
        ]
        schedule = SynchronousSchedule(n)
        batch = simulator.run_batch(labelings, schedule, max_steps=40)
        for labeling, report in zip(labelings, batch, strict=True):
            serial = Simulator(protocol, (0,) * n).run(
                labeling, schedule, max_steps=40
            )
            assert_reports_equal(serial, report)

    def test_stray_starting_label_leaves_the_space_clean(self, monkeypatch):
        # One starting labeling holds label 2, outside the binary space: the
        # batch runs serially, and a later batch over the same protocol still
        # runs its lockstep on tables over the unchanged space.
        n = 6
        protocol = xor_ring_protocol(n)
        topology = protocol.topology
        inputs = (1, 0, 0, 1, 0, 0)
        rng = random.Random(17)
        labelings = [
            Labeling(topology, tuple(rng.randrange(2) for _ in range(n)))
            for _ in range(8)
        ]
        stray = list(labelings)
        stray[3] = Labeling(topology, (0, 2, 1, 0, 0, 1))
        schedules = [RandomRFairSchedule(n, r=3, seed=b) for b in range(8)]
        simulator = BatchSimulator(protocol, [inputs] * 8)
        assert simulator.vectorized
        reports = simulator.run_batch(stray, schedules, max_steps=80)
        for b, report in enumerate(reports):
            assert report == Simulator(protocol, inputs).run(
                stray[b], schedules[b], max_steps=80
            )
        assert batch_compile(protocol).interner.size == 2

        calls = count_routes(monkeypatch)
        fresh = BatchSimulator(protocol, [inputs] * 8)
        assert fresh.vectorized
        reports = fresh.run_batch(labelings, schedules, max_steps=80)
        assert calls["ring"] or calls["groups"]
        for b, report in enumerate(reports):
            assert report == Simulator(protocol, inputs).run(
                labelings[b], schedules[b], max_steps=80
            )
        assert batch_compile(protocol).interner.size == 2

    def test_escaping_custom_fault_matches_serial(self):
        # A user model keeping the default fire_batch writes label 7 on
        # every edge mid-run; the built-in models only write labels of the
        # space.
        class Escape(FaultModel):
            def apply(self, values, topology, space, step):
                return (7,) * len(values)

        n = 5
        protocol = xor_ring_protocol(n)
        topology = protocol.topology
        inputs = (1, 1, 0, 0, 0)
        rng = random.Random(23)
        labelings = [
            Labeling(topology, tuple(rng.randrange(2) for _ in range(n)))
            for _ in range(6)
        ]
        schedules = [RandomRFairSchedule(n, r=2, seed=b) for b in range(6)]
        plans = [
            OneShotFault(6, Escape()) if b % 2 else NoFaults()
            for b in range(6)
        ]
        simulator = BatchSimulator(protocol, [inputs] * 6)
        assert simulator.vectorized
        reports = simulator.run_batch_with_faults(
            labelings, schedules, plans, max_steps=60
        )
        for b, report in enumerate(reports):
            assert report == Simulator(protocol, inputs).run_with_faults(
                labelings[b], schedules[b], plans[b], max_steps=60
            )
        # Xor with a bit keeps 7 and 6 outside the space for good.
        assert set(reports[1].final.labeling.values) <= {6, 7}
        assert batch_compile(protocol).interner.size == 2

    def test_partial_lifts_run_serially(self, monkeypatch):
        import repro.core.batch as batch_module

        def xor_first(value, x):
            return value ^ (x[0] if isinstance(x, list) else x)

        def check(protocol, inputs):
            simulator = BatchSimulator(protocol, inputs)
            assert not simulator.vectorized
            topology = protocol.topology
            rng = random.Random(topology.m)
            rows = len(inputs)
            labelings = [
                Labeling(
                    topology, tuple(rng.randrange(2) for _ in range(topology.m))
                )
                for _ in range(rows)
            ]
            schedules = [
                RandomRFairSchedule(topology.n, r=2, seed=b) for b in range(rows)
            ]
            plans = [
                BurstFault((3, 5), RandomCorruption(0.5, seed=b))
                for b in range(rows)
            ]
            plain = simulator.run_batch(labelings, schedules, max_steps=50)
            faulty = simulator.run_batch_with_faults(
                labelings, schedules, plans, max_steps=50
            )
            for b in range(rows):
                serial = Simulator(protocol, inputs[b])
                assert plain[b] == serial.run(
                    labelings[b], schedules[b], max_steps=50
                )
                assert faulty[b] == serial.run_with_faults(
                    labelings[b], schedules[b], plans[b], max_steps=50
                )
            with pytest.raises(ValidationError, match="lookup table"):
                simulator.step_codes(
                    np.zeros((1, topology.m), dtype=np.uint8),
                    np.zeros((1, topology.n), dtype=np.uint8),
                    {0},
                )

        # One unhashable private input: every other node would lift.
        protocol = xor_ring_protocol(6, op=xor_first)
        check(protocol, [([1], 0, 1, 0, 0, 1)] * 4)

        # A table budget that only degree-1 nodes fit: node 2 also reads
        # the chord 0 -> 2, so its 4-row table misses.
        topology = Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])

        def parity(incoming, x):
            bit = sum(incoming.values()) % 2 ^ x
            return bit, bit

        protocol = StatelessProtocol(
            topology,
            binary(),
            [UniformReaction(topology.out_edges(i), parity) for i in range(4)],
            name="chorded-ring",
        )
        monkeypatch.setattr(batch_module, "DEFAULT_MAX_TABLE_SIZE", 2)
        assert batch_compile(protocol).node_liftable(0)
        assert not batch_compile(protocol).node_liftable(2)
        check(protocol, [(0, 1, 0, 0), (1, 1, 0, 0)])

    def test_partial_table_raises_like_serial(self):
        topology = unidirectional_ring(3)
        space = binary()
        reactions = []
        for i in range(3):
            in_edges = topology.in_edges(i)
            out_edges = topology.out_edges(i)
            # Only the all-zeros row exists; any 1 on the wire is undefined.
            table = {((0,), 0): ((0,), 0)}
            reactions.append(TabularReaction(in_edges, out_edges, table))
        protocol = StatelessProtocol(topology, space, reactions, name="partial")
        bad = Labeling(topology, (1, 0, 0))
        schedule = SynchronousSchedule(3)
        with pytest.raises(ValidationError, match="no row"):
            Simulator(protocol, (0,) * 3).run(bad, schedule, max_steps=5)
        simulator = BatchSimulator(protocol, [(0,) * 3])
        with pytest.raises(ValidationError, match="no row"):
            simulator.run_batch([bad], schedule, max_steps=5)

    def test_batch_validates_row_counts(self):
        protocol = xor_ring_protocol(4)
        simulator = BatchSimulator(protocol, [(0,) * 4] * 2)
        labeling = Labeling.uniform(protocol.topology, 0)
        with pytest.raises(ValidationError):
            simulator.run_batch([labeling], SynchronousSchedule(4))
        with pytest.raises(ValidationError):
            BatchSimulator(protocol, [(0,) * 3])


# -- fire_batch contract -----------------------------------------------------


class TestFireBatch:
    @pytest.mark.parametrize("step", [0, 7, 123])
    def test_models_fire_batch_equals_apply(self, step):
        protocol = xor_ring_protocol(6)
        topology = protocol.topology
        space = protocol.label_space
        rng = random.Random(step)
        edges = list(topology.edges)
        models = [
            RandomCorruption(0.6, seed=17),
            TargetedCorruption(edges[:3], seed=21),
            TargetedCorruption(edges[1:3], labels={edges[1]: 1}, seed=4),
            StuckAtFault(edges[2:4], 1),
            ComposedFault(
                [RandomCorruption(0.3, seed=9), StuckAtFault([edges[0]], 0)]
            ),
        ]
        rows = [
            tuple(rng.randrange(2) for _ in range(topology.m))
            for _ in range(5)
        ]
        for model in models:
            interner = LabelInterner(iter(space))
            codes = np.array(
                [interner.encode_values(row) for row in rows], dtype=np.int64
            )
            model.fire_batch(
                codes, list(range(len(rows))), topology, space, interner, step
            )
            for b, row in enumerate(rows):
                expected = model.apply(row, topology, space, step)
                assert interner.decode_values(codes[b]) == tuple(expected), (
                    model,
                    b,
                )

    def test_interner_round_trip(self):
        interner = LabelInterner(["a", "b"])
        assert interner.encode("a") == 0
        assert interner.encode("c") == 2
        assert interner.size == 3
        values = ("c", "a", "b", "a")
        assert interner.decode_values(interner.encode_values(values)) == values
