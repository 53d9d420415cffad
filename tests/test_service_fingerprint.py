"""Tests for the service layer's canonical fingerprints.

Two satellite suites guard the cache's content addressing:

* **Golden fixtures** (``tests/fixtures/golden_fingerprints.json``): the
  committed digests of the protocol zoo, schedule/fault components, and
  full case keys.  Any canonicalization drift — a reordered field, a
  changed tag letter, a new attribute leaking into the tree — changes these
  digests and would silently poison every existing on-disk cache; the
  fixture turns that into a loud test failure.  If a change is
  *intentional*, bump ``ENGINE_VERSION`` (retiring old caches) and
  regenerate the fixture.
* **Near-miss matrix**: cases differing in exactly one semantic dimension
  (a seed, a fault fire time, a schedule phase, one labeling bit, ...)
  must never share a fingerprint — a collision here would serve one case's
  result for another.  Cosmetic state (tags, names, case position) must
  *not* separate fingerprints, or identical resubmissions would always
  miss.
"""

import dataclasses
import importlib.util
import json
import pickle
import random
from pathlib import Path

import pytest

from repro.analysis import SweepCase
from repro.core import (
    Labeling,
    LambdaReaction,
    StatelessProtocol,
    SynchronousSchedule,
    UniformReaction,
    binary,
)
from repro.core.schedule import (
    ExplicitSchedule,
    RandomRFairSchedule,
    RoundRobinSchedule,
    ShiftedSchedule,
)
from repro.exceptions import FingerprintError
from repro.faults.models import RandomCorruption, StuckAtFault
from repro.faults.schedules import BurstFault, NoFaults, OneShotFault
from repro.graphs import clique, unidirectional_ring
from repro.service import ENGINE_VERSION, canonical, fingerprint
from repro.service.plan import plan_resilience_sweep, plan_sweep

FIXTURE = Path(__file__).parent / "fixtures" / "golden_fingerprints.json"


# Module-level reaction so the protocol (and plans over it) pickle.
def _forward_bit(incoming, _x):
    (value,) = incoming.values()
    return value, value


def _picklable_ring(n):
    topology = unidirectional_ring(n)
    reactions = [
        UniformReaction(topology.out_edges(i), _forward_bit) for i in range(n)
    ]
    return StatelessProtocol(topology, binary(), reactions, name="ring")


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


def _zoo_protocols() -> dict:
    from repro.dynamics.congestion import congestion_protocol
    from repro.dynamics.diffusion import contagion_protocol
    from repro.power.counters import d_counter_protocol, two_counter_protocol
    from repro.power.unidirectional import worst_case_protocol
    from repro.stabilization.example_clique import example1_protocol

    return {
        "example1_clique_n4": example1_protocol(4),
        "two_counter_n5": two_counter_protocol(5),
        "d_counter_n5_mod3": d_counter_protocol(5, 3),
        "worst_case_n4_q2": worst_case_protocol(4, 2),
        "contagion_clique4_theta0.5": contagion_protocol(clique(4), 0.5),
        "congestion_players3": congestion_protocol(3),
    }


def _zoo_components() -> dict:
    return {
        "synchronous_n4": SynchronousSchedule(4),
        "round_robin_n4": RoundRobinSchedule(4),
        "random_rfair_n4_r2_seed7": RandomRFairSchedule(4, r=2, seed=7),
        "explicit_2cycle_n3": ExplicitSchedule(3, [(0,), (1, 2)]),
        "no_faults": NoFaults(),
        "oneshot_t3_corrupt0.5_seed1": OneShotFault(
            3, RandomCorruption(0.5, seed=1)
        ),
    }


def _example1_plans():
    from repro.stabilization.example_clique import example1_protocol

    protocol = example1_protocol(4)
    topology = protocol.topology
    cases = [
        SweepCase((0,) * 4, Labeling(topology, (0,) * topology.m)),
        SweepCase((0,) * 4, Labeling(topology, (1, 0) * (topology.m // 2))),
    ]
    plan = plan_sweep(
        protocol, cases, lambda i, c: SynchronousSchedule(4), max_steps=100
    )
    rplan = plan_resilience_sweep(
        protocol,
        cases,
        lambda i, c: RoundRobinSchedule(4),
        lambda i, c: OneShotFault(3, RandomCorruption(0.5, seed=i)),
        max_steps=100,
    )
    return plan, rplan


class TestGoldenFingerprints:
    """The committed digests must be reproducible from source, forever
    (within one ``ENGINE_VERSION``)."""

    def test_fixture_matches_engine_version(self):
        assert _golden()["engine_version"] == ENGINE_VERSION

    def test_protocol_zoo_digests(self):
        golden = _golden()["protocols"]
        built = {name: fingerprint(p) for name, p in _zoo_protocols().items()}
        assert built == golden

    def test_component_digests(self):
        golden = _golden()["components"]
        built = {name: fingerprint(c) for name, c in _zoo_components().items()}
        assert built == golden

    def test_case_and_plan_digests(self):
        golden = _golden()["cases"]
        plan, rplan = _example1_plans()
        assert plan.case_fingerprint(plan.specs[0]) == golden["example1_sweep_case0"]
        assert plan.case_fingerprint(plan.specs[1]) == golden["example1_sweep_case1"]
        assert plan.plan_fingerprint == golden["example1_sweep_plan"]
        assert (
            rplan.case_fingerprint(rplan.specs[0])
            == golden["example1_resilience_case0"]
        )
        assert rplan.plan_fingerprint == golden["example1_resilience_plan"]

    def test_rebuilding_gives_identical_digests(self):
        # Construction is deterministic: two independent builds agree.
        first = {name: fingerprint(p) for name, p in _zoo_protocols().items()}
        second = {name: fingerprint(p) for name, p in _zoo_protocols().items()}
        assert first == second

    def test_pickled_plan_keeps_its_fingerprints(self):
        # The id-keyed memo must not survive pickling (ids are
        # process-local); fingerprints recomputed after a round-trip match.
        # Needs module-level reactions — closure-built protocols (the zoo)
        # do not pickle, by design.
        protocol = _picklable_ring(3)
        topology = protocol.topology
        plan = plan_sweep(
            protocol,
            [SweepCase((0, 0, 0), Labeling(topology, (0, 1, 0)))],
            lambda i, c: SynchronousSchedule(3),
        )
        before = plan.case_fingerprints()
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.case_fingerprints() == before
        assert clone.plan_fingerprint == plan.plan_fingerprint

    def test_a_replaced_plan_starts_its_own_memo(self):
        # The memo must not follow the plan into dataclasses.replace: a
        # different step budget is a different key for every case.
        plan, _ = _example1_plans()
        before = plan.case_fingerprints()
        longer = dataclasses.replace(plan, max_steps=plan.max_steps + 1)
        assert set(longer.case_fingerprints()).isdisjoint(before)


def _ring_protocol(n=3, flip=False):
    topology = unidirectional_ring(n)

    def forward(incoming, _x):
        (value,) = incoming.values()
        return value, value

    def negate(incoming, _x):
        (value,) = incoming.values()
        return 1 - value, 1 - value

    fn = negate if flip else forward
    reactions = [UniformReaction(topology.out_edges(i), fn) for i in range(n)]
    return StatelessProtocol(topology, binary(), reactions, name="ring")


class TestNearMissMatrix:
    """One-dimension-apart cases must never collide."""

    def _case_key(self, *, inputs=(0, 0, 0), values=(0, 0, 0), outputs=None,
                  schedule=None, faults=None, max_steps=64, flip=False,
                  kind=None):
        protocol = _ring_protocol(flip=flip)
        topology = protocol.topology
        case = SweepCase(
            inputs, Labeling(topology, values), initial_outputs=outputs
        )
        if schedule is None:
            schedule = SynchronousSchedule(3)
        if kind is None:
            kind = "sweep" if faults is None else "resilience"
        if kind == "sweep":
            plan = plan_sweep(
                protocol, [case], lambda i, c: schedule, max_steps=max_steps
            )
        else:
            plan = plan_resilience_sweep(
                protocol,
                [case],
                lambda i, c: schedule,
                lambda i, c: faults if faults is not None else NoFaults(),
                max_steps=max_steps,
            )
        return plan.case_fingerprint(plan.specs[0])

    def test_every_semantic_dimension_separates(self):
        baseline_faults = OneShotFault(3, RandomCorruption(0.5, seed=0))
        variants = {
            "baseline": self._case_key(),
            # case state
            "input_entry": self._case_key(inputs=(1, 0, 0)),
            "labeling_bit": self._case_key(values=(1, 0, 0)),
            "initial_outputs": self._case_key(outputs=(0, 0, 0)),
            "max_steps": self._case_key(max_steps=65),
            "reaction_body": self._case_key(flip=True),
            # schedule identity and phase
            "round_robin": self._case_key(schedule=RoundRobinSchedule(3)),
            "rfair_seed_0": self._case_key(
                schedule=RandomRFairSchedule(3, r=2, seed=0)
            ),
            "rfair_seed_1": self._case_key(
                schedule=RandomRFairSchedule(3, r=2, seed=1)
            ),
            "rfair_r": self._case_key(
                schedule=RandomRFairSchedule(3, r=3, seed=0)
            ),
            "explicit": self._case_key(
                schedule=ExplicitSchedule(3, [(0,), (1,), (2,)])
            ),
            "explicit_rotated": self._case_key(
                schedule=ExplicitSchedule(3, [(1,), (2,), (0,)])
            ),
            "shifted_1": self._case_key(
                schedule=ShiftedSchedule(SynchronousSchedule(3), 1)
            ),
            "shifted_2": self._case_key(
                schedule=ShiftedSchedule(SynchronousSchedule(3), 2)
            ),
            # plan kind: the same physical case, fault-free, still must not
            # collide with the plain sweep (different engine code path)
            "resilience_no_faults": self._case_key(faults=NoFaults()),
            # fault plan dimensions
            "fault_baseline": self._case_key(faults=baseline_faults),
            "fault_time": self._case_key(
                faults=OneShotFault(4, RandomCorruption(0.5, seed=0))
            ),
            "fault_fraction": self._case_key(
                faults=OneShotFault(3, RandomCorruption(0.25, seed=0))
            ),
            "fault_seed": self._case_key(
                faults=OneShotFault(3, RandomCorruption(0.5, seed=1))
            ),
            "fault_schedule_shape": self._case_key(
                faults=BurstFault([3], RandomCorruption(0.5, seed=0))
            ),
            "fault_model_kind": self._case_key(
                faults=OneShotFault(3, StuckAtFault([(0, 1)], 1))
            ),
        }
        digests = list(variants.values())
        assert len(set(digests)) == len(digests), {
            name: digest[:12] for name, digest in variants.items()
        }

    def test_cosmetic_state_does_not_separate(self):
        protocol = _ring_protocol()
        topology = protocol.topology
        schedule = SynchronousSchedule(3)

        def build(tag, name, order):
            renamed = StatelessProtocol(
                topology, protocol.label_space, protocol.reactions, name=name
            )
            cases = [
                SweepCase((0, 0, 0), Labeling(topology, (0, 0, 0)), tag=tag),
                SweepCase((1, 1, 1), Labeling(topology, (1, 1, 1)), tag=tag),
            ]
            if order:
                cases.reverse()
            return plan_sweep(renamed, cases, lambda i, c: schedule)

        a = build(tag="first", name="ring", order=False)
        b = build(tag="second", name="renamed-ring", order=True)
        # Same physical cases -> same fingerprints, regardless of tag,
        # protocol name, or position in the sweep.
        assert set(a.case_fingerprints()) == set(b.case_fingerprints())
        # ...but the plan fingerprint is order-sensitive (a plan is a
        # sequence, and job records key on the exact submission).
        assert a.plan_fingerprint != b.plan_fingerprint


class TestRefusals:
    """Objects without a stable identity are rejected, not mis-keyed."""

    def test_lambda_reactions_are_refused(self):
        topology = clique(3)
        reactions = [
            LambdaReaction(lambda incoming, x: (0, 0)) for _ in range(3)
        ]
        protocol = StatelessProtocol(topology, binary(), reactions)
        with pytest.raises(FingerprintError, match="lambda"):
            fingerprint(protocol)

    def test_raw_rng_state_is_refused(self):
        with pytest.raises(FingerprintError):
            fingerprint(random.Random(0))

    def test_rfair_schedule_fingerprints_by_seed_not_rng(self):
        # The RNG-bearing schedule is canonicalized through its registered
        # (n, r, p, seed) extractor, so consuming the RNG changes nothing.
        schedule = RandomRFairSchedule(4, r=2, seed=9)
        before = fingerprint(schedule)
        schedule.active(0), schedule.active(7)  # realize some steps
        assert fingerprint(schedule) == before
        assert fingerprint(RandomRFairSchedule(4, r=2, seed=9)) == before

    def test_canonical_is_repr_stable(self):
        # canonical() output feeds repr() -> sha256; it must be a pure tree
        # of scalars/tuples (no object addresses leaking in).
        tree = canonical(_zoo_components()["oneshot_t3_corrupt0.5_seed1"])
        assert "0x" not in repr(tree)


class _SlotBase:
    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p


class _StringSlot(_SlotBase):
    __slots__ = "prob"  # one slot name, not four

    def __init__(self, p, prob):
        super().__init__(p)
        self.prob = prob


class _OnlyStringSlot:
    __slots__ = "seed"

    def __init__(self, seed):
        self.seed = seed


class _PrivateSlot(_SlotBase):
    __slots__ = ("__prob",)  # stored as ``_PrivateSlot__prob``

    def __init__(self, p, prob):
        super().__init__(p)
        self.__prob = prob


class TestSlotWalk:
    """Unregistered objects are keyed by every slot along their MRO."""

    def test_a_private_slot_is_keyed_by_its_stored_name(self):
        assert canonical(_PrivateSlot(1, 0.25))[2] == (
            ("_PrivateSlot__prob", ("f", "0.25")),
            ("p", 1),
        )
        assert fingerprint(_PrivateSlot(1, 0.25)) != fingerprint(
            _PrivateSlot(1, 0.75)
        )

    def test_a_string_slot_is_one_attribute(self):
        assert canonical(_StringSlot(1, 0.25))[2] == (
            ("p", 1),
            ("prob", ("f", "0.25")),
        )
        assert fingerprint(_StringSlot(1, 0.25)) != fingerprint(
            _StringSlot(1, 0.75)
        )

    def test_a_lone_string_slot_is_not_refused(self):
        assert canonical(_OnlyStringSlot(3))[2] == (("seed", 3),)
        assert fingerprint(_OnlyStringSlot(3)) != fingerprint(_OnlyStringSlot(4))


_REACTION_MODULE = """\
from repro.core.reaction import ReactionFunction


def react(incoming, x):
    (value,) = incoming.values()
    return value {op} x, value


class Reactor:
    def __init__(self):
        self.offset = 0

    def react(self, incoming, x):
        (value,) = incoming.values()
        return value {op} x, value


class Forward(ReactionFunction):
    def __init__(self, out_edges):
        self.out_edges = tuple(out_edges)

    def react(self, incoming, x):
        (value,) = incoming.values()
        return {{edge: value {op} x for edge in self.out_edges}}, value
"""

# The XOR module again, with comments and blank lines added.
_COMMENTED_MODULE = """\
from repro.core.reaction import ReactionFunction


# An XOR reaction.
def react(incoming, x):  # fold the private input in

    (value,) = incoming.values()
    return value ^ x, value  # forward


class Reactor:
    def __init__(self):
        self.offset = 0

    def react(self, incoming, x):
        # As above, as a method.
        (value,) = incoming.values()
        return value ^ x, value


class Forward(ReactionFunction):
    def __init__(self, out_edges):
        self.out_edges = tuple(out_edges)

    def react(self, incoming, x):
        (value,) = incoming.values()
        # As above, as a reaction class.
        return {edge: value ^ x for edge in self.out_edges}, value
"""

_BRANCHING_MODULE = """\
def react(incoming, x):
    (value,) = incoming.values()
    if x:
        value = 1 - value
{indent}return value, value
"""

# Python 3.12 splits f-strings into several tokens; earlier versions do not.
_FSTRING_MODULE = """\
def react(incoming, x):
    (value,) = incoming.values()
    label = f"{value!r:>3}{{x}}" + f'''{f"{x + 1}"}
{x=}'''
    return value, label
"""


def _load_reaction_module(directory, source):
    """Import ``source`` as module ``reaction_module`` from ``directory``."""
    directory.mkdir()
    path = directory / "reaction_module.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location("reaction_module", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _keys(module):
    """Digests of a ring over the module's function, of its method, and of
    a ring of its reaction class."""
    topology = unidirectional_ring(3)
    reactions = [
        UniformReaction(topology.out_edges(i), module.react) for i in range(3)
    ]
    protocol = StatelessProtocol(topology, binary(), reactions)
    forwards = [module.Forward(topology.out_edges(i)) for i in range(3)]
    custom = StatelessProtocol(topology, binary(), forwards)
    return (
        fingerprint(protocol),
        fingerprint(module.Reactor().react),
        fingerprint(custom),
    )


class TestSourceKeyedCode:
    """A function's body is in its key; its comments and blank lines are
    not.  Same module name, same qualified name: only the source differs."""

    def test_editing_a_body_changes_the_key(self, tmp_path):
        xor = _load_reaction_module(tmp_path / "xor", _REACTION_MODULE.format(op="^"))
        or_ = _load_reaction_module(tmp_path / "or", _REACTION_MODULE.format(op="|"))
        assert xor.react.__qualname__ == or_.react.__qualname__
        function_xor, method_xor, class_xor = _keys(xor)
        function_or, method_or, class_or = _keys(or_)
        assert function_xor != function_or
        assert method_xor != method_or
        assert class_xor != class_or

    def test_a_comment_only_edit_keeps_the_key(self, tmp_path):
        plain = _load_reaction_module(
            tmp_path / "plain", _REACTION_MODULE.format(op="^")
        )
        commented = _load_reaction_module(tmp_path / "commented", _COMMENTED_MODULE)
        assert _keys(plain) == _keys(commented)

    def test_moving_a_statement_between_blocks_changes_the_key(self, tmp_path):
        # Same tokens, different block structure.
        outside = _load_reaction_module(
            tmp_path / "outside", _BRANCHING_MODULE.format(indent="    ")
        )
        inside = _load_reaction_module(
            tmp_path / "inside", _BRANCHING_MODULE.format(indent="        ")
        )
        assert fingerprint(outside.react) != fingerprint(inside.react)

    def test_fstrings_key_alike_on_every_python(self, tmp_path):
        module = _load_reaction_module(tmp_path / "fstrings", _FSTRING_MODULE)
        # Pinned on Python 3.10, 3.11 and 3.12; re-pin with the golden fixture.
        assert fingerprint(module.react) == (
            "7aae74b482a519d43a84ee5ef993c3b98a99b2d85826b65044a2ff0c78d3242d"
        )

    def test_functions_without_source_keep_the_name_key(self):
        namespace = {"__name__": "generated"}
        exec("def react(incoming, x):\n    return 0, 0\n", namespace)
        tree = canonical(namespace["react"])
        assert tree == ("F", "generated", "react", (), ())
