"""Tests for the graph-automorphism substrate (repro.graphs.automorphisms).

The symmetry quotient stands on three legs: discovering automorphism
groups of the standard families, acting with them on states (labelings /
per-node vectors / activation sets), and canonicalizing states to orbit
representatives.  Each leg is checked directly here; end-to-end quotient
equivalence lives in ``test_quotient.py``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExplicitLabelSpace,
    StatelessProtocol,
    UniformReaction,
    default_inputs,
)
from repro.core.batch import batch_compile
from repro.exceptions import ValidationError
from repro.graphs import (
    SymmetryGroup,
    automorphism_generators,
    bidirectional_ring,
    clique,
    close_generators,
    edge_permutation,
    protocol_symmetry_group,
    star,
    torus,
    unidirectional_ring,
)
from repro.graphs import automorphisms
from repro.graphs.automorphisms import (
    compose,
    identity_permutation,
    invert,
)
from repro.stabilization import example1_protocol

from tests.helpers import (
    copy_ring_protocol,
    or_clique_protocol,
    symmetric_protocol,
    xor_ring_protocol,
)


def _full_group(topology):
    return close_generators(
        automorphism_generators(topology), topology.n, 100_000
    )


class TestGroupDiscovery:
    @pytest.mark.parametrize(
        "topology, order",
        [
            (clique(3), 6),
            (clique(4), 24),
            (clique(5), 120),
            (unidirectional_ring(5), 5),
            (unidirectional_ring(6), 6),
            (bidirectional_ring(5), 10),
            (bidirectional_ring(6), 12),
            (star(5), 24),  # S_4 on the leaves, hub fixed
        ],
    )
    def test_known_orders(self, topology, order):
        assert len(_full_group(topology)) == order

    def test_torus_contains_all_shifts(self):
        topology = torus(3, 3)
        elements = set(_full_group(topology))
        assert len(elements) % 9 == 0 and len(elements) >= 9

    def test_every_element_is_an_automorphism(self):
        for topology in [clique(4), bidirectional_ring(6), star(5), torus(3, 3)]:
            for perm in _full_group(topology):
                assert edge_permutation(topology, perm) is not None

    def test_non_automorphism_rejected(self):
        topology = star(4)  # hub 0; swapping hub with a leaf breaks edges
        assert edge_permutation(topology, (1, 0, 2, 3)) is None

    def test_closure_respects_cap(self):
        with pytest.raises(ValidationError):
            close_generators(automorphism_generators(clique(5)), 5, 50)


class TestPermutationAlgebra:
    def test_compose_invert_roundtrip(self):
        p, q = (1, 2, 0, 3), (3, 0, 2, 1)
        identity = identity_permutation(4)
        assert compose(p, invert(p)) == identity
        assert compose(invert(p), p) == identity
        assert invert(compose(p, q)) == compose(invert(q), invert(p))

    def test_edge_permutation_is_a_homomorphism(self):
        topology = bidirectional_ring(5)
        p, q = (1, 2, 3, 4, 0), (0, 4, 3, 2, 1)
        ep = edge_permutation(topology, p)
        eq = edge_permutation(topology, q)
        epq = edge_permutation(topology, compose(p, q))
        assert epq == compose(ep, eq)


class TestSymmetryGroupActions:
    def _group(self, topology):
        return SymmetryGroup(topology, _full_group(topology))

    @pytest.mark.parametrize("bad", [(0, 1, 3), (-1, 1, 2), (0, 0, 2)])
    def test_elements_outside_the_nodes_are_refused(self, bad):
        with pytest.raises(ValidationError, match="not an automorphism"):
            SymmetryGroup(clique(3), [(0, 1, 2), bad])

    def test_identity_must_come_first(self):
        topology = clique(3)
        elements = _full_group(topology)
        shuffled = [p for p in elements if p != identity_permutation(3)]
        with pytest.raises(ValidationError):
            SymmetryGroup(topology, shuffled)

    def test_index_algebra_matches_permutations(self):
        group = self._group(clique(4))
        for g in range(group.order):
            for h in range(0, group.order, 5):
                gh = group.compose(g, h)
                assert group.node_perms[gh] == compose(
                    group.node_perms[g], group.node_perms[h]
                )
            assert group.node_perms[group.inverse(g)] == invert(
                group.node_perms[g]
            )

    def test_labeling_action_is_a_group_action(self):
        group = self._group(bidirectional_ring(4))
        values = tuple(range(len(group.topology.edges)))
        for g in range(group.order):
            for h in range(group.order):
                via_compose = group.apply_labeling(group.compose(g, h), values)
                stepwise = group.apply_labeling(g, group.apply_labeling(h, values))
                assert via_compose == stepwise

    def test_per_node_action_tracks_nodes(self):
        group = self._group(clique(4))
        vector = (10, 20, 30, 40)
        for g in range(group.order):
            perm = group.node_perms[g]
            moved = group.apply_per_node(g, vector)
            for i in range(4):
                assert moved[perm[i]] == vector[i]
            assert group.apply_nodes(g, {0, 1}) == frozenset({perm[0], perm[1]})

    def test_element_order_divides_group_order(self):
        group = self._group(clique(4))
        for g in range(group.order):
            assert group.order % group.element_order(g) == 0


class TestStateCanonicalizer:
    def _setup(self, topology):
        group = SymmetryGroup(topology, _full_group(topology), (0, 1))
        return group, group.canonicalizer(track_outputs=False, r=3)

    def test_canonical_is_idempotent_and_orbit_invariant(self):
        topology = clique(4)
        group, canon = self._setup(topology)
        values = (0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1)[: len(topology.edges)]
        countdown = (1, 2, 3, 3)

        g0, _ = canon.canonical(values, None, countdown)
        canon_values = group.apply_labeling(g0, values)
        canon_countdown = group.apply_per_node(g0, countdown)
        for g in range(group.order):
            moved_values = group.apply_labeling(g, values)
            moved_countdown = group.apply_per_node(g, countdown)
            gk, _ = canon.canonical(moved_values, None, moved_countdown)
            assert group.apply_labeling(gk, moved_values) == canon_values
            assert group.apply_per_node(gk, moved_countdown) == canon_countdown

    def test_ties_give_exact_orbit_sizes(self):
        topology = clique(3)
        group, canon = self._setup(topology)
        import itertools

        states = list(itertools.product((0, 1), repeat=len(topology.edges)))
        orbits = {}
        for values in states:
            g0, ties = canon.canonical(values, None, (1, 1, 1))
            rep = group.apply_labeling(g0, values)
            orbit_size = group.order // ties
            orbits.setdefault(rep, set()).add(values)
            assert group.order % ties == 0
            # the claimed orbit size matches the actual orbit
            actual = {group.apply_labeling(g, values) for g in range(group.order)}
            assert len(actual) == orbit_size
        # orbits partition the space
        assert sum(len(v) for v in orbits.values()) == len(states)


def _torus_shift_group(rows, cols):
    n = rows * cols
    down = tuple(((i // cols + 1) % rows) * cols + i % cols for i in range(n))
    right = tuple((i // cols) * cols + (i % cols + 1) % cols for i in range(n))
    return SymmetryGroup(
        torus(rows, cols), close_generators([down, right], n), _LABELS, _OUTPUTS
    )


#: The declared labels and outputs of the groups below: codes up to 300
#: (and labels of several types), as ``_bases`` draws them.
_LABELS = (*range(301), "a", "b", None, ("t", 1))
_OUTPUTS = range(300)
#: Their canonicalizers' fairness bound: countdown codes up to 300 too.
_R = 300

#: One group per family the quotient meets: symmetric groups on cliques,
#: cyclic and dihedral groups on rings, and the shift group of a torus.
_GROUPS = {
    "S4": SymmetryGroup(clique(4), _full_group(clique(4)), _LABELS, _OUTPUTS),
    "S5": SymmetryGroup(clique(5), _full_group(clique(5)), _LABELS, _OUTPUTS),
    "C6": SymmetryGroup(
        unidirectional_ring(6),
        close_generators([tuple((i + 1) % 6 for i in range(6))], 6),
        _LABELS,
        _OUTPUTS,
    ),
    "D6": SymmetryGroup(
        bidirectional_ring(6), _full_group(bidirectional_ring(6)), _LABELS, _OUTPUTS
    ),
    "Z3xZ4": _torus_shift_group(3, 4),
}
#: S_4 over three labels, whose 12 label columns pack into one key word.
_S4_TERNARY = SymmetryGroup(clique(4), _full_group(clique(4)), range(3))
#: S_5 over 600 labels, whose 20 label columns (10 bits each) take four
#: key words, compared in order.
_S5_WIDE = SymmetryGroup(
    clique(5), _full_group(clique(5)), [f"l{i}" for i in range(600)], "xy"
)


def _base_length(canon):
    """The length of an encoded state, ``countdown + labels [+ outputs]``."""
    group = canon.group
    return group.n + group.topology.m + (group.n if canon.track_outputs else 0)


@st.composite
def _bases(draw, length, top=None):
    """Code vectors of ``length`` with many ties: codes from a small range,
    sometimes one value repeated (ties = |G|)."""
    if top is None:
        top = draw(st.sampled_from((1, 2, 4, 7, 300)))
    if draw(st.booleans()):
        return (draw(st.integers(0, top)),) * length
    return tuple(draw(st.lists(st.integers(0, top), min_size=length, max_size=length)))


def _check_blocks(group, track_outputs, blocks):
    """Canonicalize each block of ``(values, outputs, countdown)`` states
    (countdown values up to 4) through one canonicalizer's
    ``canonical_block`` and, state by state, through another's
    ``canonical``: equal results."""
    block = group.canonicalizer(track_outputs, 4)
    single = group.canonicalizer(track_outputs, 4)
    for states in blocks:
        labelings: dict = {}
        countdowns: dict = {}
        labeling_of, countdown_of, expected = [], [], []
        for values, outputs, countdown in states:
            labeling = (values, outputs if track_outputs else None)
            labeling_of.append(labelings.setdefault(labeling, len(labelings)))
            countdown_of.append(countdowns.setdefault(countdown, len(countdowns)))
            expected.append(single.canonical(*labeling, countdown))
        gids, ties = block.canonical_block(
            list(labelings),
            block.encode_payloads(labelings),
            list(countdowns),
            np.array(labeling_of),
            np.array(countdown_of),
        )
        assert list(zip(gids.tolist(), ties.tolist(), strict=True)) == expected


@st.composite
def _state_blocks(draw, group, top=None, blocks=3):
    """Blocks of states over a few labelings, outputs and countdowns, which
    recur within and across blocks: labels are the group's first ``top + 1``
    and outputs its first three."""
    m, n = group.topology.m, group.n
    top = draw(st.sampled_from((1, 2, 4, 300))) if top is None else top
    codes = st.sampled_from(group.label_universe[: top + 1])

    def vectors(values, length):
        # Uniform vectors tie across the group, so later columns decide.
        return st.one_of(
            st.tuples(*[values] * length), values.map(lambda v: (v,) * length)
        )

    labelings = draw(st.lists(vectors(codes, m), min_size=1, max_size=6))
    output_values = st.sampled_from(list(group.output_codes)[:3])
    outputs = draw(st.lists(vectors(output_values, n), min_size=1, max_size=3))
    countdowns = draw(st.lists(vectors(st.integers(1, 4), n), min_size=1, max_size=8))
    states = st.tuples(
        st.sampled_from(labelings),
        st.sampled_from(outputs),
        st.sampled_from(countdowns),
    )
    block = st.lists(states, min_size=1, max_size=40)
    return draw(st.lists(block, min_size=1, max_size=blocks))


class TestPackedCanonicalForm:
    """The numpy kernel packs permuted vectors into exact float64 key
    words; it must agree with the tuple-comparing reference exactly, in
    the minimizing element (lowest index) as well as the tie count."""

    def test_group_orders(self):
        orders = {name: group.order for name, group in _GROUPS.items()}
        assert orders == {"S4": 24, "S5": 120, "C6": 6, "D6": 12, "Z3xZ4": 12}

    @pytest.mark.parametrize("track_outputs", [False, True])
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference(self, name, track_outputs, data):
        canon = _GROUPS[name].canonicalizer(track_outputs, _R)
        base = data.draw(_bases(_base_length(canon)))
        assert canon._canonical_np(base) == canon._canonical_py(base)

    @pytest.mark.parametrize("track_outputs", [False, True])
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    def test_all_equal_states_tie_across_the_group(self, name, track_outputs):
        group = _GROUPS[name]
        canon = group.canonicalizer(track_outputs, _R)
        for code in (0, 1, 5):
            base = (code,) * _base_length(canon)
            assert canon._canonical_np(base) == (0, group.order)
            assert canon._canonical_py(base) == (0, group.order)

    @pytest.mark.parametrize("track_outputs", [False, True])
    def test_each_class_packs_at_its_own_width(self, track_outputs):
        # Countdown, label and output columns pack at their own widths,
        # fixed when the canonicalizer is built (41, 13 and 10 bits here):
        # each class in turn holds codes far wider than the others.
        group = SymmetryGroup(
            clique(5), _full_group(clique(5)), range(5001), range(900)
        )
        canon = group.canonicalizer(track_outputs, 2**40)
        outputs = (1, 0, 0, 1, 1) if track_outputs else ()
        wide_outputs = (900, 0, 3, 900, 1) if track_outputs else ()
        for base in (
            (4, 1, 3, 2, 4) + (0, 1) * 10 + outputs,
            (2**40, 1, 3, 2**40, 4) + (0, 1) * 10 + outputs,
            (4, 1, 3, 2, 4) + (5000, 1, 0, 7) * 5 + outputs,
            (4, 4, 3, 3, 4) + (0, 1) * 10 + wide_outputs,
        ):
            assert canon._canonical_np(base) == canon._canonical_py(base)

    @pytest.mark.parametrize("track_outputs", [False, True])
    def test_a_label_part_wider_than_one_key_word(self, track_outputs):
        # S_5's 20 label columns at 10 bits (600 labels) need four key
        # words, compared in order.  Each labeling draws on fresh labels,
        # so the codes climb through the space, and earlier labelings come
        # back.
        group = _S5_WIDE
        canon = group.canonicalizer(track_outputs, 3)
        assert len(canon._code_weights) >= 4 * group.order
        rng = random.Random(5)
        labelings = []
        for step in range(60):
            if step % 3 == 2:
                values = rng.choice(labelings)
            else:
                # Repeats within a labeling leave room for nontrivial ties.
                fresh = [f"l{10 * step + k}" for k in range(10)]
                values = tuple(rng.choice(fresh) for _ in range(group.topology.m))
                labelings.append(values)
            outputs = tuple(rng.choice("xy") for _ in range(5))
            countdown = tuple(rng.choice((1, 2, 2, 3)) for _ in range(5))
            got = canon.canonical(
                values, outputs if track_outputs else None, countdown
            )
            base = canon._encode(values, outputs, countdown)
            assert got == canon._canonical_py(base)
        assert len({label for values in labelings for label in values}) > 300

    @pytest.mark.parametrize("track_outputs", [False, True])
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_memoized_calls_match_the_reference(self, name, track_outputs, data):
        # A sequence of calls that revisits labelings and countdowns hits
        # both memos; every call must still equal the reference scan.
        group = _GROUPS[name]
        canon = group.canonicalizer(track_outputs, _R)
        m, n = group.topology.m, group.n
        labels = st.sampled_from(("a", "b", 7, None, ("t", 1)))

        def vectors(values, length):
            # Uniform vectors tie across the group, so later columns decide.
            return st.one_of(
                st.tuples(*[values] * length), values.map(lambda v: (v,) * length)
            )

        labelings = data.draw(st.lists(vectors(labels, m), min_size=1, max_size=4))
        outputs = data.draw(
            st.lists(vectors(st.integers(0, 2), n), min_size=1, max_size=3)
        )
        countdowns = data.draw(
            st.lists(vectors(st.integers(1, 4), n), min_size=1, max_size=4)
        )
        for _ in range(12):
            values = data.draw(st.sampled_from(labelings))
            outs = data.draw(st.sampled_from(outputs))
            countdown = data.draw(st.sampled_from(countdowns))
            got = canon.canonical(values, outs if track_outputs else None, countdown)
            assert got == canon._canonical_py(canon._encode(values, outs, countdown))

    @pytest.mark.parametrize("cap", [5, 50])
    def test_key_memo_stays_within_its_cap(self, monkeypatch, cap):
        # S_4's keys take 24 floats per labeling: a cap of 50 holds two
        # labelings and starts over on the third, a cap of 5 holds none.
        # Each labeling comes three times in a row, then returns later.
        monkeypatch.setattr(automorphisms, "KEY_MEMO_FLOATS", cap)
        group = _S4_TERNARY
        canon = group.canonicalizer(track_outputs=False, r=3)
        rng = random.Random(cap)
        labelings = [
            tuple(rng.randrange(3) for _ in range(group.topology.m))
            for _ in range(6)
        ]
        for step in range(60):
            values = labelings[step // 3 % len(labelings)]
            countdown = tuple(rng.choice((1, 2, 3)) for _ in range(4))
            got = canon.canonical(values, None, countdown)
            assert got == canon._canonical_py(canon._encode(values, None, countdown))
            assert canon._key_table.size <= cap

    def test_codes_no_key_word_holds_fall_back_to_the_scan(self):
        # r = 2**60 is a legal, if hopeless, fairness bound.  Its countdown
        # columns fit no key word, so the canonicalizer built for it takes
        # the plain scan for every call, which agrees with the packed route
        # wherever both apply.
        group = _GROUPS["D6"]
        canon = group.canonicalizer(track_outputs=False, r=2**60)
        packed = group.canonicalizer(track_outputs=False, r=2)
        assert canon._images is None and packed._images is not None
        values = (0, 1, 1, 0) * 3
        for countdown in ((2**60,) * 6, (2**60, 1, 2, 2**60, 1, 2), (1, 2) * 3):
            got = canon.canonical(values, None, countdown)
            assert got == canon._canonical_py(canon._encode(values, None, countdown))
        countdown = (1, 2) * 3
        assert canon.canonical(values, None, countdown) == packed.canonical(
            values, None, countdown
        )


    @pytest.mark.parametrize("track_outputs", [False, True])
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_a_block_matches_canonical(self, name, track_outputs, data):
        group = _GROUPS[name]
        _check_blocks(group, track_outputs, data.draw(_state_blocks(group)))

    @pytest.mark.parametrize("track_outputs", [False, True])
    def test_a_block_with_a_label_part_wider_than_one_key_word(self, track_outputs):
        # As above, S_5's label columns over 600 labels need four key words,
        # and blocks revisit earlier labelings.
        group = _S5_WIDE
        rng = random.Random(7)
        m = group.topology.m
        labelings, blocks = [], []
        for step in range(10):
            fresh = [f"l{50 * step + k}" for k in range(50)]
            for k in range(6):
                pool = fresh[:10] if k % 2 else fresh
                labelings.append(tuple(rng.choice(pool) for _ in range(m)))
            blocks.append(
                [
                    (
                        rng.choice(labelings),
                        tuple(rng.choice("xy") for _ in range(5)),
                        tuple(rng.choice((1, 2, 2, 3)) for _ in range(5)),
                    )
                    for _ in range(30)
                ]
            )
        _check_blocks(group, track_outputs, blocks)
        assert len({label for values in labelings for label in values}) > 300

    @pytest.mark.parametrize("cap", [5, 50])
    def test_blocks_keep_the_key_memo_within_its_cap(self, monkeypatch, cap):
        monkeypatch.setattr(automorphisms, "KEY_MEMO_FLOATS", cap)
        monkeypatch.setattr(automorphisms, "BLOCK_COLUMNS", 2)
        group = _S4_TERNARY
        rng = random.Random(cap)
        labelings = [
            tuple(rng.randrange(3) for _ in range(group.topology.m)) for _ in range(6)
        ]

        def state():
            countdown = tuple(rng.choice((1, 2, 3)) for _ in range(4))
            return rng.choice(labelings), None, countdown

        _check_blocks(group, False, [[state() for _ in range(12)] for _ in range(5)])


class TestCanonicalBlock:
    """``canonical_block`` is what the exploration's level pass calls for
    a quotient's first arrivals; it must answer as ``canonical`` does."""

    @pytest.mark.parametrize("track_outputs", [False, True])
    @given(seed=st.integers(min_value=0, max_value=10**6), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_canonical_on_symmetric_protocols(self, track_outputs, seed, data):
        protocol = symmetric_protocol(random.Random(seed))
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert group is not None  # the full automorphism group verifies
        top = max(protocol.label_space)
        _check_blocks(group, track_outputs, data.draw(_state_blocks(group, top=top)))


class TestElementOrder:
    """``gid`` is an index into ``node_perms`` and witness lifting replays
    it, so the order of the elements is part of every quotient graph's
    stores.  These lists were generated by the breadth-first closure of
    the verified generating set; a closure with other generators (say,
    the unverified proposals, which include the redundant rotations by 3
    and 2 on a 6-ring) orders the group differently."""

    def test_example1_on_k4(self):
        protocol = example1_protocol(4)
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert [list(p) for p in group.node_perms] == [
            [0, 1, 2, 3], [1, 0, 2, 3], [1, 2, 3, 0], [2, 1, 3, 0],
            [0, 2, 3, 1], [2, 3, 0, 1], [2, 0, 3, 1], [3, 2, 0, 1],
            [1, 3, 0, 2], [2, 3, 1, 0], [3, 0, 1, 2], [3, 1, 0, 2],
            [3, 2, 1, 0], [0, 3, 1, 2], [2, 0, 1, 3], [3, 0, 2, 1],
            [0, 2, 1, 3], [0, 3, 2, 1], [2, 1, 0, 3], [3, 1, 2, 0],
            [0, 1, 3, 2], [1, 2, 0, 3], [1, 3, 2, 0], [1, 0, 3, 2],
        ]  # fmt: skip

    def test_example1_on_k6_begins(self):
        protocol = example1_protocol(6)
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert group.order == 720
        assert [list(p) for p in group.node_perms[:24]] == [
            [0, 1, 2, 3, 4, 5], [1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0],
            [2, 1, 3, 4, 5, 0], [0, 2, 3, 4, 5, 1], [2, 3, 4, 5, 0, 1],
            [2, 0, 3, 4, 5, 1], [3, 2, 4, 5, 0, 1], [1, 3, 4, 5, 0, 2],
            [2, 3, 4, 5, 1, 0], [3, 4, 5, 0, 1, 2], [3, 1, 4, 5, 0, 2],
            [3, 2, 4, 5, 1, 0], [4, 3, 5, 0, 1, 2], [0, 3, 4, 5, 1, 2],
            [2, 4, 5, 0, 1, 3], [3, 4, 5, 0, 2, 1], [3, 4, 5, 1, 0, 2],
            [4, 5, 0, 1, 2, 3], [3, 0, 4, 5, 1, 2], [4, 2, 5, 0, 1, 3],
            [4, 3, 5, 0, 2, 1], [4, 3, 5, 1, 0, 2], [5, 4, 0, 1, 2, 3],
        ]  # fmt: skip

    @pytest.mark.parametrize(
        "n, perms",
        [
            (6, [
                [0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0], [2, 3, 4, 5, 0, 1],
                [3, 4, 5, 0, 1, 2], [4, 5, 0, 1, 2, 3], [5, 0, 1, 2, 3, 4],
            ]),
            (8, [
                [0, 1, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0],
                [2, 3, 4, 5, 6, 7, 0, 1], [3, 4, 5, 6, 7, 0, 1, 2],
                [4, 5, 6, 7, 0, 1, 2, 3], [5, 6, 7, 0, 1, 2, 3, 4],
                [6, 7, 0, 1, 2, 3, 4, 5], [7, 0, 1, 2, 3, 4, 5, 6],
            ]),
            (9, [
                [0, 1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8, 0],
                [2, 3, 4, 5, 6, 7, 8, 0, 1], [3, 4, 5, 6, 7, 8, 0, 1, 2],
                [4, 5, 6, 7, 8, 0, 1, 2, 3], [5, 6, 7, 8, 0, 1, 2, 3, 4],
                [6, 7, 8, 0, 1, 2, 3, 4, 5], [7, 8, 0, 1, 2, 3, 4, 5, 6],
                [8, 0, 1, 2, 3, 4, 5, 6, 7],
            ]),
        ],
    )  # fmt: skip
    def test_xor_rings(self, n, perms):
        protocol = xor_ring_protocol(n)
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert [list(p) for p in group.node_perms] == perms


def _reference_elements(protocol, inputs):
    """The verified group's elements as they were first computed: close the
    discovered generators, keep the elements fixing the inputs, and close
    the greedy generating list of those (every candidate of the protocols
    below verifies)."""
    n = protocol.n
    elements = close_generators(automorphism_generators(protocol.topology), n)
    invariant = [
        p for p in elements if all(inputs[p[i]] == inputs[i] for i in range(n))
    ]
    closure = (identity_permutation(n),)
    generators: list = []
    for perm in invariant:
        if perm not in closure:
            generators.append(perm)
            closure = close_generators(generators, n, cap=len(invariant) + 1)
    return closure


def _string_copy_ring(n: int) -> StatelessProtocol:
    """The copy ring over three string labels, declared out of sorted
    order; each node outputs its label upper-cased."""
    topology = unidirectional_ring(n)

    def make(i):
        def fn(incoming, _x):
            (value,) = incoming.values()
            return value, value.upper()

        return UniformReaction(topology.out_edges(i), fn)

    space = ExplicitLabelSpace(("mid", "lo", "hi"))
    return StatelessProtocol(
        topology, space, [make(i) for i in range(n)], name="string-copy-ring"
    )


class TestProtocolSymmetryGroup:
    @pytest.mark.parametrize(
        "protocol, inputs",
        [
            (example1_protocol(4), None),
            (example1_protocol(6), None),
            (or_clique_protocol(clique(5)), (0, 0, 0, 7, 7)),
            (or_clique_protocol(clique(4)), (0, 0, 0, 7)),
            (xor_ring_protocol(6), None),
            (copy_ring_protocol(5), None),
            (or_clique_protocol(bidirectional_ring(6)), None),
            (or_clique_protocol(bidirectional_ring(6)), (1, 0, 0, 1, 0, 0)),
            (or_clique_protocol(torus(3, 3)), None),
            (or_clique_protocol(torus(2, 4)), (0, 1, 0, 1, 0, 1, 0, 1)),
        ],
        ids=[
            "K4", "K6", "K5-asymmetric", "K4-one-apart", "xor-ring", "copy-ring",
            "bi-ring", "bi-ring-asymmetric", "torus", "torus-asymmetric",
        ],
    )  # fmt: skip
    def test_elements_and_inverses_match_the_reference(self, protocol, inputs):
        inputs = default_inputs(protocol) if inputs is None else inputs
        group = protocol_symmetry_group(protocol, inputs)
        reference = _reference_elements(protocol, inputs)
        assert group.node_perms == reference
        inverses = tuple(reference.index(invert(p)) for p in reference)
        assert tuple(map(group.inverse, range(group.order))) == inverses
        assert group.node_inverses == tuple(reference[g] for g in inverses)
        assert group._inverses.tolist() == list(inverses)

    def test_k6_closes_its_group_once(self, monkeypatch):
        # Every element fixes Example 1's inputs, and the greedy generating
        # list is the discovered one, so the group closed from the
        # discovered generators is kept.  The greedy list closes <(0 1)>
        # (2 elements) on the way; the 720 elements are closed once, where
        # they were closed twice before.
        closures = []
        close = automorphisms.close_generators

        def counting(generators, n, cap=automorphisms.DEFAULT_MAX_GROUP_ORDER):
            closures.append(close(generators, n, cap))
            return closures[-1]

        monkeypatch.setattr(automorphisms, "close_generators", counting)
        protocol = example1_protocol(6)
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert [len(closure) for closure in closures] == [720, 2]
        assert group.node_perms == closures[0]

    def test_or_clique_gets_the_full_symmetric_group(self):
        protocol = or_clique_protocol(clique(4))
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert group is not None
        assert group.order == 24
        assert group.label_universe == (0, 1)

    @pytest.mark.parametrize(
        "protocol",
        [example1_protocol(4), xor_ring_protocol(6), _string_copy_ring(4)],
        ids=["K4", "xor-ring", "string-copy-ring"],
    )
    def test_labels_are_numbered_as_the_batch_interner_numbers_them(self, protocol):
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        interner = batch_compile(protocol).interner
        assert group.label_universe == tuple(protocol.label_space)
        assert group.label_universe == tuple(interner.codes)
        assert group.label_codes == interner.codes

    def test_outputs_are_numbered_in_verification_order_after_none(self):
        # Verification first runs node 0 on each label of the space, in
        # declared order.
        protocol = _string_copy_ring(4)
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert group.output_codes == {None: 0, "MID": 1, "LO": 2, "HI": 3}

    def test_a_label_without_a_code_is_refused(self):
        canon = _S4_TERNARY.canonicalizer(track_outputs=False, r=3)
        with pytest.raises(ValidationError, match="has no code"):
            canon.canonical((3,) * 12, None, (1, 2, 3, 3))

    def test_result_is_cached_per_protocol(self):
        protocol = or_clique_protocol(clique(4))
        inputs = default_inputs(protocol)
        assert protocol_symmetry_group(protocol, inputs) is (
            protocol_symmetry_group(protocol, inputs)
        )

    def test_copy_ring_keeps_rotations(self):
        protocol = copy_ring_protocol(4)
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert group is not None
        assert group.order == 4  # rotations only on the directed ring

    def test_asymmetric_inputs_shrink_the_group(self):
        protocol = or_clique_protocol(clique(4))
        group = protocol_symmetry_group(protocol, (0, 0, 0, 7))
        # only permutations fixing node 3 survive: S_3 or nothing
        assert group is None or group.order <= 6

    def test_non_equivariant_protocol_falls_back_to_none(self):
        from repro.core import LambdaReaction, StatelessProtocol, binary

        topology = clique(3)

        def make(i):
            def fn(incoming, x):
                # node 0 behaves differently: breaks equivariance
                bit = 1 if (i == 0 or any(incoming.values())) else 0
                return {e: bit for e in topology.out_edges(i)}, bit

            return LambdaReaction(fn)

        protocol = StatelessProtocol(
            topology, binary(), [make(i) for i in range(3)], name="lopsided"
        )
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert group is None
