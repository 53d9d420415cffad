"""Tests for the graph-automorphism substrate (repro.graphs.automorphisms).

The symmetry quotient stands on three legs: discovering automorphism
groups of the standard families, acting with them on states (labelings /
per-node vectors / activation sets), and canonicalizing states to orbit
representatives.  Each leg is checked directly here; end-to-end quotient
equivalence lives in ``test_quotient.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import default_inputs
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
    symmetry_group_from_generators,
    torus,
    unidirectional_ring,
)
from repro.graphs.automorphisms import (
    compose,
    identity_permutation,
    invert,
)

from tests.helpers import copy_ring_protocol, or_clique_protocol


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
        group = SymmetryGroup(topology, _full_group(topology))
        return group, group.canonicalizer(track_outputs=False)

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
    return symmetry_group_from_generators(torus(rows, cols), [down, right])


#: One group per family the quotient meets: symmetric groups on cliques,
#: cyclic and dihedral groups on rings, and the shift group of a torus.
_GROUPS = {
    "S4": SymmetryGroup(clique(4), _full_group(clique(4))),
    "S5": SymmetryGroup(clique(5), _full_group(clique(5))),
    "C6": symmetry_group_from_generators(
        unidirectional_ring(6), [tuple((i + 1) % 6 for i in range(6))]
    ),
    "D6": SymmetryGroup(bidirectional_ring(6), _full_group(bidirectional_ring(6))),
    "Z3xZ4": _torus_shift_group(3, 4),
}


def _base_length(canon):
    return len(canon._rows[0])


@st.composite
def _bases(draw, length, top=None):
    """Code vectors of ``length`` with many ties: codes from a small range,
    sometimes one value repeated (ties = |G|)."""
    if top is None:
        top = draw(st.sampled_from((1, 2, 4, 7, 300)))
    if draw(st.booleans()):
        return (draw(st.integers(0, top)),) * length
    return tuple(draw(st.lists(st.integers(0, top), min_size=length, max_size=length)))


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
        canon = _GROUPS[name].canonicalizer(track_outputs)
        base = data.draw(_bases(_base_length(canon)))
        assert canon._canonical_np(base) == canon._canonical_py(base)

    @pytest.mark.parametrize("track_outputs", [False, True])
    @pytest.mark.parametrize("name", sorted(_GROUPS))
    def test_all_equal_states_tie_across_the_group(self, name, track_outputs):
        group = _GROUPS[name]
        canon = group.canonicalizer(track_outputs)
        for code in (0, 1, 5):
            base = (code,) * _base_length(canon)
            assert canon._canonical_np(base) == (0, group.order)
            assert canon._canonical_py(base) == (0, group.order)

    @pytest.mark.parametrize("track_outputs", [False, True])
    @pytest.mark.parametrize("name", ["S5", "D6", "Z3xZ4"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_widening_codes_rebuild_the_weights(self, name, track_outputs, data):
        canon = _GROUPS[name].canonicalizer(track_outputs)
        length = _base_length(canon)
        widths = []
        for top in (0, 1, 3, 12, 200, 70_000):
            base = data.draw(_bases(length, top=top))
            base = base[:-1] + (top,)  # the largest code reaches ``top``
            assert canon._canonical_np(base) == canon._canonical_py(base)
            # The last column's class holds ``top``; no class is wider.
            widths.append(canon._widths[-1])
            assert max(canon._widths) == canon._widths[-1]
        assert widths == [1, 1, 2, 4, 8, 17]

    @pytest.mark.parametrize("track_outputs", [False, True])
    def test_each_class_packs_at_its_own_width(self, track_outputs):
        # S_5 at r = 4: 5 countdown columns at 3 bits and 20 binary label
        # (and 5 output) columns at 1 bit fit one key word; at one shared
        # 3-bit width they would need two.
        canon = _GROUPS["S5"].canonicalizer(track_outputs)
        outputs = (1, 0, 0, 1, 1) if track_outputs else ()
        base = (4, 1, 3, 2, 4) + (0, 1) * 10 + outputs
        assert canon._canonical_np(base) == canon._canonical_py(base)
        assert canon._widths == ((3, 1, 1) if track_outputs else (3, 1))
        assert len(canon._weights) == 1

    def test_codes_no_key_word_holds_fall_back_to_the_scan(self):
        # A countdown of r = 2**60 is a legal, if hopeless, fairness bound.
        canon = _GROUPS["D6"].canonicalizer(track_outputs=False)
        base = (2**60,) * 6 + (0, 1) * 6
        assert canon._canonical_np(base) == canon._canonical_py(base)
        assert canon._widths == (0, 0)


class TestProtocolSymmetryGroup:
    def test_or_clique_gets_the_full_symmetric_group(self):
        protocol = or_clique_protocol(clique(4))
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert group is not None
        assert group.order == 24
        assert group.label_universe == frozenset({0, 1})

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
