"""Graph substrate: topologies, standard families, spanning trees, properties,
automorphism groups."""

from repro.graphs.automorphisms import (
    SymmetryGroup,
    automorphism_generators,
    close_generators,
    edge_permutation,
    protocol_symmetry_group,
)
from repro.graphs.properties import (
    all_pairs_distances,
    diameter,
    distances_from,
    eccentricity,
    is_strongly_connected,
    max_degree,
    radius,
)
from repro.graphs.spanning import InTree, OutTree, broadcast_tree, convergecast_tree
from repro.graphs.standard import (
    bidirectional_ring,
    binary_tree,
    clique,
    hypercube,
    path,
    random_strongly_connected,
    star,
    torus,
    unidirectional_ring,
)
from repro.graphs.topology import Topology

__all__ = [
    "InTree",
    "OutTree",
    "SymmetryGroup",
    "Topology",
    "all_pairs_distances",
    "automorphism_generators",
    "bidirectional_ring",
    "binary_tree",
    "broadcast_tree",
    "clique",
    "close_generators",
    "convergecast_tree",
    "diameter",
    "distances_from",
    "eccentricity",
    "edge_permutation",
    "hypercube",
    "is_strongly_connected",
    "max_degree",
    "path",
    "protocol_symmetry_group",
    "radius",
    "random_strongly_connected",
    "star",
    "torus",
    "unidirectional_ring",
]
