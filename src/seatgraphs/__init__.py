"""Directed friends-and-seats graphs, outdegree polynomials, and exact
identity verification at desk scale."""

from .digraph import Digraph, cycle, path, tour
from .dfsgraph import DfsEdgeWitness, MaterializedDfs, materialize, odp, odp_assign_slice, odp_edge_slice
from .chromatic import (
    ChordalSequence,
    ChordalStep,
    chordal_sequence,
    chromatic_poly,
    enumerate_labeled_acyclic,
    find_chordal_labeling,
    is_peo,
)
from .identities import (
    Counterexample,
    SweepRow,
    Verdict,
    sweep_identity,
    verify_acyclic_potential,
    verify_automorphism,
    verify_cycle_base,
    verify_cycle_identity,
    verify_edge_removal,
    verify_generalized_equals_odp,
    verify_path_identity,
    verify_point_squish,
    verify_self_equivalent_slice,
    verify_subgraph_monotonicity,
)
from .limits import BoundExceededError
from .permutations import (
    enumerate_perms,
    g_cyclic_descent_count,
    g_descent_count,
    inverse,
)
from .polynomials import (
    Polynomial,
    SeriesPrefix,
    eulerian_poly,
    expand_over_one_minus_x,
    generalized_eulerian_poly,
)

__version__ = "0.1.0"
