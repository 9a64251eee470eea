import json

import pytest
from hypothesis import given, strategies as st

from seatgraphs.digraph import Digraph, EquivalenceKind, cycle, path, tour


def edges_of(g):
    return sorted(g.edges())


class TestNamedFamilies:
    def test_tour_3(self):
        assert edges_of(tour(3)) == [(2, 1), (3, 1), (3, 2)]

    def test_tour_1_has_no_edges(self):
        assert tour(1).n == 1
        assert tour(1).total_edges() == 0

    def test_tour_5_edge_count(self):
        assert tour(5).total_edges() == 10

    def test_path_4(self):
        assert edges_of(path(4)) == [(1, 2), (2, 3), (3, 4)]

    def test_path_small(self):
        assert path(1).total_edges() == 0
        assert edges_of(path(2)) == [(1, 2)]

    def test_cycle_3(self):
        assert edges_of(cycle(3)) == [(1, 2), (2, 3), (3, 1)]

    def test_cycle_2_is_antiparallel_multigraph(self):
        assert edges_of(cycle(2)) == [(1, 2), (2, 1)]

    def test_cycle_4_edge_count(self):
        assert cycle(4).total_edges() == 4

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            tour(0)
        with pytest.raises(ValueError):
            path(0)
        with pytest.raises(ValueError):
            cycle(1)


class TestComplement:
    def test_full_tournament_complements_to_edgeless(self):
        assert tour(3).complement().total_edges() == 0

    def test_chain_missing_one_edge(self):
        g = Digraph.from_edges(3, [(3, 2), (2, 1)])
        assert edges_of(g.complement()) == [(3, 1)]

    def test_involution(self):
        for edges in ([], [(3, 1)], [(2, 1), (3, 2)], [(2, 1), (3, 1), (3, 2)]):
            g = Digraph.from_edges(3, edges)
            assert g.complement().complement() == g

    def test_edge_count_complementary(self):
        g = Digraph.from_edges(4, [(3, 1), (4, 2)])
        assert g.complement().total_edges() == 6 - 2

    def test_rejects_non_labeled_acyclic(self):
        with pytest.raises(ValueError):
            path(3).complement()

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            Digraph.from_edges(3, [(2, 1), (2, 1)]).complement()


class TestDeleteVertices:
    def test_induced_tournament(self):
        assert tour(3).delete_vertices({2}, relabel=True) == tour(2)

    def test_keep_labels(self):
        g = path(4).delete_vertices({2}, relabel=False)
        assert g.labels == (1, 3, 4)
        assert edges_of(g) == [(3, 4)]

    def test_relabel_compresses(self):
        assert cycle(3).delete_vertices({3}, relabel=True) == path(2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tour(3).delete_vertices({5}, relabel=True)

    def test_rejects_deleting_everything(self):
        with pytest.raises(ValueError):
            tour(2).delete_vertices({1, 2}, relabel=False)


class TestContract:
    def test_path_contracts_to_shorter_path(self):
        g = path(4).contract(2, 3)
        assert g.labels == (1, 2, 4)
        assert edges_of(g) == [(1, 2), (2, 4)]
        assert g.standardized() == path(3)

    def test_cycle_contracts_to_antiparallel_pair(self):
        g = cycle(3).contract(3, 1)
        assert g.labels == (2, 3)
        assert edges_of(g) == [(2, 3), (3, 2)]
        assert g.standardized() == cycle(2)

    def test_parallel_pair_collapses_entirely(self):
        g = Digraph.from_edges(2, [(1, 2), (1, 2)]).contract(1, 2)
        assert g.labels == (1,)
        assert g.total_edges() == 0

    def test_contraction_can_create_parallel_edges(self):
        g = Digraph.from_edges(3, [(1, 3), (2, 3), (1, 2)]).contract(1, 2)
        assert g.multiplicity(1, 3) == 2

    def test_edge_count_drop(self):
        # |E(X^{uv})| = |E(X)| - mult(u->v) - mult(v->u)
        g = Digraph.from_edges(3, [(1, 2), (2, 1), (1, 2), (2, 3), (3, 1)])
        contracted = g.contract(1, 2)
        assert contracted.total_edges() == g.total_edges() - 3

    def test_requires_the_edge(self):
        with pytest.raises(ValueError):
            path(3).contract(3, 1)
        with pytest.raises(ValueError):
            path(3).contract(2, 2)


class TestPredicates:
    def test_tour_is_acyclic_and_labeled_acyclic(self):
        assert tour(4).is_acyclic()
        assert tour(4).is_labeled_acyclic()

    def test_cycle_is_cyclic(self):
        assert not cycle(3).is_acyclic()

    def test_three_cycle_detected(self):
        g = Digraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
        assert not g.is_acyclic()

    def test_path_is_acyclic_but_not_labeled_acyclic(self):
        assert path(3).is_acyclic()
        assert not path(3).is_labeled_acyclic()

    def test_single_back_edge_is_labeled_acyclic(self):
        assert Digraph.from_edges(3, [(3, 1)]).is_labeled_acyclic()

    def test_self_loop_counts_as_cycle(self):
        assert not Digraph.from_edges(2, [(1, 1)]).is_acyclic()

    def test_descending_pairs_drop_loops_and_merge_copies(self):
        g = Digraph.from_edges(3, [(1, 3), (3, 1), (1, 3), (2, 2), (2, 1)])
        assert g.descending_pairs == {(3, 1), (2, 1)}

    def test_is_standard(self):
        assert tour(3).is_standard
        assert not Digraph.from_edges([2, 3, 7], [(3, 2)]).is_standard

    def test_labeled_acyclic_implies_acyclic_exhaustive_n3(self):
        edge_pool = [(u, v) for u in range(1, 4) for v in range(1, 4) if u != v]
        for mask in range(1 << 6):
            g = Digraph.from_edges(3, [e for i, e in enumerate(edge_pool) if mask >> i & 1])
            if g.is_labeled_acyclic():
                assert g.is_acyclic()


class TestEquivalence:
    def test_tour3_top_pair_is_self_equivalent(self):
        assert tour(3).equivalence_check({1, 2}, EquivalenceKind.SELF)

    def test_sink_with_no_outgoing(self):
        g = Digraph.from_edges(3, [(3, 1)])
        assert g.equivalence_check({1, 2}, "sink")

    def test_path_pair_not_sink_equivalent(self):
        assert not path(3).equivalence_check({1, 2}, "sink")

    def test_self_iff_sink_and_source_exhaustive_n3(self):
        # includes graphs with antiparallel edges, where the one-sided
        # readings of the definition disagree
        edge_pool = [(u, v) for u in range(1, 4) for v in range(1, 4) if u != v]
        subsets = [{1, 2}, {1, 3}, {2, 3}, {1}, {2}, {3}, {1, 2, 3}]
        for mask in range(1 << 6):
            g = Digraph.from_edges(3, [e for i, e in enumerate(edge_pool) if mask >> i & 1])
            for s in subsets:
                both = g.is_sink_equivalent(s) and g.is_source_equivalent(s)
                assert g.is_self_equivalent(s) == both

    def test_rejects_bad_subsets(self):
        with pytest.raises(ValueError):
            tour(3).equivalence_check(set(), "sink")
        with pytest.raises(ValueError):
            tour(3).equivalence_check({9}, "sink")


class TestSerialization:
    def test_json_shape(self):
        assert tour(3).to_json() == '{"n":3,"edges":[[2,1],[3,1],[3,2]]}'

    def test_multiplicity_encoded_as_repeats(self):
        g = Digraph.from_edges(2, [(2, 1), (2, 1)])
        assert json.loads(g.to_json())["edges"] == [[2, 1], [2, 1]]
        assert Digraph.from_json(g.to_json()) == g

    def test_roundtrip_named_families(self):
        for g in (tour(4), path(5), cycle(2), cycle(6)):
            assert Digraph.from_json(g.to_json()) == g

    def test_non_standard_labels_roundtrip(self):
        g = path(4).delete_vertices({2}, relabel=False)
        assert Digraph.from_json(g.to_json()) == g

    @given(st.integers(1, 5), st.data())
    def test_roundtrip_random_multigraphs(self, n, data):
        pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        edges = data.draw(st.lists(st.sampled_from(pool), max_size=12))
        g = Digraph.from_edges(n, edges)
        assert Digraph.from_json(g.to_json()) == g

    def test_dot_output(self):
        assert tour(2).to_dot() == "digraph {\n  1;\n  2;\n  2 -> 1;\n}\n"

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError):
            Digraph.from_json('{"edges": []}')


class TestValidation:
    def test_rejects_edge_outside_vertex_set(self):
        with pytest.raises(ValueError):
            Digraph.from_edges(2, [(1, 3)])

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            Digraph.from_edges(0, [])

    def test_equality_is_structural(self):
        assert Digraph.from_edges(3, [(2, 1), (3, 1)]) == Digraph.from_edges(3, [(3, 1), (2, 1)])
        assert Digraph.from_edges(3, [(2, 1)]) != Digraph.from_edges(3, [(2, 1), (2, 1)])
