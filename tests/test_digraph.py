import json

import pytest
from hypothesis import given, strategies as st

from seatgraphs.digraph import Digraph, cycle, path, tour

import oracles


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
        assert tour(3).delete_vertices({2}) == tour(2)

    def test_relabel_compresses(self):
        assert cycle(3).delete_vertices({3}) == path(2)
        # 1 -> 3 -> 4 survive as 1 -> 2 -> 3
        assert path(4).delete_vertices({2}) == Digraph.from_edges(3, [(2, 3)])
        assert Digraph.from_edges(5, [(5, 1), (4, 2), (3, 5)]).delete_vertices({2, 4}) == \
            Digraph.from_edges(3, [(3, 1), (2, 3)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tour(3).delete_vertices({5})

    def test_rejects_deleting_everything(self):
        with pytest.raises(ValueError):
            tour(2).delete_vertices({1, 2})


class TestContract:
    def test_path_contracts_to_shorter_path(self):
        assert path(4).contract(2, 3) == path(3)
        assert path(4).contract(1, 2) == path(3)

    def test_cycle_contracts_to_antiparallel_pair(self):
        # merging 1 into 3 frees label 1: 2 -> 3 and 3 -> 2 become 1 -> 2, 2 -> 1
        assert cycle(3).contract(3, 1) == cycle(2)

    def test_parallel_pair_collapses_entirely(self):
        g = Digraph.from_edges(2, [(1, 2), (1, 2)]).contract(1, 2)
        assert g.n == 1
        assert g.total_edges() == 0

    def test_labels_above_the_merged_vertex_move_down(self):
        # v = 2 goes and u = 4 becomes 3: 3 -> 1 becomes 2 -> 1, both
        # 2 -> 3 and 4 -> 3 become 3 -> 2, and the loop at 4 lands on 3
        g = Digraph.from_edges(4, [(4, 2), (3, 1), (2, 3), (4, 3), (4, 4)]).contract(4, 2)
        assert edges_of(g) == [(2, 1), (3, 2), (3, 2), (3, 3)]

    def test_contraction_can_create_parallel_edges(self):
        # 1 -> 3 and 2 -> 3 both become 1 -> 2 once 3 moves down to 2
        g = Digraph.from_edges(3, [(1, 3), (2, 3), (1, 2)]).contract(1, 2)
        assert g == Digraph.from_edges(2, [(1, 2), (1, 2)])

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

    def test_labeled_acyclic_implies_acyclic_exhaustive_n3(self):
        edge_pool = [(u, v) for u in range(1, 4) for v in range(1, 4) if u != v]
        for mask in range(1 << 6):
            g = Digraph.from_edges(3, [e for i, e in enumerate(edge_pool) if mask >> i & 1])
            if g.is_labeled_acyclic():
                assert g.is_acyclic()

    def test_cycle_oracle_agrees_exhaustive_n3(self):
        # every loop-free digraph on 1..3, and each with a self-loop added
        edge_pool = [(u, v) for u in range(1, 4) for v in range(1, 4) if u != v]
        for mask in range(1 << 6):
            edges = [e for i, e in enumerate(edge_pool) if mask >> i & 1]
            for extra in ([], [(2, 2)]):
                g = Digraph.from_edges(3, edges + extra)
                assert oracles.has_directed_cycle(g.edges()) == (not g.is_acyclic())


class TestEquivalence:
    def test_tour3_top_pair_is_self_equivalent(self):
        assert tour(3).is_self_equivalent({1, 2})

    def test_sink_with_no_outgoing(self):
        g = Digraph.from_edges(3, [(3, 1)])
        assert g.is_sink_equivalent({1, 2})

    def test_path_pair_not_sink_equivalent(self):
        assert not path(3).is_sink_equivalent({1, 2})

    def test_self_iff_sink_and_source_exhaustive_n3(self):
        # includes graphs with antiparallel edges, where the one-sided
        # readings of the definition disagree
        edge_pool = [(u, v) for u in range(1, 4) for v in range(1, 4) if u != v]
        subsets = [{1, 2}, {1, 3}, {2, 3}, {1}, {2}, {3}, {1, 2, 3}]
        for mask in range(1 << 6):
            edges = [e for i, e in enumerate(edge_pool) if mask >> i & 1]
            g = Digraph.from_edges(3, edges)
            for s in subsets:
                outside = set(range(1, 4)) - s
                # the definitions, read off the edge list
                sink = all(len({u for u in s if (u, t) in edges}) in (0, len(s)) for t in outside)
                source = all(len({u for u in s if (t, u) in edges}) in (0, len(s)) for t in outside)
                assert g.is_sink_equivalent(s) == sink
                assert g.is_source_equivalent(s) == source
                assert g.is_self_equivalent(s) == (sink and source)

    def test_rejects_bad_subsets(self):
        g = tour(3)
        for predicate in (g.is_sink_equivalent, g.is_source_equivalent, g.is_self_equivalent):
            with pytest.raises(ValueError, match="non-empty"):
                predicate(set())
            with pytest.raises(ValueError, match="not contained"):
                predicate({9})


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

    def test_labels_1_to_n_parse_as_without(self):
        g = Digraph.from_json('{"n":3,"labels":[1,2,3],"edges":[[3,1]]}')
        assert g == Digraph.from_json('{"n":3,"edges":[[3,1]]}')
        assert g.to_json() == '{"n":3,"edges":[[3,1]]}'

    @pytest.mark.parametrize("labels", [[2, 3, 7], [1, 2], [1, 3, 2], [True, 2, 3], [1.0, 2, 3], "123"],
                             ids=["2-3-7", "too-short", "unsorted", "bool", "float", "string"])
    def test_labels_other_than_1_to_n_rejected(self, labels):
        obj = {"n": 3, "labels": labels, "edges": [[3, 2]]}
        with pytest.raises(ValueError, match="graph field 'labels'"):
            Digraph.from_json_obj(obj)

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


@given(st.integers(1, 5), st.data())
def test_contract_and_delete_match_edge_list_reference(n, data):
    # self-loops, parallel and antiparallel edges all come up at n <= 5
    pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    edges = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    g = Digraph.from_edges(n, edges)
    drop = data.draw(st.sets(st.integers(1, n), max_size=n - 1))
    reduced = g.delete_vertices(drop)
    assert reduced.n == n - len(drop)
    assert edges_of(reduced) == oracles.induced_edges(n, edges, drop)
    for u, v in {(u, v) for u, v in edges if u != v}:
        contracted = g.contract(u, v)
        assert contracted.n == n - 1
        assert edges_of(contracted) == oracles.contracted_edges(edges, u, v)


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
