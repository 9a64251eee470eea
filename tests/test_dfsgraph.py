import random
from math import factorial

import pytest

from seatgraphs.digraph import Digraph, cycle, path, tour
from seatgraphs.dfsgraph import (
    materialize,
    odp,
    odp_assign_slice,
    odp_edge_slice,
    out_neighbors,
    outdegree,
)
from seatgraphs.limits import BoundExceededError
from seatgraphs.permutations import enumerate_perms, inverse
from seatgraphs.polynomials import Polynomial

import oracles


def pairs(g):
    return list(g.edges())


def random_multigraph(rng, n):
    # edges drawn with replacement from all ordered pairs, loops included
    return Digraph.from_edges(
        n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 3 * n))]
    )


def random_pairs():
    """Seeded (X, Y) pairs at n = 1..5 with parallel edges, antiparallel
    pairs and self-loops on both sides."""
    rng = random.Random(4)
    out = [(random_multigraph(rng, n), random_multigraph(rng, n)) for n in range(1, 6) for _ in range(6)]
    for side in (0, 1):
        graphs = [pair[side] for pair in out]
        assert any(m > 1 for g in graphs for _, _, m in g.edge_counts)
        assert any(u != v and g.multiplicity(v, u) for g in graphs for u, v, _ in g.edge_counts)
        assert any(u == v for g in graphs for u, v, _ in g.edge_counts)
    return out


class TestOutNeighbors:
    def test_tour_path_single_witness(self):
        ws = out_neighbors(tour(3), path(3), (2, 1, 3))
        assert len(ws) == 1
        w = ws[0]
        assert (w.a, w.b) == (2, 1)
        assert w.target == (1, 2, 3)
        assert w.multiplicity == 1

    def test_edgeless_x_has_no_witnesses(self):
        g = Digraph.from_edges(3, [])
        for p in enumerate_perms(3):
            assert out_neighbors(g, tour(3), p) == []

    def test_tour2_cycle2(self):
        ws = out_neighbors(tour(2), cycle(2), (1, 2))
        assert len(ws) == 1
        assert ws[0].multiplicity == 1
        assert ws[0].target == (2, 1)

    def test_multiplicity_is_product(self):
        x = Digraph.from_edges(2, [(2, 1), (2, 1)])
        y = Digraph.from_edges(2, [(2, 1), (2, 1), (2, 1)])
        ws = out_neighbors(x, y, (1, 2))
        assert len(ws) == 1
        assert ws[0].multiplicity == 6

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            out_neighbors(tour(3), path(4), (1, 2, 3))

    def test_matches_brute_force(self):
        x = Digraph.from_edges(3, [(2, 1), (3, 2), (1, 3)])
        y = Digraph.from_edges(3, [(1, 2), (3, 1), (3, 2)])
        for p in enumerate_perms(3):
            assert outdegree(x, y, p) == oracles.brute_outdegree(3, pairs(x), pairs(y), p)


class TestOdp:
    def test_tour_path_3(self):
        assert odp(tour(3), path(3)) == Polynomial((1, 4, 1))

    def test_tour_cycle_3(self):
        assert odp(tour(3), cycle(3)) == Polynomial((0, 3, 3))

    def test_tour_cycle_2_multigraph(self):
        assert odp(tour(2), cycle(2)) == Polynomial((0, 2))

    def test_edgeless_x(self):
        g = Digraph.from_edges(4, [])
        assert odp(g, tour(4)) == Polynomial((24,))

    def test_coefficients_sum_to_factorial(self):
        for x, y in ((tour(4), path(4)), (path(4), cycle(4)), (cycle(4), cycle(4))):
            assert odp(x, y)(1) == factorial(4)

    def test_symmetry_in_arguments_exhaustive_n3(self):
        # ODP(X, Y) == ODP(Y, X) as polynomials
        edge_pool = [(u, v) for u in range(1, 4) for v in range(1, 4) if u != v]
        graphs = [
            Digraph.from_edges(3, [e for i, e in enumerate(edge_pool) if mask >> i & 1])
            for mask in range(0, 64, 5)  # a spread of 13 graphs
        ]
        for x in graphs:
            for y in graphs:
                assert odp(x, y) == odp(y, x)

    def test_symmetry_in_arguments_random_up_to_n5(self):
        import random

        rng = random.Random(31)
        for n in (4, 5):
            pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
            for _ in range(15):
                x = Digraph.from_edges(n, [e for e in pool if rng.random() < 0.4])
                y = Digraph.from_edges(n, [e for e in pool if rng.random() < 0.4])
                assert odp(x, y) == odp(y, x)

    def test_descent_distribution_up_to_6(self):
        for n in range(1, 7):
            assert odp(tour(n), path(n)).coeffs == oracles.descent_distribution(n)

    def test_path_as_x_counts_descents_pointwise(self):
        # with the path in the X role, outdegree is exactly the number
        # of plain descents of the label; with the tour in the X role
        # only the distributions agree
        for p in enumerate_perms(4):
            d = sum(p[i] > p[i + 1] for i in range(3))
            assert outdegree(path(4), tour(4), p) == d
        assert any(
            outdegree(tour(4), path(4), p) != sum(p[i] > p[i + 1] for i in range(3))
            for p in enumerate_perms(4)
        )

    def test_matches_brute_force(self):
        for x, y in random_pairs():
            assert odp(x, y).coeffs == oracles.brute_odp(x.n, pairs(x), pairs(y))

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            odp(tour(11), path(11))


class TestEdgeSlice:
    def test_tour_path_slice_21(self):
        assert odp_edge_slice(tour(3), path(3), 2, 1) == Polynomial((0, 1, 1))

    def test_tour_path_slice_12(self):
        assert odp_edge_slice(tour(3), path(3), 1, 2) == Polynomial((1, 1))

    def test_empty_y(self):
        g = Digraph.from_edges(3, [])
        assert odp_edge_slice(tour(3), g, 2, 1) == Polynomial(())

    def test_divisible_by_x_when_edge_present(self):
        # a -> b in E(X) forces a zero constant coefficient
        for a, b, _ in tour(4).edge_counts:
            s = odp_edge_slice(tour(4), cycle(4), a, b)
            assert s[0] == 0

    def test_weighted_by_y_multiplicity(self):
        y = Digraph.from_edges(2, [(2, 1), (2, 1)])
        s = odp_edge_slice(tour(2), y, 2, 1)
        assert s == Polynomial((0, 0, 1 * 2))  # sigma=12 has outdeg 2, weight 2

    def test_matches_brute_force(self):
        for x, y in [(tour(3), Digraph.from_edges(3, [(1, 2), (2, 1), (3, 2)]))] + random_pairs():
            n = x.n
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    if a != b:
                        assert odp_edge_slice(x, y, a, b).coeffs == oracles.brute_edge_slice(
                            n, pairs(x), pairs(y), a, b
                        )

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            odp_edge_slice(tour(3), path(3), 1, 1)
        with pytest.raises(ValueError):
            odp_edge_slice(tour(3), path(3), 0, 2)


class TestAssignSlice:
    def test_partition_reassembles_odp(self):
        x, y = tour(3), cycle(3)
        for i in (1, 2, 3):
            total = Polynomial(())
            for j in (1, 2, 3):
                total = total + odp_assign_slice(x, y, i, j)
            assert total == odp(x, y)

    def test_coefficients_sum_to_smaller_factorial(self):
        assert odp_assign_slice(tour(4), cycle(4), 2, 3)(1) == factorial(3)

    def test_tour_cycle_sigma1_equals_3(self):
        # sigma=312 has outdegree 1 and sigma=321 outdegree 2, so the
        # slice is x + x^2 (= x * A_2, the rotation lemma's per-slot value)
        assert odp_assign_slice(tour(3), cycle(3), 1, 3) == Polynomial((0, 1, 1))

    def test_rotation_slices_all_equal(self):
        # every slot slice of ODP(Tour_n, Cycle_n) at value n is the same
        for n in (3, 4, 5):
            slices = [odp_assign_slice(tour(n), cycle(n), i, n) for i in range(1, n + 1)]
            assert all(s == slices[0] for s in slices)

    def test_edgeless_x(self):
        g = Digraph.from_edges(3, [])
        assert odp_assign_slice(g, tour(3), 1, 2) == Polynomial((2,))

    def test_matches_brute_force(self):
        for x, y in [(Digraph.from_edges(3, [(2, 1), (3, 2)]), cycle(3))] + random_pairs():
            n = x.n
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert odp_assign_slice(x, y, i, j).coeffs == oracles.brute_assign_slice(
                        n, pairs(x), pairs(y), i, j
                    )


class TestMaterialize:
    def test_vertex_count_and_total_multiplicity(self):
        dfs = materialize(tour(3), path(3))
        assert len(dfs.vertices) == 6
        assert dfs.total_edge_multiplicity() == 6

    def test_vertices_lexicographic(self):
        dfs = materialize(tour(3), path(3))
        assert dfs.vertices == tuple(enumerate_perms(3))

    def test_isolated_when_x_edgeless(self):
        dfs = materialize(Digraph.from_edges(3, []), tour(3))
        assert dfs.total_edge_multiplicity() == 0

    def test_sum_outdegrees_equals_sum_indegrees(self):
        dfs = materialize(cycle(4), tour(4))
        indeg = {}
        for w in dfs.edges():
            indeg[w.target] = indeg.get(w.target, 0) + w.multiplicity
        assert sum(indeg.values()) == dfs.total_edge_multiplicity()

    def test_figure5_cycle_under_formal_rule(self):
        # the paper prints the pair as X={1->2,2->3,3->1}, Y={1->2,2->3,1->3};
        # under the formal edge rule its 4-cycle lives in DFS(Y, X), and
        # DFS(X, Y) carries the inverse-image cycle
        x = Digraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
        y = Digraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        dfs_yx = materialize(y, x)
        printed = [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1), (1, 2, 3)]
        assert all(
            dfs_yx.edge_multiplicity(printed[i], printed[i + 1]) > 0 for i in range(4)
        )
        dfs_xy = materialize(x, y)
        mirrored = [inverse(p) for p in printed]
        assert all(
            dfs_xy.edge_multiplicity(mirrored[i], mirrored[i + 1]) > 0 for i in range(4)
        )
        assert not dfs_xy.is_acyclic()
        assert not dfs_yx.is_acyclic()

    def test_acyclic_for_labeled_acyclic_inputs(self):
        assert materialize(tour(4), tour(4)).is_acyclic()

    def test_dot_and_json_are_deterministic(self):
        a = materialize(tour(3), cycle(3))
        b = materialize(tour(3), cycle(3))
        assert a.to_dot() == b.to_dot()
        assert a.to_json() == b.to_json()

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            materialize(tour(8), path(8))
