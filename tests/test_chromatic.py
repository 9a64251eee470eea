import random
from itertools import combinations
from math import comb

import pytest

from seatgraphs import chromatic
from seatgraphs.chromatic import (
    chordal_sequence,
    chromatic_poly,
    enumerate_labeled_acyclic,
    find_chordal_labeling,
    is_peo,
)
from seatgraphs.digraph import Digraph, cycle, path, tour
from seatgraphs.limits import BoundExceededError
from seatgraphs.polynomials import Polynomial

import oracles


def check_labeling(n, edges, rho, brute=True):
    """``rho`` is a permutation of 1..n under which every relabeled
    edge's interval is a clique, or None exactly when the brute-force
    oracle finds no such labeling (asked only when ``brute``)."""
    if brute:
        assert (rho is None) == (oracles.brute_chordal_labeling(n, edges) is None), (n, edges, rho)
    if rho is not None:
        assert sorted(rho) == list(range(1, n + 1))
        assert oracles.is_interval_clique_labeling(rho, edges), (n, edges, rho)


def falling(k, n):
    """k (k-1) ... (k-n+1)."""
    out = 1
    for i in range(n):
        out *= k - i
    return out


def undirected_subsets(n):
    pool = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pool)):
        yield [e for i, e in enumerate(pool) if mask >> i & 1]


class TestChromaticPoly:
    def test_edgeless(self):
        assert chromatic_poly(Digraph.from_edges(4, [])) == Polynomial((0, 0, 0, 0, 1))

    def test_triangle(self):
        # k(k-1)(k-2)
        assert chromatic_poly(tour(3)) == Polynomial((0, 2, -3, 1))

    def test_path_on_three(self):
        # k(k-1)^2
        assert chromatic_poly(path(3)) == Polynomial((0, 1, -2, 1))

    def test_direction_and_multiplicity_forgotten(self):
        a = Digraph.from_edges(3, [(3, 1)])
        b = Digraph.from_edges(3, [(1, 3), (3, 1), (1, 3)])
        assert chromatic_poly(a) == chromatic_poly(b)

    def test_self_loop_gives_zero(self):
        assert chromatic_poly(Digraph.from_edges(2, [(1, 1)])) == Polynomial(())

    def test_four_cycle(self):
        # (k-1)^4 + (k-1)
        g = Digraph.from_edges(4, [(2, 1), (3, 2), (4, 3), (4, 1)])
        chi = chromatic_poly(g)
        assert all(chi(k) == (k - 1) ** 4 + (k - 1) for k in range(-3, 7))

    def test_deletion_contraction_relation(self):
        # chi(G) = chi(G - e) - chi(G / e), a relation the subset
        # recursion never uses; half density from n = 2 up to n = 13
        rng = random.Random(7)
        for n in [rng.randint(2, 6) for _ in range(25)] + [10, 11, 12, 13] * 2:
            pool = list(combinations(range(1, n + 1), 2))
            edges = [e for e in pool if rng.random() < 0.5]
            if not edges:
                continue
            g = Digraph.from_edges(n, [(hi, lo) for lo, hi in edges])
            lo, hi = edges[0]
            deleted = Digraph.from_edges(n, [(b, a) for a, b in edges[1:]])
            contracted = g.contract(hi, lo) if g.multiplicity(hi, lo) else g.contract(lo, hi)
            assert chromatic_poly(g) == chromatic_poly(deleted) - chromatic_poly(contracted)

    def test_agrees_with_coloring_oracle_up_to_4(self):
        for n in range(1, 5):
            for edges in undirected_subsets(n):
                g = Digraph.from_edges(n, [(hi, lo) for lo, hi in edges])
                chi = chromatic_poly(g)
                for k in range(n + 1):
                    assert chi(k) == oracles.proper_coloring_count(n, edges, k)

    def test_memo_survives_isomorphic_relabelings(self):
        # same abstract graph under two labelings must agree
        a = Digraph.from_edges(4, [(2, 1), (3, 2), (4, 3)])
        b = Digraph.from_edges(4, [(4, 2), (2, 1), (3, 1)])
        assert chromatic_poly(a) == chromatic_poly(b)

    def test_memo_tells_vertex_counts_apart(self):
        # packing each edge {u, v} (0-based) of an n-vertex graph as bit
        # u*n + v gives these two the same bits: a triangle with two
        # pendant edges, and a forest of two trees
        triangle = chromatic_poly(Digraph.from_edges(5, [(2, 1), (4, 1), (5, 1), (4, 3), (5, 4)]))
        forest = chromatic_poly(Digraph.from_edges(7, [(2, 1), (4, 1), (5, 1), (7, 2), (6, 3)]))
        for k in range(-3, 8):
            assert triangle(k) == k * (k - 1) ** 3 * (k - 2)
            assert forest(k) == k ** 2 * (k - 1) ** 5

    def test_path_on_twelve(self):
        # a tree: k (k-1)^11
        chi = chromatic_poly(path(12))
        assert all(chi(k) == k * (k - 1) ** 11 for k in range(-3, 13))

    def test_cocktail_party_graph(self):
        # K_8 minus a perfect matching, 6-regular: each color class is a
        # vertex or one of the 4 removed pairs
        g = Digraph.from_edges(8, [(2, 1), (4, 3), (6, 5), (8, 7)]).complement()
        chi = chromatic_poly(g)
        for k in range(-3, 10):
            assert chi(k) == sum(comb(4, i) * falling(k, 8 - i) for i in range(5))

    def test_complete_graphs(self):
        for n in (9, 10, 11):
            chi = chromatic_poly(tour(n))
            assert all(chi(k) == falling(k, n) for k in range(-3, n + 2))

    def test_closed_forms_at_14_to_16(self):
        # K_n, a tree, and the n-cycle (k-1)^n + (-1)^n (k-1)
        for n in (14, 15, 16):
            complete, tree, ring = (chromatic_poly(g) for g in (tour(n), path(n), cycle(n)))
            for k in range(-3, n + 2):
                assert complete(k) == falling(k, n)
                assert tree(k) == k * (k - 1) ** (n - 1)
                assert ring(k) == (k - 1) ** n + (-1) ** n * (k - 1)

    def test_refused_above_the_bound_before_any_work(self, monkeypatch):
        class Untouchable(dict):
            def get(self, key, default=None):
                raise AssertionError("the memo was read")

        def no_recursion(closed):
            raise AssertionError("the recursion ran")

        monkeypatch.setattr(chromatic, "_chromatic_memo", Untouchable())
        monkeypatch.setattr(chromatic, "_partition_counts", no_recursion)
        # (3^4 - 1)/2 = 40 steps for the 4-vertex core; the isolated
        # vertices are free
        g = Digraph.from_edges(9, [(2, 1), (4, 3)])
        with pytest.raises(BoundExceededError, match="chromatic polynomial would take 40 steps"):
            chromatic_poly(g, bound=39)
        with pytest.raises(BoundExceededError, match="64570081 steps"):
            chromatic_poly(tour(17))

    def test_agrees_with_coloring_oracle_on_a_seeded_sample_5_to_8(self):
        # the oracle walks every coloring, so n=8 gets one dense graph
        rng = random.Random(1)
        for n in range(5, 9):
            for _ in range(3 if n < 8 else 1):
                edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.75]
                chi = chromatic_poly(Digraph.from_edges(n, [(hi, lo) for lo, hi in edges]))
                for k in range(n + 1):
                    assert chi(k) == oracles.proper_coloring_count(n, edges, k)


class TestIsPeo:
    def test_tournaments(self):
        for n in range(1, 9):
            assert is_peo(tour(n))

    def test_gap_edge_fails(self):
        assert not is_peo(Digraph.from_edges(3, [(3, 1)]))

    def test_edgeless_passes(self):
        assert is_peo(Digraph.from_edges(4, []))

    def test_chain_passes(self):
        assert is_peo(Digraph.from_edges(4, [(2, 1), (3, 2), (4, 3)]))

    def test_requires_labeled_acyclic(self):
        with pytest.raises(ValueError):
            is_peo(path(3))

    def test_matches_oracle_on_every_graph_up_to_5(self):
        # the identity is the first labeling in lexicographic order, so
        # the oracle returns it exactly when it is a PEO
        for n in range(1, 6):
            identity = tuple(range(1, n + 1))
            for _, g in enumerate_labeled_acyclic(n):
                edges = sorted(g.undirected_edges())
                assert is_peo(g) == (oracles.brute_chordal_labeling(n, edges) == identity)


class TestFindChordalLabeling:
    def test_single_gap_edge_is_fixable(self):
        check_labeling(3, [(1, 3)], find_chordal_labeling(Digraph.from_edges(3, [(3, 1)])))

    def test_directed_four_cycle_has_none(self):
        g = Digraph.from_edges(4, [(2, 1), (3, 2), (4, 3), (4, 1)])
        assert find_chordal_labeling(g) is None

    def test_acyclic_but_not_labeled_acyclic(self):
        # 1 -> 2 -> 3 points up the labels yet has no directed cycle
        check_labeling(3, [(1, 2), (2, 3)], find_chordal_labeling(path(3)))

    def test_any_simple_digraph_gets_the_result_of_its_reorientation(self):
        # only the underlying graph is read: directed cycles and
        # antiparallel pairs give what the labeled acyclic re-orientation
        # gives; loops are not simple
        for n in range(1, 5):
            pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
            for mask in range(1 << len(pool)):
                g = Digraph.from_edges(n, [e for i, e in enumerate(pool) if mask >> i & 1])
                found = find_chordal_labeling(g)
                assert found == find_chordal_labeling(
                    Digraph.from_edges(n, [(hi, lo) for lo, hi in g.undirected_edges()])), g
                check_labeling(n, sorted(g.undirected_edges()), found)

    def test_tournament_has_a_labeling(self):
        # every labeling of a complete graph is one
        check_labeling(4, sorted(tour(4).undirected_edges()), find_chordal_labeling(tour(4)))

    def test_claw_has_no_interval_clique_labeling(self):
        # K_{1,3} is chordal but no ordering puts a clique on every
        # edge's label interval, so the search comes back empty
        claw = Digraph.from_edges(4, [(2, 1), (3, 1), (4, 1)])
        assert find_chordal_labeling(claw) is None

    def test_succeeds_exactly_on_proper_interval_graphs_n4(self):
        # at four vertices the interval-clique orderings exist exactly
        # for chordal claw-free graphs; cross-check against a
        # from-scratch simplicial-elimination test plus claw detection
        def chordal_by_elimination(n, edges):
            adj = {v: set() for v in range(1, n + 1)}
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            left = set(adj)
            while left:
                simplicial = None
                for v in sorted(left):
                    nbrs = adj[v] & left
                    if all(b in adj[a] for a in nbrs for b in nbrs if a < b):
                        simplicial = v
                        break
                if simplicial is None:
                    return False
                left.remove(simplicial)
            return True

        def has_induced_claw(n, edges):
            adj = {v: set() for v in range(1, n + 1)}
            for u, v in edges:
                adj[u].add(v)
                adj[v].add(u)
            for c in range(1, n + 1):
                leaves = sorted(adj[c])
                for trio in combinations(leaves, 3):
                    if all(b not in adj[a] for a, b in combinations(trio, 2)):
                        return True
            return False

        for edges in undirected_subsets(4):
            g = Digraph.from_edges(4, [(hi, lo) for lo, hi in edges])
            found = find_chordal_labeling(g) is not None
            expected = chordal_by_elimination(4, edges) and not has_induced_claw(4, edges)
            assert found == expected

    def test_matches_oracle_on_every_graph_up_to_5(self):
        for n in range(1, 6):
            for _, g in enumerate_labeled_acyclic(n):
                edges = sorted(g.undirected_edges())
                check_labeling(n, edges, find_chordal_labeling(g))

    def test_matches_oracle_on_a_seeded_sample_at_6_and_7(self):
        rng = random.Random(2)
        sample = []
        for n in (6, 7):
            for _ in range(8):
                p = rng.random()
                sample.append((n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]))
        claw = [(1, 2), (1, 3), (1, 4)]
        sample += [(6, claw), (7, claw)]  # plus isolated vertices
        found = []
        for n, edges in sample:
            rho = find_chordal_labeling(Digraph.from_edges(n, [(hi, lo) for lo, hi in edges]))
            check_labeling(n, edges, rho)
            found.append(rho is not None)
        # the sample reaches graphs with and without a labeling at each n
        assert not all(found[:8]) and not all(found[8:16])
        assert any(found[:8]) and any(found[8:16])
        assert found[-2:] == [False, False]

    def test_search_deeper_than_the_recursion_limit(self):
        # one level per vertex, past Python's default limit of 1000
        rho = find_chordal_labeling(path(1100))
        assert rho is not None
        check_labeling(1100, [(v, v + 1) for v in range(1, 1100)], rho, brute=False)

    def test_claw_among_isolated_vertices_at_1000(self):
        claw = Digraph.from_edges(1000, [(2, 1), (3, 1), (4, 1)])
        assert find_chordal_labeling(claw) is None

    def test_four_cycle_beside_a_long_path_at_1000(self):
        square = [(2, 1), (3, 2), (4, 3), (4, 1)]
        g = Digraph.from_edges(1000, square + [(v + 1, v) for v in range(5, 1000)])
        assert find_chordal_labeling(g) is None

    def test_interleaved_paths_at_1000(self):
        # the odd labels and the even labels each form a path, so each
        # component must take a block of consecutive labels
        g = Digraph.from_edges(1000, [(v + 2, v) for v in range(1, 999)])
        rho = find_chordal_labeling(g)
        assert rho is not None
        check_labeling(1000, [(v, v + 2) for v in range(1, 999)], rho, brute=False)

    def test_matches_oracle_on_structured_graphs_at_6_and_7(self):
        # each graph places pieces on shuffled vertices: random unit
        # interval graphs (equal intervals are twins) and, in every third
        # graph, one piece with no interval-clique labeling; a vertex
        # left over is isolated
        no_labeling = [
            (4, [(0, 1), (0, 2), (0, 3)]),  # claw
            (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),  # C4
            (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),  # C5
            (6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]),  # net
            (6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5)]),  # tent
        ]

        def unit_intervals(k):
            starts = sorted(rng.randrange(k) for _ in range(k))
            return k, [(i, j) for i, j in combinations(range(k), 2) if starts[j] - starts[i] <= 1]

        rng = random.Random(15)
        isolated = twins = interleaved = 0
        for k in range(60):
            # each piece with no labeling comes twice at n = 6 and twice at 7
            n = 6 + k % 2
            chosen = [] if k % 3 else [no_labeling[k // 3 % 5]]
            while sum(size for size, _ in chosen) < n - 1:
                chosen.append(unit_intervals(rng.randint(2, n - sum(size for size, _ in chosen))))
            vertices = rng.sample(range(1, n + 1), n)
            edges, start = [], 0
            for size, piece in chosen:
                edges += [tuple(sorted((vertices[start + i], vertices[start + j]))) for i, j in piece]
                start += size
            rho = find_chordal_labeling(Digraph.from_edges(n, [(hi, lo) for lo, hi in edges]))
            check_labeling(n, edges, rho)
            assert (rho is None) == (k % 3 == 0)
            closed = {v: {v} for v in range(1, n + 1)}
            for u, v in edges:
                closed[u].add(v)
                closed[v].add(u)
            components = []
            for v in range(1, n + 1):
                if all(v not in c for c in components):
                    c = {v}
                    while (grown := set().union(*(closed[u] for u in c))) != c:
                        c = grown
                    components.append(c)
            isolated += any(len(c) == 1 for c in components)
            twins += any(len(c) > 2 and len({frozenset(closed[u]) for u in c}) < len(c) for c in components)
            interleaved += any(min(a) < min(b) < max(a) for a, b in combinations(components, 2))
        # the cases the construction distinguishes are all reached
        assert min(isolated, twins, interleaved) >= 10, (isolated, twins, interleaved)

    def test_certificate_actually_is_a_peo(self):
        g = Digraph.from_edges(4, [(3, 1), (4, 2)])
        rho = find_chordal_labeling(g)
        relabeled = Digraph.from_edges(
            4,
            (
                (max(rho[u - 1], rho[v - 1]), min(rho[u - 1], rho[v - 1]))
                for u, v in g.undirected_edges()
            ),
        )
        assert is_peo(relabeled)


def certificates_pass(seq):
    """Every step's recorded certificates hold: the removed pair is
    sink-equivalent and the graph's complement is a PEO as labeled."""
    return all(step.sink_equivalent is not False and step.complement_peo for step in seq.steps)


class TestChordalSequence:
    def test_tournament_needs_no_removals(self):
        seq = chordal_sequence(tour(4))
        assert seq.length == 1
        assert seq.steps[0].removed is None

    def test_edgeless_on_three(self):
        seq = chordal_sequence(Digraph.from_edges(3, []))
        assert seq.length == 4
        assert seq.steps[0].graph == tour(3)
        assert seq.target.total_edges() == 0
        assert [s.removed for s in seq.steps] == [(3, 2), (2, 1), (3, 1), None]

    def test_single_edge_graph(self):
        # of the three single-edge X on 1..3, only 3 -> 1 leaves a
        # complement that is a PEO as labeled
        seq = chordal_sequence(Digraph.from_edges(3, [(3, 1)]))
        assert seq.length == 3
        assert certificates_pass(seq)

    def test_one_edge_difference_invariant(self):
        for _, x in enumerate_labeled_acyclic(4):
            if not is_peo(x.complement()):
                continue
            seq = chordal_sequence(x)
            for before, after in zip(seq.steps, seq.steps[1:]):
                a, b = before.removed
                assert before.graph.remove_edge(a, b) == after.graph
            assert seq.steps[0].graph == tour(4)
            assert seq.target == x

    def test_certificates_pass_on_identity_peo_class(self):
        for n in (2, 3, 4):
            for _, x in enumerate_labeled_acyclic(n):
                if is_peo(x.complement()):
                    assert certificates_pass(chordal_sequence(x))

    def test_sink_certificate_is_checked_in_the_containing_graph(self):
        seq = chordal_sequence(Digraph.from_edges(3, []))
        for step in seq.steps[:-1]:
            assert step.graph.is_sink_equivalent(set(step.removed))

    def test_per_step_coloring_difference(self):
        # chi(complement before) - chi(complement after) counts colorings
        # of the larger complement where the removed pair shares a color
        for n in (3, 4):
            for _, x in enumerate_labeled_acyclic(n):
                if not is_peo(x.complement()):
                    continue
                seq = chordal_sequence(x)
                for before, after in zip(seq.steps, seq.steps[1:]):
                    a, b = before.removed
                    comp_before = before.graph.complement()
                    comp_after = after.graph.complement()
                    chi_b = chromatic_poly(comp_before)
                    chi_a = chromatic_poly(comp_after)
                    edges = sorted(comp_before.undirected_edges())
                    for k in range(5):
                        merged = oracles.pair_merged_coloring_count(n, edges, k, a, b)
                        assert chi_b(k) - chi_a(k) == merged

    def test_non_chordal_complement_rejected(self):
        # complement of this X is the directed 4-cycle underlying graph
        x = Digraph.from_edges(4, [(3, 1), (4, 2)])
        comp = x.complement()
        assert find_chordal_labeling(comp) is None
        with pytest.raises(ValueError):
            chordal_sequence(x)

    def test_complement_peo_only_under_another_labeling_is_rejected(self):
        # X whose complement has an interval-clique labeling but is not a
        # PEO as labeled: none of them has a sequence whose certificates
        # all pass, so each is refused on the hypothesis
        refused = 0
        for n in range(1, 6):
            for _, x in enumerate_labeled_acyclic(n):
                comp = x.complement()
                if not is_peo(comp) and find_chordal_labeling(comp) is not None:
                    with pytest.raises(ValueError, match="hypothesis failure"):
                        chordal_sequence(x)
                    refused += 1
        assert refused == 641

    @staticmethod
    def removals(x):
        seq = chordal_sequence(x)
        assert seq.steps[-1].removed is None
        return [s.removed for s in seq.steps[:-1]]

    def test_removals_match_greedy_search_exhaustive_n6(self):
        # every X on n <= 6 whose complement is a PEO as labeled: the
        # Catalan numbers 1 + 2 + 5 + 14 + 42 + 132
        seen = 0
        for n in range(1, 7):
            for _, x in enumerate_labeled_acyclic(n):
                if is_peo(x.complement()):
                    edges = [(u, v) for u, v, _ in x.edge_counts]
                    assert self.removals(x) == oracles.greedy_chordal_removals(n, edges), x
                    seen += 1
        assert seen == 196

    def test_removals_match_greedy_search_seeded_n8_to_12(self):
        # the complement joins i to i+1..r(i) for a nondecreasing r, which
        # makes it a PEO as labeled
        rng = random.Random(24)
        for _ in range(100):
            n = rng.randint(8, 12)
            reach = 1
            missing = set()
            for i in range(1, n + 1):
                reach = rng.randint(max(i, reach), n)
                missing |= {(j, i) for j in range(i + 1, reach + 1)}
            edges = [(b, a) for b in range(1, n + 1) for a in range(1, b) if (b, a) not in missing]
            x = Digraph.from_edges(n, edges)
            assert self.removals(x) == oracles.greedy_chordal_removals(n, edges), x

    def test_json_shape(self):
        seq = chordal_sequence(Digraph.from_edges(3, [(3, 1)]))
        obj = seq.to_json_obj()
        assert obj[0]["graph"] == {"n": 3, "edges": [[2, 1], [3, 1], [3, 2]]}
        assert obj[-1]["removed"] is None
        assert set(obj[0]["certificates"]) == {"sink_equivalent", "complement_peo"}
