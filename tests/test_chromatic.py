import random
from itertools import combinations
from math import factorial

import pytest

from seatgraphs.chromatic import (
    chordal_sequence,
    chromatic_poly,
    enumerate_labeled_acyclic,
    find_chordal_labeling,
    is_peo,
)
from seatgraphs.digraph import Digraph, cycle, path, tour
from seatgraphs.polynomials import Polynomial

import oracles


def lex_rank(rho):
    """1-based rank of a permutation of 1..n in lexicographic order."""
    rest = sorted(rho)
    rank = 1
    for i, v in enumerate(rho):
        rank += rest.index(v) * factorial(len(rho) - 1 - i)
        rest.remove(v)
    return rank


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
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 6)
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


class TestFindChordalLabeling:
    def test_single_gap_edge_is_fixable(self):
        rho = find_chordal_labeling(Digraph.from_edges(3, [(3, 1)]))
        assert rho == (1, 3, 2)

    def test_directed_four_cycle_has_none(self):
        g = Digraph.from_edges(4, [(2, 1), (3, 2), (4, 3), (4, 1)])
        assert find_chordal_labeling(g) is None

    def test_tournament_uses_identity(self):
        assert find_chordal_labeling(tour(4)) == (1, 2, 3, 4)

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
                assert find_chordal_labeling(g) == oracles.brute_chordal_labeling(n, edges)

    def test_matches_oracle_on_a_seeded_sample_at_6_and_7(self):
        rng = random.Random(2)
        sample = []
        for n in (6, 7):
            for _ in range(8):
                p = rng.random()
                sample.append((n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]))
        claw = [(1, 2), (1, 3), (1, 4)]
        sample += [(6, claw), (7, claw)]  # plus isolated vertices
        ranks = []
        for n, edges in sample:
            rho = find_chordal_labeling(Digraph.from_edges(n, [(hi, lo) for lo, hi in edges]))
            assert rho == oracles.brute_chordal_labeling(n, edges)
            ranks.append(lex_rank(rho) if rho else None)
        # the sample reaches graphs with no labeling and a first labeling
        # far into the lexicographic order
        assert None in ranks[:8] and None in ranks[8:16]
        assert max(r for r in ranks if r) >= 800
        assert ranks[-2:] == [None, None]

    def test_search_deeper_than_the_recursion_limit(self):
        # one level per vertex, past Python's default limit of 1000
        assert find_chordal_labeling(path(1100), bound=None) == tuple(range(1, 1101))

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
        seq = chordal_sequence(Digraph.from_edges(3, [(2, 1)]))
        assert seq.length == 3

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
                    assert chordal_sequence(x).all_certificates_pass()

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

    def test_json_shape(self):
        seq = chordal_sequence(Digraph.from_edges(3, [(2, 1)]))
        obj = seq.to_json_obj()
        assert obj[0]["graph"] == {"n": 3, "edges": [[2, 1], [3, 1], [3, 2]]}
        assert obj[-1]["removed"] is None
        assert set(obj[0]["certificates"]) == {"sink_equivalent", "complement_peo"}
