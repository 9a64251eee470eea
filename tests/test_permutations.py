from collections import Counter
from itertools import permutations as raw_permutations

import pytest

from seatgraphs.digraph import Digraph, tour
from seatgraphs.permutations import (
    descent_count,
    enumerate_perms,
    excedance_count,
    g_cyclic_descent_count,
    g_descent_count,
    inverse,
    parse_word,
    swap_positions,
    word,
)

import oracles


class TestEnumeration:
    def test_n1(self):
        assert list(enumerate_perms(1)) == [(1,)]

    def test_lexicographic_order(self):
        perms = list(enumerate_perms(3))
        assert len(perms) == 6
        assert perms[0] == (1, 2, 3)
        assert perms[-1] == (3, 2, 1)
        assert perms == sorted(perms)

    def test_counts(self):
        assert sum(1 for _ in enumerate_perms(4)) == 24

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            enumerate_perms(0)


class TestDescents:
    def test_identity_has_none(self):
        assert descent_count((1, 2, 3)) == 0

    def test_reverse_has_all(self):
        assert descent_count((3, 2, 1)) == 2

    def test_distribution_s3(self):
        c = Counter(descent_count(p) for p in enumerate_perms(3))
        assert (c[0], c[1], c[2]) == (1, 4, 1)


class TestExcedances:
    def test_identity(self):
        assert excedance_count((1, 2, 3, 4)) == 0

    def test_231(self):
        assert excedance_count((2, 3, 1)) == 2

    def test_distribution_s3(self):
        c = Counter(excedance_count(p) for p in enumerate_perms(3))
        assert (c[0], c[1], c[2]) == (1, 4, 1)

    def test_equidistributed_with_descents_up_to_7(self):
        for n in range(1, 8):
            assert oracles.descent_distribution(n) == oracles.excedance_distribution(n)


class TestGraphDescents:
    def test_complete_graph_reduces_to_plain_descents(self):
        g = tour(5)
        for p in enumerate_perms(5):
            assert g_descent_count(p, g) == descent_count(p)

    def test_edgeless_graph_counts_nothing(self):
        g = Digraph.from_edges(4, [])
        assert all(g_descent_count(p, g) == 0 for p in enumerate_perms(4))

    def test_single_edge_distribution(self):
        g = Digraph.from_edges(3, [(3, 1)])
        c = Counter(g_descent_count(p, g) for p in enumerate_perms(3))
        assert (c[0], c[1]) == (4, 2)

    def test_direction_is_ignored(self):
        down = Digraph.from_edges(3, [(3, 1)])
        up = Digraph.from_edges(3, [(1, 3)])
        for p in enumerate_perms(3):
            assert g_descent_count(p, down) == g_descent_count(p, up)

    def test_monotone_in_graph_edges(self):
        smaller = Digraph.from_edges(4, [(3, 1), (4, 2)])
        larger = Digraph.from_edges(4, [(3, 1), (4, 2), (2, 1), (4, 3)])
        for p in enumerate_perms(4):
            assert g_descent_count(p, smaller) <= g_descent_count(p, larger)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            g_descent_count((1, 2, 3), tour(4))

    def test_labels_other_than_1_to_n_rejected(self):
        # values of a permutation are the vertices 1..n: read against
        # labels {2, 3, 7}, (3, 2, 1) would count the descent 3 > 2, so
        # no graph on such labels can be built or parsed
        with pytest.raises(ValueError, match="outside the vertex set"):
            Digraph.from_edges(3, [(3, 2), (7, 3)])
        with pytest.raises(ValueError, match="graph field 'labels'"):
            Digraph.from_json_obj({"n": 3, "labels": [2, 3, 7], "edges": [[3, 2], [7, 3]]})


class TestCyclicDescents:
    def test_complete_s3_distribution(self):
        c = Counter(g_cyclic_descent_count(p, tour(3)) for p in enumerate_perms(3))
        assert (c[0], c[1], c[2]) == (0, 3, 3)

    def test_edgeless_counts_nothing(self):
        g = Digraph.from_edges(3, [])
        assert all(g_cyclic_descent_count(p, g) == 0 for p in enumerate_perms(3))

    def test_sorted_has_exactly_the_wrap(self):
        for n in (2, 3, 5):
            assert g_cyclic_descent_count(tuple(range(1, n + 1)), tour(n)) == 1

    def test_complete_equals_descents_plus_wrap(self):
        for n in (2, 3, 4, 5):
            g = tour(n)
            for p in enumerate_perms(n):
                assert g_cyclic_descent_count(p, g) == descent_count(p) + (p[-1] > p[0])

    def test_requires_n_at_least_2(self):
        with pytest.raises(ValueError):
            g_cyclic_descent_count((1,), tour(1))


class TestInverse:
    def test_identity(self):
        assert inverse((1, 2, 3)) == (1, 2, 3)

    def test_231(self):
        assert inverse((2, 3, 1)) == (3, 1, 2)

    def test_involution(self):
        for p in enumerate_perms(5):
            assert inverse(inverse(p)) == p

    def test_inverse_property(self):
        for p in enumerate_perms(4):
            q = inverse(p)
            assert all(q[p[i - 1] - 1] == i for i in range(1, 5))


class TestSwapAndWords:
    def test_swap_positions(self):
        assert swap_positions((1, 2, 3), 1, 2) == (2, 1, 3)
        assert swap_positions((2, 1, 3), 1, 3) == (3, 1, 2)

    def test_word_roundtrip(self):
        for p in enumerate_perms(4):
            assert parse_word(word(p)) == p

    def test_bad_word_rejected(self):
        with pytest.raises(ValueError):
            parse_word("122")
