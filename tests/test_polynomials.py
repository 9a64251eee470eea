import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from seatgraphs import polynomials
from seatgraphs.digraph import Digraph, tour
from seatgraphs.polynomials import (
    ONE,
    X,
    ZERO,
    Polynomial,
    SeriesPrefix,
    eulerian_poly,
    expand_over_one_minus_x,
    generalized_eulerian_poly,
)

import oracles


class TestPolynomialArithmetic:
    def test_trailing_zeros_stripped(self):
        assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))

    def test_degree(self):
        assert Polynomial((1, 4, 1)).degree == 2
        assert ZERO.degree is None

    def test_add_sub_mul(self):
        p = Polynomial((1, 1))
        assert p + p == Polynomial((2, 2))
        assert p - p == ZERO
        assert p * p == Polynomial((1, 2, 1))
        assert 3 * p == Polynomial((3, 3))
        assert X * p == Polynomial((0, 1, 1))

    def test_evaluation_is_exact(self):
        p = Polynomial((2, -3, 1))  # (k-1)(k-2)
        assert p(1) == 0 and p(2) == 0 and p(-1) == 6
        assert p(Fraction(1, 2)) == Fraction(3, 4)
        big = Polynomial((1,) * 30)
        assert big(10) == int("1" * 30)

    def test_divide_by_x(self):
        assert Polynomial((0, 3, 1)).divide_by_x() == Polynomial((3, 1))
        assert ZERO.divide_by_x() == ZERO
        with pytest.raises(ValueError):
            Polynomial((1, 1)).divide_by_x()

    def test_divide_by_x_on_chromatic_of_triangle(self):
        # k^3 - 3k^2 + 2k -> k^2 - 3k + 2
        assert Polynomial((0, 2, -3, 1)).divide_by_x() == Polynomial((2, -3, 1))

    def test_format(self):
        assert Polynomial((1, 4, 1)).format() == "1 + 4*x + 1*x^2"
        assert Polynomial((0, 3, 3)).format() == "3*x + 3*x^2"
        assert ZERO.format() == "0"


class TestSeriesPrefix:
    def test_equality_needs_same_truncation(self):
        a = SeriesPrefix.from_values([1, 2, 3])
        b = SeriesPrefix.from_values([1, 2])
        assert a != b
        with pytest.raises(ValueError):
            a.first_difference(b)

    def test_first_difference(self):
        a = SeriesPrefix.from_values([1, 2, 3])
        b = SeriesPrefix.from_values([1, 5, 3])
        assert a.first_difference(b) == 1
        assert a.first_difference(a) is None

    def test_json_rational_pairs(self):
        s = SeriesPrefix.from_values([Fraction(1, 2), 3])
        assert s.to_json_obj() == [[1, 2], [3, 1]]


class TestExpansion:
    def test_geometric_series(self):
        assert expand_over_one_minus_x(ONE, 1, 3).coeffs == (1, 1, 1, 1)

    def test_worpitzky_n3(self):
        got = expand_over_one_minus_x(eulerian_poly(3), 4, 3)
        assert got.coeffs == (1, 8, 27, 64)

    def test_single_back_edge_instance(self):
        # numerator of the n=3 path identity for X = {3->1}
        got = expand_over_one_minus_x(Polynomial((4, 2)), 4, 2)
        assert got.coeffs == (4, 18, 48)
        assert all(got[m] == (m + 1) * (m + 2) ** 2 for m in range(3))

    @given(
        st.lists(st.integers(-9, 9), min_size=0, max_size=6),
        st.integers(1, 5),
        st.integers(0, 12),
    )
    def test_matches_naive_convolution(self, coeffs, k, truncation):
        got = expand_over_one_minus_x(Polynomial(tuple(coeffs)), k, truncation)
        assert got.coeffs == oracles.naive_series_prefix(coeffs, k, truncation)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.integers(1, 4))
    def test_cancellation_consistency(self, coeffs, k):
        # P(x)*(1-x) over (1-x)^(k+1) must equal P over (1-x)^k
        p = Polynomial(tuple(coeffs))
        shifted = p * Polynomial((1, -1))
        assert expand_over_one_minus_x(shifted, k + 1, 20) == expand_over_one_minus_x(p, k, 20)

    def test_integer_coefficients_for_integer_input(self):
        s = expand_over_one_minus_x(Polynomial((3, -1, 7)), 3, 15)
        assert all(c.denominator == 1 for c in s.coeffs)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            expand_over_one_minus_x(ONE, 0, 5)


class TestEulerianPoly:
    def test_small_rows(self):
        assert eulerian_poly(1) == ONE
        assert eulerian_poly(3) == Polynomial((1, 4, 1))
        assert eulerian_poly(4) == Polynomial((1, 11, 11, 1))

    def test_matches_descent_counting_up_to_8(self):
        for n in range(1, 9):
            assert eulerian_poly(n).coeffs == oracles.descent_distribution(n)

    def test_palindromic(self):
        for n in range(2, 9):
            row = eulerian_poly(n).coeffs
            assert row == row[::-1]

    def test_sums_to_factorial(self):
        for n in range(1, 10):
            assert eulerian_poly(n)(1) == factorial(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            eulerian_poly(0)


class TestGeneralizedEulerian:
    def test_complete_graph_recovers_eulerian(self):
        for n in (1, 2, 3, 4, 5):
            assert generalized_eulerian_poly(tour(n), cyclic=False) == eulerian_poly(n)

    def test_complete_cyclic_s3(self):
        assert generalized_eulerian_poly(tour(3), cyclic=True) == Polynomial((0, 3, 3))

    def test_edgeless_is_constant_factorial(self):
        g = Digraph.from_edges(4, [])
        assert generalized_eulerian_poly(g, cyclic=False) == Polynomial((24,))
        assert generalized_eulerian_poly(g, cyclic=True) == Polynomial((24,))

    def test_single_edge_graph(self):
        g = Digraph.from_edges(3, [(3, 1)])
        assert generalized_eulerian_poly(g, cyclic=False) == Polynomial((4, 2))

    def test_matches_oracle_distribution(self):
        g = Digraph.from_edges(4, [(3, 1), (4, 2), (2, 1)])
        adj = {frozenset((1, 3)), frozenset((2, 4)), frozenset((1, 2))}
        assert generalized_eulerian_poly(g, cyclic=False).coeffs == oracles.g_descent_distribution(4, adj)
        assert generalized_eulerian_poly(g, cyclic=True).coeffs == oracles.g_descent_distribution(4, adj, cyclic=True)

    def test_matches_oracle_on_multigraphs(self):
        # seeded multigraphs with self-loops, parallel and antiparallel
        # edges: a loop is never a descent, and copies count once
        rng = random.Random(5)
        graphs = [Digraph.from_edges(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(3 * n)])
                  for n in range(2, 6) for _ in range(4)]
        assert any(m > 1 for g in graphs for _, _, m in g.edge_counts)
        assert any(u != v and g.multiplicity(v, u) for g in graphs for u, v, _ in g.edge_counts)
        assert any(u == v for g in graphs for u, v, _ in g.edge_counts)
        for g in graphs:
            adj = {frozenset((u, v)) for u, v in g.edges()}
            for cyclic in (False, True):
                assert generalized_eulerian_poly(g, cyclic).coeffs == oracles.g_descent_distribution(g.n, adj, cyclic)

    def test_labels_other_than_1_to_n_rejected_before_enumeration(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("S_n was enumerated")

        monkeypatch.setattr(polynomials, "enumerate_perms", no_enumeration)
        obj = {"n": 3, "labels": [2, 3, 7], "edges": [[3, 2], [7, 3]]}
        for cyclic in (False, True):
            with pytest.raises(ValueError, match="graph field 'labels'"):
                generalized_eulerian_poly(Digraph.from_json_obj(obj), cyclic)
