import json
import random
from functools import cache
from math import factorial, perm

import pytest

from seatgraphs import dfsgraph
from seatgraphs.digraph import Digraph, cycle, path, tour
from seatgraphs.dfsgraph import (
    DfsEdgeWitness,
    materialize,
    odp,
    odp_assign_slice,
    odp_edge_slice,
    out_neighbors,
    outdegree,
)
from seatgraphs.limits import WORK_BOUND, BoundExceededError
from seatgraphs.permutations import enumerate_perms, inverse
from seatgraphs.polynomials import X, Polynomial, eulerian_poly

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


def narrow_multigraph(rng, n):
    """A path with one edge doubled, one edge reversed and a self-loop:
    its frontier stays at most two positions wide."""
    edges = [(i, i + 1) for i in range(1, n)]
    u, v = rng.choice(edges)
    a, b = rng.choice(edges)
    w = rng.randint(1, n)
    return Digraph.from_edges(n, edges + [(u, v), (b, a), (w, w)])


def kernel_pairs():
    """Seeded (X, Y) pairs at n = 2..7 for every way the ODP kernel sums:
    random multigraph pairs, and a narrow multigraph against a dense one
    in both orders, so that each graph of a pair gets walked."""
    rng = random.Random(12)
    out = []
    for n in range(2, 8):
        dense = Digraph.from_edges(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(3 * n)])
        narrow = narrow_multigraph(rng, n)
        out += [(random_multigraph(rng, n), random_multigraph(rng, n)), (narrow, dense), (dense, narrow)]
    return out


def kernel_path(x, y, pinned):
    """How the kernel takes the pinned sum for (x, y), by its own price."""
    _, plan, side = dfsgraph._choose(x, y, pinned)
    if plan is None:
        return "stream"
    if plan.splits:
        return "split"
    walked_x = side[0] == {(a, b): m for a, b, m in x.edge_counts if a != b}
    return "walk X" if walked_x else "walk Y"


def slice_queries(n, rng):
    """Every (a, b) and (i, j) at n <= 5; one seeded pair of each above."""
    if n <= 5:
        return ([(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b],
                [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)])
    return [tuple(rng.sample(range(1, n + 1), 2))], [(rng.randint(1, n), rng.randint(1, n))]


@cache
def kernel_expectations():
    """Oracle values for every kernel pair, computed once: (x, y, odp,
    {(a, b): edge slice}, {(i, j): assignment slice})."""
    rng = random.Random(13)
    out = []
    for x, y in kernel_pairs():
        n = x.n
        edge_pairs, assignments = slice_queries(n, rng)
        out.append((x, y, oracles.brute_odp(n, pairs(x), pairs(y)),
                    {(a, b): oracles.brute_edge_slice(n, pairs(x), pairs(y), a, b) for a, b in edge_pairs},
                    {(i, j): oracles.brute_assign_slice(n, pairs(x), pairs(y), i, j) for i, j in assignments}))
    return out


def assert_kernel_matches_oracles():
    for x, y, whole, edge, assign in kernel_expectations():
        assert odp(x, y).coeffs == whole
        for (a, b), ref in edge.items():
            assert odp_edge_slice(x, y, a, b).coeffs == ref
        for (i, j), ref in assign.items():
            assert odp_assign_slice(x, y, i, j).coeffs == ref


def dense_digraph(rng, n):
    """A simple digraph on half of the n(n-1) ordered pairs, drawn
    without replacement: the shape of the benchmark's random pairs."""
    ordered = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    return Digraph.from_edges(n, sorted(rng.sample(ordered, len(ordered) // 2)))


def dense_pairs():
    """Seeded pairs dense on both sides at n = 7 and 8, in both orders."""
    rng = random.Random(21)
    out = []
    for n in (7, 8):
        x, y = dense_digraph(rng, n), dense_digraph(rng, n)
        out += [(x, y), (y, x)]
    return out


@cache
def dense_expectations():
    """Oracle values for every dense pair, one pass over S_n each: (x, y,
    odp, {(a, b): edge slice}, {(i, j): assignment slice})."""
    rng = random.Random(22)
    out = []
    for x, y in dense_pairs():
        n = x.n
        edge_pairs = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(2)]
        assignments = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(2)]
        out.append((x, y, *oracles.brute_odp_and_slices(n, pairs(x), pairs(y), edge_pairs, assignments)))
    return out


class TestDensePairs:
    """Pairs dense on both sides walk on the pending table, whose states
    merge far below the priced level sizes; each setting must still give
    the oracle's sums."""

    @pytest.mark.parametrize("walk_cost, cap", [
        (dfsgraph._WALK_COST, dfsgraph._STATE_CAP), (0, dfsgraph._STATE_CAP), (dfsgraph._WALK_COST, 16),
    ], ids=["defaults", "walk-cost-0", "cap-16"])
    def test_match_oracles(self, monkeypatch, walk_cost, cap):
        monkeypatch.setattr(dfsgraph, "_WALK_COST", walk_cost)
        monkeypatch.setattr(dfsgraph, "_STATE_CAP", cap)
        for x, y, whole, edge, assign in dense_expectations():
            assert odp(x, y).coeffs == whole
            for (a, b), ref in edge.items():
                assert odp_edge_slice(x, y, a, b).coeffs == ref
            for (i, j), ref in assign.items():
                assert odp_assign_slice(x, y, i, j).coeffs == ref

    def test_defaults_walk_them(self):
        assert all(kernel_path(x, y, {}) != "stream" for x, y in dense_pairs())

    def test_benchmark_shaped_n9_pair_walks(self):
        # 36 of the 72 ordered pairs on each side: the stream would pay
        # 9! permutations times 37 edge tests
        rng = random.Random(23)
        x, y = dense_digraph(rng, 9), dense_digraph(rng, 9)
        assert len(pairs(x)) == len(pairs(y)) == 36
        assert kernel_path(x, y, {}) != "stream"
        assert kernel_path(y, x, {}) != "stream"


class TestKernelPaths:
    def test_pairs_have_self_loops_parallel_and_antiparallel_edges(self):
        for side in (0, 1):
            graphs = [pair[side] for pair in kernel_pairs()]
            assert any(m > 1 for g in graphs for _, _, m in g.edge_counts)
            assert any(u != v and g.multiplicity(v, u) for g in graphs for u, v, _ in g.edge_counts)
            assert any(u == v for g in graphs for u, v, _ in g.edge_counts)

    def test_pairs_stream_and_walk_each_graph(self):
        kinds = {kernel_path(x, y, {}) for x, y in kernel_pairs()}
        assert {"stream", "walk X", "walk Y"} <= kinds

    def test_matches_oracles(self):
        assert_kernel_matches_oracles()

    def test_forced_split_walks_match_oracles(self, monkeypatch):
        # a walk priced at nothing and a 16-state cap: every sum, pinned
        # or not, walks, and the wider ones split on pins
        monkeypatch.setattr(dfsgraph, "_WALK_COST", 0)
        monkeypatch.setattr(dfsgraph, "_STATE_CAP", 16)
        kinds = {kernel_path(x, y, {}) for x, y in kernel_pairs()}
        assert {"split", "walk X", "walk Y"} <= kinds
        assert {kernel_path(x, y, {1: 2}) for x, y in kernel_pairs()} - {"stream"}
        assert_kernel_matches_oracles()

    def test_forced_split_walks_once_per_arrangement(self, monkeypatch):
        # the split positions take every arrangement of distinct free
        # values, one walk each, and the walks sum to the oracle's ODP
        monkeypatch.setattr(dfsgraph, "_WALK_COST", 0)
        monkeypatch.setattr(dfsgraph, "_STATE_CAP", 16)
        x, y, whole, _, _ = dense_expectations()[0]
        assert not dfsgraph._rotates(x) and not dfsgraph._rotates(y)
        _, plan, _ = dfsgraph._choose(x, y, {})
        assert len(plan.splits) >= 2
        calls = []
        walk = dfsgraph._walk
        monkeypatch.setattr(dfsgraph, "_walk", lambda *args: calls.append(args[3]) or walk(*args))
        assert odp(x, y).coeffs == whole
        assert len(calls) == perm(x.n, len(plan.splits))
        assert len({tuple(pins[p] for p in plan.splits) for pins in calls}) == len(calls)

    def test_bare_subset_levels_are_not_split(self):
        # no position of an edgeless graph is ever live, so its walk's
        # states are bare subsets of the values: the comb(15, 7) = 6435
        # states of the widest level exceed the cap, yet no pin would
        # merge any of them
        g = Digraph.from_edges(15, [])
        _, plan, _ = dfsgraph._choose(g, g, {})
        assert plan is not None and not plan.splits
        assert odp(g, g, bound=None) == Polynomial((factorial(15),))

    def test_bare_subset_levels_over_the_cap_are_not_split(self, monkeypatch):
        # the widest level of an edgeless n=15 walk, comb(15, 7) = 6435
        # bare subsets, is over this cap
        monkeypatch.setattr(dfsgraph, "_STATE_CAP", 4096)
        g = Digraph.from_edges(15, [])
        _, plan, _ = dfsgraph._choose(g, g, {})
        assert plan is not None and not plan.splits
        assert odp(g, g, bound=None) == Polynomial((factorial(15),))

    def test_walk_reaches_n12(self):
        # references are the Eulerian recurrence; streaming 12! would
        # take hours
        assert odp(path(12), tour(12), bound=None) == eulerian_poly(12)
        assert odp(tour(12), cycle(12), bound=None) == 12 * X * eulerian_poly(11)


class TestClosedForms:
    """Production odp against closed forms that share no code with the
    kernel, past the n <= 7 that the brute-force oracles reach."""

    def test_closed_forms_match_brute_force(self):
        for n in range(1, 7):
            assert oracles.mahonian(n) == oracles.brute_odp(n, pairs(tour(n)), pairs(tour(n)))
            assert oracles.successions(n) == oracles.brute_odp(n, pairs(path(n)), pairs(path(n)))

    def test_path_pair_is_the_succession_distribution(self):
        assert [kernel_path(path(n), path(n), {}) for n in (12, 13)] == ["walk X", "split"]
        for n in (10, 11, 12, 13):
            assert odp(path(n), path(n), bound=None).coeffs == oracles.successions(n)

    def test_tour_pair_is_mahonian(self):
        # a split walk at 0.6 s; n = 11 takes 6 s, as every state keeps
        # one row per live position
        assert kernel_path(tour(10), tour(10), {}) == "split"
        assert odp(tour(10), tour(10), bound=None).coeffs == oracles.mahonian(10)


def subset_dp_edge_slice(y, a, b):
    """The edge slice (a, b) of Tour_n against y from the subset DP: the
    sum over y's non-loop edges u -> v of mult_Y(u -> v) times the sum
    pinned sigma(a) = u, sigma(b) = v."""
    parts = (m * Polynomial(oracles.tour_odp(y.n, pairs(y), {a: u, b: v})) for u, v, m in y.edge_counts if u != v)
    return sum(parts, Polynomial(())).coeffs


def assert_tour_matches_subset_dp(y, assign, edge=None):
    """Production odp, the assignment slice ``assign`` and the edge slice
    ``edge``, if given, of Tour_n against y, unbounded, equal the subset
    DP's."""
    n, ye = y.n, pairs(y)
    assert odp(tour(n), y, bound=None).coeffs == oracles.tour_odp(n, ye)
    i, j = assign
    assert odp_assign_slice(tour(n), y, i, j, bound=None).coeffs == oracles.tour_odp(n, ye, {i: j})
    if edge is not None:
        assert odp_edge_slice(tour(n), y, *edge, bound=None).coeffs == subset_dp_edge_slice(y, *edge)


class TestTourSubsetDp:
    """Production ODP of Tour_n against the subset DP over placed values,
    which shares no code with the kernel, past the n <= 7 that the
    brute-force oracles reach."""

    def test_subset_dp_matches_brute_force(self):
        for _, y in random_pairs():
            n = y.n
            assert oracles.tour_odp(n, pairs(y)) == oracles.brute_odp(n, pairs(tour(n)), pairs(y))
            assert oracles.tour_odp(n, pairs(y), {n: 1}) == oracles.brute_assign_slice(
                n, pairs(tour(n)), pairs(y), n, 1)
            if n >= 2:
                assert subset_dp_edge_slice(y, n, 1) == oracles.brute_edge_slice(n, pairs(tour(n)), pairs(y), n, 1)

    def test_half_dense_y_at_10(self):
        # about 1 s each; one Y is simple, the other has loops and
        # doubled edges, and every sum splits
        rng = random.Random(24)
        n = 10
        every = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
        drawn = rng.sample(every, len(every) // 2)
        multi = Digraph.from_edges(n, drawn + rng.sample(drawn, 5))
        assert any(u == v for u, v, _ in multi.edge_counts) and any(m > 1 for _, _, m in multi.edge_counts)
        for y in (dense_digraph(rng, n), multi):
            assert kernel_path(tour(n), y, {}) == kernel_path(tour(n), y, {3: 4}) == "split"
            assert_tour_matches_subset_dp(y, (3, 4))

    @pytest.mark.parametrize("n, cap", [(11, 2048), (12, 4096), (13, 8192)])
    def test_narrow_y_walked_and_split_at_11_to_13(self, monkeypatch, n, cap):
        # Y's frontier is at most two positions wide, so every sum walks
        # Y's side; at this cap the whole sum splits once
        monkeypatch.setattr(dfsgraph, "_STATE_CAP", cap)
        y = narrow_multigraph(random.Random(n), n)
        assert kernel_path(tour(n), y, {}) == "split"
        assert kernel_path(tour(n), y, {3: 4}) == kernel_path(tour(n), y, {7: 1, 2: 2}) == "walk Y"
        assert_tour_matches_subset_dp(y, (3, 4), (7, 2))


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
                # the kernel may walk the same graph for both orders, so
                # each order is also held to the independent oracle
                ref = oracles.brute_odp(3, pairs(x), pairs(y))
                assert odp(x, y).coeffs == ref
                assert odp(y, x).coeffs == ref

    def test_symmetry_in_arguments_random_up_to_n5(self):
        import random

        rng = random.Random(31)
        for n in (4, 5):
            pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
            for _ in range(15):
                x = Digraph.from_edges(n, [e for e in pool if rng.random() < 0.4])
                y = Digraph.from_edges(n, [e for e in pool if rng.random() < 0.4])
                ref = oracles.brute_odp(n, pairs(x), pairs(y))
                assert odp(x, y).coeffs == ref
                assert odp(y, x).coeffs == ref

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
            odp(tour(11), tour(11))


class TestWorkBound:
    """odp and its slices price every part by the plan it would take and
    check the sum before any part runs.  The kernels are stubbed, so only
    the pricing and planning run."""

    def test_no_input_at_n9_is_refused(self, monkeypatch):
        monkeypatch.setattr(dfsgraph, "_stream", lambda *args: 0)
        monkeypatch.setattr(dfsgraph, "_walk", lambda *args: 0)
        # every ordered pair twice, on both sides: the stream's price,
        # 9! * 73, bounds every sum and slice at n <= 9 from above
        ordered = [(u, v) for u in range(1, 10) for v in range(1, 10) if u != v]
        g = Digraph.from_edges(9, ordered * 2)
        assert dfsgraph._choose(g, g, {})[0] <= factorial(9) * 73 <= WORK_BOUND
        assert odp(g, g).is_zero()
        assert odp_edge_slice(g, g, 2, 1).is_zero()
        assert odp_assign_slice(g, g, 1, 1).is_zero()

    def test_slice_refused_before_any_part_runs(self, monkeypatch):
        def never(*args):
            raise AssertionError("a part ran before the slice was priced")

        monkeypatch.setattr(dfsgraph, "_stream", never)
        monkeypatch.setattr(dfsgraph, "_walk", never)
        # 55 parts, one per edge u -> v of Tour_11, each within the bound alone
        assert dfsgraph._choose(tour(11), tour(11), {2: 2, 1: 1})[0] <= WORK_BOUND
        with pytest.raises(BoundExceededError, match=r"ODP edge slice would take \d+ steps"):
            odp_edge_slice(tour(11), tour(11), 2, 1)

    def test_a_cycle_side_is_priced_after_its_pin(self, monkeypatch):
        # the rotation quotient pins sigma(1) = 1 before pricing: Cycle_14
        # is admitted in either order, Cycle_15 is not
        monkeypatch.setattr(dfsgraph, "_stream", lambda *args: 0)
        monkeypatch.setattr(dfsgraph, "_walk", lambda *args: 0)
        assert dfsgraph._choose(tour(14), cycle(14), {})[0] > WORK_BOUND
        assert odp(tour(14), cycle(14)).is_zero()
        assert odp(cycle(14), tour(14)).is_zero()
        with pytest.raises(BoundExceededError):
            odp(tour(15), cycle(15))


def circulant(n, steps):
    """Every edge i -> i + s (mod n) for s in ``steps``: one edge orbit
    of the rotation per step."""
    return Digraph.from_edges(n, [(i, (i - 1 + s) % n + 1) for i in range(1, n + 1) for s in steps])


def doubled_cycle(n):
    """Cycle_n with every edge doubled and a loop at every vertex: a
    multigraph that rotates."""
    return Digraph.from_edges(n, 2 * [(i, i % n + 1) for i in range(1, n + 1)] + [(i, i) for i in range(1, n + 1)])


def quotient_pairs():
    """Seeded pairs at n = 2..6 with a rotating side on X, on Y or on
    both, in both orders: Cycle_n, a multigraph, and at n >= 5 a circulant
    with two edge orbits; plus Path_n against Tour_n, where neither side
    rotates."""
    rng = random.Random(19)
    out = []
    for n in range(2, 7):
        rotating = [cycle(n), doubled_cycle(n)] + ([circulant(n, (1, 2))] if n >= 5 else [])
        fixed = [tour(n), path(n), random_multigraph(rng, n)]
        out += [pair for r, f in zip(rotating, fixed) for pair in ((f, r), (r, f))]
        out += [(cycle(n), doubled_cycle(n)), (path(n), tour(n))]
    return out


@cache
def quotient_expectations():
    """Oracle values for every quotient pair: (x, y, odp, {(a, b): edge
    slice}, {(i, j): assignment slice})."""
    rng = random.Random(20)
    out = []
    for x, y in quotient_pairs():
        n = x.n
        edge_pairs, assignments = slice_queries(n, rng)
        out.append((x, y, oracles.brute_odp(n, pairs(x), pairs(y)),
                    {(a, b): oracles.brute_edge_slice(n, pairs(x), pairs(y), a, b) for a, b in edge_pairs},
                    {(i, j): oracles.brute_assign_slice(n, pairs(x), pairs(y), i, j) for i, j in assignments}))
    return out


def assert_quotient_matches_oracles():
    for x, y, whole, edge, assign in quotient_expectations():
        assert odp(x, y).coeffs == whole
        for (a, b), ref in edge.items():
            assert odp_edge_slice(x, y, a, b).coeffs == ref
        for (i, j), ref in assign.items():
            assert odp_assign_slice(x, y, i, j).coeffs == ref


class TestRotationQuotient:
    """A side that rotation maps onto itself lets the kernel pin one
    position and multiply, and shift every pinned part of a sum against
    a rotating Y to one orbit representative."""

    def test_which_sides_rotate(self):
        for n in range(2, 7):
            assert dfsgraph._rotates(cycle(n)) and dfsgraph._rotates(doubled_cycle(n))
            assert dfsgraph._rotates(Digraph.from_edges(n, []))
            assert not dfsgraph._rotates(path(n)) and not dfsgraph._rotates(tour(n))
        assert dfsgraph._rotates(circulant(6, (1, 2)))
        assert not dfsgraph._rotates(Digraph.from_edges(1, [(1, 1)]))
        # one edge of the cycle doubled breaks the rotation
        assert not dfsgraph._rotates(Digraph.from_edges(4, [(1, 2), (1, 2), (2, 3), (3, 4), (4, 1)]))

    def test_parts_collapse_to_one_per_orbit(self):
        q = dfsgraph._quotient
        n = 6
        assert q(tour(n), cycle(n), [(1, {})]) == [(n, {1: 1})]
        assert q(cycle(n), tour(n), [(1, {})]) == [(n, {1: 1})]
        # an edge slice against Cycle_n: one part per edge, one orbit
        edge_parts = [(1, {2: u, 1: v}) for u, v, _ in cycle(n).edge_counts]
        assert q(tour(n), cycle(n), edge_parts) == [(n, {1: 1, 2: n})]
        two_orbits = [(1, {1: u, 2: v}) for u, v, _ in circulant(n, (1, 2)).edge_counts]
        assert q(tour(n), circulant(n, (1, 2)), two_orbits) == [(n, {1: 1, 2: 2}), (n, {1: 1, 2: 3})]
        # a rotating X rewrites only the unpinned sum; Tour_n does not rotate
        assert q(cycle(n), tour(n), [(1, {2: 5})]) == [(1, {2: 5})]
        assert q(path(n), tour(n), [(1, {})]) == [(1, {})]

    def test_pairs_rotate_on_each_side(self):
        kinds = {(dfsgraph._rotates(x), dfsgraph._rotates(y)) for x, y in quotient_pairs()}
        assert kinds == {(True, False), (False, True), (True, True), (False, False)}
        assert any(m > 1 for x, y in quotient_pairs() for g in (x, y) if dfsgraph._rotates(g)
                   for _, _, m in g.edge_counts)

    @pytest.mark.parametrize("walk_cost, cap, reached", [
        (dfsgraph._WALK_COST, dfsgraph._STATE_CAP, {"stream"}),
        (0, dfsgraph._STATE_CAP, {"walk X", "walk Y"}),
        (0, 16, {"split"}),
    ], ids=["defaults", "walk-cost-0", "split"])
    def test_match_oracles(self, monkeypatch, walk_cost, cap, reached):
        monkeypatch.setattr(dfsgraph, "_WALK_COST", walk_cost)
        monkeypatch.setattr(dfsgraph, "_STATE_CAP", cap)
        # the kernel paths the pinned part of each pair's whole sum takes
        kinds = {kernel_path(x, y, pins) for x, y in quotient_pairs()
                 for _, pins in dfsgraph._quotient(x, y, [(1, {})])}
        assert reached <= kinds
        assert_quotient_matches_oracles()

    def test_mutant_pinning_without_the_factor_fails(self, monkeypatch):
        def unweighted(x, y, parts):
            rotates = dfsgraph._rotates(x) or dfsgraph._rotates(y)
            return [(weight, pins or {1: 1}) if rotates else (weight, pins) for weight, pins in parts]

        monkeypatch.setattr(dfsgraph, "_quotient", unweighted)
        with pytest.raises(AssertionError):
            assert_quotient_matches_oracles()

    def test_mutant_quotient_of_a_side_that_does_not_rotate_fails(self, monkeypatch):
        monkeypatch.setattr(dfsgraph, "_rotates", lambda g: g.n >= 2)
        with pytest.raises(AssertionError):
            assert_quotient_matches_oracles()


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


def dfs_arcs(dfs):
    """The (source, target) pairs of a materialized DFS graph's witnesses."""
    return {(w.source, w.target) for row in dfs.adjacency for w in row}


def total_multiplicity(dfs):
    return sum(w.multiplicity for row in dfs.adjacency for w in row)


class TestMaterialize:
    def test_vertex_count_and_total_multiplicity(self):
        dfs = materialize(tour(3), path(3))
        assert len(dfs.vertices) == 6
        assert total_multiplicity(dfs) == 6

    def test_vertices_lexicographic(self):
        dfs = materialize(tour(3), path(3))
        assert dfs.vertices == tuple(enumerate_perms(3))

    def test_isolated_when_x_edgeless(self):
        dfs = materialize(Digraph.from_edges(3, []), tour(3))
        assert total_multiplicity(dfs) == 0

    def test_sum_outdegrees_equals_sum_indegrees(self):
        dfs = materialize(cycle(4), tour(4))
        indeg = {}
        for row in dfs.adjacency:
            for w in row:
                indeg[w.target] = indeg.get(w.target, 0) + w.multiplicity
        assert sum(indeg.values()) == total_multiplicity(dfs)

    def test_figure5_cycle_under_formal_rule(self):
        # the paper prints the pair as X={1->2,2->3,3->1}, Y={1->2,2->3,1->3};
        # under the formal edge rule its 4-cycle lives in DFS(Y, X), and
        # DFS(X, Y) carries the inverse-image cycle
        x = Digraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
        y = Digraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        arcs_yx = dfs_arcs(materialize(y, x))
        printed = [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1), (1, 2, 3)]
        assert all((printed[i], printed[i + 1]) in arcs_yx for i in range(4))
        arcs_xy = dfs_arcs(materialize(x, y))
        mirrored = [inverse(p) for p in printed]
        assert all((mirrored[i], mirrored[i + 1]) in arcs_xy for i in range(4))
        assert oracles.has_directed_cycle(arcs_xy)
        assert oracles.has_directed_cycle(arcs_yx)

    def test_acyclic_for_labeled_acyclic_inputs(self):
        assert not oracles.has_directed_cycle(dfs_arcs(materialize(tour(4), tour(4))))

    def test_dot_and_json_are_deterministic(self):
        a = materialize(tour(3), cycle(3))
        b = materialize(tour(3), cycle(3))
        assert "".join(a.to_dot()) == "".join(b.to_dot())
        assert "".join(a.to_json()) == "".join(b.to_json())

    def test_bound_enforced(self):
        # 9! * (9 + 5 * 36) steps
        with pytest.raises(BoundExceededError):
            materialize(tour(9), path(9))


def family_pairs():
    """Every (X, Y) of tour, path and cycle at n = 2..5."""
    return [(f(n), g(n)) for n in range(2, 6) for f in (tour, path, cycle) for g in (tour, path, cycle)]


# a pair with self-loops on both sides and parallel edges, so that some
# witnesses carry multiplicity 2 and 4
MULTI_X = Digraph.from_edges(3, [(2, 1), (2, 1), (1, 3), (3, 3)])
MULTI_Y = Digraph.from_edges(3, [(1, 2), (3, 2), (3, 2), (2, 3), (1, 1)])


class TestMaterializedWitnesses:
    def test_adjacency_matches_oracle(self):
        for x, y in kernel_pairs() + family_pairs():
            assert materialize(x, y).adjacency == oracles.brute_dfs_witnesses(x.n, pairs(x), pairs(y))

    def test_witness_ends_are_the_vertex_objects(self):
        for x, y in kernel_pairs() + family_pairs():
            dfs = materialize(x, y)
            for p, row in zip(dfs.vertices, dfs.adjacency):
                for w in row:
                    assert w.source is p
                    assert w.target is dfs.vertices[dfs.index[w.target]]

    def test_json_is_the_encoded_object(self):
        for x, y in kernel_pairs() + family_pairs():
            dfs = materialize(x, y)
            assert "".join(dfs.to_json()) == json.dumps(dfs.to_json_obj(), separators=(",", ":"))

    def test_dot_tour_cycle_3(self):
        assert "".join(materialize(tour(3), cycle(3)).to_dot()) == (
            'digraph {\n  "123";\n  "132";\n  "213";\n  "231";\n  "312";\n  "321";\n'
            '  "123" -> "321";\n  "132" -> "312";\n  "132" -> "123";\n  "213" -> "123";\n'
            '  "213" -> "231";\n  "231" -> "132";\n  "312" -> "213";\n  "321" -> "231";\n'
            '  "321" -> "312";\n}\n'
        )

    def test_dot_repeats_an_edge_by_its_multiplicity(self):
        assert "".join(materialize(MULTI_X, MULTI_Y).to_dot()) == (
            'digraph {\n  "123";\n  "132";\n  "213";\n  "231";\n  "312";\n  "321";\n'
            '  "132" -> "231";\n  "213" -> "312";\n' + '  "213" -> "123";\n' * 2
            + '  "231" -> "321";\n' * 4 + '  "312" -> "213";\n' * 2 + '  "321" -> "231";\n' * 2 + '}\n'
        )

    def test_witnesses_are_real_named_tuples(self):
        # witnesses are built with tuple.__new__: each must still be a
        # full DfsEdgeWitness, at n = 2 and on a pair whose X has a
        # self-loop and a parallel edge
        for x, y in [(tour(2), cycle(2)), (cycle(2), cycle(2)), (MULTI_X, MULTI_Y)]:
            witnesses = [w for row in materialize(x, y).adjacency for w in row]
            assert witnesses
            for w in witnesses:
                assert type(w) is DfsEdgeWitness
                assert w._fields == ("source", "a", "b", "target", "multiplicity")
                assert w == DfsEdgeWitness(w.source, w.a, w.b, w.target, w.multiplicity)
                assert w._replace(multiplicity=0) == DfsEdgeWitness(*w[:4], 0)
                assert w._asdict()["target"] == w.target

    def test_out_neighbors_equal_the_materialized_rows(self):
        for x, y in kernel_pairs() + family_pairs() + random_pairs() + [(MULTI_X, MULTI_Y)]:
            if x.n > 4:
                continue
            dfs = materialize(x, y)
            for p, row in zip(dfs.vertices, dfs.adjacency):
                assert tuple(out_neighbors(x, y, p)) == row

    def test_export_builds_no_witness_rows(self):
        for x, y in [(tour(4), cycle(4)), (MULTI_X, MULTI_Y)]:
            dfs = materialize(x, y)
            "".join(dfs.to_json())
            "".join(dfs.to_dot())
            assert "adjacency" not in vars(dfs)
            assert dfs.adjacency is dfs.adjacency

    def test_dot_past_n9_raises_before_the_first_chunk(self):
        dfs = dfsgraph.MaterializedDfs(10, (), path(10), path(10), {})
        with pytest.raises(ValueError, match="n <= 9"):
            next(dfs.to_dot())
