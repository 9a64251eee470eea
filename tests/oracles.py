"""Independent brute-force reference implementations.

Everything here recomputes results straight from the definitions with
plain nested loops, deliberately sharing no code path with the package
modules it checks.  Graphs come in as (n, list-of-edge-pairs) so the
oracles do not depend on the package's edge bookkeeping either.
"""
from collections import Counter
from itertools import permutations
from math import comb, factorial


def descent_distribution(n):
    c = Counter(
        sum(p[i] > p[i + 1] for i in range(n - 1))
        for p in permutations(range(1, n + 1))
    )
    return tuple(c.get(m, 0) for m in range(max(c) + 1))


def excedance_distribution(n):
    c = Counter(
        sum(v > i for i, v in enumerate(p, start=1))
        for p in permutations(range(1, n + 1))
    )
    return tuple(c.get(m, 0) for m in range(max(c) + 1))


def brute_outdegree(n, x_edges, y_edges, p):
    """Outdegree of p in DFS(X, Y) straight from the four-condition rule,
    counting (X-edge copy, Y-edge copy) pairs."""
    return sum(
        1
        for (a, b) in x_edges
        if a != b
        for (u, v) in y_edges
        if (p[a - 1], p[b - 1]) == (u, v)
    )


def brute_dfs_witnesses(n, x_edges, y_edges):
    """DFS(X, Y) straight from the four-condition rule: sigma -> tau
    through (a, b) when a -> b is an X-edge with a != b, sigma(a) ->
    sigma(b) is a Y-edge, tau(a) = sigma(b) and tau(b) = sigma(a), and
    tau agrees with sigma everywhere else.  The multiplicity counts
    (X-edge copy, Y-edge copy) pairs.  One tuple of (sigma, a, b, tau,
    multiplicity) per sigma, sigmas in lexicographic order, each tuple in
    (a, b) order."""
    out = []
    for sigma in permutations(range(1, n + 1)):
        found = Counter()
        for a, b in x_edges:
            for u, v in y_edges:
                if a != b and (sigma[a - 1], sigma[b - 1]) == (u, v):
                    found[a, b] += 1
        row = []
        for a, b in sorted(found):
            tau = tuple(sigma[b - 1] if i == a else sigma[a - 1] if i == b else sigma[i - 1]
                        for i in range(1, n + 1))
            row.append((sigma, a, b, tau, found[a, b]))
        out.append(tuple(row))
    return tuple(out)


def has_directed_cycle(arcs):
    """Does the directed graph with these (tail, head) pairs contain a
    directed cycle?  Drop every arc whose tail no arc enters until none
    goes: what is left is empty exactly when the graph is acyclic, since
    from any arc left one can walk arcs backwards for ever."""
    arcs = set(arcs)
    while True:
        heads = {v for _, v in arcs}
        kept = {(u, v) for u, v in arcs if u in heads}
        if kept == arcs:
            return bool(arcs)
        arcs = kept


def brute_odp(n, x_edges, y_edges):
    """ODP coefficient tuple via full enumeration of S_n."""
    c = Counter(
        brute_outdegree(n, x_edges, y_edges, p) for p in permutations(range(1, n + 1))
    )
    return tuple(c.get(m, 0) for m in range(max(c) + 1))


def brute_edge_slice(n, x_edges, y_edges, a, b):
    """Multiplicity-weighted edge slice via full enumeration."""
    c = Counter()
    for p in permutations(range(1, n + 1)):
        weight = sum(1 for (u, v) in y_edges if (p[a - 1], p[b - 1]) == (u, v))
        if weight:
            c[brute_outdegree(n, x_edges, y_edges, p)] += weight
    if not c:
        return ()
    return tuple(c.get(m, 0) for m in range(max(c) + 1))


def brute_assign_slice(n, x_edges, y_edges, i, j):
    c = Counter(
        brute_outdegree(n, x_edges, y_edges, p)
        for p in permutations(range(1, n + 1))
        if p[i - 1] == j
    )
    if not c:
        return ()
    return tuple(c.get(m, 0) for m in range(max(c) + 1))


def brute_odp_and_slices(n, x_edges, y_edges, edge_pairs, assignments):
    """ODP, edge slices and assignment slices in one pass over S_n, for
    n where the pairwise ``brute_outdegree`` is too slow.  The outdegree
    counts, per X-edge copy (a, b), the Y-edge copies equal to
    (p[a], p[b]); an edge slice weights p by the copies of
    (p[a], p[b]) in Y.  Returns (odp, {(a, b): slice}, {(i, j): slice})."""
    copies = Counter(y_edges)
    arcs = [(a - 1, b - 1) for a, b in x_edges if a != b]
    whole, edge, assign = Counter(), {ab: Counter() for ab in edge_pairs}, {ij: Counter() for ij in assignments}
    for p in permutations(range(1, n + 1)):
        d = sum(copies[p[a], p[b]] for a, b in arcs)
        whole[d] += 1
        for (a, b), c in edge.items():
            c[d] += copies[p[a - 1], p[b - 1]]
        for (i, j), c in assign.items():
            if p[i - 1] == j:
                c[d] += 1

    def coeffs(c):
        c = +c
        return tuple(c.get(m, 0) for m in range(max(c) + 1)) if c else ()

    return (coeffs(whole), {ab: coeffs(c) for ab, c in edge.items()},
            {ij: coeffs(c) for ij, c in assign.items()})


def naive_series_prefix(coeffs, k, truncation):
    """Prefix of P(x) / (1-x)^k by convolution with the binomial series
    1/(1-x)^k = sum_m C(m+k-1, k-1) x^m (no running sums)."""
    return tuple(
        sum(c * comb(m - j + k - 1, k - 1) for j, c in enumerate(coeffs[: m + 1]))
        for m in range(truncation + 1)
    )


def proper_coloring_count(n, undirected_edges, k):
    """Number of proper k-colorings, by backtracking on back-edges."""
    back = [[] for _ in range(n)]
    for u, v in undirected_edges:
        if u == v:
            return 0
        lo, hi = min(u, v), max(u, v)
        back[hi - 1].append(lo - 1)

    def rec(i, colors):
        if i == n:
            return 1
        total = 0
        for c in range(k):
            if all(colors[j] != c for j in back[i]):
                colors.append(c)
                total += rec(i + 1, colors)
                colors.pop()
        return total

    return rec(0, [])


def pair_merged_coloring_count(n, undirected_edges, k, a, b):
    """Colorings where a and b share a color and every edge except
    {a, b} is properly colored."""
    total = 0
    from itertools import product

    for assignment in product(range(k), repeat=n):
        if assignment[a - 1] != assignment[b - 1]:
            continue
        if all(
            assignment[u - 1] != assignment[v - 1]
            for u, v in undirected_edges
            if {u, v} != {a, b}
        ):
            total += 1
    return total


def g_descent_distribution(n, adjacency, cyclic=False):
    """Distribution of G-(cyclic-)descents; adjacency is a set of
    frozensets of value pairs."""
    upto = n if cyclic else n - 1
    c = Counter()
    for p in permutations(range(1, n + 1)):
        d = sum(
            p[i] > p[(i + 1) % n] and frozenset((p[i], p[(i + 1) % n])) in adjacency
            for i in range(upto)
        )
        c[d] += 1
    return tuple(c.get(m, 0) for m in range(max(c) + 1))


def is_interval_clique_labeling(rho, edges):
    """Is every edge's label interval a clique once vertex u takes label
    rho[u-1]?  ``edges`` are undirected pairs."""
    relabeled = {frozenset((rho[u - 1], rho[v - 1])) for u, v in edges}
    return all(
        frozenset((a, b)) in relabeled
        for e in relabeled
        for a in range(min(e), max(e) + 1)
        for b in range(a + 1, max(e) + 1)
    )


def brute_chordal_labeling(n, edges):
    """First labeling rho of 1..n, in lexicographic order, under which
    every edge's label interval is a clique, or None: every labeling is
    tried.  ``edges`` are undirected pairs; vertex u gets label rho[u-1]."""
    for rho in permutations(range(1, n + 1)):
        if is_interval_clique_labeling(rho, edges):
            return rho
    return None


def greedy_chordal_removals(n, edges):
    """The edges Tour_n -> ... -> X removes, in order, for a simple X
    with every edge (u, v) having u > v: from X, put back the missing
    tournament edge b -> a with the least a that misses one and, for
    that a, the largest b, rescanning every pair after each step; the
    edges put back, last first, are the removals."""
    present = set(edges)
    put_back = []
    while True:
        missing = [(b, a) for b in range(1, n + 1) for a in range(1, b) if (b, a) not in present]
        if not missing:
            return put_back[::-1]
        a = min(a for _, a in missing)
        b = max(b for b, a2 in missing if a2 == a)
        present.add((b, a))
        put_back.append((b, a))


def is_transitive(edges):
    """Is the relation given by the (u, v) pairs ``edges`` transitively
    closed: u -> v and v -> w always with u -> w?"""
    present = set(edges)
    return all((u, w) in present for u, v in present for v2, w in present if v == v2)


def contracted_edges(edges, u, v):
    """Edge list of X^{uv} on 1..n-1: drop every copy of u->v and v->u,
    send v to u, then close the gap v leaves by moving each label above
    it down one."""
    def new(w):
        w = u if w == v else w
        return w - 1 if w > v else w

    return sorted((new(a), new(b)) for a, b in edges if {a, b} != {u, v})


def induced_edges(n, edges, drop):
    """Edge list of the subgraph induced on 1..n minus ``drop``, each
    survivor renamed to its rank among the survivors."""
    survivors = [w for w in range(1, n + 1) if w not in drop]
    rank = {w: i + 1 for i, w in enumerate(survivors)}
    return sorted((rank[a], rank[b]) for a, b in edges if a in rank and b in rank)


def mahonian(n):
    """Coefficients of [1]_x [2]_x ... [n]_x, [k]_x = 1 + x + ... + x^(k-1):
    permutations of 1..n by inversions (MacMahon, 1915)."""
    coeffs = [1]
    for k in range(2, n + 1):
        # multiply by [k]_x: each new coefficient sums a window of k old ones
        coeffs = [sum(coeffs[max(0, m - k + 1):m + 1]) for m in range(len(coeffs) + k - 1)]
    return tuple(coeffs)


def successions(n):
    """Coefficients of sum_k C(n-1, k) d(n-1-k) x^k: permutations of 1..n
    by successions, adjacent positions holding i, i + 1 (Roselle, 1968),
    with d(m) = m d(m-1) + (m-1) d(m-2) and d(0) = d(1) = 1."""
    d = [1, 1]
    while len(d) < n:
        m = len(d)
        d.append(m * d[m - 1] + (m - 1) * d[m - 2])
    return tuple(comb(n - 1, k) * d[n - 1 - k] for k in range(n))


def tour_odp(n, y_edges, pins=None):
    """Coefficients of ODP(Tour_n, Y) over the permutations sigma with
    sigma(i) = pins[i] at each pinned position i, by a subset DP.  Tour_n
    has an edge b -> a for every b > a, so filling positions 1..n in
    order, placing value v adds mult_Y(v -> u) for every value u placed
    before it; a state is the set of values placed so far.  ``y_edges``
    are (u, v) pairs, repeated for parallel edges; loops never count.  A
    state's polynomial packs its coefficients into one int, ``width``
    bits each, which no count up to n! overflows."""
    pins = pins or {}
    out = {v: Counter() for v in range(1, n + 1)}
    for u, v in y_edges:
        if u != v:
            out[u][v] += 1
    free = [v for v in range(1, n + 1) if v not in pins.values()]
    width = factorial(n).bit_length() + 1
    layer = {0: 1}  # bit v set when value v is placed
    for i in range(1, n + 1):
        choices = [pins[i]] if i in pins else free
        grown = Counter()
        for placed, poly in layer.items():
            for v in choices:
                if not placed >> v & 1:
                    gain = sum(m for u, m in out[v].items() if placed >> u & 1)
                    grown[placed | 1 << v] += poly << gain * width
        layer = grown
    packed = sum(layer.values())
    return tuple(packed >> d * width & (1 << width) - 1 for d in range(-(-packed.bit_length() // width)))
