"""Independent brute-force reference implementations.

Everything here recomputes results straight from the definitions with
plain nested loops, deliberately sharing no code path with the package
modules it checks.  Graphs come in as (n, list-of-edge-pairs) so the
oracles do not depend on the package's edge bookkeeping either.
"""
from collections import Counter
from itertools import permutations
from math import comb


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


def brute_chordal_labeling(n, edges):
    """First labeling rho of 1..n, in lexicographic order, under which
    every edge's label interval is a clique, or None: every labeling is
    tried.  ``edges`` are undirected pairs; vertex u gets label rho[u-1]."""
    for rho in permutations(range(1, n + 1)):
        relabeled = {frozenset((rho[u - 1], rho[v - 1])) for u, v in edges}
        if all(
            frozenset((a, b)) in relabeled
            for e in relabeled
            for a in range(min(e), max(e) + 1)
            for b in range(a + 1, max(e) + 1)
        ):
            return rho
    return None


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
