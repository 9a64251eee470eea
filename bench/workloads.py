"""Seeded inputs, job lists and independent expectations for the benchmark.

Nothing here imports ``seatgraphs``: every expected value is computed
from first principles (the Eulerian recurrence, factorials, a separate
interval-clique labeling search), so a wrong answer from the package
cannot also be the reference it is checked against.

A job is a dict with
  id      unique name within the workload
  argv    the ``seatgraphs`` argument list
  probe   True for the tiny coverage jobs appended to every workload
  check   what the output must satisfy (see ``checks.py``)
  props   input properties later speed claims depend on
"""
from __future__ import annotations

import json
import random
from itertools import permutations
from math import factorial

WORKLOADS = ("odp", "identities", "enumerate")

# Frontier width at or below which a pair counts as narrow: the path and
# cycle identities walk Path_n or Cycle_n, whose widths are 1 and 2.
NARROW_WIDTH = 2


# -- graphs as plain edge lists --------------------------------------------

def tour_edges(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, i)]


def path_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def cycle_edges(n):
    return path_edges(n) + [(n, 1)]


FAMILIES = {"tour": tour_edges, "path": path_edges, "cycle": cycle_edges}


def family(spec):
    kind, _, n = spec.partition(":")
    return int(n), FAMILIES[kind](int(n))


def spec_json(n, edges):
    return json.dumps({"n": n, "edges": [list(e) for e in edges]}, separators=(",", ":"))


def vertex_separation(n, edges):
    """Vertex separation of the underlying graph in label order: the
    largest number of vertices <= i with a neighbour > i, over all i."""
    reach = [0] * (n + 1)
    for u, v in edges:
        lo, hi = min(u, v), max(u, v)
        if lo != hi:
            reach[lo] = max(reach[lo], hi)
    return max((sum(1 for u in range(1, i + 1) if reach[u] > i) for i in range(1, n)), default=0)


def pair_props(x, y):
    (n, ex), (_, ey) = x, y
    return {"n": n, "x_edges": len(ex), "y_edges": len(ey),
            "x_vs": vertex_separation(n, ex), "y_vs": vertex_separation(n, ey)}


# -- independent reference computations ------------------------------------

def eulerian_row(n):
    """A_n by A(n,m) = (m+1)A(n-1,m) + (n-m)A(n-1,m-1)."""
    row = [1]
    for size in range(2, n + 1):
        row = [(m + 1) * (row[m] if m < len(row) else 0) + (size - m) * (row[m - 1] if m else 0)
               for m in range(size)]
    return row


def cyclic_eulerian_row(n):
    """n*x*A_{n-1}: the cyclic descent distribution over S_n."""
    return [0] + [n * c for c in eulerian_row(n - 1)]


def is_interval_clique(n, edges, label):
    """Is every underlying edge's label interval a clique after relabeling
    vertex v to label[v-1]?  Equivalently: each vertex's higher
    neighbours are exactly the next few labels, and how far they reach
    never shrinks along a clique."""
    up = [0] * (n + 2)
    reach = list(range(n + 2))
    for u, v in edges:
        a, b = label[u - 1], label[v - 1]
        if a > b:
            a, b = b, a
        up[a] |= 1 << b
        if b > reach[a]:
            reach[a] = b
    for i in range(1, n + 1):
        r = reach[i]
        if up[i] != ((1 << (r + 1)) - (1 << (i + 1))):
            return False
        if r > i and reach[i + 1] < r:
            return False
    return True


def peo_search(n, edges):
    """1-based lexicographic rank of the first labeling that is an
    interval-clique ordering, or None when all n! labelings fail."""
    undirected = {(min(u, v), max(u, v)) for u, v in edges}
    for rank, label in enumerate(permutations(range(1, n + 1)), start=1):
        if is_interval_clique(n, undirected, label):
            return rank
    return None


def complement_edges(n, edges):
    present = set(edges)
    return [(i, j) for i, j in tour_edges(n) if (i, j) not in present]


def complement_is_peo(n, edges):
    return is_interval_clique(n, complement_edges(n, edges), tuple(range(1, n + 1)))


def sweep_rows(n):
    """Independent per-row expectations for ``verify sweep --n n``:
    graph_id -> (edges field, X has an interval-clique labeling,
    complement is a PEO as labeled)."""
    tour = sorted(tour_edges(n))
    rows = {}
    for mask in range(1 << len(tour)):
        chosen = [e for i, e in enumerate(tour) if mask >> i & 1]
        rows[mask] = (" ".join(f"{u}>{v}" for u, v in chosen),
                      peo_search(n, chosen) is not None,
                      complement_is_peo(n, chosen))
    return rows


# -- jobs ------------------------------------------------------------------

def _job(jid, argv, check, props=None, probe=False):
    return {"id": jid, "argv": argv, "check": check, "props": props, "probe": probe}


def odp_job(jid, x_spec, y_spec, x, y, check, extra=()):
    argv = ["odp", x_spec, y_spec, *extra, "--format", "json"]
    return _job(jid, argv, check, pair_props(x, y))


def probe_jobs():
    """One tiny job per layer, so every wrapper is exercised on every
    workload and a missed rebinding shows as a zero in the traced run."""
    x4 = (4, [(2, 1), (3, 1), (4, 3)])
    return [
        _job("probe/slice", ["odp", "tour:4", "cycle:4", "--slice", "edge:2,1", "--format", "json"],
             {"kind": "odp", "sum": 4 * factorial(2)}, probe=True),
        _job("probe/path-identity", ["verify", "path-identity", "--graph", spec_json(*x4), "--format", "json"],
             {"kind": "verdict", "x_chordal": peo_search(*x4) is not None,
              "complement_peo": complement_is_peo(*x4)}, probe=True),
        _job("probe/sweep", ["verify", "sweep", "--n", "3"], {"kind": "sweep", "n": 3}, probe=True),
        _job("probe/dfs", ["dfs", "tour:3", "tour:3"],
             {"kind": "dfs", "vertices": factorial(3), "edges": factorial(3) * 3 * 2 // 4}, probe=True),
        _job("probe/eulerian", ["table", "eulerian", "--n", "1..3"],
             {"kind": "table", "rows": [eulerian_row(n) for n in range(1, 4)]}, probe=True),
        _job("probe/cyclic", ["table", "cyclic-eulerian", "--n", "3"],
             {"kind": "table", "rows": [cyclic_eulerian_row(3)]}, probe=True),
    ]


def random_digraph(rng, n, m):
    """m distinct ordered pairs u != v on 1..n, sorted."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    return sorted(rng.sample(pairs, m))


def odp_workload(rng):
    n = 9
    tour, cycle, path = family("tour:9"), family("cycle:9"), family("path:9")
    # both sides dense, so both sides have a wide frontier in label order
    rx, ry = (n, random_digraph(rng, n, 36)), (n, random_digraph(rng, n, 36))
    sx, sy = spec_json(*rx), spec_json(*ry)
    return [
        odp_job("tour9-cycle9", "tour:9", "cycle:9", tour, cycle,
                {"kind": "odp", "coeffs": cyclic_eulerian_row(n), "sum": factorial(n)}),
        odp_job("path9-tour9", "path:9", "tour:9", path, tour,
                {"kind": "odp", "coeffs": eulerian_row(n), "sum": factorial(n)}),
        odp_job("random-xy", sx, sy, rx, ry, {"kind": "odp", "sum": factorial(n)}),
        odp_job("random-yx", sy, sx, ry, rx,
                {"kind": "odp", "sum": factorial(n), "same_as": "random-xy"}),
        odp_job("slice-edge", "tour:9", "cycle:9", tour, cycle,
                {"kind": "odp", "sum": len(cycle[1]) * factorial(n - 2)}, ("--slice", "edge:2,1")),
        odp_job("slice-assign", "tour:9", "cycle:9", tour, cycle,
                {"kind": "odp", "sum": factorial(n - 1)}, ("--slice", "assign:1,1")),
    ]


# (edge count, whether the interval-clique labeling search exhausts all
# 7! labelings).  Densities run from sparse to dense; the exhaustive share
# is fixed per slot, because one exhaustive search costs as much as the
# rest of a verification and would otherwise dominate run-to-run spread.
IDENTITY_SLOTS = ((1, False), (2, False), (4, False), (5, True), (7, True), (9, True),
                  (11, True), (13, True), (15, True), (17, True), (19, False), (20, False))
IDENTITY_N = 7


def identity_graphs(rng):
    n = IDENTITY_N
    pairs = tour_edges(n)
    graphs = []
    for m, exhausts in IDENTITY_SLOTS:
        for _ in range(1000):
            edges = sorted(rng.sample(pairs, m))
            rank = peo_search(n, edges)
            if (rank is None) == exhausts:
                graphs.append((edges, rank))
                break
        else:
            raise RuntimeError(f"no {m}-edge graph with exhausts={exhausts} in 1000 draws")
    return graphs


def identities_workload(rng):
    n = IDENTITY_N
    jobs = [_job("sweep5", ["verify", "sweep", "--n", "5", "--unsafe-bounds"],
                 {"kind": "sweep", "n": 5}, {"n": 5})]
    for k, (edges, rank) in enumerate(identity_graphs(rng)):
        x = (n, edges)
        for theorem, y in (("path-identity", family("path:7")), ("cycle-identity", family("cycle:7"))):
            props = dict(pair_props(x, y), peo_rank=rank)
            jobs.append(_job(f"{theorem}-{k:02d}-m{len(edges)}",
                             ["verify", theorem, "--graph", spec_json(*x), "--format", "json"],
                             {"kind": "verdict", "x_chordal": rank is not None,
                              "complement_peo": complement_is_peo(n, edges)}, props))
    return jobs


def oriented(n, edges):
    """Orientation the generalized Eulerian theorem uses: larger to smaller."""
    return n, sorted({(max(u, v), min(u, v)) for u, v in edges})


def enumerate_workload(rng):
    n = 8
    pairs = tour_edges(n)
    jobs = [
        _job("table-cyclic", ["table", "cyclic-eulerian", "--n", "2..8"],
             {"kind": "table", "rows": [cyclic_eulerian_row(k) for k in range(2, 9)]}, {"n": 8}),
        _job("table-eulerian", ["table", "eulerian", "--n", "1..8"],
             {"kind": "table", "rows": [eulerian_row(k) for k in range(1, 9)]}, {"n": 8}),
    ]
    for cyclic in (False, True):
        # half of the 28 possible edges, each in a random direction
        edges = sorted((u, v) if rng.random() < 0.5 else (v, u) for u, v in rng.sample(pairs, 14))
        walk = family("cycle:8" if cyclic else "path:8")
        argv = ["verify", "gen-eulerian", "--graph", spec_json(n, edges), "--unsafe-bounds", "--format", "json"]
        jobs.append(_job("gen-eulerian-cyclic" if cyclic else "gen-eulerian",
                         argv + ["--cyclic"] if cyclic else argv,
                         {"kind": "verdict", "holds": True}, pair_props(walk, oriented(n, edges))))
    tour7 = family("tour:7")
    jobs += [
        _job("dfs-tour7", ["dfs", "tour:7", "tour:7"],
             # tour edge a -> b (a > b) is a witness exactly when sigma(a) > sigma(b)
             {"kind": "dfs", "vertices": factorial(7), "edges": factorial(7) * 7 * 6 // 4},
             pair_props(tour7, tour7)),
        _job("acyclic-tour7", ["verify", "acyclic", "--x", "tour:7", "--y", "tour:7", "--format", "json"],
             {"kind": "verdict", "holds": True}, pair_props(tour7, tour7)),
    ]
    return jobs


JOB_LISTS = {"odp": odp_workload, "identities": identities_workload, "enumerate": enumerate_workload}


def build(workload, seed):
    """The workload's job list for ``seed``; equal seeds give equal lists."""
    jobs = JOB_LISTS[workload](random.Random(f"{workload}:{seed}"))
    return jobs + probe_jobs()


def summarize(jobs):
    """Input properties of the main (non-probe) jobs."""
    main = [j for j in jobs if not j["probe"]]
    pairs = [j["props"] for j in main if j["props"] and "x_vs" in j["props"]]
    ranks = [j["props"]["peo_rank"] for j in main if j["props"] and "peo_rank" in j["props"]]
    out = {
        "jobs": len(main),
        "probe_jobs": len(jobs) - len(main),
        "pairs": len(pairs),
        "narrow_pair_share": (sum(min(p["x_vs"], p["y_vs"]) <= NARROW_WIDTH for p in pairs) / len(pairs)
                              if pairs else None),
    }
    if ranks:
        out["peo_exhaustive_share"] = sum(r is None for r in ranks) / len(ranks)
    return out
