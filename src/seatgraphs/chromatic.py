"""Chromatic polynomials, perfect elimination orderings, and the
sink-equivalent edge sequence from the transitive tournament down to a
target graph.

Chromatic polynomials are computed by deletion-contraction over the
underlying undirected simple graph, memoized on exact canonical keys
(minimum relabeling within degree classes, exhaustively).  The memo
table only ever receives idempotent inserts, so recomputation is
harmless and the cache can never go stale.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import permutations as _itertools_permutations
from typing import Iterator

from .digraph import Digraph
from .limits import RELABEL_SEARCH_BOUND, check_bound
from .permutations import Perm
from .polynomials import Polynomial

UEdge = tuple[int, int]  # undirected edge as (lo, hi), 0-based inside this module


def _x_power(n: int) -> Polynomial:
    return Polynomial((0,) * n + (1,))


def _canonical_key(n: int, edges: frozenset[UEdge]) -> tuple:
    """Exact isomorphism-invariant key: minimum edge encoding over all
    degree-class-respecting relabelings."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(deg[v], []).append(v)
    classes = [by_degree[d] for d in sorted(by_degree)]
    # new indices are handed out class by class, ascending degree
    starts = []
    offset = 0
    for cls in classes:
        starts.append(offset)
        offset += len(cls)

    best: tuple[UEdge, ...] | None = None
    def assign(class_idx: int, mapping: dict[int, int]) -> None:
        nonlocal best
        if class_idx == len(classes):
            relabeled = tuple(sorted(
                (min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in edges
            ))
            if best is None or relabeled < best:
                best = relabeled
            return
        cls = classes[class_idx]
        base = starts[class_idx]
        for perm in _itertools_permutations(cls):
            for i, v in enumerate(perm):
                mapping[v] = base + i
            assign(class_idx + 1, mapping)

    assign(0, {})
    return (n, best)


_chromatic_memo: dict[tuple, Polynomial] = {}


def _chi(n: int, edges: frozenset[UEdge]) -> Polynomial:
    if not edges:
        return _x_power(n)
    # split off isolated vertices: each contributes a factor of k
    used = sorted({v for e in edges for v in e})
    isolated = n - len(used)
    if isolated:
        rank = {v: i for i, v in enumerate(used)}
        core = frozenset((rank[u], rank[v]) for u, v in edges)
        return _x_power(isolated) * _chi(len(used), core)
    if 2 * len(edges) == n * (n - 1):
        # complete: k (k-1) ... (k-n+1), where the canonical key would try
        # all n! relabelings of its single degree class
        falling = Polynomial((1,))
        for i in range(n):
            falling = falling * Polynomial((-i, 1))
        return falling

    key = _canonical_key(n, edges)
    hit = _chromatic_memo.get(key)
    if hit is not None:
        return hit

    u, v = min(edges)
    deleted = edges - {(u, v)}
    # contract v into u, then compress labels and dedupe parallel edges
    merged = set()
    for a, b in deleted:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            merged.add((min(a2, b2), max(a2, b2)))
    survivors = [w for w in range(n) if w != v]
    rank = {w: i for i, w in enumerate(survivors)}
    contracted = frozenset((rank[a], rank[b]) for a, b in merged)

    result = _chi(n, deleted) - _chi(n - 1, contracted)
    _chromatic_memo[key] = result
    return result


def chromatic_poly(graph: Digraph) -> Polynomial:
    """Chromatic polynomial of the underlying undirected graph, in k.

    Direction is forgotten and parallel/antiparallel edges merge before
    computing.  A self-loop makes every coloring improper, so the result
    is the zero polynomial.
    """
    edges = graph.undirected_edges()
    if any(u == v for u, v in edges):
        return Polynomial(())
    rank = {v: i for i, v in enumerate(graph.labels)}
    return _chi(graph.n, frozenset((rank[u], rank[v]) for u, v in edges))


def is_peo(graph: Digraph) -> bool:
    """Is the identity labeling a perfect elimination ordering?

    For every edge j -> i the whole interval [i, j] must induce a
    transitive tournament: b -> a present for all j >= b > a >= i.
    """
    if not graph.is_labeled_acyclic():
        raise ValueError("perfect elimination orderings are defined for labeled acyclic graphs")
    if not graph.is_simple():
        raise ValueError("perfect elimination orderings are defined for simple graphs")
    if not graph.is_standard:
        raise ValueError("perfect elimination orderings are defined on labels 1..n")
    return _intervals_are_cliques({(j, i) for j, i, _ in graph.edge_counts})


def _intervals_are_cliques(edges: set[tuple[int, int]]) -> bool:
    """For every (hi, lo) in ``edges``, every (b, a) with
    hi >= b > a >= lo is in ``edges`` too."""
    for j, i in edges:
        for b in range(i + 1, j + 1):
            for a in range(i, b):
                if (b, a) not in edges:
                    return False
    return True


def find_chordal_labeling(graph: Digraph, bound: int | None = RELABEL_SEARCH_BOUND) -> Perm | None:
    """Search for a vertex labeling that is a perfect elimination ordering.

    A candidate labeling re-orients every underlying edge from the
    larger new label to the smaller (so each candidate is a labeled
    acyclic graph by construction); the first labeling in lexicographic
    order that is a PEO is returned, or None if none exists.

    Note the interval-clique condition is stronger than classic
    chordality: it asks for an ordering in which every edge's whole
    label interval is a clique, so e.g. the claw K_{1,3} admits no such
    labeling even though it is a chordal graph.

    The search is pruned, and its order is unchanged: vertices 1, 2, ...
    take labels in turn, each trying its labels in increasing order, so
    complete labelings come up in lexicographic order.  Every edge's
    interval is a clique exactly when each vertex's closed neighbourhood
    is a run of consecutive labels (the umbrella condition of Looges and
    Olariu, 1993: labels i < j < k with an edge {i, k} force the edges
    {i, j} and {j, k}).  A vertex skips every label that would leave
    some labeled vertex's labeled closed neighbourhood short of a run
    among the labels taken so far.  That pruning is exact: the labels
    that break the run, and the edges among them, stay in every
    completion, so no completion of a skipped prefix is a PEO.
    """
    if not graph.is_acyclic():
        raise ValueError("chordal labelings are defined for acyclic graphs")
    if not graph.is_simple():
        raise ValueError("chordal labelings are defined for simple graphs")
    if not graph.is_standard:
        raise ValueError("chordal labelings are searched on labels 1..n")
    n = graph.n
    check_bound("chordal labeling search", n, bound)
    # vertices are 0-based; label l is bit l, and bits 0 and n + 1 are
    # always taken, so a run of labels has a taken label on either side
    earlier: list[list[int]] = [[] for _ in range(n)]  # neighbours labeled first
    for lo, hi in graph.undirected_edges():
        earlier[hi - 1].append(lo - 1)
    every_label = (2 << n) - 2
    used = 1 | 2 << n
    label = [0] * n
    closed = [0] * n  # a labeled vertex's label and its labeled neighbours'
    options = [every_label] + [0] * (n - 1)  # labels left to try
    v = 0
    # a loop, not recursion, so that bound=None never meets the
    # recursion limit
    while v < n:
        bit = options[v] & -options[v]
        if not bit:
            # vertex v has no label left: take back the one before it
            if not v:
                return None
            v -= 1
            bit = label[v]
            used ^= bit
            for u in earlier[v]:
                closed[u] ^= bit
            continue
        options[v] ^= bit
        used |= bit
        label[v] = closed[v] = bit
        for u in earlier[v]:
            closed[u] |= bit
            closed[v] |= label[u]
        v += 1
        if v < n:
            options[v] = every_label & ~used & _labels_keeping_runs(v, earlier[v], label, closed, used)
    return tuple(b.bit_length() - 1 for b in label)


def _span(run: int) -> int:
    """Every label from the lowest of ``run`` to its highest."""
    return (1 << run.bit_length()) - (run & -run)


def _reach(run: int, used: int) -> int:
    """The labels strictly between the taken labels nearest below and
    above ``run``."""
    below = used & ((run & -run) - 1)
    above = used & -(1 << run.bit_length())
    return ((above & -above) - 1) ^ ((1 << below.bit_length()) - 1)


def _labels_keeping_runs(v: int, neighbours: list[int], label: list[int], closed: list[int], used: int) -> int:
    """The labels at which vertex ``v`` keeps the closed neighbourhood of
    each of the vertices 0..v a run among the taken labels, given that
    those of 0..v-1 are runs.  ``neighbours`` are v's among 0..v-1."""
    fits = -1
    own = 0
    for u in range(v):
        if u in neighbours:
            own |= label[u]
            fits &= _reach(closed[u], used)
        else:
            fits &= ~_span(closed[u])
    if not own:
        return fits
    if used & _span(own) != own:
        return 0
    return fits & _reach(own, used)


@dataclass(frozen=True)
class ChordalStep:
    """One entry of the Tour_n -> ... -> X edge-removal sequence.

    ``removed`` is the directed edge (a, b) with a > b whose removal
    produces the next graph; it is None on the final step.  The
    certificates record sink-equivalence of {a, b} in this graph (the
    one still containing the edge) and whether this graph's complement
    is a perfect elimination ordering under the identity labeling.
    """

    graph: Digraph
    removed: tuple[int, int] | None
    sink_equivalent: bool | None
    complement_peo: bool


@dataclass(frozen=True)
class ChordalSequence:
    steps: tuple[ChordalStep, ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def target(self) -> Digraph:
        return self.steps[-1].graph

    def all_certificates_pass(self) -> bool:
        return all(
            (s.sink_equivalent is None or s.sink_equivalent) and s.complement_peo
            for s in self.steps
        )

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "graph": s.graph.to_json_obj(),
                "removed": list(s.removed) if s.removed else None,
                "certificates": {
                    "sink_equivalent": s.sink_equivalent,
                    "complement_peo": s.complement_peo,
                },
            }
            for s in self.steps
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def chordal_sequence(graph: Digraph) -> ChordalSequence:
    """Build Tour_n = X_0, ..., X_k = X by reversing the greedy choice:
    in the complement of the current graph, take the smallest vertex a
    with positive indegree and the largest b with an edge b -> a, and
    put b -> a back.

    Requires X labeled acyclic and simple with a directed chordal
    complement (a PEO under some labeling).  Each removal is certified
    sink-equivalent in the graph still containing the edge; note the
    certificate is insensitive to which side of the removal hosts it,
    since edges inside the pair never affect sink-equivalence.
    """
    if not graph.is_labeled_acyclic():
        raise ValueError("chordal sequences are defined for labeled acyclic graphs")
    if not graph.is_simple():
        raise ValueError("chordal sequences are defined for simple graphs")
    if not graph.is_standard:
        raise ValueError("chordal sequences are defined on labels 1..n")
    comp = graph.complement()
    if not is_peo(comp) and find_chordal_labeling(comp) is None:
        raise ValueError("hypothesis failure: complement of X is not directed chordal")

    # walk upward from X to Tour_n, then reverse
    upward: list[tuple[Digraph, tuple[int, int] | None]] = [(graph, None)]
    current = graph
    while True:
        comp = current.complement()
        sources_to: dict[int, list[int]] = {}
        for u, v, _ in comp.edge_counts:
            sources_to.setdefault(v, []).append(u)
        if not sources_to:
            break
        a = min(sources_to)
        b = max(sources_to[a])
        current = current.add_edge(b, a)
        upward.append((current, (b, a)))

    steps = []
    for g, removed in reversed(upward):
        sink = g.is_sink_equivalent(set(removed)) if removed else None
        if removed and not sink:
            raise ValueError(
                f"certificate failure: pair {removed} is not sink-equivalent in the graph containing it"
            )
        steps.append(ChordalStep(g, removed, sink, is_peo(g.complement())))
    return ChordalSequence(tuple(steps))


def enumerate_labeled_acyclic(n: int) -> Iterator[tuple[int, Digraph]]:
    """All 2^(n(n-1)/2) simple labeled acyclic graphs on 1..n.

    Yields (graph_id, graph) where graph_id is the bitmask over the
    lexicographically sorted tournament edge list.
    """
    from .digraph import tour

    edge_list = [(u, v) for u, v, _ in tour(n).edge_counts]
    for mask in range(1 << len(edge_list)):
        chosen = [e for i, e in enumerate(edge_list) if mask >> i & 1]
        yield mask, Digraph.from_edges(n, chosen)
