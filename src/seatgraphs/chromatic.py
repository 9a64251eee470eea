"""Chromatic polynomials, perfect elimination orderings, interval-clique
labelings, and the sink-equivalent edge sequence from the transitive
tournament down to a target graph.

Chromatic polynomials count partitions into independent sets over
induced subsets (Björklund, Husfeldt and Koivisto, SIAM J. Comput. 39,
2009), memoized on the exact labeled graph once its isolated vertices
are split off: the key is each vertex's closed neighbourhood as a bit
mask.  Isomorphic graphs labeled differently take separate entries: a
canonical relabeling would cost up to n! per key on a regular graph.
The memo table only ever receives idempotent inserts, so recomputation
is harmless and the cache can never go stale.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .digraph import Digraph, tour
from .limits import WORK_BOUND, check_bound
from .permutations import Perm
from .polynomials import ZERO, Polynomial

_chromatic_memo: dict[tuple[int, ...], Polynomial] = {}


def _partition_counts(closed: tuple[int, ...]) -> list[int]:
    """a_j, the partitions of vertices 0..n-1 into j independent sets,
    for j = 0..n; bit u of ``closed[v]`` is set for u = v and v's
    neighbours.  Peeling off the block I that holds the least vertex of
    what is left, S, builds each partition once, visiting each (S, I) at
    most once: (3^n - 1)/2 in all.  ``todo[k]`` maps each S of k vertices
    to its peelings as a polynomial in y, one y per block, packed into an
    int of ``shift``-bit coefficients, none of which reaches Bell(n)."""
    n = len(closed)
    shift = 1 + n * n.bit_length()
    todo = [{} for _ in range(n)] + [{(1 << n) - 1: 1}]
    for k in range(n, 0, -1):
        for left, ways in todo[k].items():
            v = (left & -left).bit_length() - 1
            # (S - I, the vertices above I's last that may still join I)
            stack = [(left ^ (1 << v), left & ~closed[v])]
            while stack:
                rest, free = stack.pop()
                bucket = todo[rest.bit_count()]
                bucket[rest] = bucket.get(rest, 0) + (ways << shift)
                while free:
                    u = free & -free
                    free ^= u
                    stack.append((rest ^ u, free & ~closed[u.bit_length() - 1]))
    return [(todo[0][0] >> shift * j) & ((1 << shift) - 1) for j in range(n + 1)]


def check_chromatic_price(c: int, bound: int | None) -> None:
    """Refuse chi of a graph with c vertices that are not isolated when
    its price, (3^c - 1)/2 steps, is above ``bound``."""
    check_bound("chromatic polynomial", (3 ** c - 1) // 2, bound)


def chromatic_poly(graph: Digraph, bound: int | None = WORK_BOUND) -> Polynomial:
    """Chromatic polynomial of the underlying undirected graph, in k:
    sum_j a_j k(k-1)...(k-j+1) over the numbers j of colour classes.

    Direction is forgotten and parallel/antiparallel edges merge before
    computing.  A self-loop makes every coloring improper, so the result
    is the zero polynomial.  Each isolated vertex is a factor k; the
    price of the c others, (3^c - 1)/2 steps, is checked first.
    """
    edges = graph.undirected_edges()
    if any(u == v for u, v in edges):
        return ZERO
    used = sorted({v for e in edges for v in e})
    check_chromatic_price(len(used), bound)
    rank = {v: i for i, v in enumerate(used)}
    closed = [1 << i for i in range(len(used))]
    for u, v in edges:
        closed[rank[u]] |= 1 << rank[v]
        closed[rank[v]] |= 1 << rank[u]
    core = _chromatic_memo.get(key := tuple(closed))
    if core is None:
        # a_0 + k (a_1 + (k - 1) (a_2 + ...)), from the inside out
        coeffs = [0]
        for j, count in reversed(list(enumerate(_partition_counts(key)))):
            coeffs = [count - j * coeffs[0]] + [lo - j * hi for lo, hi in zip(coeffs, coeffs[1:] + [0])]
        core = _chromatic_memo[key] = Polynomial(tuple(coeffs))
    return Polynomial((0,) * (graph.n - len(used)) + core.coeffs)


def is_peo(graph: Digraph) -> bool:
    """Is the identity labeling a perfect elimination ordering?

    For every edge j -> i the whole interval [i, j] must induce a
    transitive tournament: b -> a present for all j >= b > a >= i.
    That holds exactly when every vertex's closed neighbourhood is a run
    of consecutive labels (the umbrella condition of Looges and Olariu,
    1993), the test ``find_chordal_labeling`` also puts to the labeling
    it builds.
    """
    if not graph.is_labeled_acyclic():
        raise ValueError("perfect elimination orderings are defined for labeled acyclic graphs")
    if not graph.is_simple():
        raise ValueError("perfect elimination orderings are defined for simple graphs")
    closed = {v: 1 << v for v in graph.labels}
    for j, i, _ in graph.edge_counts:
        closed[i] |= 1 << j
        closed[j] |= 1 << i
    return all(_span(c) == c for c in closed.values())


def find_chordal_labeling(graph: Digraph) -> Perm | None:
    """A vertex labeling that is a perfect elimination ordering, or None
    if there is none.

    A labeling re-orients every underlying edge from the larger new
    label to the smaller.  It is a PEO when every edge's label interval
    is a clique, that is when every closed neighbourhood is a run of
    labels (the umbrella condition of Looges and Olariu, 1993).  Such
    labelings exist exactly on the proper interval graphs (Roberts,
    1969), so the claw K_{1,3} is chordal and has none.  Three LBFS
    sweeps, the last two breaking ties toward the vertex latest in the
    sweep before, give one whenever one exists (Corneil, 2004); each
    vertex is labeled by its position in the last sweep, and the run
    test decides whether the sweeps found one.
    """
    if not (graph.is_labeled_acyclic() or graph.is_acyclic()):
        raise ValueError("chordal labelings are defined for acyclic graphs")
    if not graph.is_simple():
        raise ValueError("chordal labelings are defined for simple graphs")
    n = graph.n
    # 0-based vertices; bit u of closed[v] is set when u is v or a neighbour
    closed = [1 << v for v in range(n)]
    for lo, hi in graph.undirected_edges():
        closed[lo - 1] |= 1 << hi - 1
        closed[hi - 1] |= 1 << lo - 1
    order = list(range(n))
    for _ in range(3):
        order = _lbfs(order, closed)
    label = [0] * n
    for position, v in enumerate(order, 1):
        label[v] = position
    runs = [1 << own for own in label]
    for lo, hi in graph.undirected_edges():
        runs[lo - 1] |= 1 << label[hi - 1]
        runs[hi - 1] |= 1 << label[lo - 1]
    return tuple(label) if all(_span(run) == run for run in runs) else None


def _span(run: int) -> int:
    """Every label from the lowest of ``run`` to its highest."""
    return (1 << run.bit_length()) - (run & -run)


def _lbfs(order: list[int], closed: list[int]) -> list[int]:
    """Lexicographic breadth-first search of the graph on ``order``,
    breaking ties toward the vertex latest in ``order``; each component
    is finished before the next is started."""
    blocks = [order[::-1]]  # vertices with equal lexicographic labels
    visited = []
    while blocks:
        v = blocks[0].pop(0)
        visited.append(v)
        near = closed[v]
        refined = []
        for block in blocks:
            inside = [u for u in block if near >> u & 1]
            if inside and len(inside) < len(block):
                refined += inside, [u for u in block if not near >> u & 1]
            elif block:
                refined.append(block)
        blocks = refined
    return visited


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
    put b -> a back.  That order is one sort of X's complement edges
    b -> a on (a, -b): putting b -> a back lowers only a's indegree in
    the complement, so the greedy takes all of a's sources, the largest
    b first, before it moves on to the next a.

    Requires X labeled acyclic and simple with a complement that is a
    PEO as labeled.  Each removal is certified
    sink-equivalent in the graph still containing the edge; note the
    certificate is insensitive to which side of the removal hosts it,
    since edges inside the pair never affect sink-equivalence.
    """
    if not graph.is_labeled_acyclic():
        raise ValueError("chordal sequences are defined for labeled acyclic graphs")
    if not graph.is_simple():
        raise ValueError("chordal sequences are defined for simple graphs")
    comp = graph.complement()
    if not is_peo(comp):
        raise ValueError("hypothesis failure: complement of X is not a PEO as labeled")

    # Tour_n down to X: the greedy's choices, last first
    steps, current = [], tour(graph.n)
    for b, a, _ in sorted(comp.edge_counts, key=lambda e: (e[1], -e[0]), reverse=True):
        if not current.is_sink_equivalent({a, b}):
            raise ValueError(
                f"certificate failure: pair {(b, a)} is not sink-equivalent in the graph containing it"
            )
        steps.append(ChordalStep(current, (b, a), True, is_peo(current.complement())))
        current = current.remove_edge(b, a)
    steps.append(ChordalStep(graph, None, None, is_peo(comp)))
    return ChordalSequence(tuple(steps))


def enumerate_labeled_acyclic(n: int) -> Iterator[tuple[int, Digraph]]:
    """All 2^(n(n-1)/2) simple labeled acyclic graphs on 1..n.

    Yields (graph_id, graph) where graph_id is the bitmask over the
    lexicographically sorted tournament edge list.
    """
    edge_list = [(u, v) for u, v, _ in tour(n).edge_counts]
    for mask in range(1 << len(edge_list)):
        chosen = [e for i, e in enumerate(edge_list) if mask >> i & 1]
        yield mask, Digraph.from_edges(n, chosen)
