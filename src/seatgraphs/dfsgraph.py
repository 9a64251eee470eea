"""The directed friends-and-seats graph DFS(X, Y) and its outdegree
polynomial.

The edge rule is implemented exactly as the formal four-condition
definition: sigma is directed towards sigma∘(a b) when a -> b is an
edge of X and sigma(a) -> sigma(b) is an edge of Y.  A witness carries
multiplicity mult_X(a->b) * mult_Y(sigma(a)->sigma(b)), which is what
makes every identity below exact on multigraphs.

ODP and its slices stream over S_n without materializing the n!-vertex
graph, through one counting loop.  A slice enumerates only the
permutations it keeps: an assignment slice sigma(i) = j visits (n-1)!,
an edge slice visits (n-2)! per non-loop Y-edge it pins under (a, b).
``materialize`` exists for inspection and DOT/JSON export at small n.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator, NamedTuple

from .digraph import Digraph
from .limits import MATERIALIZE_BOUND, ODP_BOUND, check_bound
from .permutations import Perm, enumerate_perms, swap_positions, validate_perm, word
from .polynomials import Polynomial


class DfsEdgeWitness(NamedTuple):
    source: Perm
    a: int
    b: int
    target: Perm
    multiplicity: int


def _check_same_n(X: Digraph, Y: Digraph) -> int:
    if X.n != Y.n:
        raise ValueError(f"X has {X.n} vertices but Y has {Y.n}")
    if not (X.is_standard and Y.is_standard):
        raise ValueError("DFS graphs are defined for graphs labeled exactly 1..n")
    return X.n


def out_neighbors(X: Digraph, Y: Digraph, p: Perm) -> list[DfsEdgeWitness]:
    """All witnesses out of the vertex labeled p, in (a, b) order."""
    n = _check_same_n(X, Y)
    if len(p) != n:
        raise ValueError(f"permutation length {len(p)} does not match n={n}")
    validate_perm(p)
    out = []
    for a, b, mx in X.edge_counts:
        if a == b:
            continue
        my = Y.multiplicity(p[a - 1], p[b - 1])
        if my:
            out.append(DfsEdgeWitness(p, a, b, swap_positions(p, a, b), mx * my))
    return out


def outdegree(X: Digraph, Y: Digraph, p: Perm) -> int:
    """Sum of witness multiplicities out of p."""
    return sum(w.multiplicity for w in out_neighbors(X, Y, p))


def _odp_poly(X: Digraph, Y: Digraph, pinned: dict[int, int]) -> Polynomial:
    """Sum of x^outdegree over the permutations that take each pinned
    position to its value (``{position: value}``, 1-based).  Only the
    unpinned values are permuted, so pinning k positions visits (n-k)!
    permutations."""
    n = X.n
    # p lists the free positions in label order, then the pinned ones
    order = [i for i in range(1, n + 1) if i not in pinned] + list(pinned)
    slot = {pos: k for k, pos in enumerate(order)}
    xedges = [(slot[a], slot[b], m) for a, b, m in X.edge_counts if a != b]
    ymult = {(u, v): m for u, v, m in Y.edge_counts}
    pinned_values = tuple(pinned.values())
    free_values = [v for v in range(1, n + 1) if v not in pinned_values]
    counts: dict[int, int] = {}
    for free in permutations(free_values):
        p = free + pinned_values
        d = 0
        for a, b, mx in xedges:
            my = ymult.get((p[a], p[b]))
            if my:
                d += mx * my
        counts[d] = counts.get(d, 0) + 1
    return Polynomial(tuple(counts.get(m, 0) for m in range(max(counts) + 1)))


def odp(X: Digraph, Y: Digraph, bound: int | None = ODP_BOUND) -> Polynomial:
    """Outdegree polynomial: sum over S_n of x^outdegree(sigma)."""
    n = _check_same_n(X, Y)
    check_bound("outdegree polynomial", n, bound)
    return _odp_poly(X, Y, {})


def odp_edge_slice(X: Digraph, Y: Digraph, a: int, b: int, bound: int | None = ODP_BOUND) -> Polynomial:
    """Partial ODP over vertices whose label satisfies sigma(a) -> sigma(b) in Y.

    The contribution of each such sigma is weighted by
    mult_Y(sigma(a) -> sigma(b)); for simple Y this is the plain
    restricted sum.
    """
    n = _check_same_n(X, Y)
    if a == b or not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"slice pair ({a}, {b}) must be two distinct labels in 1..{n}")
    check_bound("ODP edge slice", n, bound)
    total = Polynomial(())
    for u, v, weight in Y.edge_counts:
        if u != v:
            total = total + weight * _odp_poly(X, Y, {a: u, b: v})
    return total


def odp_assign_slice(X: Digraph, Y: Digraph, i: int, j: int, bound: int | None = ODP_BOUND) -> Polynomial:
    """Partial ODP over vertices whose label satisfies sigma(i) = j."""
    n = _check_same_n(X, Y)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"assignment sigma({i}) = {j} is out of range for n={n}")
    check_bound("ODP assignment slice", n, bound)
    return _odp_poly(X, Y, {i: j})


@dataclass(frozen=True)
class MaterializedDfs:
    """Explicit DFS(X, Y): all n! vertices with per-vertex witness lists.

    Vertices are in lexicographic order; ``adjacency[i]`` holds the
    witnesses out of ``vertices[i]`` in (a, b) order.
    """

    n: int
    vertices: tuple[Perm, ...]
    adjacency: tuple[tuple[DfsEdgeWitness, ...], ...]

    index: dict[Perm, int] = field(repr=False, compare=False)

    def index_of(self, p: Perm) -> int:
        return self.index[p]

    def edge_multiplicity(self, src: Perm, dst: Perm) -> int:
        return sum(w.multiplicity for w in self.adjacency[self.index_of(src)] if w.target == dst)

    def total_edge_multiplicity(self) -> int:
        return sum(w.multiplicity for row in self.adjacency for w in row)

    def outdegree(self, p: Perm) -> int:
        return sum(w.multiplicity for w in self.adjacency[self.index_of(p)])

    def edges(self) -> Iterator[DfsEdgeWitness]:
        for row in self.adjacency:
            yield from row

    def is_acyclic(self) -> bool:
        indeg = [0] * len(self.vertices)
        succ: list[list[int]] = [[] for _ in self.vertices]
        for i, row in enumerate(self.adjacency):
            for w in row:
                j = self.index_of(w.target)
                succ[i].append(j)
                indeg[j] += 1
        queue = [i for i, d in enumerate(indeg) if d == 0]
        removed = 0
        while queue:
            i = queue.pop()
            removed += 1
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        return removed == len(self.vertices)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "vertices": [list(p) for p in self.vertices],
            "edges": [
                {
                    "from": i,
                    "to": self.index_of(w.target),
                    "a": w.a,
                    "b": w.b,
                    "mult": w.multiplicity,
                }
                for i, row in enumerate(self.adjacency)
                for w in row
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    def to_dot(self) -> str:
        lines = ["digraph {"]
        for p in self.vertices:
            lines.append(f'  "{word(p)}";')
        for row in self.adjacency:
            for w in row:
                for _ in range(w.multiplicity):
                    lines.append(f'  "{word(w.source)}" -> "{word(w.target)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def materialize(X: Digraph, Y: Digraph, bound: int | None = MATERIALIZE_BOUND) -> MaterializedDfs:
    """Build the full DFS(X, Y) graph (n! vertices)."""
    n = _check_same_n(X, Y)
    check_bound("DFS materialization", n, bound)
    vertices = tuple(enumerate_perms(n, bound=None))
    adjacency = tuple(tuple(out_neighbors(X, Y, p)) for p in vertices)
    return MaterializedDfs(n, vertices, adjacency, {p: i for i, p in enumerate(vertices)})
