"""Labeled directed multigraphs and the constructions performed on them.

A :class:`Digraph` lives on the vertices ``1..n``, which are both the
positions and the values of a permutation in S_n.  It stores its edges
as a multiset and is immutable: every operation returns a new graph,
again on ``1..m`` for its own vertex count m.  Edge iteration order is
lexicographic in ``(source, target)`` so that all downstream output is
reproducible.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Digraph:
    """Immutable directed multigraph on the vertices ``1..n``.

    ``edge_counts`` is a tuple of ``(source, target, multiplicity)``
    triples sorted by ``(source, target)``.  Two graphs are equal iff
    they have the same n and every ordered pair has the same
    multiplicity.
    """

    n: int
    edge_counts: tuple[tuple[int, int, int], ...]
    _mult: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {n}")
        seen: set[tuple[int, int]] = set()
        for u, v, m in self.edge_counts:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {u}->{v} has an endpoint outside the vertex set 1..{n}")
            if m < 1:
                raise ValueError(f"edge {u}->{v} has non-positive multiplicity {m}")
            seen.add((u, v))
        if len(seen) != len(self.edge_counts):
            raise ValueError("duplicate (source, target) pair in edge_counts")
        if tuple(sorted(self.edge_counts)) != self.edge_counts:
            raise ValueError("edge_counts must be sorted by (source, target)")
        object.__setattr__(self, "_mult", {(u, v): m for u, v, m in self.edge_counts})

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Digraph:
        """Build a graph on ``1..n``; repeated ``(u, v)`` pairs accumulate
        multiplicity."""
        counts: dict[tuple[int, int], int] = {}
        for u, v in edges:
            counts[(u, v)] = counts.get((u, v), 0) + 1
        triples = tuple(sorted((u, v, m) for (u, v), m in counts.items()))
        return cls(n, triples)

    # -- basic accessors ----------------------------------------------

    @property
    def labels(self) -> range:
        """The vertices, ``1..n``."""
        return range(1, self.n + 1)

    def multiplicity(self, u: int, v: int) -> int:
        return self._mult.get((u, v), 0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as ordered pairs, repeating parallel edges."""
        for u, v, m in self.edge_counts:
            for _ in range(m):
                yield (u, v)

    def total_edges(self) -> int:
        """Number of edges counted with multiplicity."""
        return sum(m for _, _, m in self.edge_counts)

    def is_simple(self) -> bool:
        """No parallel edges and no self-loops (antiparallel pairs allowed)."""
        return all(m == 1 and u != v for u, v, m in self.edge_counts)

    def undirected_edges(self) -> frozenset[tuple[int, int]]:
        """Underlying undirected edge set as ``(lo, hi)`` pairs.

        Direction and multiplicity are forgotten; antiparallel pairs
        merge.  Self-loops survive as ``(v, v)``.  Built once per graph.
        """
        return self._undirected

    @cached_property
    def _undirected(self) -> frozenset[tuple[int, int]]:
        return frozenset((min(u, v), max(u, v)) for u, v, _ in self.edge_counts)

    @cached_property
    def descending_pairs(self) -> frozenset[tuple[int, int]]:
        """Underlying edges as ``(hi, lo)`` pairs, the adjacent values a
        G-descent steps down between.  Self-loops are dropped; parallel
        and antiparallel edges merge.  Built once per graph: the G-descent
        statistics look it up once per adjacent pair of every permutation."""
        return frozenset((max(u, v), min(u, v)) for u, v, _ in self.edge_counts if u != v)

    # -- predicates ----------------------------------------------------

    def is_labeled_acyclic(self) -> bool:
        """Every edge points from a larger label to a smaller one."""
        return all(u > v for u, v, _ in self.edge_counts)

    def is_acyclic(self) -> bool:
        """No directed cycle; a self-loop counts as a cycle."""
        if any(u == v for u, v, _ in self.edge_counts):
            return False
        succ: dict[int, list[int]] = {v: [] for v in self.labels}
        indeg = {v: 0 for v in self.labels}
        for u, v, _ in self.edge_counts:
            succ[u].append(v)
            indeg[v] += 1
        queue = [v for v in self.labels if indeg[v] == 0]
        removed = 0
        while queue:
            u = queue.pop()
            removed += 1
            for v in succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        return removed == self.n

    def _uniform_against_outside(self, subset: Iterable[int], outward: bool) -> bool:
        """For each outside vertex t, every member s of the subset has the
        edge s -> t (t -> s when not ``outward``) or none has.
        Multiplicity is ignored: only the presence of an edge matters."""
        S = set(subset)
        if not S:
            raise ValueError("the subset must be non-empty")
        if not all(s in self.labels for s in S):
            raise ValueError(f"subset {sorted(S)} is not contained in the vertex set")
        for t in self.labels:
            if t not in S:
                hits = sum(1 for s in S if ((s, t) if outward else (t, s)) in self._mult)
                if hits not in (0, len(S)):
                    return False
        return True

    def is_sink_equivalent(self, subset: Iterable[int]) -> bool:
        """Every outside vertex receives an edge from all of the subset or
        from none of it."""
        return self._uniform_against_outside(subset, outward=True)

    def is_source_equivalent(self, subset: Iterable[int]) -> bool:
        """Every outside vertex sends an edge to all of the subset or to
        none of it."""
        return self._uniform_against_outside(subset, outward=False)

    def is_self_equivalent(self, subset: Iterable[int]) -> bool:
        """Sink-equivalent and source-equivalent at once."""
        return self.is_sink_equivalent(subset) and self.is_source_equivalent(subset)

    # -- constructions ------------------------------------------------

    def complement(self) -> Digraph:
        """Complement within the transitive tournament on the same labels.

        Only defined for simple labeled acyclic graphs: the result has
        edge (i -> j) for every label pair i > j not already an edge.
        """
        if not self.is_labeled_acyclic():
            raise ValueError("complement is only defined for labeled acyclic graphs")
        if not self.is_simple():
            raise ValueError("complement is only defined for simple graphs")
        pairs = [
            (i, j)
            for i in self.labels
            for j in self.labels
            if i > j and (i, j) not in self._mult
        ]
        return Digraph.from_edges(self.n, pairs)

    def delete_vertices(self, drop: Iterable[int]) -> Digraph:
        """Induced subgraph on the remaining vertices, compressed
        order-preservingly onto ``1..n-|drop|``: a survivor's new label
        is its rank among the survivors."""
        S = set(drop)
        if not all(v in self.labels for v in S):
            raise ValueError(f"cannot delete labels outside the vertex set: {sorted(S)}")
        keep = [v for v in self.labels if v not in S]
        if not keep:
            raise ValueError("cannot delete every vertex")
        rank = {v: i for i, v in enumerate(keep, start=1)}
        pairs = [(rank[u], rank[v]) for u, v in self.edges() if u in rank and v in rank]
        return Digraph.from_edges(len(keep), pairs)

    def contract(self, u: int, v: int) -> Digraph:
        """Contract the edge u -> v, merging v into u.

        Edges between u and v (both directions, all copies) are dropped
        rather than becoming self-loops; every other edge incident to v
        is redirected to u with multiplicity preserved.  The result is on
        ``1..n-1``: v's label is freed, so every label w > v becomes
        w - 1 (u among them when u > v).
        """
        if u == v:
            raise ValueError("cannot contract a self-pair")
        if (u, v) not in self._mult:
            raise ValueError(f"contract requires the edge {u}->{v} to be present")
        # label[w] is w's label in the result; index 0 is unused
        label = [w - (w > v) for w in range(self.n + 1)]
        label[v] = label[u]
        pairs = [(label[a], label[b]) for a, b in self.edges() if {a, b} != {u, v}]
        return Digraph.from_edges(self.n - 1, pairs)

    def add_edge(self, u: int, v: int) -> Digraph:
        """Return the graph with one more copy of u -> v."""
        return Digraph.from_edges(self.n, list(self.edges()) + [(u, v)])

    def remove_edge(self, u: int, v: int) -> Digraph:
        """Return the graph with one copy of u -> v removed."""
        if (u, v) not in self._mult:
            raise ValueError(f"edge {u}->{v} is not present")
        pairs = list(self.edges())
        pairs.remove((u, v))
        return Digraph.from_edges(self.n, pairs)

    # -- serialization ------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges()]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict) -> Digraph:
        """Parse ``{"n": int, "edges": [[u, v], ...]}``, where an optional
        ``"labels"`` must be exactly ``[1, ..., n]``; a malformed field
        raises ValueError naming it."""
        try:
            n = obj["n"]
            edges = obj["edges"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed graph object: {exc}") from exc
        # type() rather than isinstance(): JSON true/false decode to bool
        if type(n) is not int:
            raise ValueError(f"graph field 'n' must be an integer, got {n!r}")
        if not isinstance(edges, list):
            raise ValueError(f"graph field 'edges' must be a list, got {edges!r}")
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)):
                raise ValueError(f"graph field 'edges' holds {e!r}, not a pair of integers")
        labels = obj.get("labels")
        if labels is not None and not (isinstance(labels, list) and len(labels) == n and all(
                type(v) is int and v == i for i, v in enumerate(labels, start=1))):
            raise ValueError(f"graph field 'labels' must be exactly 1..{n} when given, got {labels!r}")
        return cls.from_edges(n, edges)

    @classmethod
    def from_json(cls, text: str) -> Digraph:
        return cls.from_json_obj(json.loads(text))

    def to_dot(self) -> str:
        lines = ["digraph {"]
        for v in self.labels:
            lines.append(f"  {v};")
        for u, v in self.edges():
            lines.append(f"  {u} -> {v};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        inner = ", ".join(f"{u}->{v}" + (f" x{m}" if m > 1 else "") for u, v, m in self.edge_counts)
        return f"Digraph(n={self.n}, edges=[{inner}])"


def tour(n: int) -> Digraph:
    """Transitive tournament: every pair (i -> j) with i > j."""
    if n < 1:
        raise ValueError(f"tour requires n >= 1, got {n}")
    return Digraph.from_edges(n, ((i, j) for i in range(1, n + 1) for j in range(1, i)))


def path(n: int) -> Digraph:
    """Directed path 1 -> 2 -> ... -> n."""
    if n < 1:
        raise ValueError(f"path requires n >= 1, got {n}")
    return Digraph.from_edges(n, ((i, i + 1) for i in range(1, n)))


def cycle(n: int) -> Digraph:
    """Directed cycle on n >= 2 vertices; for n = 2 this is the
    antiparallel multigraph {1 -> 2, 2 -> 1}."""
    if n < 2:
        raise ValueError(f"cycle requires n >= 2, got {n}")
    return Digraph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])
