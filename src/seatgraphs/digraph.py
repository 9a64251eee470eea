"""Labeled directed multigraphs and the constructions performed on them.

A :class:`Digraph` lives on a tuple of distinct positive integer labels
(usually exactly ``1..n``), stores its edges as a multiset, and is
immutable: every operation returns a new graph.  Edge iteration order is
lexicographic in ``(source, target)`` so that all downstream output is
reproducible.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator


class EquivalenceKind(enum.Enum):
    """Uniformity predicates for a vertex subset against the outside."""

    SELF = "self"
    SINK = "sink"
    SOURCE = "source"


def _coerce_kind(kind: EquivalenceKind | str) -> EquivalenceKind:
    if isinstance(kind, EquivalenceKind):
        return kind
    return EquivalenceKind(kind)


@dataclass(frozen=True)
class Digraph:
    """Immutable directed multigraph.

    ``labels`` is a strictly increasing tuple of positive integers and
    ``edge_counts`` a tuple of ``(source, target, multiplicity)`` triples
    sorted by ``(source, target)``.  Two graphs are equal iff they have
    the same labels and every ordered pair has the same multiplicity.
    """

    labels: tuple[int, ...]
    edge_counts: tuple[tuple[int, int, int], ...]
    _mult: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("a digraph needs at least one vertex")
        if any(v < 1 for v in self.labels):
            raise ValueError("vertex labels must be positive integers")
        if any(a >= b for a, b in zip(self.labels, self.labels[1:])):
            raise ValueError("vertex labels must be strictly increasing")
        label_set = set(self.labels)
        seen: set[tuple[int, int]] = set()
        for u, v, m in self.edge_counts:
            if u not in label_set or v not in label_set:
                raise ValueError(f"edge {u}->{v} has an endpoint outside the vertex set")
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
    def from_edges(cls, n: int | Iterable[int], edges: Iterable[tuple[int, int]]) -> Digraph:
        """Build a graph on labels ``1..n`` (or an explicit label set).

        Repeated ``(u, v)`` pairs accumulate multiplicity.
        """
        if isinstance(n, int):
            if n < 1:
                raise ValueError(f"n must be a positive integer, got {n}")
            labels = tuple(range(1, n + 1))
        else:
            labels = tuple(sorted(set(n)))
        counts: dict[tuple[int, int], int] = {}
        for u, v in edges:
            counts[(u, v)] = counts.get((u, v), 0) + 1
        triples = tuple(sorted((u, v, m) for (u, v), m in counts.items()))
        return cls(labels, triples)

    # -- basic accessors ----------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def is_standard(self) -> bool:
        """True when the labels are exactly ``1..n``; decided once per graph."""
        return self.labels == tuple(range(1, self.n + 1))

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

    def equivalence_check(self, subset: Iterable[int], kind: EquivalenceKind | str) -> bool:
        """Sink/source/self-equivalence of a vertex subset.

        Multiplicity is ignored: only the presence of an edge matters.
        For each outside vertex t, sink-equivalence demands that either
        every member of the subset is directed towards t or none is;
        source-equivalence is the mirror; self-equivalence demands both
        at once (so it holds iff sink and source both hold).
        """
        kind = _coerce_kind(kind)
        S = set(subset)
        if not S:
            raise ValueError("the subset must be non-empty")
        if not S <= set(self.labels):
            raise ValueError(f"subset {sorted(S)} is not contained in the vertex set")
        for t in self.labels:
            if t in S:
                continue
            out_hits = sum(1 for s in S if (s, t) in self._mult)
            in_hits = sum(1 for s in S if (t, s) in self._mult)
            if kind in (EquivalenceKind.SINK, EquivalenceKind.SELF):
                if out_hits not in (0, len(S)):
                    return False
            if kind in (EquivalenceKind.SOURCE, EquivalenceKind.SELF):
                if in_hits not in (0, len(S)):
                    return False
        return True

    def is_sink_equivalent(self, subset: Iterable[int]) -> bool:
        return self.equivalence_check(subset, EquivalenceKind.SINK)

    def is_source_equivalent(self, subset: Iterable[int]) -> bool:
        return self.equivalence_check(subset, EquivalenceKind.SOURCE)

    def is_self_equivalent(self, subset: Iterable[int]) -> bool:
        return self.equivalence_check(subset, EquivalenceKind.SELF)

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
        return Digraph.from_edges(self.labels, pairs)

    def delete_vertices(self, drop: Iterable[int], relabel: bool) -> Digraph:
        """Induced subgraph on the remaining vertices.

        With ``relabel`` the survivors are compressed order-preservingly
        onto ``1..n-|drop|``; otherwise original labels are kept.
        """
        S = set(drop)
        if not S <= set(self.labels):
            raise ValueError(f"cannot delete labels outside the vertex set: {sorted(S)}")
        keep = [v for v in self.labels if v not in S]
        if not keep:
            raise ValueError("cannot delete every vertex")
        pairs = [
            (u, v) for u, v in self.edges() if u not in S and v not in S
        ]
        out = Digraph.from_edges(keep, pairs)
        return out.standardized() if relabel else out

    def contract(self, u: int, v: int) -> Digraph:
        """Contract the edge u -> v, merging v into u.

        Edges between u and v (both directions, all copies) are dropped
        rather than becoming self-loops; every other edge incident to v
        is redirected to u with multiplicity preserved.  The result keeps
        the original labels minus v.
        """
        if u == v:
            raise ValueError("cannot contract a self-pair")
        if (u, v) not in self._mult:
            raise ValueError(f"contract requires the edge {u}->{v} to be present")
        pairs = []
        for a, b in self.edges():
            if {a, b} == {u, v}:
                continue
            pairs.append((u if a == v else a, u if b == v else b))
        keep = [w for w in self.labels if w != v]
        return Digraph.from_edges(keep, pairs)

    def add_edge(self, u: int, v: int) -> Digraph:
        """Return the graph with one more copy of u -> v."""
        label_set = set(self.labels)
        if u not in label_set or v not in label_set:
            raise ValueError(f"edge {u}->{v} has an endpoint outside the vertex set")
        return Digraph.from_edges(self.labels, list(self.edges()) + [(u, v)])

    def remove_edge(self, u: int, v: int) -> Digraph:
        """Return the graph with one copy of u -> v removed."""
        if (u, v) not in self._mult:
            raise ValueError(f"edge {u}->{v} is not present")
        pairs = list(self.edges())
        pairs.remove((u, v))
        return Digraph.from_edges(self.labels, pairs)

    def standardized(self) -> Digraph:
        """Relabel order-preservingly onto ``1..n``."""
        if self.is_standard:
            return self
        rank = {v: i + 1 for i, v in enumerate(self.labels)}
        return Digraph.from_edges(self.n, ((rank[u], rank[v]) for u, v in self.edges()))

    def relabeled(self, mapping: dict[int, int]) -> Digraph:
        """Apply a vertex bijection to labels, keeping edge directions."""
        new_labels = [mapping[v] for v in self.labels]
        if len(set(new_labels)) != len(new_labels):
            raise ValueError("relabeling must be a bijection")
        return Digraph.from_edges(new_labels, ((mapping[u], mapping[v]) for u, v in self.edges()))

    # -- serialization ------------------------------------------------

    def to_json_obj(self) -> dict:
        obj: dict = {"n": self.n, "edges": [[u, v] for u, v in self.edges()]}
        if not self.is_standard:
            obj["labels"] = list(self.labels)
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict) -> Digraph:
        """Parse ``{"n": int, "edges": [[u, v], ...]}`` with optional
        ``"labels"``; a malformed field raises ValueError naming it."""
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
        if labels is None:
            return cls.from_edges(n, edges)
        if not (isinstance(labels, list) and all(type(v) is int and v >= 1 for v in labels)
                and len(labels) == len(set(labels)) == n):
            raise ValueError(f"graph field 'labels' must be {n} distinct positive integers, got {labels!r}")
        return cls.from_edges(labels, edges)

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
