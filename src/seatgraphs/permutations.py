"""Enumeration of S_n and descent-type statistics.

Permutations are plain tuples in one-line notation, 1-indexed to match
the rest of the package: ``p[i-1]`` is the image of position ``i``.
Enumeration is lexicographic so that streams and reports are
reproducible.

The G-descent statistics are called once per permutation of S_n by
``generalized_eulerian_poly``, so each is one pass over the adjacent
pairs of p, looked up in the reference graph's cached set of descending
``(hi, lo)`` value pairs.  The values of p are read as the graph's
vertices, which are 1..n like the values themselves.
"""
from __future__ import annotations

from itertools import permutations as _itertools_permutations
from typing import Iterator

from .digraph import Digraph

Perm = tuple[int, ...]


def enumerate_perms(n: int) -> Iterator[Perm]:
    """All n! permutations of 1..n in lexicographic order, lazily: the
    caller that walks them prices that walk against the work bound."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return _itertools_permutations(range(1, n + 1))


def validate_perm(p: Perm) -> None:
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"{p!r} is not a permutation of 1..{len(p)}")


def descent_count(p: Perm) -> int:
    """Number of positions i with p(i) > p(i+1)."""
    return sum(p[i] > p[i + 1] for i in range(len(p) - 1))


def excedance_count(p: Perm) -> int:
    """Number of positions i with p(i) > i."""
    return sum(v > i for i, v in enumerate(p, start=1))


def check_g_graph(graph: Digraph, n: int) -> None:
    """G-descents of a permutation of 1..n read its values as the
    vertices of ``graph``, so the graph must have n of them."""
    if n != graph.n:
        raise ValueError(f"permutation length {n} does not match graph on {graph.n} vertices")


def g_descent_count(p: Perm, graph: Digraph) -> int:
    """Descents whose two values are adjacent in the reference graph."""
    check_g_graph(graph, len(p))
    return sum(map(graph.descending_pairs.__contains__, zip(p, p[1:])))


def g_cyclic_descent_count(p: Perm, graph: Digraph) -> int:
    """G-descents with indices read modulo n (the wrap p(n) > p(1) counts)."""
    check_g_graph(graph, len(p))
    if len(p) < 2:
        raise ValueError("cyclic descents require n >= 2")
    return sum(map(graph.descending_pairs.__contains__, zip(p, p[1:] + p[:1])))


def inverse(p: Perm) -> Perm:
    """The inverse permutation: inverse(p)[p(i)-1] == i."""
    inv = [0] * len(p)
    for i, v in enumerate(p, start=1):
        inv[v - 1] = i
    return tuple(inv)


def swap_positions(p: Perm, a: int, b: int) -> Perm:
    """Compose with the transposition (a b): swap the images at positions a, b."""
    q = list(p)
    q[a - 1], q[b - 1] = q[b - 1], q[a - 1]
    return tuple(q)


# one digit per value: the largest n whose one-line words are unambiguous
WORD_MAX_N = 9


def word(p: Perm) -> str:
    """One-line word like "231"; only unambiguous for n <= 9."""
    if len(p) > WORD_MAX_N:
        raise ValueError(f"one-line words are only defined for n <= {WORD_MAX_N}")
    return "".join(str(v) for v in p)


def parse_word(s: str) -> Perm:
    p = tuple(int(c) for c in s)
    validate_perm(p)
    return p
