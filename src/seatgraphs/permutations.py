"""Enumeration of S_n and descent-type statistics.

Permutations are plain tuples in one-line notation, 1-indexed to match
the rest of the package: ``p[i-1]`` is the image of position ``i``.
Enumeration is lexicographic so that streams and reports are
reproducible.
"""
from __future__ import annotations

from itertools import permutations as _itertools_permutations
from typing import Iterator

from .digraph import Digraph
from .limits import PERM_ENUMERATION_BOUND, check_bound

Perm = tuple[int, ...]


def enumerate_perms(n: int, bound: int | None = PERM_ENUMERATION_BOUND) -> Iterator[Perm]:
    """Yield all n! permutations of 1..n in lexicographic order."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    check_bound("permutation enumeration", n, bound)
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


def _g_descents(q: Perm, adjacent: frozenset[tuple[int, int]]) -> int:
    # descents of consecutive values of q whose (lo, hi) pair is an
    # underlying edge; a self-loop (v, v) never matches a descent
    return sum(1 for a, b in zip(q, q[1:]) if a > b and (b, a) in adjacent)


def g_descent_count(p: Perm, graph: Digraph) -> int:
    """Descents whose two values are adjacent in the reference graph."""
    if len(p) != graph.n:
        raise ValueError(f"permutation length {len(p)} does not match graph on {graph.n} vertices")
    return _g_descents(p, graph.undirected_edges())


def g_cyclic_descent_count(p: Perm, graph: Digraph) -> int:
    """G-descents with indices read modulo n (the wrap p(n) > p(1) counts)."""
    n = len(p)
    if n != graph.n:
        raise ValueError(f"permutation length {n} does not match graph on {graph.n} vertices")
    if n < 2:
        raise ValueError("cyclic descents require n >= 2")
    return _g_descents(p + p[:1], graph.undirected_edges())


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


def word(p: Perm) -> str:
    """One-line word like "231"; only unambiguous for n <= 9."""
    if len(p) > 9:
        raise ValueError("one-line words are only defined for n <= 9")
    return "".join(str(v) for v in p)


def parse_word(s: str) -> Perm:
    p = tuple(int(c) for c in s)
    validate_perm(p)
    return p
