"""The directed friends-and-seats graph DFS(X, Y) and its outdegree
polynomial.

The edge rule is implemented exactly as the formal four-condition
definition: sigma is directed towards sigma∘(a b) when a -> b is an
edge of X and sigma(a) -> sigma(b) is an edge of Y.  A witness carries
multiplicity mult_X(a->b) * mult_Y(sigma(a)->sigma(b)), which is what
makes every identity below exact on multigraphs.

ODP and its slices never materialize the n!-vertex graph.  All three go
through one kernel that sums x^outdegree over the permutations taking
some pinned positions to fixed values: an assignment slice sigma(i) = j
pins one position, an edge slice pins (a, b) to each non-loop Y-edge in
turn.  The kernel has two ways to take that sum:

* A frontier walk assigns the free positions one at a time.  A walk
  state is the set of used values plus the pending table: for every
  unplaced position i and every unused value w, what placing w at i
  would add to the outdegree against the positions already placed
  (pins included), that is mult_X(i->j) * mult_Y(w->sigma(j)) +
  mult_X(j->i) * mult_Y(sigma(j)->w) summed over the placed neighbours
  j.  A state carries the packed polynomial of the partial assignments
  that reach it, and two of them with equal tables have equal futures,
  so they merge.  Placing a position reads its row of the table and
  adds its contributions to the rows of its unplaced neighbours.  The
  table is a function of the values at the *live* positions (placed
  ones with an X-edge to a position not yet placed), so after kf of the
  F free positions, lf of them live, a level holds at most
  comb(F, kf) * perm(kf, lf) states.  That bound prices a walk order
  before it runs and follows the vertex separation (pathwidth) of the
  walked graph in that order; the table merges far below it when Y
  gives many values the same row, as on graphs dense on both sides.
* A stream permutes the free values and tests every edge: F! times the
  edge count.

ODP(X, Y) = ODP(Y, X) through sigma -> sigma^-1, which turns the pin
sigma(i) = j into sigma^-1(j) = i.  So the walk may run over either
graph: the kernel prices the label order and a greedy fewest-live order
on both sides by the state-count bound and takes the cheapest.  A walk
whose level could exceed a fixed state cap is split instead: of the
positions live at that level, the one that stays live longest joins a
flat list of split positions and the rest is planned again, until no
level over the cap has a live position.  The last walk planned then
runs once for each arrangement of distinct free values over the k split
positions, perm(F, k) walks.  A level with no live position holds only
subsets of the values and is never split.  The stream is the base case,
taken whenever its price is lower, which is how small n (where n! beats
any state table) and graphs wide on both sides are handled.  A sum's
price against the work bound is its parts' chosen prices (one part per
Y-edge for an edge slice, before the rewrite below), checked before any
runs.

Before the parts are priced they are rewritten by the rotation
rho: v -> v mod n + 1 (n >= 2) of any side it maps onto itself, edge
multiset and loops included, as it does Cycle_n, any circulant and the
edgeless graph.  The outdegree of sigma is the sum of mult_X(a->b) *
mult_Y(sigma(a)->sigma(b)) over the non-loop X-edges.

* Value side.  If Y rotates, mult_Y(rho(u)->rho(v)) = mult_Y(u->v), so
  sigma -> rho∘sigma keeps the outdegree.  It is a bijection of S_n
  taking the permutations with sigma(i) = v_i at each pinned position i
  onto those with sigma(i) = rho(v_i).  A part's sum is therefore that
  of every part in its orbit under shifting all pinned values by one
  step, and the orbit holds the one part whose smallest pinned position
  holds 1.  So each part is replaced by that representative, and parts
  that meet there merge, their weights added: the n parts of an edge
  slice against Cycle_n become one part of weight n, and a circulant Y
  gives one part per edge orbit.  With no pin, the slices sigma(1) = v
  for v = 1..n are one orbit and partition S_n, so the whole sum is n
  times the slice sigma(1) = 1.
* Position side.  If X rotates, sigma -> sigma∘rho keeps the outdegree:
  sigma∘rho meets the X-edge a -> b at (sigma(rho(a)), sigma(rho(b))),
  and rho maps X's edges onto themselves, multiplicities included, so
  the terms are those of sigma, reordered.  It takes the permutations
  with sigma(i+1) = 1 onto those with sigma(i) = 1 (positions mod n),
  so the n slices "sigma(i) = 1" have equal sums; they partition S_n,
  and the whole sum is again n times the slice sigma(1) = 1.  Pinned
  parts keep their positions: a shift of positions would not bring the
  pins of an edge slice to one representative.

A pinned sigma(1) cuts a walk over Cycle_n from two live positions to
one, and a stream from n! permutations to (n-1)!; the walk and the
stream themselves do not change.

``materialize`` serves DOT/JSON export only; the checks take one
vertex's ``witness_rows`` at a time.  It builds the n! vertices in
lexicographic order and their index, nothing per edge: ``to_json`` and
``to_dot`` yield one chunk per vertex, formatted straight from what the
edge rule reads (X's non-loop edges, each with an ``itemgetter`` that
swaps its two positions, and Y's multiplicity grid, built once per
export), so an export holds no witness and no whole document.  The
witness rows themselves, ``adjacency``, are built only when asked for.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations, zip_longest
from math import comb, factorial, perm
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .digraph import Digraph
from .limits import WORK_BOUND, check_bound
from .permutations import WORD_MAX_N, Perm, enumerate_perms, word
from .polynomials import Polynomial

# Most states the priced bound of one walk level may reach; a larger
# level is split by pinning a position live at it (a level with no live
# position holds bare subsets, which no pin would merge).  It bounds
# memory.  Measured on a 2-vCPU host, Python 3.11, on the benchmark's odp
# workload: at 8192 the dense random n=9 pairs split twice and the
# worker's peak RSS is 17.6 MB on seeds 1-5; at 16384 seed 2's pairs split
# once, reach a real level of 5 560 states and 18.4 MB, for 0.16 s less
# wall time.  odp(Path_12, Tour_12) takes 0.29 s at 4096 and 0.07-0.10 s
# from 8192.  The split follows the priced level, not the real one, on
# purpose: on those pairs (seeds 1-5, both orders) the table merges
# levels priced at 181 440 to real levels of 23-54k states, and the pin
# split's 72 parts peak at 750-1 000 states, 0.3-0.4 MB under
# tracemalloc.  Splitting the real frontier into parts of 8192 states
# once a level exceeds them visits 1.3-2.1x fewer states (0.01-0.17 s
# less per pair) but first holds a level of 14-30k states, 6.8-10.2 MB:
# far past a 5% rise in the worker's peak RSS.
_STATE_CAP = 8192

# Price of one walk step (one state scanning one unused value) in stream
# steps (one permutation testing one edge).  Measured on one 2-vCPU host,
# Python 3.11: a priced walk step took 350-630 ns on the dense random n=9
# pairs of seeds 1-8 (levels far below their bound) and 430-850 ns on
# Tour/Cycle, Path/Tour and Cycle/Cycle at n=8-9; a stream step took
# 70-120 ns.  Break-even was 3.6-6.5 at n=7-9 and 6-11 at n=5, where the
# walk's unpriced set-up dominates.  At 8, a sum at n=5 on a path streams
# without planning a walk, and every benchmark-shaped dense n=9 pair of
# seeds 1-40 walks (its price is at least 13 times below the stream's).
_WALK_COST = 8


class DfsEdgeWitness(NamedTuple):
    source: Perm
    a: int
    b: int
    target: Perm
    multiplicity: int


def _check_same_n(X: Digraph, Y: Digraph) -> int:
    if X.n != Y.n:
        raise ValueError(f"X has {X.n} vertices but Y has {Y.n}")
    return X.n


def _witness_rule(X: Digraph, Y: Digraph) -> tuple[list[tuple[int, int, int, int, int, itemgetter]], list[list[int]]]:
    """What the edge rule reads, built once per pair: X's non-loop edges
    as (a, b, a - 1, b - 1, mult_X(a->b), swap), where swap(p) is p with
    positions a and b swapped, and Y's multiplicities as an (n+1)x(n+1)
    grid.  A non-loop edge means n >= 2, so swap returns a tuple."""
    n = X.n
    arcs = []
    for a, b, m in X.edge_counts:
        if a != b:
            order = list(range(n))
            order[a - 1], order[b - 1] = b - 1, a - 1
            arcs.append((a, b, a - 1, b - 1, m, itemgetter(*order)))
    grid = [[0] * (Y.n + 1) for _ in range(Y.n + 1)]
    for u, v, m in Y.edge_counts:
        grid[u][v] = m
    return arcs, grid


def _witnesses(p: Perm, arcs: list, grid: list[list[int]],
               vertex: dict[Perm, Perm] | None = None) -> list[DfsEdgeWitness]:
    """The witnesses out of p, unchecked.  A target is p with a and b
    swapped, or, given ``vertex``, the equal permutation it holds.  Each
    witness is built by ``tuple.__new__``, which skips the NamedTuple's
    Python-level ``__new__`` and yields the same DfsEdgeWitness."""
    out = []
    new = tuple.__new__
    for a, b, i, j, mx, swap in arcs:
        my = grid[p[i]][p[j]]
        if my:
            target = swap(p)
            out.append(new(DfsEdgeWitness, (p, a, b, target if vertex is None else vertex[target], mx * my)))
    return out


def _visit_price(X: Digraph, Y: Digraph) -> int:
    """n! * (n + 5a) for X's a non-loop arcs: each vertex and each witness."""
    n = _check_same_n(X, Y)
    return factorial(n) * (n + 5 * sum(a != b for a, b, _ in X.edge_counts))


def witness_rows(pairs: list[tuple[Digraph, Digraph]], what: str, bound: int | None = WORK_BOUND) -> list[Callable]:
    """One function per pair (X, Y), from a vertex p of DFS(X, Y), unchecked,
    to the witnesses out of p in (a, b) order.  Visiting every vertex of
    every pair is priced as one sum before any edge rule is built."""
    check_bound(what, sum(_visit_price(X, Y) for X, Y in pairs), bound)
    return [lambda p, rule=_witness_rule(X, Y): _witnesses(p, *rule) for X, Y in pairs]


def _rotates(G: Digraph) -> bool:
    """Whether rho: v -> v mod n + 1 maps G's edge multiset, loops
    included, onto itself, with n >= 2."""
    n = G.n
    return n >= 2 and sorted((u % n + 1, v % n + 1, m) for u, v, m in G.edge_counts) == list(G.edge_counts)


def _quotient(X: Digraph, Y: Digraph, parts: list[tuple[int, dict[int, int]]]) -> list[tuple[int, dict[int, int]]]:
    """``parts`` rewritten by the rotations of X and Y to an equal sum:
    an unpinned part becomes ``{1: 1}`` at n times its weight when either
    side rotates, and when Y rotates each part's values are shifted so
    that its smallest pinned position holds 1.  Equal parts merge."""
    n = X.n
    rot_x, rot_y = _rotates(X), _rotates(Y)
    merged: dict[tuple, int] = {}
    for weight, pins in parts:
        if not pins and (rot_x or rot_y):
            weight, pins = weight * n, {1: 1}
        elif pins and rot_y:
            shift = pins[min(pins)] - 1
            pins = {i: (v - 1 - shift) % n + 1 for i, v in pins.items()}
        key = tuple(sorted(pins.items()))
        merged[key] = merged.get(key, 0) + weight
    return [(weight, dict(key)) for key, weight in merged.items()]


def _odp_poly(X: Digraph, Y: Digraph, parts: list[tuple[int, dict[int, int]]], what: str,
              bound: int | None) -> Polynomial:
    """Sum over ``parts`` of (weight, ``{position: value}``, 1-based) of
    weight * x^outdegree over the permutations that take each pinned
    position to its value.  The parts are first rewritten by ``_quotient``
    (the rotation lemma in the module docstring), and the rewritten parts
    are priced, all of them before the first runs."""
    n = X.n
    chosen = [(weight, *_choose(X, Y, pins, what, bound)) for weight, pins in _quotient(X, Y, parts)]
    total = sum(price for _, price, _, _ in chosen)
    check_bound(what, total, bound)
    # no coefficient of a part exceeds n!, so this many bits per coefficient keep packed
    # polynomials exact under shifts and sums; weights apply after unpacking
    width = factorial(n).bit_length() + 1
    low = (1 << width) - 1
    # Multiplicities enter the work only through the packed polynomials, of up to
    # (top + 1) * width bits for outdegrees up to top: each priced step moves one, and
    # unpacking a part shifts one top + 1 times, 8 steps a shift.  At a step per 2^15
    # bits moved, no input of multiplicity 1 within the default bound above fails this one
    xs = [m for a, b, m in X.edge_counts if a != b]
    ys = [m for a, b, m in Y.edge_counts if a != b]
    top = min(sum(xs) * max(ys, default=0), sum(ys) * max(xs, default=0))
    check_bound(f"{what} up to degree {top}", (total + 8 * (top + 1) * len(chosen)) * (top + 1) * width >> 15, bound)
    coeffs: list[int] = []
    for weight, _, plan, (walked, other, pins) in chosen:
        # a plan walks once per arrangement of the free values over its splits
        free = [v for v in range(1, n + 1) if v not in pins.values()]
        packed = _stream(n, walked, other, pins, width) if plan is None else sum(
            _walk(n, walked, other, {**pins, **dict(zip(plan.splits, split))}, plan.order, width)
            for split in permutations(free, len(plan.splits)))
        part = [weight * (packed >> d * width & low) for d in range(packed.bit_length() // width + 1)]
        coeffs = [a + b for a, b in zip_longest(coeffs, part, fillvalue=0)]
    return Polynomial(tuple(coeffs))


class _Plan(NamedTuple):
    """How to walk one graph with some positions pinned: pin ``splits``
    to each arrangement of distinct free values in turn, and walk the
    remaining free positions in ``order`` once per arrangement.  With no
    split that is a single walk."""

    cost: int  # priced walk steps, every walk included
    order: list[int]  # free positions in walk order, splits excluded
    splits: list[int]  # positions pinned to every arrangement, in split order


def _choose(X: Digraph, Y: Digraph, pinned: dict[int, int], what: str = "",
            bound: int | None = None) -> tuple[int, _Plan | None, tuple]:
    """The cheaper way to take the pinned sum, priced in stream steps:
    ``(price, None, side)`` streams ``side``, ``(price, plan, side)`` walks
    it.  A side is (walked, other, pins): the non-loop edge multiplicities
    of the graph whose positions are assigned, those of the other graph,
    and the pins in its terms.  Raises first if nothing can fit ``bound``."""
    n = X.n
    free = n - len(pinned)
    # any walk reaches every subset of the free values and scans the
    # values it leaves unused; a stream takes at least F! steps
    floor = _WALK_COST * free * 2**free // 2
    check_bound(what, min(floor, factorial(free)), bound)
    xm = {(a, b): m for a, b, m in X.edge_counts if a != b}
    # a Y self-loop never lies under an X-edge: sigma(a) != sigma(b)
    ym = {(u, v): m for u, v, m in Y.edge_counts if u != v}
    sides = ((xm, ym, pinned), (ym, xm, {v: i for i, v in pinned.items()}))
    # a permutation costs about one edge test more than its edges
    stream = factorial(free) * (min(len(xm), len(ym)) + 1)
    if stream > floor:
        plan, side = min(((_plan(n, side[0], set(side[2])), side) for side in sides),
                         key=lambda planned: planned[0].cost)
        if _WALK_COST * plan.cost < stream:
            return _WALK_COST * plan.cost, plan, side
    return stream, None, min(sides, key=lambda side: len(side[0]))


def _plan(n: int, walked: dict, pinned: set[int]) -> _Plan:
    """The cheaper of two orders of the free positions.  While a level
    exceeds the cap, split on the position that stays live longest among
    those live at such a level, and plan the rest again; a level with
    none live is not split.  Each of the perm(F, k) arrangements of the
    F free values over k splits is one walk at the last plan's cost."""
    splits: list[int] = []
    while True:
        nbrs: dict[int, set[int]] = {i: set() for i in range(1, n + 1) if i not in pinned and i not in splits}
        for a, b in walked:
            if a in nbrs and b in nbrs:
                nbrs[a].add(b)
                nbrs[b].add(a)
        cost, levels, order, last = min(_price(nbrs, list(nbrs)), _price(nbrs, _greedy_order(nbrs)),
                                        key=lambda priced: priced[0])
        step = {p: t for t, p in enumerate(order)}
        over = [t for t, size in enumerate(levels) if size > _STATE_CAP]
        # a level with no live position holds bare subsets of the free
        # values: pinning would multiply the walk and merge nothing
        live = [p for p in order if any(step[p] <= t < last[p] for t in over)]
        if not live:
            return _Plan(perm(len(order) + len(splits), len(splits)) * cost, order, splits)
        splits.append(max(live, key=lambda p: last[p] - step[p]))


def _greedy_order(nbrs: dict[int, set[int]]) -> list[int]:
    """Place next whichever position leaves the fewest live ones; ties go
    to the smaller label."""
    left = {i: len(s) for i, s in nbrs.items()}  # unplaced neighbours
    live: set[int] = set()
    order: list[int] = []
    unplaced = list(nbrs)
    while unplaced:
        best = min(unplaced, key=lambda i: (left[i] > 0) - sum(1 for j in nbrs[i] if left[j] == 1 and j in live))
        unplaced.remove(best)
        order.append(best)
        for j in nbrs[best]:
            left[j] -= 1
            if not left[j]:
                live.discard(j)
        if left[best]:
            live.add(best)
    return order


def _price(nbrs: dict[int, set[int]], order: list[int]) -> tuple[int, list[int], list[int], dict[int, int]]:
    """Walk steps and level sizes of walking ``order``, as upper bounds:
    after kf of the F free positions, lf of them live, a level holds at
    most comb(F, kf) * perm(kf, lf) states, and each state scans its
    F - kf unused values.  ``levels[t]`` bounds the size after placing
    ``order[t]``."""
    free = len(order)
    step = {p: t for t, p in enumerate(order)}
    last = {}
    deaths = [0] * free
    for t, p in enumerate(order):
        last[p] = end = max([step[q] for q in nbrs[p]], default=-1)
        if end > t:
            deaths[end] += 1
    cost, levels, live = 0, [], 0
    for t, p in enumerate(order):
        cost += comb(free, t) * perm(t, live) * (free - t)
        live += (last[p] > t) - deaths[t]
        levels.append(comb(free, t + 1) * perm(t + 1, live))
    return cost, levels, order, last


def _stream(n: int, walked: dict, other: dict, pins: dict[int, int], width: int) -> int:
    """Permute the unpinned values and test every walked edge."""
    order = [i for i in range(1, n + 1) if i not in pins] + list(pins)
    slot = {pos: k for k, pos in enumerate(order)}
    edges = [(slot[a], slot[b], m) for (a, b), m in walked.items()]
    rows = [[0] * (n + 1) for _ in range(n + 1)]
    for (u, v), m in other.items():
        rows[u][v] = m
    pinned_values = tuple(pins.values())
    free_values = [v for v in range(1, n + 1) if v not in pinned_values]
    counts: dict[int, int] = {}
    get = counts.get
    for free in permutations(free_values):
        p = free + pinned_values
        d = 0
        for a, b, mx in edges:
            d += mx * rows[p[a]][p[b]]
        counts[d] = get(d, 0) + 1
    return sum(c << (d * width) for d, c in counts.items())


def _walk(n: int, walked: dict, other: dict, pins: dict[int, int], order: list[int], width: int) -> int:
    """Place the free positions in ``order``.  A state key packs the used
    values as a bit mask over the free values, then the pending table: a
    row of fields for every position with a pinned neighbour or one placed
    before it, where field k holds what placing the k-th free value there
    would add to the outdegree against the positions already placed.  Its
    entry is the packed polynomial of the partial assignments that reach
    it; two of them with equal keys have equal futures."""
    values = [v for v in range(1, n + 1) if v not in pins.values()]
    free = len(values)
    full = (1 << free) - 1
    step = {p: t for t, p in enumerate(order)}
    # ties[i][j] = (mult_X(i -> j), mult_X(j -> i))
    ties: dict[int, dict[int, tuple[int, int]]] = {i: {} for i in range(1, n + 1)}
    for (i, j), m in walked.items():
        ties[i][j] = (m, walked.get((j, i), 0))
        ties[j][i] = (walked.get((j, i), 0), m)
    # row i: (offset of its first field, bits per field), wide enough for
    # the largest sum the row can reach.  The last position placed gets
    # the lowest row, so keys shorten as rows clear.
    most = max(other.values(), default=0)
    rows: dict[int, tuple[int, int]] = {}
    top = free
    for i in reversed(order):
        reach = most * sum(a + b for j, (a, b) in ties[i].items() if j in pins or step[j] < step[i])
        if reach:
            rows[i] = (top, reach.bit_length())
            top += free * reach.bit_length()
    grid = [[0] * (n + 1) for _ in range(n + 1)]
    for (u, v), m in other.items():
        grid[u][v] = m
    packed: dict[int, tuple[list[int], list[int]]] = {}
    for bits in {bits for _, bits in rows.values()}:
        # against a neighbour at value v, field k of a row gets
        # a * mult_Y(values[k] -> v) + b * mult_Y(v -> values[k])
        packed[bits] = ([sum(grid[u][v] << k * bits for k, u in enumerate(values)) for v in range(n + 1)],
                        [sum(grid[v][u] << k * bits for k, u in enumerate(values)) for v in range(n + 1)])

    def row(i: int, j: int, v: int) -> int:
        """Row i's fields against position j at value v."""
        at, bits = rows[i]
        (a, b), (into, out) = ties[i][j], packed[bits]
        return (a * into[v] + b * out[v]) << at

    cols = [sum(((1 << bits) - 1) << (at + k * bits) for at, bits in rows.values()) for k in range(free)]
    start = sum(m * other.get((pins[a], pins[b]), 0) for (a, b), m in walked.items() if a in pins and b in pins)
    key = sum(row(i, j, v) for i in rows for j, v in pins.items() if j in ties[i])
    cur = {key: 1 << (start * width)}
    for t, p in enumerate(order):
        at, bits = rows.get(p, (0, 0))
        mask = (1 << bits) - 1
        gone = ((1 << free * bits) - 1) << at
        later = [i for i in ties[p] if i in rows and step[i] > t]
        steps = [(1 << k, at + k * bits, (1 << k) + sum(row(i, p, v) for i in later), ~(gone | cols[k]))
                 for k, v in enumerate(values)]
        # the moves out of each set of used values: the field that prices
        # placing p at a free value (0 bits wide when p has no row), the
        # add, and the mask that clears p's row, the new value's column and
        # the used values' columns, which p's adds may have reached
        moves: dict[int, list[tuple[int, int, int]]] = {}
        nxt: dict[int, int] = {}
        get = nxt.get
        while cur:
            key, poly = cur.popitem()
            used = key & full
            scan = moves.get(used)
            if scan is None:
                unused = ~sum(cols[k] for k in range(free) if used >> k & 1)
                scan = moves[used] = [(off, add, keep & unused) for b, off, add, keep in steps if not used & b]
            for off, add, keep in scan:
                moved = (key + add) & keep
                nxt[moved] = get(moved, 0) + (poly << ((key >> off) & mask) * width)
        cur = nxt
    return sum(cur.values())


def odp(X: Digraph, Y: Digraph, bound: int | None = WORK_BOUND) -> Polynomial:
    """Outdegree polynomial: sum over S_n of x^outdegree(sigma)."""
    _check_same_n(X, Y)
    return _odp_poly(X, Y, [(1, {})], "outdegree polynomial", bound)


def odp_edge_slice(X: Digraph, Y: Digraph, a: int, b: int, bound: int | None = WORK_BOUND) -> Polynomial:
    """Partial ODP over vertices whose label satisfies sigma(a) -> sigma(b) in Y.

    The contribution of each such sigma is weighted by
    mult_Y(sigma(a) -> sigma(b)); for simple Y this is the plain
    restricted sum.
    """
    n = _check_same_n(X, Y)
    if a == b or not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"slice pair ({a}, {b}) must be two distinct labels in 1..{n}")
    parts = [(weight, {a: u, b: v}) for u, v, weight in Y.edge_counts if u != v]
    return _odp_poly(X, Y, parts, "ODP edge slice", bound)


def odp_assign_slice(X: Digraph, Y: Digraph, i: int, j: int, bound: int | None = WORK_BOUND) -> Polynomial:
    """Partial ODP over vertices whose label satisfies sigma(i) = j."""
    n = _check_same_n(X, Y)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"assignment sigma({i}) = {j} is out of range for n={n}")
    return _odp_poly(X, Y, [(1, {i: j})], "ODP assignment slice", bound)


@dataclass(frozen=True)
class MaterializedDfs:
    """Explicit DFS(X, Y): all n! vertices, in lexicographic order, and
    the pair whose edge rule gives their witnesses.

    ``to_json`` and ``to_dot`` format each vertex's edges straight from
    the rule.  ``adjacency[i]``, the witnesses out of ``vertices[i]`` in
    (a, b) order, is built on first use and kept.
    """

    n: int
    vertices: tuple[Perm, ...]
    x: Digraph
    y: Digraph

    index: dict[Perm, int] = field(repr=False, compare=False)

    @cached_property
    def adjacency(self) -> tuple[tuple[DfsEdgeWitness, ...], ...]:
        """Every witness, its target the vertex object itself."""
        vertex = {p: p for p in self.vertices}
        rule = _witness_rule(self.x, self.y)
        return tuple(tuple(_witnesses(p, *rule, vertex)) for p in self.vertices)

    def to_json(self) -> Iterator[str]:
        """Compact JSON ``{"n", "vertices", "edges"}`` in chunks: one per
        vertex in the vertex list, then one per vertex with edges out of
        it, formatted straight from the edge rule.  An edge is
        ``{"from", "to", "a", "b", "mult"}``, its ends indices into the
        vertex list."""
        index = self.index
        arcs, grid = _witness_rule(self.x, self.y)
        # each arc's fixed fields, formatted once
        arcs = [(f',"a":{a},"b":{b},"mult":', i, j, mx, swap) for a, b, i, j, mx, swap in arcs]
        yield f'{{"n":{self.n},"vertices":['
        for k, p in enumerate(self.vertices):
            yield f'{"," if k else ""}[{",".join(map(str, p))}]'
        yield '],"edges":['
        sep = ""
        for k, p in enumerate(self.vertices):
            head = f'{{"from":{k},"to":'
            edges = ",".join([f'{head}{index[swap(p)]}{fields}{mx * my}}}'
                              for fields, i, j, mx, swap in arcs if (my := grid[p[i]][p[j]])])
            if edges:
                yield sep + edges
                sep = ","
        yield "]}"

    def to_dot(self, bound: int | None = WORK_BOUND) -> Iterator[str]:
        """DOT in chunks: one declaration per vertex, named by its
        one-line word (so n <= 9), then the edges out of each vertex, each
        repeated by its multiplicity.  Both checks come before the first
        chunk: n, and the edge lines' price against ``bound``."""
        if self.n > WORD_MAX_N:
            raise ValueError(f"one-line words are only defined for n <= {WORD_MAX_N}")
        # each X-edge a -> b meets each Y-edge u -> v at (n - 2)! vertices, so there are
        # (n - 2)! * M_X * M_Y lines for the non-loop multiplicity totals; at 5 steps a
        # line, as for a witness, this is within the visit price when every multiplicity is 1
        lines = factorial(max(self.n - 2, 0)) * sum(m for a, b, m in self.x.edge_counts if a != b) * sum(
            m for u, v, m in self.y.edge_counts if u != v)
        check_bound("DFS DOT export", 5 * lines, bound)
        arcs, grid = _witness_rule(self.x, self.y)

        def chunks() -> Iterator[str]:
            yield "digraph {\n"
            for p in self.vertices:
                yield f'  "{word(p)}";\n'
            for p in self.vertices:
                # the target's word is the source's with the arc's two positions swapped;
                # a vertex's lines past 4096 (a multigraph's) go out 4096 at a time
                w = word(p)
                runs = [(f'  "{w}" -> "{"".join(swap(w))}";\n', mx * my)
                        for _, _, i, j, mx, swap in arcs if (my := grid[p[i]][p[j]])]
                if sum([m for _, m in runs]) <= 4096:
                    yield "".join([line * m for line, m in runs])
                else:
                    yield from (line * min(m - k, 4096) for line, m in runs for k in range(0, m, 4096))
            yield "}\n"

        return chunks()


def materialize(X: Digraph, Y: Digraph, bound: int | None = WORK_BOUND) -> MaterializedDfs:
    """DFS(X, Y) with its n! vertices and their index; no witness is
    built until ``adjacency`` is read.  Priced at n! * (n + 5a) for the a
    non-loop arcs of X: each vertex, and each witness an export formats."""
    check_bound("DFS materialization", _visit_price(X, Y), bound)
    vertices = tuple(enumerate_perms(X.n))
    return MaterializedDfs(X.n, vertices, X, Y, {p: i for i, p in enumerate(vertices)})
