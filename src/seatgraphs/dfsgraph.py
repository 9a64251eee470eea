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
positions live at that level, the one that stays live longest is pinned
to each free value in turn and every part is walked.  A level with no
live position holds only subsets of the values and is never split.  The
stream is the base case, taken whenever its price is lower, which is how
small n (where n! beats any state table) and graphs wide on both sides
are handled.  A sum's price against the work bound is its parts' chosen
prices (one part per Y-edge for an edge slice), checked before any runs.

``materialize`` serves DOT/JSON export only; the checks take one
vertex's ``witness_rows`` at a time.  It pays for its output: n!
vertices and one witness per edge (52 920 for Tour_7 against Tour_7).
What the edge rule reads, X's non-loop edges and Y's multiplicity grid,
is built once per pair, and each X-edge carries an ``itemgetter`` that
swaps its two positions.  Every witness's target is the vertex object
found through the index, not a copy, and each witness is built by
``tuple.__new__``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import permutations, zip_longest
from math import comb, factorial, perm
from operator import itemgetter
from typing import Callable, NamedTuple

from .digraph import Digraph
from .limits import WORK_BOUND, check_bound
from .permutations import Perm, enumerate_perms, validate_perm, word
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


def out_neighbors(X: Digraph, Y: Digraph, p: Perm) -> list[DfsEdgeWitness]:
    """All witnesses out of the vertex labeled p, in (a, b) order."""
    n = _check_same_n(X, Y)
    if len(p) != n:
        raise ValueError(f"permutation length {len(p)} does not match n={n}")
    validate_perm(p)
    return _witnesses(p, *_witness_rule(X, Y))


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


def outdegree(X: Digraph, Y: Digraph, p: Perm) -> int:
    """Sum of witness multiplicities out of p."""
    return sum(w.multiplicity for w in out_neighbors(X, Y, p))


def _odp_poly(X: Digraph, Y: Digraph, parts: list[tuple[int, dict[int, int]]], what: str,
              bound: int | None) -> Polynomial:
    """Sum over ``parts`` of (weight, ``{position: value}``, 1-based) of
    weight * x^outdegree over the permutations that take each pinned
    position to its value.  All parts are priced before the first runs."""
    n = X.n
    chosen = [(weight, *_choose(X, Y, pins, what, bound)) for weight, pins in parts]
    check_bound(what, sum(price for _, price, _, _ in chosen), bound)
    # no coefficient of a part exceeds n!, so this many bits per coefficient keep packed
    # polynomials exact under shifts and sums; weights apply after unpacking
    width = factorial(n).bit_length() + 1
    low = (1 << width) - 1
    coeffs: list[int] = []
    for weight, _, plan, side in chosen:
        packed = _stream(n, *side, width) if plan is None else _run(n, *side, plan, width)
        part = [weight * (packed >> d * width & low) for d in range(packed.bit_length() // width + 1)]
        coeffs = [a + b for a, b in zip_longest(coeffs, part, fillvalue=0)]
    return Polynomial(tuple(coeffs))


class _Plan(NamedTuple):
    """How to walk one graph with some positions pinned: one walk in
    ``order``, or, when a level of that walk would hold more than
    ``_STATE_CAP`` states with some position live, a split that pins
    ``pin`` to each free value in turn and walks every part by
    ``part``."""

    cost: int  # priced walk steps, every part included
    order: list[int]  # free positions in walk order
    pin: int | None = None
    part: _Plan | None = None


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


def _run(n: int, walked: dict, other: dict, pins: dict[int, int], plan: _Plan, width: int) -> int:
    if plan.part is None:
        return _walk(n, walked, other, pins, plan.order, width)
    return sum(_run(n, walked, other, {**pins, plan.pin: v}, plan.part, width)
               for v in range(1, n + 1) if v not in pins.values())


def _plan(n: int, walked: dict, pinned: set[int]) -> _Plan:
    """The cheaper of two orders of the free positions.  While a level
    exceeds the cap, split on the position that stays live longest among
    those live at such a level; a level with none live is not split."""
    nbrs: dict[int, set[int]] = {i: set() for i in range(1, n + 1) if i not in pinned}
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
        return _Plan(cost, order)
    pin = max(live, key=lambda p: last[p] - step[p])
    part = _plan(n, walked, pinned | {pin})
    return _Plan(len(order) * part.cost, order, pin, part)


def _greedy_order(nbrs: dict[int, set[int]]) -> list[int]:
    """Place next whichever position leaves the fewest live ones; ties go
    to the smaller label."""
    left = {i: len(s) for i, s in nbrs.items()}  # unplaced neighbours
    live: set[int] = set()
    order: list[int] = []
    unplaced = list(nbrs)
    while unplaced:
        best, fewest = 0, len(nbrs)
        for i in unplaced:
            change = (left[i] > 0) - sum(1 for j in nbrs[i] if left[j] == 1 and j in live)
            if change < fewest:
                best, fewest = i, change
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
        # placing p at a free value, the add, and the mask that clears p's
        # row and the new value's column, and the used values' columns when
        # p's adds reach them
        moves: dict[int, list[tuple[int, int, int, int]]] = {}
        nxt: dict[int, int] = {}
        get = nxt.get
        while cur:
            key, poly = cur.popitem()
            used = key & full
            scan = moves.get(used)
            if scan is None:
                if later:
                    unused = ~sum(cols[k] for k in range(free) if used >> k & 1)
                    scan = [(b, off, add, keep & unused) for b, off, add, keep in steps if not used & b]
                else:
                    scan = [move for move in steps if not used & move[0]]
                moves[used] = scan
            if bits:
                for _, off, add, keep in scan:
                    moved = (key + add) & keep
                    nxt[moved] = get(moved, 0) + (poly << ((key >> off) & mask) * width)
            else:  # p has no row: no placement of it adds anything
                for _, _, add, keep in scan:
                    moved = (key + add) & keep
                    nxt[moved] = get(moved, 0) + poly
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
    """Explicit DFS(X, Y): all n! vertices with per-vertex witness lists.

    Vertices are in lexicographic order; ``adjacency[i]`` holds the
    witnesses out of ``vertices[i]`` in (a, b) order.
    """

    n: int
    vertices: tuple[Perm, ...]
    adjacency: tuple[tuple[DfsEdgeWitness, ...], ...]

    index: dict[Perm, int] = field(repr=False, compare=False)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "vertices": [list(p) for p in self.vertices],
            "edges": [
                {
                    "from": i,
                    "to": self.index[w.target],
                    "a": w.a,
                    "b": w.b,
                    "mult": w.multiplicity,
                }
                for i, row in enumerate(self.adjacency)
                for w in row
            ],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_obj(), separators=(",", ":"))``,
        formatted directly rather than through a dict per edge."""
        index = self.index
        edges = ",".join([f'{{"from":{i},"to":{index[t]},"a":{a},"b":{b},"mult":{m}}}'
                          for i, row in enumerate(self.adjacency) for _, a, b, t, m in row])
        vertices = json.dumps(self.vertices, separators=(",", ":"))
        return f'{{"n":{self.n},"vertices":{vertices},"edges":[{edges}]}}'

    def to_dot(self) -> str:
        words = {p: word(p) for p in self.vertices}
        lines = ["digraph {"]
        lines += [f'  "{w}";' for w in words.values()]
        for row in self.adjacency:
            for w in row:
                lines += [f'  "{words[w.source]}" -> "{words[w.target]}";'] * w.multiplicity
        lines.append("}")
        return "\n".join(lines) + "\n"


def materialize(X: Digraph, Y: Digraph, bound: int | None = WORK_BOUND) -> MaterializedDfs:
    """Build the full DFS(X, Y) graph (n! vertices).  Every witness's
    target is the vertex object itself.  Priced at n! * (n + 5a) for the
    a non-loop arcs of X: each vertex, and each witness it may store."""
    check_bound("DFS materialization", _visit_price(X, Y), bound)
    n = X.n
    vertices = tuple(enumerate_perms(n))
    arcs, grid = _witness_rule(X, Y)
    vertex = {p: p for p in vertices}
    adjacency = tuple(tuple(_witnesses(p, arcs, grid, vertex)) for p in vertices)
    return MaterializedDfs(n, vertices, adjacency, {p: i for i, p in enumerate(vertices)})
