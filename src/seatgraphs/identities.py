"""Executable verifiers for the structural theorems and the
Worpitzky-like identities.

Each verifier evaluates both sides of its statement exactly and returns
a :class:`Verdict`.  Identity failure is data, never an exception: part
of the point of this package is mapping where hypotheses are genuinely
needed, so a falsified identity comes back as ``holds=False`` with the
first counterexample attached.  Exceptions are reserved for violated
preconditions (certificates) and resource bounds.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from math import factorial
from operator import mul
from typing import Callable, Iterable

from .chromatic import check_chromatic_price, chromatic_poly, enumerate_labeled_acyclic, find_chordal_labeling, is_peo
from .digraph import Digraph, cycle, path, tour
from .dfsgraph import odp, odp_assign_slice, odp_edge_slice, witness_rows
from .limits import DEFAULT_TRUNCATION, WORK_BOUND, check_bound
from .permutations import enumerate_perms, inverse
from .polynomials import ONE, X, Polynomial, SeriesPrefix, eulerian_poly, expand_over_one_minus_x, generalized_eulerian_poly


@dataclass(frozen=True)
class Counterexample:
    inputs: str
    lhs: str
    rhs: str

    def to_json_obj(self) -> dict:
        return {"inputs": self.inputs, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class Verdict:
    holds: bool
    checked_range: str
    counterexample: Counterexample | None = None
    certificates: dict | None = None
    # populated by the prefix-comparison verifiers only
    first_bad_m: int | None = None
    lhs_prefix: SeriesPrefix | None = None

    def __post_init__(self) -> None:
        if not self.holds and self.counterexample is None:
            raise ValueError("a failed verdict must carry a counterexample")

    def to_json_obj(self) -> dict:
        obj: dict = {
            "holds": self.holds,
            "checked_range": self.checked_range,
            "counterexample": self.counterexample.to_json_obj() if self.counterexample else None,
        }
        if self.certificates is not None:
            obj["certificates"] = self.certificates
        if self.first_bad_m is not None:
            obj["first_bad_m"] = self.first_bad_m
        if self.lhs_prefix is not None:
            obj["prefix"] = self.lhs_prefix.to_json_obj()
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def _perm_str(p) -> str:
    return ",".join(str(v) for v in p)


def verify_automorphism(
    X_graph: Digraph, Y_graph: Digraph, bound: int | None = WORK_BOUND
) -> Verdict:
    """Inversion is a multiplicity-preserving edge bijection between
    DFS(X, Y) and DFS(Y, X): tau's witnesses in DFS(Y, X) are tau^-1's in DFS(X, Y), inverted.

    Both rows are keyed on the two values a target swaps in tau, as the
    mask 2^u + 2^v.  A witness (sigma, a, b) out of sigma = tau^-1 reaches
    sigma∘(a b), whose inverse is tau with values a and b swapped; a
    witness (tau, a, b) reaches tau∘(a b), which is tau with values tau(a)
    and tau(b) swapped.  A target is built only for a counterexample."""
    n = X_graph.n
    forward, backward = witness_rows([(X_graph, Y_graph), (Y_graph, X_graph)], "automorphism check", bound)
    rng = f"all {n}!x{n}! vertex pairs of DFS(X,Y) against DFS(Y,X)"
    for tau in enumerate_perms(n):  # lexicographic, so the smallest mismatched source comes first
        mapped, right = defaultdict(int), defaultdict(int)
        for _, a, b, _, m in forward(inverse(tau)):
            mapped[1 << a | 1 << b] += m
        for _, a, b, _, m in backward(tau):
            right[1 << tau[a - 1] | 1 << tau[b - 1]] += m
        if mapped != right:
            def target(mask):
                # x in the mask becomes the mask's other value
                return tuple((mask ^ 1 << x).bit_length() - 1 if mask >> x & 1 else x for x in tau)

            mask = min((k for k in mapped.keys() | right.keys() if mapped[k] != right[k]), key=target)
            return Verdict(
                False,
                rng,
                Counterexample(
                    inputs=f"edge {_perm_str(tau)} -> {_perm_str(target(mask))}",
                    lhs=f"multiplicity {mapped[mask]} mapped from DFS(X,Y)",
                    rhs=f"multiplicity {right[mask]} in DFS(Y,X)",
                ),
            )
    return Verdict(True, rng)


def verify_acyclic_potential(
    X_graph: Digraph, Y_graph: Digraph, bound: int | None = WORK_BOUND
) -> Verdict:
    """For labeled acyclic X and Y, the potential f(sigma) = sum i*sigma(i)
    strictly decreases along every edge of DFS(X, Y), so DFS(X, Y) is
    acyclic: a directed cycle would return to its first vertex with a
    smaller potential than it left with.  Each edge's target is the one
    its witness carries, so the check reads the edge rule's output."""
    if not (X_graph.is_labeled_acyclic() and Y_graph.is_labeled_acyclic()):
        raise ValueError("the acyclicity theorem requires labeled acyclic X and Y")
    n = X_graph.n
    (rows,) = witness_rows([(X_graph, Y_graph)], "acyclicity check", bound)
    positions = range(1, n + 1)
    rng = f"all edges of DFS(X,Y) at n={n}"
    for p in enumerate_perms(n):  # lexicographic, so the smallest bad source comes first
        f_source = sum(map(mul, positions, p))
        for w in rows(p):
            f_target = sum(map(mul, positions, w.target))
            if not f_source > f_target:
                return Verdict(
                    False,
                    rng,
                    Counterexample(
                        inputs=f"edge {_perm_str(w.source)} -> {_perm_str(w.target)}",
                        lhs=f"f(source)={f_source}",
                        rhs=f"f(target)={f_target}",
                    ),
                )
    return Verdict(True, rng)


def verify_subgraph_monotonicity(
    X_small: Digraph,
    X_big: Digraph,
    Y_small: Digraph,
    Y_big: Digraph,
    bound: int | None = WORK_BOUND,
) -> Verdict:
    """Multiset edge containment of X and Y lifts to witness containment
    of DFS(X, Y) in DFS(X', Y')."""
    for small, big, name in ((X_small, X_big, "X"), (Y_small, Y_big, "Y")):
        if small.n != big.n:
            raise ValueError(f"{name} and {name}' must share a vertex set")
        for u, v, m in small.edge_counts:
            if big.multiplicity(u, v) < m:
                raise ValueError(f"{name} is not a sub-multigraph of {name}'")
    n = X_small.n
    big_rows, small_rows = witness_rows([(X_big, Y_big), (X_small, Y_small)], "monotonicity check", bound)
    rng = f"all witnesses of DFS(X,Y) at n={n}"
    for p in enumerate_perms(n):
        big_witnesses = {(w.a, w.b): w.multiplicity for w in big_rows(p)}
        for w in small_rows(p):
            if big_witnesses.get((w.a, w.b), 0) < w.multiplicity:
                return Verdict(
                    False,
                    rng,
                    Counterexample(
                        inputs=f"sigma={_perm_str(p)}, swap pair ({w.a},{w.b})",
                        lhs=f"multiplicity {w.multiplicity} in DFS(X,Y)",
                        rhs=f"multiplicity {big_witnesses.get((w.a, w.b), 0)} in DFS(X',Y')",
                    ),
                )
    return Verdict(True, rng)


def verify_edge_removal(
    X_graph: Digraph, Y_graph: Digraph, a: int, b: int, bound: int | None = WORK_BOUND
) -> Verdict:
    """Removing one copy of a -> b from X:
    x*ODP(X',Y) = x*ODP(X,Y) - (x-1)*ODP(X,Y)_{a->b}, exactly."""
    if X_graph.multiplicity(a, b) == 0:
        raise ValueError(f"edge {a}->{b} is not present in X")
    removed = X_graph.remove_edge(a, b)
    lhs = X * odp(removed, Y_graph, bound=bound)
    rhs = X * odp(X_graph, Y_graph, bound=bound) - (X - ONE) * odp_edge_slice(
        X_graph, Y_graph, a, b, bound=bound
    )
    return _poly_verdict(lhs, rhs, f"polynomial identity over S_{X_graph.n}, edge {a}->{b}",
                         f"X={X_graph.to_json()}, Y={Y_graph.to_json()}, edge {a}->{b}")


def verify_self_equivalent_slice(
    X_graph: Digraph, Y_graph: Digraph, a: int, b: int, bound: int | None = WORK_BOUND
) -> Verdict:
    """For a self-equivalent pair {a, b} with a -> b in X:
    ODP(X,Y)_{a->b} = x * ODP(X,Y)_{b->a}.

    This is a theorem when Y has no parallel edge and no antiparallel
    pair.  Swapping a and b changes the outdegree by
    mult_Y(u->v) - mult_Y(v->u), where u -> v is the Y-edge under
    a -> b.  That is 1 on every Y-edge of such a Y; ``Y = Cycle_2``
    makes it 0 and defeats the identity.  For any other Y the verdict
    still reports the mismatch as data.
    """
    if X_graph.multiplicity(a, b) == 0:
        raise ValueError(f"edge {a}->{b} is not present in X")
    if not X_graph.is_self_equivalent({a, b}):
        raise ValueError(f"certificate failure: {{{a},{b}}} is not self-equivalent in X")
    lhs = odp_edge_slice(X_graph, Y_graph, a, b, bound=bound)
    rhs = X * odp_edge_slice(X_graph, Y_graph, b, a, bound=bound)
    return _poly_verdict(lhs, rhs, f"slice identity over S_{X_graph.n}, pair ({a},{b})",
                         f"X={X_graph.to_json()}, Y={Y_graph.to_json()}, pair ({a},{b})")


def verify_point_squish(
    X_graph: Digraph, Y_graph: Digraph, a: int, b: int, bound: int | None = WORK_BOUND
) -> Verdict:
    """For a sink-equivalent pair {a, b} with a -> b in X:
    ODP(X,Y)_{a->b} = x * sum over edges u->v of Y of
    ODP(X - {b}, Y^{uv})_{sigma(a)=u}, with parallel Y-edges summed
    separately.  Deletion and contraction both leave a graph on
    1..n-1, so a and u move down by one when they lie above b and v.

    Self-loops of Y are skipped on the right: no permutation can place
    a and b on the same vertex, so they never contribute to the left.

    For a self-equivalent pair this is a theorem for every Y without
    parallel edges; loops and antiparallel pairs are allowed.  A doubled
    edge u -> v defeats it: a sigma placing a and b under both copies
    gains 2 from the pair's edge, while the right side shifts by one x.
    For a pair that is only sink-equivalent it is a theorem when every
    vertex of Y has in-degree at most 1, counting multiplicity (Path_n
    and Cycle_n do).  Outside in-neighbours of b that are not in-neighbours
    of a add Y-edges into sigma(b), which the reduced side cannot see;
    they vanish when sigma(a) is sigma(b)'s only in-neighbour in Y.
    The condition is sufficient, not necessary.  For any other Y the
    verdict still reports the mismatch as data.
    """
    if X_graph.multiplicity(a, b) == 0:
        raise ValueError(f"edge {a}->{b} is not present in X")
    if not X_graph.is_sink_equivalent({a, b}):
        raise ValueError(f"certificate failure: {{{a},{b}}} is not sink-equivalent in X")
    n = X_graph.n
    lhs = odp_edge_slice(X_graph, Y_graph, a, b, bound=bound)
    reduced = X_graph.delete_vertices({b})
    a_reduced = a - 1 if a > b else a
    total = Polynomial(())
    for u, v, mult in Y_graph.edge_counts:
        if u == v:
            continue
        contracted = Y_graph.contract(u, v)
        u_reduced = u - 1 if u > v else u
        total = total + mult * odp_assign_slice(reduced, contracted, a_reduced, u_reduced, bound=bound)
    rhs = X * total
    return _poly_verdict(lhs, rhs,
                         f"slice identity over S_{n}, pair ({a},{b}), {Y_graph.total_edges()} Y-edges",
                         f"X={X_graph.to_json()}, Y={Y_graph.to_json()}, pair ({a},{b})")


def _poly_verdict(lhs: Polynomial, rhs: Polynomial, rng: str, inputs: str) -> Verdict:
    if lhs == rhs:
        return Verdict(True, rng)
    return Verdict(False, rng, Counterexample(inputs=inputs, lhs=lhs.format(), rhs=rhs.format()))


def _prefix_verdict(
    lhs: SeriesPrefix, rhs: SeriesPrefix, rng: str, inputs: str, certificates: dict | None
) -> Verdict:
    bad = lhs.first_difference(rhs)
    if bad is None:
        return Verdict(True, rng, certificates=certificates, lhs_prefix=lhs)
    return Verdict(
        False,
        rng,
        Counterexample(inputs=f"{inputs}, first bad m={bad}", lhs=str(lhs), rhs=str(rhs)),
        certificates=certificates,
        first_bad_m=bad,
        lhs_prefix=lhs,
    )


def _verify_worpitzky(name: str, X_graph: Digraph, min_n: int, walk: Callable[[int], Digraph], k: int,
                      rhs: Callable[[Polynomial], Iterable[int]], truncation: int, bound: int | None) -> Verdict:
    """Both Worpitzky-like identities: ODP(X, walk(n)) / (1-x)^k against
    ``rhs(chi)``, c_0..c_truncation from chi of X's complement.  chi
    is priced first, from X's degrees: a vertex X joins to all n - 1
    others is isolated in the complement.  The ODP, which prices itself,
    comes next, so a refusal on either comes before the complement is
    built and before chi and the certificates."""
    if not X_graph.is_labeled_acyclic() or not X_graph.is_simple():
        raise ValueError(f"the {name} is stated for simple labeled acyclic X")
    n = X_graph.n
    if n < min_n:
        raise ValueError(f"the {name} requires n >= {min_n}")
    joined = Counter(v for u, w, _ in X_graph.edge_counts for v in (u, w))
    check_chromatic_price(sum(joined[v] < n - 1 for v in X_graph.labels), bound)
    lhs = expand_over_one_minus_x(odp(X_graph, walk(n), bound=bound), k, truncation)
    complement = X_graph.complement()
    chi = chromatic_poly(complement, bound=bound)
    certificates = {"x_chordal": find_chordal_labeling(X_graph) is not None, "complement_peo": is_peo(complement)}
    rhs_prefix = SeriesPrefix(rhs(chi))
    return _prefix_verdict(lhs, rhs_prefix, f"prefix m=0..{truncation} at n={n}", f"X={X_graph.to_json()}",
                           certificates)


def verify_path_identity(
    X_graph: Digraph, truncation: int = DEFAULT_TRUNCATION, bound: int | None = WORK_BOUND
) -> Verdict:
    """ODP(X, Path_n) / (1-x)^(n+1) agrees with
    (-1)^n * sum chi_complement(-m-1) x^m through x^truncation.

    The identity is a theorem when the complement of X is a perfect
    elimination ordering as labeled: the ``complement_peo`` certificate.
    ``x_chordal`` (X admits some interval-clique labeling) is recorded
    for the sweep, not as a hypothesis; ``X = {2->1, 3->2}`` has it and
    fails.  The verdict is computed either way, so sweeps can map where
    the identity holds beyond the hypothesis.  Both sides, ``odp`` and
    chi, check their own price against the work budget ``bound``.
    """
    sign = (-1) ** X_graph.n
    return _verify_worpitzky("path identity", X_graph, 1, path, X_graph.n + 1,
                             lambda chi: (sign * chi(-m - 1) for m in range(truncation + 1)), truncation, bound)


def verify_cycle_base(
    n: int, truncation: int = DEFAULT_TRUNCATION, bound: int | None = WORK_BOUND
) -> Verdict:
    """ODP(Tour_n, Cycle_n) / (1-x)^n = n * sum m^(n-1) x^m (0^0 = 1),
    plus the intermediate claim ODP(Tour_n, Cycle_n) = n*x*A_{n-1}.

    n = 1 is the degenerate 1/(1-x) = sum x^m case from the theorem's
    own proof; the intermediate claim starts at n = 2.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    rng = f"prefix m=0..{truncation} at n={n}"
    if n == 1:
        odp_poly = ONE
    else:
        odp_poly = odp(tour(n), cycle(n), bound=bound)
        claimed = n * X * eulerian_poly(n - 1)
        if odp_poly != claimed:
            return _poly_verdict(odp_poly, claimed, rng, f"intermediate claim at n={n}")
    lhs = expand_over_one_minus_x(odp_poly, n, truncation)
    rhs = SeriesPrefix(n * m ** (n - 1) for m in range(truncation + 1))
    return _prefix_verdict(lhs, rhs, rng, f"n={n}", None)


def verify_cycle_identity(
    X_graph: Digraph, truncation: int = DEFAULT_TRUNCATION, bound: int | None = WORK_BOUND
) -> Verdict:
    """ODP(X, Cycle_n) / (1-x)^n agrees with
    (-1)^n * n * sum (chi_complement(-m)/m) x^m through x^truncation.

    chi of the complement is divisible by x, so chi(-m)/m is the
    polynomial -chihat(-m) with chihat = chi/x; the m = 0 term is its
    value at m = 0, exactly as the theorem's convention prescribes.

    As for the path identity, the theorem needs the ``complement_peo``
    certificate; ``x_chordal`` is recorded for the sweep, not as a
    hypothesis.  The verdict is computed either way; both sides check
    their price against ``bound``, as there.
    """
    n = X_graph.n
    sign = (-1) ** n

    def rhs(chi: Polynomial) -> Iterable[int]:
        chihat = chi.divide_by_x()
        return (sign * n * -chihat(-m) for m in range(truncation + 1))

    return _verify_worpitzky("cycle identity", X_graph, 2, cycle, n, rhs, truncation, bound)


def verify_generalized_equals_odp(
    graph: Digraph, cyclic: bool, bound: int | None = WORK_BOUND
) -> Verdict:
    """The generalized (cyclic) Eulerian polynomial of G equals the ODP
    of (Path_n or Cycle_n, X_G), where X_G orients every underlying edge
    of G from the larger label to the smaller.

    The two sides share no kernel: the left enumerates S_n and counts
    G-descents of each permutation, the right is ``odp``, which walks the
    path or cycle frontier (or streams its own edge tests where n! is
    cheaper), so the check stays a test of the theorem, not of one loop
    against itself."""
    n = graph.n
    # the left side's enumeration checks the bound before it starts
    lhs = generalized_eulerian_poly(graph, cyclic, bound=bound)
    rhs = odp(cycle(n) if cyclic else path(n), Digraph.from_edges(n, graph.descending_pairs), bound=None)
    return _poly_verdict(lhs, rhs, f"{'cyclic ' if cyclic else ''}G-descent distribution over S_{n}",
                         f"G={graph.to_json()}, cyclic={cyclic}")


@dataclass(frozen=True)
class SweepRow:
    graph_id: int
    n: int
    edges: str
    cert_x_chordal: bool
    cert_comp_chordal: bool
    identity: bool
    first_bad_m: int | None

    def to_json_obj(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "n": self.n,
            "edges": self.edges,
            "cert_X_chordal": self.cert_x_chordal,
            "cert_comp_chordal": self.cert_comp_chordal,
            "identity": self.identity,
            "first_bad_m": self.first_bad_m,
        }


def _class_masks(X_graph: Digraph, bit: dict) -> set[int]:
    """Row masks of X's directed-isomorphism class among the labeled
    acyclic graphs on 1..n: one per natural relabeling pi of X, that is
    pi(u) > pi(v) on every edge u -> v, with ``bit[i, j]`` the mask bit
    of the edge i -> j.  Labels 1, 2, ..., n are handed out in increasing
    order, a vertex taking the next one once all its out-neighbours hold
    theirs, so the relabelings walked are X's topological orders, not
    all n! of them."""
    n = X_graph.n
    targets: dict[int, list[int]] = {u: [] for u in range(1, n + 1)}
    for u, v, _ in X_graph.edge_counts:
        targets[u].append(v)
    label: dict[int, int] = {}
    masks: set[int] = set()

    def hand_out(k: int, mask: int) -> None:
        if k > n:
            masks.add(mask)
            return
        for w, ws in targets.items():
            if w not in label and all(v in label for v in ws):
                label[w] = k
                hand_out(k + 1, mask + sum(bit[k, label[v]] for v in ws))
                del label[w]

    hand_out(1, 0)
    return masks


def sweep_identity(
    n: int,
    truncation: int = DEFAULT_TRUNCATION,
    which: str = "path",
    bound: int | None = WORK_BOUND,
) -> list[SweepRow]:
    """Run the path or cycle identity over every simple labeled acyclic
    graph on 1..n, recording both chordality certificates per graph.

    This is the empirical resolver for the hypothesis ambiguity: rows
    where the identity holds despite a failed certificate (or vice
    versa) localize what the theorems actually require.

    The verifier runs once per directed-isomorphism class, on its first
    row (lowest ``graph_id``), and the verdict is copied to the class's
    other rows.  The copy is exact.  Let pi relabel X, so that pi X has
    an edge pi(u) -> pi(v) for every edge u -> v of X.  Then
    outdeg(pi X, Y; sigma) = outdeg(X, Y; sigma o pi), and sigma -> sigma o pi
    is a bijection of S_n, so ODP(pi X, Y) = ODP(X, Y) and the left
    series agree.  The complement of pi X's underlying graph is pi of
    X's complement, so chi, and with it the right series, is equal too;
    hence ``identity`` and ``first_bad_m``.  Whether some
    interval-clique labeling exists does not depend on the labeling, so
    ``cert_X_chordal`` agrees as well.  ``cert_comp_chordal`` asks
    whether the complement is a PEO *as labeled*, so it is tested on
    every row.

    Cost: one verification per class (1, 2, 6, 31, 302, 5 984 classes
    of 1, 2, 8, 64, 1 024, 32 768 rows at n = 1..6; OEIS A003087), plus
    per row the complement's PEO test.  A class's rows are found by
    walking its representative's topological orders, at most n! of them
    (the edgeless graph), each giving one row's mask.  A verdict waits
    in ``pending`` only until its row is emitted.  The price checked
    against ``bound`` is a stream-priced verification per row,
    2^(n(n-1)/2) * n! * (n+1) steps.
    """
    if which not in ("path", "cycle"):
        raise ValueError(f"unknown identity kind {which!r}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    check_bound("identity sweep", 2 ** (n * (n - 1) // 2) * factorial(n) * (n + 1), bound)
    verifier = verify_path_identity if which == "path" else verify_cycle_identity
    # graph_id's bit for each edge, as enumerate_labeled_acyclic numbers them
    bit = {(u, v): 1 << i for i, (u, v, _) in enumerate(tour(n).edge_counts)}
    pending: dict[int, tuple[bool, bool, int | None]] = {}
    rows = []
    for graph_id, X_graph in enumerate_labeled_acyclic(n):
        shared = pending.pop(graph_id, None)
        if shared is None:
            verdict = verifier(X_graph, truncation, bound=None)
            shared = (verdict.certificates["x_chordal"], verdict.holds, verdict.first_bad_m)
            for mask in _class_masks(X_graph, bit) - {graph_id}:
                pending[mask] = shared
        x_chordal, holds, first_bad_m = shared
        rows.append(
            SweepRow(
                graph_id=graph_id,
                n=n,
                edges=" ".join(f"{u}>{v}" for u, v, _ in X_graph.edge_counts),
                cert_x_chordal=x_chordal,
                cert_comp_chordal=is_peo(X_graph.complement()),
                identity=holds,
                first_bad_m=first_bad_m,
            )
        )
    return rows
