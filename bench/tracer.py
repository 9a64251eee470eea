"""Spans and counters recorded from outside the package.

``install`` replaces public functions of the ``seatgraphs`` modules with
wrappers by setting attributes on the module and class objects.  Every
module namespace that holds the original function object (``cli`` and
``identities`` import many of them by name) receives the wrapper, so
no call path keeps the unwrapped function.

Two kinds of wrapper:
  span       one record per call: name, start, end, parent span, job id
  aggregate  a call count and total time only, for functions called once
             per permutation or per candidate labeling

Spans stay in memory and are returned when the pass ends.  An aggregate
call's time is charged to the enclosing span as child time, so a span's
self time is its duration minus its child spans and aggregate calls.
"""
from __future__ import annotations

import sys
import time
from math import factorial

# span records are lists indexed by these positions
NAME, START, END, PARENT, JOB, CHILD, NOTE = range(7)


def _rank(rho):
    """1-based lexicographic rank of a permutation of 1..n."""
    rest = sorted(rho)
    rank = 0
    for i, v in enumerate(rho):
        k = rest.index(v)
        rank += k * factorial(len(rho) - 1 - i)
        rest.pop(k)
    return rank + 1


def _note_odp(args, result):
    return {"perms": factorial(args[0].n)}


def _note_materialize(args, result):
    return {"witnesses": sum(len(row) for row in result.adjacency)}


def _note_sweep(args, result):
    return {"graphs": len(result)}


def _note_peo_search(args, result):
    n = args[0].n
    return {"found": result is not None, "tried": factorial(n) if result is None else _rank(result)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.totals: dict[str, list] = {}
        self.job: str | None = None
        self.rebound: dict[str, int] = {}

    def span(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [name, 0.0, 0.0, parent, self.job, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if parent is not None:
                    spans[parent][CHILD] += rec[END] - rec[START]
            if note is not None:
                rec[NOTE] = note(args, result)
            return result

        return wrapper

    def aggregate(self, name, fn, timed=True):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        total = self.totals.setdefault(name, [0, 0.0])

        if not timed:
            def counter(*args, **kwargs):
                total[0] += 1
                return fn(*args, **kwargs)
            return counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            total[0] += 1
            total[1] += elapsed
            if stack:
                spans[stack[-1]][CHILD] += elapsed
            return result

        return wrapper

    def rebind(self, name, original, wrapper):
        """Replace ``original`` by ``wrapper`` in every seatgraphs module."""
        sites = 0
        for modname, module in list(sys.modules.items()):
            if modname != "seatgraphs" and not modname.startswith("seatgraphs."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    sites += 1
        self.rebound[name] = self.rebound.get(name, 0) + sites

    def install(self):
        from seatgraphs import chromatic, cli, dfsgraph, identities, permutations, polynomials
        from seatgraphs.digraph import Digraph
        from seatgraphs.dfsgraph import MaterializedDfs

        spans = [
            ("cli.main", cli.main, None),
            ("cli.parse_graph_spec", cli.parse_graph_spec, None),
            ("identities.sweep", identities.sweep_identity, _note_sweep),
            ("dfsgraph.odp", dfsgraph.odp, _note_odp),
            ("dfsgraph.slice", dfsgraph.odp_edge_slice, None),
            ("dfsgraph.slice", dfsgraph.odp_assign_slice, None),
            ("dfsgraph.materialize", dfsgraph.materialize, _note_materialize),
            ("polynomials.gen_eulerian", polynomials.generalized_eulerian_poly, None),
            ("polynomials.eulerian", polynomials.eulerian_poly, None),
            ("polynomials.expand", polynomials.expand_over_one_minus_x, None),
            ("chromatic.chi", chromatic.chromatic_poly, None),
            ("chromatic.peo_search", chromatic.find_chordal_labeling, _note_peo_search),
        ]
        spans += [("identities.verify", fn, None) for attr, fn in sorted(vars(identities).items())
                  if attr.startswith("verify_") and callable(fn)]
        for name, fn, note in spans:
            self.rebind(name, fn, self.span(name, fn, note))
        for name, fn in (("permutations.gdescent", permutations.g_descent_count),
                         ("permutations.gdescent", permutations.g_cyclic_descent_count),
                         ("chromatic.is_peo", chromatic.is_peo)):
            self.rebind(name, fn, self.aggregate(name, fn))

        # methods live on their classes; wrapping the class attribute
        # reaches every caller
        from_edges = Digraph.__dict__["from_edges"].__func__
        Digraph.from_edges = classmethod(self.aggregate("digraph.from_edges", from_edges))
        # counted, not timed: complement calls from_edges, whose time is
        # already charged to the enclosing span
        Digraph.complement = self.aggregate("digraph.complement", Digraph.complement, timed=False)
        for method in ("to_json", "to_dot"):
            setattr(MaterializedDfs, method, self.span("dfsgraph.export", getattr(MaterializedDfs, method)))

    def report(self):
        from seatgraphs import chromatic

        return {
            "spans": self.spans,
            "totals": self.totals,
            "rebound": self.rebound,
            "memo_entries": len(chromatic._chromatic_memo),
        }
