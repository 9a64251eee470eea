"""Resource bounds: one work budget, one n bound, one input bound.

The work bound is a budget of priced steps.  Each operation that walks
S_n or a family of graphs checks its price before the work starts:
``odp`` and its slices the sum over their parts of the plan ``dfsgraph``
takes (F! times one more than the edge count for a stream);
``generalized_eulerian_poly`` n! * n; a visit of DFS(X, Y), n! * (n + 5a)
for X's a non-loop arcs, whether ``materialize`` exports it or the
acyclicity, inversion or monotonicity check walks its rows (summed
over the two pairs the last two compare); the sweep
2^(n(n-1)/2) * n! * (n+1), a stream-priced verification per row;
``table eulerian`` the sum of k^2 over its range.
A verifier that only calls priced operations passes its bound down.  The
identity bound caps n for the path and cycle identities, because chi by
deletion-contraction has no price.  The input bound caps what the CLI
builds from one argument (a graph spec's n, a `--n`, the top of a
`table --n` range, the truncation M) before building it.  A caller may
pass any bound, or None for none; --unsafe-bounds lifts all three.
"""

# Priced steps.  On a 2-vCPU host (Python 3.11) an odp step took 12-110 ns
# and a step of the other prices 0.3-0.5 us: 1-20 s at the budget
WORK_BOUND = 5 * 10**7

# n of the path and cycle identity verifiers
IDENTITY_BOUND = 8

# Largest size the CLI builds from one argument: tour:700 (244 650
# edges, 2.4 MB of JSON) takes 1.1 s end to end on a 2-vCPU Xeon
INPUT_BOUND = 700

# Default truncation order M for power-series prefix comparison
DEFAULT_TRUNCATION = 16


class BoundExceededError(Exception):
    """Work or an input beyond its configured bound."""


def check_bound(what: str, steps: int, bound: int | None) -> None:
    if bound is not None and steps > bound:
        # past 10^15 a power of ten below steps (2^(b-1) <= steps < 2^b, 0.301 < log10 2):
        # a sweep's price can have more digits than Python turns into a string
        shown = steps if steps <= 10**15 else f"more than 10^{int((steps.bit_length() - 1) * 0.301)}"
        raise BoundExceededError(f"{what} would take {shown} steps, above the work bound {bound}")
