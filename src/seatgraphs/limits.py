"""Resource bounds, of two kinds, each with one owner.

Work bounds cap the n of an operation that walks S_n or a family of
graphs.  Each is checked only by the operation that does the work, at
its own default below, before the work starts; a caller (and the CLI's
--unsafe-bounds flag) may pass a larger bound, or None to disable the
check.  A verifier that calls a bounded operation either passes its own
bound down or, when it adds work of its own, checks it first.

The input bound caps the size of what the CLI builds from one argument
(a graph spec's n, the top of a `table --n` range, the truncation M).
The CLI checks it in one place, before anything of that size is built;
--unsafe-bounds lifts it too.
"""

# n! streams (implicit ODP sweeps, G-descent counts: `odp`, its slices,
# `generalized_eulerian_poly`)
ODP_BOUND = 10

# Full n!-vertex graph construction and the comparisons built on it
# (`materialize`, automorphism, acyclicity, subgraph monotonicity)
MATERIALIZE_BOUND = 7

# Exhaustive 2^(n(n-1)/2) family sweeps
SWEEP_BOUND = 4

# Series-identity verifiers
IDENTITY_BOUND = 8

# Largest size the CLI builds from one argument: tour:700 (244 650
# edges, 2.4 MB of JSON) takes 1.1 s end to end on a 2-vCPU Xeon
INPUT_BOUND = 700

# Default truncation order M for power-series prefix comparison
DEFAULT_TRUNCATION = 16


class BoundExceededError(Exception):
    """Work or an input beyond its configured bound."""


def check_bound(what: str, n: int, bound: int | None) -> None:
    if bound is not None and n > bound:
        raise BoundExceededError(f"{what}: n={n} exceeds the configured bound {bound}")
