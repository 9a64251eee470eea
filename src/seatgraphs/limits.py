"""Resource bounds for factorial-scale enumeration.

Everything in this package that walks S_n is refused above a small,
explicit bound instead of silently grinding.  Callers (and the CLI's
--unsafe-bounds flag) may pass a larger bound, or None to disable the
check entirely.
"""

# n! streams (permutation enumeration, implicit ODP sweeps)
PERM_ENUMERATION_BOUND = 12
ODP_BOUND = 10

# Full n!-vertex graph construction, and the acyclicity check on it
MATERIALIZE_BOUND = 7

# Witness-by-witness comparison of two DFS graphs (automorphism,
# subgraph monotonicity)
DFS_COMPARISON_BOUND = 5

# Generalized Eulerian polynomial against ODP
GEN_EULERIAN_BOUND = 7

# Rows of the CLI's cyclic-Eulerian table
TABLE_BOUND = 8

# Factorial search over vertex relabelings
RELABEL_SEARCH_BOUND = 8

# Exhaustive 2^(n(n-1)/2) family sweeps
SWEEP_BOUND = 4

# Series-identity verifiers
IDENTITY_BOUND = 8

# Vertices of a graph that `gen` builds and prints: tour:700 (244 650
# edges, 2.4 MB of JSON) takes 1.1 s end to end on a 2-vCPU Xeon
GEN_BOUND = 700

# Default truncation order M for power-series prefix comparison
DEFAULT_TRUNCATION = 16


class BoundExceededError(Exception):
    """An operation would enumerate beyond its configured bound."""

    def __init__(self, what: str, n: int, bound: int):
        super().__init__(f"{what}: n={n} exceeds the configured bound {bound}")
        self.what = what
        self.n = n
        self.bound = bound


def check_bound(what: str, n: int, bound: int | None) -> None:
    if bound is not None and n > bound:
        raise BoundExceededError(what, n, bound)
