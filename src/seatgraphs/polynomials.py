"""Exact integer polynomials, Eulerian families, and truncated expansion
of rational functions P(x) / (1 - x)^k.

Everything here is exact: coefficients, of polynomials and of series
prefixes alike, are arbitrary-precision integers, so identity checks are
decidable equality, never approximate.  0^0 = 1 throughout, as Python's
``**`` already guarantees.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from math import factorial
from operator import index

from .digraph import Digraph
from .limits import WORK_BOUND, check_bound
from .permutations import enumerate_perms, g_cyclic_descent_count, g_descent_count


def _strip(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial over exact integers.

    ``coeffs[m]`` is the coefficient of x^m; trailing zeros are stripped
    on construction, so equality is structural.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _strip(self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, m: int) -> int:
        return self.coeffs[m] if 0 <= m < len(self.coeffs) else 0

    def __add__(self, other: Polynomial) -> Polynomial:
        width = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self[m] + other[m] for m in range(width)))

    def __sub__(self, other: Polynomial) -> Polynomial:
        width = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self[m] - other[m] for m in range(width)))

    def __mul__(self, other: Polynomial | int) -> Polynomial:
        if isinstance(other, int):
            return Polynomial(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return ZERO
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __call__(self, value):
        """Evaluate by Horner's rule; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def divide_by_x(self) -> Polynomial:
        """Exact quotient P(x)/x; requires a zero constant term."""
        if self.is_zero():
            return ZERO
        if self.coeffs[0] != 0:
            raise ValueError("constant coefficient is nonzero; not divisible by x")
        return Polynomial(self.coeffs[1:])

    def format(self) -> str:
        """Render like ``1 + 4*x + 1*x^2`` (the zero polynomial is ``0``)."""
        parts: list[str] = []
        for m, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if m == 0:
                term = str(abs(c))
            elif m == 1:
                term = f"{abs(c)}*x"
            else:
                term = f"{abs(c)}*x^{m}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.format()


ZERO = Polynomial(())
ONE = Polynomial((1,))
X = Polynomial((0, 1))


@dataclass(frozen=True)
class SeriesPrefix:
    """Coefficients c_0..c_M of a formal power series, as exact integers.

    Built from any iterable of integers.  Equality demands the same
    truncation order and exact coefficient agreement.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        # index() refuses a Fraction or a float instead of truncating it
        object.__setattr__(self, "coeffs", tuple(map(index, self.coeffs)))
        if not self.coeffs:
            raise ValueError("a series prefix holds at least the constant coefficient")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, m: int) -> int:
        return self.coeffs[m]

    def first_difference(self, other: SeriesPrefix) -> int | None:
        """Smallest index where the prefixes disagree, or None."""
        if self.truncation != other.truncation:
            raise ValueError("cannot compare prefixes of different truncation")
        for m, (a, b) in enumerate(zip(self.coeffs, other.coeffs)):
            if a != b:
                return m
        return None

    def to_json_obj(self) -> list[list[int]]:
        # [numerator, denominator] pairs: the verdict JSON's wire format
        return [[c, 1] for c in self.coeffs]

    def __str__(self) -> str:
        return f"({', '.join(map(str, self.coeffs))})"


def expand_over_one_minus_x(p: Polynomial, k: int, truncation: int) -> SeriesPrefix:
    """Prefix of P(x) / (1-x)^k through x^truncation.

    Dividing by 1-x takes prefix sums of the coefficients, so k passes
    of running sums over P_0..P_truncation give the prefix exactly.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if truncation < 0:
        raise ValueError("truncation must be non-negative")
    coeffs = (p[m] for m in range(truncation + 1))
    for _ in range(k):
        coeffs = accumulate(coeffs)
    return SeriesPrefix(tuple(coeffs))


def eulerian_poly(n: int) -> Polynomial:
    """The Eulerian polynomial: coefficient m counts permutations of S_n
    with exactly m descents.

    Computed by the classical recurrence, one ``eulerian_step`` per
    size; the test suite pins it against brute-force descent counting.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return reduce(eulerian_step, range(2, n + 1), ONE)


def eulerian_step(previous: Polynomial, n: int) -> Polynomial:
    """A_n from A_(n-1): A(n, m) = (m+1) A(n-1, m) + (n-m) A(n-1, m-1)."""
    return Polynomial(tuple((m + 1) * previous[m] + (n - m) * previous[m - 1] for m in range(n)))


def generalized_eulerian_poly(graph: Digraph, cyclic: bool, bound: int | None = WORK_BOUND) -> Polynomial:
    """Sum of x^(G-descents) over S_n; cyclic counts descents mod n.  The
    public statistic, n steps, is called once per permutation."""
    n = graph.n
    check_bound("generalized Eulerian polynomial", factorial(n) * n, bound)
    stat = g_cyclic_descent_count if cyclic else g_descent_count
    counts = Counter(map(stat, enumerate_perms(n), repeat(graph)))
    return Polynomial(tuple(counts[m] for m in range(max(counts) + 1)))
