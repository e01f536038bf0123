"""Exact tree counts and moment numerators via Lagrange inversion.

For trees whose child counts lie in S, the counting series u solves
u = x * phi(u) with phi(z) = sum(z**s for s in S), so

    f_n = (1/n) * [z^(n-1)] phi(z)^n.

The moment numerators N_{p1,p2}(n) = sum over trees of X_{s1}^p1 * X_{s2}^p2
come from marking variables: writing u_s = y_s z^s, the operator y_s*d/dy_s
equals u_s*d/du_s, and expanding its p-th power with Stirling numbers turns
the marked series into a finite sum of plain powers of phi:

    N = (1/n) * sum_{k1<=p1, k2<=p2} S(p1,k1)*S(p2,k2)*ff(n, k1+k2)
                * [z^(n-1-k1*s1-k2*s2)] phi(z)^(n-k1-k2)

with ff the falling factorial and coefficients at negative degree taken as
zero.  numerator_grid computes one power phi^(n-k_hi) and each smaller k
from the last by one multiplication by phi.  Everything is exact integer
arithmetic; the leading division by n is checked to be exact.

Requests are plain arguments.  The count f_n is the cell N_{0,0}(n), so
count_trees reads it from a one-cell grid, as numerator_mixed reads its
cell; for counts at a range of n, derived.count_range steps a recurrence
proved from u = x*phi(u) instead.
"""

from __future__ import annotations

from itertools import islice
from operator import add

from .childset import ChildSet
# stirling2 stays bound for perfbench/tracer.py, which wraps it here; the grid reads rows
from .polyint import exact_div, falling_factorial, poly_pow_coeffs, stirling2, stirling2_rows
from .values import Value


def check_query(
    child_set: ChildSet, n: int, s1: int, p1: int, s2: int | None = None, p2: int = 0
) -> None:
    """Reject a bad N_{p1,p2}(X_{n,s1}, X_{n,s2}) request with ValueError.

    Past n >= 1 the rules are ChildSet.check_statistics; s2 may equal s1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    child_set.check_statistics(s1, p1, s2, p2)


class NumeratorTable(Value):
    """Numerators N_{a,b}(n) for n = 1..n_max, a <= max_p1, b <= max_p2."""

    __slots__ = ("child_set", "s1", "s2", "n_max", "max_p1", "max_p2", "values")

    def __init__(
        self,
        child_set: ChildSet,
        s1: int,
        s2: int | None,
        n_max: int,
        max_p1: int,
        max_p2: int,
        values: dict[tuple[int, int, int], int],
    ) -> None:
        self._set(child_set, s1, s2, n_max, max_p1, max_p2, values)

    def value(self, n: int, p1: int, p2: int = 0) -> int:
        return self.values[(n, p1, p2)]

    def sequence(self, p1: int, p2: int = 0) -> list[int]:
        """Terms N_{p1,p2}(1), ..., N_{p1,p2}(n_max)."""
        return [self.values[(n, p1, p2)] for n in range(1, self.n_max + 1)]


def count_trees(child_set: ChildSet, n: int) -> int:
    """Number of trees on n vertices with all child counts in child_set."""
    return numerator_grid(child_set, n, 0, None, 0, 0)[(0, 0)]


def numerator_mixed(
    child_set: ChildSet, n: int, s1: int, p1: int, s2: int | None = None, p2: int = 0
) -> int:
    """N_{p1,p2}(X_{n,s1}, X_{n,s2}): one cell of numerator_grid."""
    return numerator_grid(child_set, n, s1, s2, p1, p2)[(p1, p2)]


def _times_phi(coeffs: list[int], low: int, child_set: ChildSet):
    """phi * P from P's coefficients at degrees low.. up to a fixed top.

    Returns the product's coefficients at the degrees they determine, up to
    the same top, and the lowest such degree.
    """
    reach = child_set.max_count
    if low == 0:
        coeffs = [0] * reach + coeffs  # P has no terms below degree 0
    else:
        low += reach
    top = len(coeffs)
    product = coeffs[reach:]  # the s = 0 term
    for s in child_set.elements[1:]:
        product = list(map(add, product, coeffs[reach - s : top - s]))
    return product, low


def numerator_grid(
    child_set: ChildSet,
    n: int,
    s1: int,
    s2: int | None,
    max_p1: int,
    max_p2: int,
) -> dict[tuple[int, int], int]:
    """All N_{a,b}(n) for a <= max_p1, b <= max_p2, sharing phi-power work.

    One power phi^(n-k_hi), k_hi = max_p1+max_p2, is computed; each smaller
    k multiplies the previous power by phi, |S| additions per coefficient.
    Every grid cell is then a short Stirling-weighted sum of coefficients,
    with the Stirling rows and ff(n, k) computed once per grid.
    With s2 == s1, N_{a,b} is N_{a+b} of s1 alone.  Child counts of n or
    more occur in no tree on n vertices, so the work is sized by n.
    """
    check_query(child_set, n, s1, max_p1, s2, max_p2)
    if s2 == s1:
        merged = numerator_grid(child_set, n, s1, None, max_p1 + max_p2, 0)
        return {(a, b): merged[(a + b, 0)] for a in range(max_p1 + 1) for b in range(max_p2 + 1)}
    child_set = child_set.within(n)
    phi = child_set.offspring_polynomial()
    t2 = 0 if s2 is None else s2
    k_hi = min(max_p1 + max_p2, n)
    # every degree read below is at least n - 1 - max_p1*s1 - max_p2*t2
    lo = max(0, n - 1 - max_p1 * s1 - max_p2 * t2)
    # A product with phi is exact only from deg(phi) above the lowest degree
    # held (or from 0), so phi^(n-k_hi) starts k_hi*deg(phi) lower.
    low = max(0, lo - k_hi * child_set.max_count)
    power = poly_pow_coeffs(phi, n - k_hi, n - 1, min_deg=low)
    powers = [(power, low)]  # (coefficients from degree low, low) of phi^(n-k_hi+i)
    for _ in range(k_hi):
        power, low = _times_phi(power, low, child_set)
        powers.append((power, low))
    powers.reverse()

    def coeff_at(k: int, degree: int) -> int:
        if degree < 0 or degree > n - 1:
            return 0
        coeffs, low = powers[k]
        return coeffs[degree - low]

    # S(b, k2) for every b, S(a, k1) one row at a time; k1 + k2 <= n, since
    # terms past it vanish with ff(n, k1 + k2)
    rows_b = list(islice(stirling2_rows(n), max_p2 + 1))
    ffs = [falling_factorial(n, k) for k in range(k_hi + 1)]
    grid: dict[tuple[int, int], int] = {}
    for a, row_a in zip(range(max_p1 + 1), stirling2_rows(n)):
        for b, row_b in enumerate(rows_b):
            total = 0
            for k1, w1 in enumerate(row_a):
                if w1 == 0:
                    continue
                for k2, w2 in enumerate(row_b[: n - k1 + 1]):
                    if w2 == 0:
                        continue
                    k = k1 + k2
                    total += w1 * w2 * ffs[k] * coeff_at(k, n - 1 - k1 * s1 - k2 * t2)
            value = exact_div(total, n)
            if value < 0:
                raise ArithmeticError(f"negative numerator N_{a},{b}({n}) = {value}")
            grid[(a, b)] = value
    return grid


def numerator_sequence(
    child_set: ChildSet,
    s1: int,
    s2: int | None,
    p1: int,
    p2: int,
    n_max: int,
) -> NumeratorTable:
    """Numerators for every n = 1..n_max (whole grid up to (p1, p2))."""
    check_query(child_set, n_max, s1, p1, s2, p2)
    values = {}
    for n in range(1, n_max + 1):
        grid = numerator_grid(child_set, n, s1, s2, p1, p2)
        for (a, b), value in grid.items():
            values[(n, a, b)] = value
    return NumeratorTable(child_set, s1, s2, n_max, p1, p2, values)
