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
zero.  numerator_grid computes the window of one power phi^(n-k_hi) that
its grid reads and each smaller k from the last by one multiplication by
phi.  Across a range of n, _powers moves that window from n to n+1, and
numerator_grids and count_range read it.  Everything is exact integer
arithmetic; every division is checked to be exact.

Requests are plain arguments.  The count f_n is the cell N_{0,0}(n), so
count_trees reads it from a one-cell grid, as numerator_mixed reads its
cell.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    return next(numerator_grids(child_set, n, n, s1, s2, max_p1, max_p2))


def numerator_grids(
    child_set: ChildSet,
    lo: int,
    hi: int,
    s1: int,
    s2: int | None,
    max_p1: int,
    max_p2: int,
) -> Iterator[dict[tuple[int, int], int]]:
    """numerator_grid(child_set, n, s1, s2, max_p1, max_p2) for n = lo..hi.

    Each grid reads the window of phi^(n-k_hi) that _powers yields, k_hi =
    min(max_p1+max_p2, n), and multiplies it by phi k_hi times.
    """
    check_query(child_set, lo, s1, max_p1, s2, max_p2)
    if s2 == s1:
        for merged in numerator_grids(child_set, lo, hi, s1, None, max_p1 + max_p2, 0):
            yield {(a, b): merged[(a + b, 0)] for a in range(max_p1 + 1) for b in range(max_p2 + 1)}
        return
    k, t2 = max_p1 + max_p2, s2 or 0
    windows = _powers(child_set, lo, hi, k, max_p1 * s1 + max_p2 * t2)
    for n, (phi_set, power, low) in enumerate(windows, lo):
        # (coefficients from degree low, low) of phi^(n-k_hi+i) for i = 0..k_hi
        powers = [(power, low)]
        for _ in range(min(k, n)):
            powers.append(_times_phi(*powers[-1], phi_set))
        yield _grid_cells(n, s1, t2, max_p1, max_p2, powers[::-1])


def count_range(child_set: ChildSet, lo: int, hi: int) -> Iterator[int]:
    """f_lo, ..., f_hi, each yielded as soon as it is known.

    f_n is c_(n-1)/n for c the window of phi^n that _powers yields.
    """
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    windows = _powers(child_set, lo, hi, 0, 0)
    return (exact_div(power[-1], n) for n, (_, power, _) in enumerate(windows, lo))


def _powers(
    child_set: ChildSet, lo: int, hi: int, k: int, shift: int
) -> Iterator[tuple[ChildSet, list[int], int]]:
    """(within(n), coefficients of phi^(n-k_hi) at degrees low..n-1, low) for n = lo..hi.

    k_hi = min(k, n).  A grid at n reads degrees n-1-shift-k_hi*R and up
    after k_hi products with phi, R = deg(phi), so a single n starts its
    window there.  A range holds at least 2R coefficients and moves from
    n-1 to n, with m = n-k, by one product with phi, degree n-1 by the power
    recurrence j*c_j = sum_s ((m+1)*s - j)*c_(j-s), and the R-1 degrees the
    product drops at the bottom by the same identity solved for its s = R
    term.  Its divisor (m+1)*R - j is positive once n > 2k; up to there, and
    where an element of S becomes a possible child count, the window starts
    afresh.
    """
    for n in range(lo, hi + 1):
        if n == lo or n <= 2 * k or n - 1 in child_set:
            phi_set, k_hi = child_set.within(n), min(k, n)
            reach, elements = phi_set.max_count, phi_set.elements
            width = shift + k_hi * reach
            if lo < hi:
                width = max(width, 2 * reach - 1)
            low = max(0, n - 1 - width)
            power = poly_pow_coeffs(elements[1:], n - k_hi, n - 1, min_deg=low)
        else:
            m, j = n - k, n - 1
            power, start = _times_phi(power, low, phi_set)
            steps = (((m + 1) * s - j) * power[j - s - start] for s in elements[1:])
            power.append(exact_div(sum(steps), j))
            low = max(0, j - width)
            del power[: max(0, low - start)]  # from 0, the window may just move up
            for j in range(start - 1 + reach, low - 1 + reach, -1):
                # c_(j-R) from c_(j-R+1)..c_j, power[0] holding c_(j-R+1)
                steps = ((j - (m + 1) * s) * power[reach - 1 - s] for s in elements[:-1])
                power.insert(0, exact_div(sum(steps), (m + 1) * reach - j))
        yield phi_set, power, low


def _grid_cells(n, s1, t2, max_p1, max_p2, powers) -> dict[tuple[int, int], int]:
    """The grid at n from powers[k] = (coefficients of phi^(n-k) from degree low, low)."""
    # S(b, k2) for every b, S(a, k1) one row at a time; k1 + k2 <= n, since
    # terms past it vanish with ff(n, k1 + k2)
    rows_b = list(islice(stirling2_rows(n), max_p2 + 1))
    ffs = [falling_factorial(n, k) for k in range(len(powers))]
    grid: dict[tuple[int, int], int] = {}
    for a, row_a in zip(range(max_p1 + 1), stirling2_rows(n)):
        for b, row_b in enumerate(rows_b):
            total = 0
            for k1, w1 in enumerate(row_a):
                if w1 == 0:
                    continue
                for k2, w2 in enumerate(row_b[: n - k1 + 1]):
                    degree = n - 1 - k1 * s1 - k2 * t2
                    if w2 and degree >= 0:
                        coeffs, low = powers[k1 + k2]
                        total += w1 * w2 * ffs[k1 + k2] * coeffs[degree - low]
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
    for n, grid in enumerate(numerator_grids(child_set, 1, n_max, s1, s2, p1, p2), 1):
        for (a, b), value in grid.items():
            values[(n, a, b)] = value
    return NumeratorTable(child_set, s1, s2, n_max, p1, p2, values)
