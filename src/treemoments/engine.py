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
from the last by one multiplication by phi; numerator_grids steps that power
across a range of n, as phi^(m+1) = phi * phi^m.  Everything is exact
integer arithmetic; the leading division by n is checked to be exact.

Requests are plain arguments.  The count f_n is the cell N_{0,0}(n), so
count_trees reads it from a one-cell grid, as numerator_mixed reads its
cell; for counts at a range of n, derived.count_range steps a recurrence
proved from u = x*phi(u) instead.
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

    With k = max_p1+max_p2 < n, the grid at n reads phi^(n-k).  A range
    keeps that power's coefficients at degrees 0..n-1, O(hi^2) bits in all,
    and moves to n+1 by one product with phi and one step of the power
    recurrence for degree n.  A single n, and each n <= k, computes only the
    window of its own power that its grid reads.
    """
    check_query(child_set, lo, s1, max_p1, s2, max_p2)
    if s2 == s1:
        for merged in numerator_grids(child_set, lo, hi, s1, None, max_p1 + max_p2, 0):
            yield {(a, b): merged[(a + b, 0)] for a in range(max_p1 + 1) for b in range(max_p2 + 1)}
        return
    k, t2, full = max_p1 + max_p2, s2 or 0, None
    for n in range(lo, hi + 1):
        alone = n <= k or lo == hi
        phi_set, k_hi = (child_set.within(n), min(k, n)) if alone else (child_set.within(hi), k)
        # every degree read is at least n - 1 - max_p1*s1 - max_p2*t2; a
        # product with phi is exact only from deg(phi) above the lowest
        # degree held (or from 0), so phi^(n-k_hi) starts k_hi*deg(phi) lower
        low = max(0, n - 1 - max_p1 * s1 - max_p2 * t2 - k_hi * phi_set.max_count)
        if alone:
            power = poly_pow_coeffs(phi_set.offspring_polynomial(), n - k_hi, n - 1, min_deg=low)
        elif full is None:
            full = poly_pow_coeffs(phi_set.offspring_polynomial(), n - k, n - 1)
        else:
            # phi^(n-k) at degrees 0..n-2, then degree j = n-1 by the power
            # recurrence j*c_j = sum_s ((m+1)*s - j)*c_(j-s), m = n-k
            full, j, m = _times_phi(full, 0, phi_set)[0], n - 1, n - k
            steps = (((m + 1) * s - j) * full[j - s] for s in phi_set.elements[1:] if s <= j)
            full.append(exact_div(sum(steps), j))
        # (coefficients from degree low, low) of phi^(n-k_hi+i) for i = 0..k_hi
        powers = [(power if alone else full[low:], low)]
        for _ in range(k_hi):
            powers.append(_times_phi(*powers[-1], phi_set))
        yield _grid_cells(n, s1, t2, max_p1, max_p2, powers[::-1])


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
