"""Exact integer powers of phi(z) = sum(z**s for s in S), and number helpers.

A dense polynomial is a list of ints indexed by degree: [1, 10, 5] is
1 + 10*z + 5*z**2.  Python ints are unbounded, so all arithmetic here is
exact by construction.

poly_pow_coeffs takes phi as its steps, the nonzero elements of S in
ascending order (0 is in S, so phi = 1 + the z**k), and returns the
coefficients min_deg..max_deg of phi**m.  Its recurrence holds just that
window and the deg(phi) coefficients below it, and at deg(phi) <= 3, once
those are long enough, leaps whole blocks of steps below min_deg with one
exact division each.  So a caller that needs the coefficients near max_deg
holds O(max_deg) bits instead of O(max_deg**2).  poly_mul_trunc and
_pow_binary, dense and truncated, are the reference the tests compare it to.

Also houses the small combinatorial number helpers (Stirling numbers of the
second kind, row by row, and falling factorials) used to expand powers of
the marking operator y*d/dy into plain derivatives.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, islice
from math import gcd, perm
from operator import mul

Poly = list[int]


def exact_div(a: int, b: int) -> int:
    """a // b, refusing to round: a must be an exact multiple of b."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact division {a}/{b}")
    return q


def poly_mul_trunc(a: Poly, b: Poly, max_deg: int) -> Poly:
    """Product a*b with every term of degree > max_deg dropped; _pow_binary's step."""
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    out = [0] * (max_deg + 1)
    for i, ca in enumerate(a):
        if i > max_deg:
            break
        if ca == 0:
            continue
        hi = min(len(b), max_deg - i + 1)
        for j in range(hi):
            cb = b[j]
            if cb:
                out[i + j] += ca * cb
    return out


def _pow_binary(phi: Poly, m: int, max_deg: int) -> Poly:
    result = [1] + [0] * max_deg
    base = list(phi[: max_deg + 1]) + [0] * max(0, max_deg + 1 - len(phi))
    e = m
    while e:
        if e & 1:
            result = poly_mul_trunc(result, base, max_deg)
        e >>= 1
        if e:
            base = poly_mul_trunc(base, base, max_deg)
    return result


_BLOCK, _LEAF = 1024, 32  # steps per exact division below min_deg, a whole number of leaves
# By deg(phi): leaps beat blocks of plain steps once the held coefficients'
# bits times |steps|**2 reach this.  Measured at deg(phi) <= 3; past 3 no leap paid.
_LEAP_BITS = {1: 0, 2: 11_000, 3: 84_000}


def _leap(support: list[tuple[int, int]], reach: int, state: Poly, lo: int, hi: int) -> Poly:
    """s_(hi-1) from state = s_(lo-1), hi - lo a multiple of _BLOCK, one exact division per block.

    M(i) takes s_(i-1) = (c_(i-1), ..., c_(i-reach)) to i*s_i: its top row holds
    ((m+1)*k - i) in column k-1 for each nonzero k in S, and row r > 0 is i*e_(r-1).
    leaf holds M(x+_LEAF-1)...M(x) entry by entry, polynomials in x from the top
    degree down.  Block j..j+_BLOCK-1 multiplies the state by the product tree of
    its leaves at their first steps, then divides by j*...*(j+_BLOCK-1), their
    gcd taken out first.
    """
    rows = [[[int(r == c)] for c in range(reach)] for r in range(reach)]  # lowest degree first
    for s in range(_LEAF):
        top = [[0] * (s + 2) for _ in range(reach)]
        for k, m1k in support:
            for out, p in zip(top, rows[k - 1]):
                for d, v in enumerate(p):
                    out[d] += (m1k - s) * v
                    out[d + 1] -= v
        rows = [top] + [[[s * v + u for v, u in zip(p + [0], [0] + p)] for p in row] for row in rows[:-1]]
    leaf = [p[::-1] for row in rows for p in row]
    for j in range(lo, hi, _BLOCK):
        mats = []
        for x in reversed(range(j, j + _BLOCK, _LEAF)):  # last leaf first: neighbours multiply in order
            entries = []
            for p in leaf:
                v = 0
                for c in p:  # Horner's rule
                    v = v * x + c
                entries.append(v)
            mats.append([entries[r : r + reach] for r in range(0, reach**2, reach)])
        while len(mats) > 1:
            pairs = zip(mats[::2], mats[1::2])
            mats = [[[sum(map(mul, r, c)) for c in zip(*b)] for r in a] for a, b in pairs] + mats[len(mats) & ~1 :]
        d = perm(j + _BLOCK - 1, _BLOCK)
        g = gcd(d, *chain.from_iterable(mats[0]))
        state = [exact_div(sum(exact_div(v, g) * c for v, c in zip(row, state)), d // g) for row in mats[0]]
    return state


def _pow_recurrence(steps: list[int], m: int, max_deg: int, min_deg: int) -> Poly:
    # From phi*(phi^m)' = m*phi'*phi^m:  j*c_j = sum_k ((m+1)k - j)*c_{j-k}, k over the steps.
    support = [(k, (m + 1) * k) for k in steps]
    (k1, m1k1), *rest = support
    reach = steps[-1]
    # Before step j the list ends at c_(j-1), so c_(j-k) is coeffs[-k]; it
    # starts at c_(j-reach-1) up to j = min_deg + 1 and at c_(min_deg-reach)
    # after.  The zeros c_(-reach)..c_(-1) let every step take every term,
    # and the sum starts from its first term rather than from 0.
    coeffs, lo = [0] * reach + [1], 1
    while lo <= max_deg:  # block lo..hi-1
        leap = lo + _BLOCK <= min_deg + 1 and reach in _LEAP_BITS  # coeffs holds reach + 1 values
        if leap and max(map(abs, coeffs)).bit_length() * len(steps) ** 2 >= _LEAP_BITS[reach]:
            hi = lo + (min_deg + 1 - lo) // _BLOCK * _BLOCK  # every whole block left below min_deg
            coeffs = [0] + _leap(support, reach, coeffs[:0:-1], lo, hi)[::-1]  # no step reads the 0
        else:
            hi = min(lo + _BLOCK, max_deg + 1)
            for j in range(lo, hi):
                acc = (m1k1 - j) * coeffs[-k1]
                for k, m1k in rest:
                    acc += (m1k - j) * coeffs[-k]
                coeffs.append(exact_div(acc, j))
                if j <= min_deg:
                    del coeffs[0]  # c_(j-reach-1): no later step reads it, and it is not returned
        lo = hi
    return coeffs[reach:]


def poly_pow_coeffs(steps: list[int], m: int, max_deg: int, min_deg: int = 0) -> Poly:
    """Coefficients c_min_deg..c_max_deg of phi**m, phi = 1 + sum(z**k for k in steps).

    steps are the nonzero child counts in ascending order.  The first-order
    coefficient recurrence from phi*(phi^m)' = m*phi'*phi^m holds only the
    coefficients from min_deg on plus the deg(phi) below them.  Each step
    divides exactly by a small int, except that at deg(phi) <= 3, once the
    coefficients held reach _LEAP_BITS, whole blocks of _BLOCK steps below
    min_deg multiply by one transfer matrix and divide once.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    if not 0 <= min_deg <= max_deg:
        raise ValueError("min_deg must lie in 0..max_deg")
    if m == 0 or not steps:  # phi**0 = 1**m = 1
        return ([1] + [0] * max_deg)[min_deg:]
    return _pow_recurrence(steps, m, max_deg, min_deg)


def stirling2_rows(width: int) -> Iterator[list[int]]:
    """Stirling numbers of the second kind S(p, 0..min(p, width)) for p = 0, 1, ...

    Row p+1 is S(p+1, k) = k*S(p, k) + S(p, k-1) from row p, the only one kept.
    """
    row = [1]
    while True:
        yield row
        # S(p+1, k) for k = 1..len(row), with S(p, len(row)) = 0, cut to k <= width
        row = [0] + [k * s + row[k - 1] for k, s in enumerate(row[1:] + [0], 1)][:width]


def stirling2(p: int, k: int) -> int:
    """Stirling number of the second kind S(p, k)."""
    if p < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > p:
        return 0
    return next(islice(stirling2_rows(k), p, None))[k]


def falling_factorial(n: int, k: int) -> int:
    """n*(n-1)*...*(n-k+1); 1 for k == 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    result = 1
    for i in range(k):
        result *= n - i
        if result == 0:
            break
    return result
