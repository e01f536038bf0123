"""Decimal rendering of exact values without floating point.

Every value in this package is either rational or q + r*sqrt(d) with
rational q, r and a rational d >= 0 that is not a rational square.  A
scaled moment's radicand class is var1^(p1 mod 2) * var2^(p2 mod 2), so
radicands that occur together differ by a rational square and merge into
one root; a sum of roots of different classes raises ArithmeticError.
SqrtExpr represents such a value exactly; render() turns it into the
exactly rounded (round-half-even) decimal with a fixed number of digits
after the point.  With a root present the value is irrational, so no tie
can occur.

A value costs what its digits cost.  A rational n/m rounds with one divmod
of n * 10^P by m.  A pure root (n/m) * sqrt(u/v) rounds to sign(n) *
((isqrt(4 * 10^(2P) * n^2 * u // (m^2 * v)) + 1) // 2), exact because
floor(sqrt(floor(z))) = floor(sqrt(z)); the isqrt operand has about 2P
digits.  Only a sum q + r*sqrt(d) with q != 0, which no CLI cell is, takes
the full-width routine in _round_scaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt


def _format_scaled(scaled: int, places: int) -> str:
    """Decimal string for the exact value scaled / 10**places."""
    sign = "-" if scaled < 0 else ""
    mag = abs(scaled)
    if places == 0:
        return f"{sign}{mag}"
    whole, frac = divmod(mag, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def _round_cell(num: int, den: int, radicand: tuple[int, int] | None, places: int) -> int:
    """round(num/den * sqrt(u/v) * 10**places) as an int, ties to even.

    den > 0; the radicand (u, v) holds positive integers and u/v is not a
    rational square, or it is None for 1.  With a root the value y is
    irrational: round(|y|) = (floor(2|y|) + 1) // 2 and floor(2|y|) =
    isqrt(floor(4 y^2)).
    """
    if radicand is None:
        quotient, rest = divmod(num * 10**places, den)
        return quotient + (2 * rest > den or (2 * rest == den and quotient % 2 == 1))
    u, v = radicand
    magnitude = (isqrt(4 * 10 ** (2 * places) * num * num * u // (den * den * v)) + 1) // 2
    return magnitude if num >= 0 else -magnitude


def _round_scaled(rational: Fraction, terms, places: int) -> int:
    """round((rational + r*sqrt(d)) * 10**places) as an int, ties to even.

    terms is () or ((r, d),) with d not a rational square.  A rational or a
    pure root (rational == 0) rounds with _round_cell.  Otherwise the result
    is floor(y) for y = 10**places*value + 1/2.  Write y = (a*v +
    sign*sqrt(N))/(m*v) with a/m = 10**places*rational + 1/2, u/v =
    (r*10**places)**2 * d and N = u*v*m^2; sqrt(N) is irrational, so
    s = isqrt(N) satisfies s < sqrt(N) < s + 1 and decides the floor.
    """
    if places < 0:
        raise ValueError("places must be nonnegative")
    if not terms:
        return _round_cell(rational.numerator, rational.denominator, None, places)
    ((coeff, radicand),) = terms
    if not rational:
        root = radicand.numerator, radicand.denominator
        return _round_cell(coeff.numerator, coeff.denominator, root, places)
    scale = 10**places
    half = rational * scale + Fraction(1, 2)
    square = coeff * coeff * radicand * scale * scale
    a, m = half.numerator, half.denominator
    u, v = square.numerator, square.denominator
    s = isqrt(u * v * m * m)
    if coeff > 0:
        return (a * v + s) // (m * v)
    return (a * v - s - 1) // (m * v)


def format_fraction(value: Fraction, places: int) -> str:
    """Exactly rounded decimal string with `places` digits after the point."""
    return _format_scaled(_round_scaled(Fraction(value), (), places), places)


def format_cell(num: int, den: int, radicand: tuple[int, int] | None, places: int) -> str:
    """Exactly rounded decimal of num/den * sqrt(u/v); see _round_cell."""
    if places < 0:
        raise ValueError("places must be nonnegative")
    return _format_scaled(_round_cell(num, den, radicand, places), places)


def sqrt_scaled(radicand: Fraction, places: int) -> int:
    """round(sqrt(radicand) * 10**places), ties to even, all-integer."""
    expr = SqrtExpr.from_sqrt(1, radicand)
    return _round_scaled(expr.rational, expr.terms, places)


def format_sqrt(radicand: Fraction, places: int, sign: int = 1) -> str:
    """Exactly rounded decimal of sign * sqrt(radicand)."""
    return SqrtExpr.from_sqrt(1 if sign >= 0 else -1, radicand).render(places)


@dataclass(frozen=True)
class SqrtExpr:
    """Exact value rational + coeff * sqrt(radicand), with at most one root."""

    rational: Fraction = Fraction(0)
    terms: tuple[tuple[Fraction, Fraction], ...] = ()  # () or ((coeff, radicand),)

    @staticmethod
    def from_rational(value) -> "SqrtExpr":
        return SqrtExpr(Fraction(value), ())

    @staticmethod
    def from_sqrt(coeff, radicand) -> "SqrtExpr":
        coeff = Fraction(coeff)
        radicand = Fraction(radicand)
        if radicand < 0:
            raise ValueError("radicand must be nonnegative")
        # absorb perfect rational squares so equality tests stay exact
        if coeff == 0 or radicand == 0:
            return SqrtExpr(Fraction(0), ())
        root = _rational_sqrt(radicand)
        if root is not None:
            return SqrtExpr(coeff * root, ())
        return SqrtExpr(Fraction(0), ((coeff, radicand),))

    def __add__(self, other: "SqrtExpr") -> "SqrtExpr":
        rational = self.rational + other.rational
        if not (self.terms and other.terms):
            return SqrtExpr(rational, self.terms or other.terms)
        ((c1, d1),), ((c2, d2),) = self.terms, other.terms
        # c1*sqrt(d1) + c2*sqrt(d2) = (c1 + c2*k)*sqrt(d1) when d2/d1 = k^2
        k = _rational_sqrt(d2 / d1)
        if k is None:
            raise ArithmeticError("a sum of roots of different classes has no single root")
        coeff = c1 + c2 * k
        return SqrtExpr(rational, ((coeff, d1),) if coeff else ())

    def __neg__(self) -> "SqrtExpr":
        return SqrtExpr(-self.rational, tuple((-c, r) for c, r in self.terms))

    def __sub__(self, other: "SqrtExpr") -> "SqrtExpr":
        return self + (-other)

    def is_zero(self) -> bool:
        return self.rational == 0 and not self.terms

    def as_rational(self) -> Fraction | None:
        return self.rational if not self.terms else None

    def render(self, places: int) -> str:
        return _format_scaled(_round_scaled(self.rational, self.terms, places), places)


def _rational_sqrt(value: Fraction) -> Fraction | None:
    """sqrt(value) if it is rational, else None (value >= 0)."""
    pn = isqrt(value.numerator)
    pd = isqrt(value.denominator)
    if pn * pn == value.numerator and pd * pd == value.denominator:
        return Fraction(pn, pd)
    return None
