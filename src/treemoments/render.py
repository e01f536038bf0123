"""Decimal rendering of exact values without floating point.

Every value in this package is either rational or a pure root r*sqrt(d)
with rational r and a rational d > 0 that is not a rational square, never
a sum of both.  A scaled moment's radicand class is
var1^(p1 mod 2) * var2^(p2 mod 2), so radicands that occur together differ
by a rational square and merge into one root; a sum of roots of different
classes, or of a nonzero rational and a root, raises ArithmeticError.
SqrtExpr represents such a value exactly; render() turns it into the
exactly rounded (round-half-even) decimal with a fixed number of digits
after the point.  With a root present the value is irrational, so no tie
can occur.

A value costs what its digits cost.  format_cell is the one rounding
routine.  A rational n/m rounds with one divmod of n * 10^P by m.  A pure
root (n/m) * sqrt(u/v) rounds to sign(n) *
((isqrt(4 * 10^(2P) * n^2 * u // (m^2 * v)) + 1) // 2), exact because
floor(sqrt(floor(z))) = floor(sqrt(z)); the isqrt operand has about 2P
digits.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .values import Value


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


def format_fraction(value: Fraction, places: int) -> str:
    """Exactly rounded decimal string with `places` digits after the point."""
    value = Fraction(value)
    return format_cell(value.numerator, value.denominator, None, places)


def format_cell(num: int, den: int, radicand: tuple[int, int] | None, places: int) -> str:
    """Exactly rounded decimal of num/den * sqrt(u/v); see _round_cell."""
    if places < 0:
        raise ValueError("places must be nonnegative")
    return _format_scaled(_round_cell(num, den, radicand, places), places)


class SqrtExpr(Value):
    """Exact value: a rational, or one root coeff * sqrt(radicand), never both."""

    __slots__ = ("rational", "terms")

    def __init__(
        self,
        rational: Fraction = Fraction(0),
        terms: tuple[tuple[Fraction, Fraction], ...] = (),  # () or ((coeff, radicand),)
    ) -> None:
        if rational and terms:
            raise ArithmeticError("a rational plus a root has no single root")
        # render's isqrt rounding needs an irrational root; from_sqrt folds
        # a square radicand into the rational
        for _, radicand in terms:
            if radicand <= 0:
                raise ValueError("radicand must be positive")
            if _rational_sqrt(radicand) is not None:
                raise ValueError("radicand is a rational square: use from_sqrt")
        self._set(rational, terms)

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
        coeff, radicand = self.terms[0] if self.terms else (self.rational, None)
        root = None if radicand is None else (radicand.numerator, radicand.denominator)
        return format_cell(coeff.numerator, coeff.denominator, root, places)


# The squares modulo a few small moduli.  About 99% of non-squares fail one
# of these residue tests, so SqrtExpr's check on every construction rarely
# needs an isqrt of a full-width radicand.
_SQUARES_MOD = {m: {i * i % m for i in range(m)} for m in (64, 63, 65, 11)}


def _rational_sqrt(value: Fraction) -> Fraction | None:
    """sqrt(value) if it is rational, else None (value >= 0)."""
    for m, squares in _SQUARES_MOD.items():
        if value.numerator % m not in squares or value.denominator % m not in squares:
            return None
    pn = isqrt(value.numerator)
    pd = isqrt(value.denominator)
    if pn * pn == value.numerator and pd * pd == value.denominator:
        return Fraction(pn, pd)
    return None
