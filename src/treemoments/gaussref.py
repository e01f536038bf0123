"""Exact mixed moments of a unit-variance bivariate normal pair.

For jointly normal (X, Y) with E X = E Y = 0, Var X = Var Y = 1 and
correlation rho, the mixed moment M(p1,p2) = E[X^p1 Y^p2] is a polynomial
in rho.  By Isserlis' theorem it sums over the pairings of p1 copies of X
and p2 copies of Y, and a pairing with k mixed pairs contributes rho^k, so

    M(p1,p2) = sum over k = p1 (mod 2), k <= min(p1,p2) of
               C(p1,k) * C(p2,k) * k! * (p1-k-1)!! * (p2-k-1)!! * rho^k

with (-1)!! = 1, and M = 0 when p1 + p2 is odd.  This module keeps it exact
and evaluates it at the empirical correlation of a tree statistic pair, so
the difference between scaled tree moments and the normal reference can be
reported without any floating point.

normality_gap_report reads every cell from one MomentGrid, in integers.
With p1 + p2 odd the reference is 0 and the gap is alpha; with both orders
even both are rational.  With both odd, R_a = alpha * sqrt(var1 var2) and
R_rho = rho * sqrt(var1 var2) are rational and the gap is the pure root
(R_a - odd(rho^2) R_rho) / sqrt(var1 var2), odd(rho^2) = sum over odd k of
c_k rho^(k-1).  GapRow.alpha, .reference and .gap are built on first access.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, factorial, prod

from .errors import DegenerateVariance, InvalidCorrelation
from .moments import (
    DEFAULT_DIGITS,
    MomentSpec,
    ScaledMoment,
    _central_from_grid,
    _grid,
    _scaled_from_grid,
)
from .render import SqrtExpr
from .values import Value

RhoPoly = tuple[int, ...]  # coefficient c_k at rho^k


class NormalMomentPoly(Value):
    """M(p1,p2) as an integer polynomial in the correlation rho."""

    __slots__ = ("p1", "p2", "coefficients")

    def __init__(self, p1: int, p2: int, coefficients: RhoPoly) -> None:
        self._set(p1, p2, coefficients)  # coefficients[k] multiplies rho^k

    def evaluate(self, rho: Fraction) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coefficients):
            total = total * rho + c
        return total

    def evaluate_at_sqrt(self, rho_squared: Fraction, rho_sign: int) -> SqrtExpr:
        """Exact value at rho = rho_sign * sqrt(rho_squared)."""
        even = Fraction(0)
        odd = Fraction(0)  # sum over odd k of c_k * rho_squared^((k-1)/2)
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k % 2 == 0:
                even += c * rho_squared ** (k // 2)
            else:
                odd += c * rho_squared ** ((k - 1) // 2)
        sign = 1 if rho_sign >= 0 else -1
        return SqrtExpr.from_rational(even) + SqrtExpr.from_sqrt(
            sign * odd, rho_squared
        )

    def is_zero(self) -> bool:
        return not self.coefficients


def normal_mixed_moment_poly(p1: int, p2: int) -> NormalMomentPoly:
    """M(p1,p2) as a polynomial in rho; identically zero when p1+p2 is odd."""
    if p1 < 0 or p2 < 0:
        raise ValueError("moment orders must be nonnegative")
    if (p1 + p2) % 2:
        return NormalMomentPoly(p1, p2, ())
    coefficients = [0] * (min(p1, p2) + 1)
    for k in range(p1 % 2, min(p1, p2) + 1, 2):
        # m!! is prod(range(m, 0, -2)), which is 1 for m = -1
        coefficients[k] = (
            comb(p1, k) * comb(p2, k) * factorial(k)
            * prod(range(p1 - k - 1, 0, -2)) * prod(range(p2 - k - 1, 0, -2))
        )
    return NormalMomentPoly(p1, p2, tuple(coefficients))


class NormalMomentValue(Value):
    """M(p1,p2) at a concrete rho, exact plus rendered."""

    __slots__ = ("p1", "p2", "value", "text")

    def __init__(self, p1: int, p2: int, value: SqrtExpr, text: str) -> None:
        self._set(p1, p2, value, text)

    @property
    def exact(self) -> Fraction | None:
        return self.value.as_rational()


def normal_mixed_moment_eval(
    p1: int,
    p2: int,
    rho_squared: Fraction,
    rho_sign: int = 1,
    digits: int = DEFAULT_DIGITS,
) -> NormalMomentValue:
    """Evaluate M(p1,p2) at rho = rho_sign * sqrt(rho_squared).

    Exact rational whenever only even powers of rho occur (p1 even).
    """
    rho_squared = Fraction(rho_squared)
    if rho_squared < 0 or rho_squared > 1:
        raise InvalidCorrelation(f"rho^2 = {rho_squared} lies outside [0, 1]")
    poly = normal_mixed_moment_poly(p1, p2)
    value = poly.evaluate_at_sqrt(rho_squared, rho_sign)
    return NormalMomentValue(p1, p2, value, value.render(digits))


class GapRow(Value, hidden=("scaled", "rho")):
    """One grid cell: scaled tree moment, normal reference, difference."""

    __slots__ = (
        "p1", "p2", "alpha_text", "reference_text", "gap_text", "scaled", "rho", "__dict__"
    )

    def __init__(
        self,
        p1: int,
        p2: int,
        alpha_text: str,
        reference_text: str,
        gap_text: str,
        scaled: ScaledMoment,
        rho: ScaledMoment,
    ) -> None:
        self._set(p1, p2, alpha_text, reference_text, gap_text, scaled, rho)

    @property
    def alpha(self) -> SqrtExpr:
        return self.scaled.value

    @cached_property
    def reference(self) -> SqrtExpr:
        poly = normal_mixed_moment_poly(self.p1, self.p2)
        return poly.evaluate_at_sqrt(self.rho.square, self.rho.sign)

    @cached_property
    def gap(self) -> SqrtExpr:
        return self.alpha - self.reference


class GapReport(Value):
    __slots__ = ("spec", "digits", "rho", "rows")

    def __init__(
        self, spec: MomentSpec, digits: int, rho: ScaledMoment, rows: list[GapRow]
    ) -> None:
        self._set(spec, digits, rho, rows)  # rho: the empirical correlation alpha_{1,1}


def normality_gap_report(
    spec: MomentSpec,
    max_p1: int | None = None,
    max_p2: int | None = None,
    digits: int = DEFAULT_DIGITS,
) -> GapReport:
    """Compare scaled mixed moments with the normal reference at rho = alpha_{1,1}.

    The reference shares the exact radicand rho^2 with the scaled moments,
    so structurally forced rows like (1,1) and (2,0) cancel to exactly zero.
    The spec must carry two statistics.
    """
    if max_p1 is None:
        max_p1 = spec.max_p1
    if max_p2 is None:
        max_p2 = spec.max_p2
    grid = _grid(spec, max(max_p1, 2), max(max_p2, 2))
    var1 = _central_from_grid(grid, 2, 0)
    var2 = _central_from_grid(grid, 0, 2)
    for s, var in ((spec.s1, var1), (spec.s2, var2)):
        if var == 0:
            raise DegenerateVariance(
                f"X_{s} has zero variance at n={spec.n}; no normal comparison possible"
            )
    rho = _scaled_from_grid(grid, 1, 1, digits)
    rows: list[GapRow] = []
    for p1 in range(max_p1 + 1):
        for p2 in range(max_p2 + 1):
            alpha = _scaled_from_grid(grid, p1, p2, digits)
            poly = normal_mixed_moment_poly(p1, p2)
            reference, gap = grid.normal_gap(alpha.cell, poly.coefficients)
            texts = alpha.text, grid.render(reference, digits), grid.render(gap, digits)
            rows.append(GapRow(p1, p2, *texts, alpha, rho))
    return GapReport(spec, digits, rho, rows)
