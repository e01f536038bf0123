from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt, prod

import pytest

from treemoments import (
    ChildSet,
    DegenerateVariance,
    InvalidCorrelation,
    MomentSpec,
    SqrtExpr,
    normal_mixed_moment_eval,
    normal_mixed_moment_poly,
    normality_gap_report,
    scaled_moment,
)

S0123 = ChildSet((0, 1, 2, 3))


def isserlis_poly(p1, p2):
    """Mixed moment by summing rho^(cross pairs) over perfect matchings.

    Points 0..p1-1 carry the first variable, the rest the second; a pairing
    contributes rho once per mixed pair and 1 per same-variable pair.
    """
    total = p1 + p2
    if total % 2:
        return ()
    coeffs = [0] * (total // 2 + 1)

    def match(points):
        if not points:
            return {0: 1}
        first, rest = points[0], points[1:]
        out: dict[int, int] = {}
        for i, partner in enumerate(rest):
            cross = (first < p1) != (partner < p1)
            remaining = rest[:i] + rest[i + 1 :]
            for power, ways in match(remaining).items():
                key = power + (1 if cross else 0)
                out[key] = out.get(key, 0) + ways
        return out

    for power, ways in match(tuple(range(total))).items():
        coeffs[power] += ways
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@lru_cache(maxsize=None)
def stein_poly(p1, p2):
    """M(p1,p2) by the Stein-identity recurrence, trimmed.

    M(p1,p2) = (p1-1) * M(p1-2,p2) + rho * p2 * M(p1-1,p2-1), with M(0,0) = 1,
    M = 0 at a negative index, and M(0,p2) = M(p2,0) by symmetry.
    """
    if p1 < 0 or p2 < 0:
        return ()
    if p1 == 0:
        return (1,) if p2 == 0 else stein_poly(p2, 0)
    first = [(p1 - 1) * c for c in stein_poly(p1 - 2, p2)]
    second = [0] + [p2 * c for c in stein_poly(p1 - 1, p2 - 1)]
    size = max(len(first), len(second))
    out = [a + b for a, b in zip(first + [0] * size, second + [0] * size)][:size]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class TestMomentPolynomials:
    @pytest.mark.parametrize("p1", range(13))
    @pytest.mark.parametrize("p2", range(13))
    def test_closed_form_matches_stein_recursion(self, p1, p2):
        assert normal_mixed_moment_poly(p1, p2).coefficients == stein_poly(p1, p2)

    def test_spot_values(self):
        assert normal_mixed_moment_poly(2, 0).coefficients == (1,)
        assert normal_mixed_moment_poly(4, 0).coefficients == (3,)
        assert normal_mixed_moment_poly(6, 0).coefficients == (15,)
        assert normal_mixed_moment_poly(1, 1).coefficients == (0, 1)
        assert normal_mixed_moment_poly(2, 2).coefficients == (1, 0, 2)
        assert normal_mixed_moment_poly(3, 1).coefficients == (0, 3)

    def test_odd_total_order_vanishes(self):
        for p1 in range(6):
            for p2 in range(6):
                if (p1 + p2) % 2:
                    assert normal_mixed_moment_poly(p1, p2).is_zero()

    def test_parity_of_rho_powers(self):
        for p1 in range(7):
            for p2 in range(7):
                coeffs = normal_mixed_moment_poly(p1, p2).coefficients
                for k, c in enumerate(coeffs):
                    if c:
                        assert k % 2 == p1 % 2

    def test_matches_pairing_enumeration(self):
        for p1 in range(9):
            for p2 in range(9 - p1):
                assert (
                    normal_mixed_moment_poly(p1, p2).coefficients
                    == isserlis_poly(p1, p2)
                ), (p1, p2)

    def test_symmetry(self):
        for p1 in range(7):
            for p2 in range(7):
                assert (
                    normal_mixed_moment_poly(p1, p2).coefficients
                    == normal_mixed_moment_poly(p2, p1).coefficients
                )

    def test_perfect_correlation_collapses_to_univariate(self):
        for p1 in range(6):
            for p2 in range(6):
                if (p1 + p2) % 2:
                    continue
                merged = normal_mixed_moment_poly(p1 + p2, 0).evaluate(Fraction(0))
                value = normal_mixed_moment_poly(p1, p2).evaluate(Fraction(1))
                assert value == merged

    def test_independence_factorizes(self):
        zero = Fraction(0)
        for p1 in range(7):
            for p2 in range(7):
                lhs = normal_mixed_moment_poly(p1, p2).evaluate(zero)
                rhs = normal_mixed_moment_poly(p1, 0).evaluate(
                    zero
                ) * normal_mixed_moment_poly(0, p2).evaluate(zero)
                assert lhs == rhs


class TestEvaluation:
    def test_even_powers_give_exact_rationals(self):
        v = normal_mixed_moment_eval(2, 2, Fraction(1, 4), 1, digits=6)
        assert v.exact == Fraction(3, 2)
        assert v.text == "1.500000"
        assert normal_mixed_moment_eval(4, 0, Fraction(3, 7), 1).exact == 3

    def test_odd_powers_use_the_sign(self):
        v = normal_mixed_moment_eval(1, 1, Fraction(1), -1, digits=4)
        assert v.exact == -1
        assert v.text == "-1.0000"
        irr = normal_mixed_moment_eval(1, 1, Fraction(1, 2), 1, digits=4)
        assert irr.exact is None
        assert irr.text == "0.7071"

    def test_rejects_out_of_range_correlation(self):
        with pytest.raises(InvalidCorrelation):
            normal_mixed_moment_eval(2, 0, Fraction(5, 4))
        with pytest.raises(InvalidCorrelation):
            normal_mixed_moment_eval(2, 0, Fraction(-1, 4))

    def test_sqrt_evaluation_agrees_with_rational_path(self):
        poly = normal_mixed_moment_poly(3, 1)
        exact = poly.evaluate(Fraction(-3, 4))
        via_sqrt = poly.evaluate_at_sqrt(Fraction(9, 16), -1)
        assert via_sqrt.as_rational() == exact


class TestGapReport:
    def test_structurally_zero_rows(self):
        spec = MomentSpec(S0123, 10, 0, 1)
        report = normality_gap_report(spec, 2, 2, digits=10)
        gaps = {(r.p1, r.p2): r.gap for r in report.rows}
        for cell in [(0, 0), (1, 1), (2, 0), (0, 2), (1, 0), (0, 1)]:
            assert gaps[cell].is_zero(), cell

    def test_rho_matches_scaled_moment(self):
        spec = MomentSpec(S0123, 10, 0, 1)
        report = normality_gap_report(spec, 2, 2)
        from treemoments import correlation

        assert report.rho.square == correlation(spec).square

    def test_degenerate_variance_raises(self):
        with pytest.raises(DegenerateVariance, match=r"X_0 .*n=2"):
            normality_gap_report(MomentSpec(ChildSet((0, 1, 2)), 2, 0, 1), 2, 2)

    def test_odd_cells_hold_one_root_and_round_exactly(self):
        spec = MomentSpec(S0123, 40, 1, 3)
        report = normality_gap_report(spec, 4, 4, digits=30)
        rows = {(r.p1, r.p2): r for r in report.rows}
        for cell in [(1, 3), (3, 1), (3, 3)]:
            row = rows[cell]
            assert len(row.gap.terms) <= 1, cell
            # round alpha - reference from its unmerged roots
            roots = row.alpha.terms + (-row.reference).terms
            expected = bracket_round(-row.reference.rational, roots, 30)
            assert Fraction(row.gap_text) == Fraction(expected, 10**30), cell

    def test_repeated_statistic_gaps_are_one_statistic_gaps(self):
        # rho = 1, so M(p1, p2) = E[Z^k] = (k-1)!! for k = p1 + p2 even, else 0
        spec = MomentSpec(S0123, 16, 1, 1)
        report = normality_gap_report(spec, 4, 4, digits=25)
        assert report.rho.exact == 1
        for row in report.rows:
            k = row.p1 + row.p2
            single = scaled_moment(MomentSpec(S0123, 16, 1), k, digits=25)
            reference = 0 if k % 2 else prod(range(k - 1, 0, -2))
            assert row.alpha_text == single.text
            assert row.reference.as_rational() == reference
            assert row.gap == single.value - SqrtExpr.from_rational(reference)
            assert row.gap_text == row.gap.render(25)

    def test_requires_pair(self):
        with pytest.raises(ValueError):
            normality_gap_report(MomentSpec(S0123, 10, 0), 2, 2)


def bracket_round(rational, roots, places, guard=200):
    """round(10**places * (rational + sum c*sqrt(d))) in integers only.

    Each root is bracketed by isqrt `guard` digits finer than the result.
    """
    scale = 10 ** (places + guard)
    lo = hi = rational * scale
    for coeff, radicand in roots:
        square = coeff * coeff * radicand * scale * scale
        low = isqrt(square.numerator // square.denominator)
        if coeff > 0:
            lo, hi = lo + low, hi + low + 1
        else:
            lo, hi = lo - low - 1, hi - low
    first, last = round(lo / 10**guard), round(hi / 10**guard)
    assert first == last, "bracket straddles a rounding boundary"
    return first
