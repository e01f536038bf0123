from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treemoments.render import SqrtExpr, format_fraction


class TestFormatFraction:
    def test_plain_values(self):
        assert format_fraction(Fraction(1, 2), 3) == "0.500"
        assert format_fraction(Fraction(-7, 4), 2) == "-1.75"
        assert format_fraction(Fraction(5), 0) == "5"

    def test_round_half_even_at_ties(self):
        assert format_fraction(Fraction(25, 1000), 2) == "0.02"
        assert format_fraction(Fraction(35, 1000), 2) == "0.04"
        assert format_fraction(Fraction(-25, 1000), 2) == "-0.02"

    def test_negative_small_magnitude_keeps_sign(self):
        assert format_fraction(Fraction(-1, 4), 1) == "-0.2"  # ties to even
        assert format_fraction(Fraction(-1, 8), 2) == "-0.12"

    def test_rejects_negative_places(self):
        with pytest.raises(ValueError):
            format_fraction(Fraction(1), -1)

    @given(
        num=st.integers(min_value=-10**9, max_value=10**9),
        den=st.integers(min_value=1, max_value=10**6),
        places=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_rendered_value_is_the_nearest_grid_point(self, num, den, places):
        value = Fraction(num, den)
        text = format_fraction(value, places)
        rendered = Fraction(text)
        step = Fraction(1, 10**places)
        assert abs(rendered - value) <= step / 2


def root_text(radicand, places, sign=1):
    return SqrtExpr.from_sqrt(sign, radicand).render(places)


class TestSqrtRendering:
    def test_perfect_squares(self):
        assert root_text(Fraction(4), 3) == "2.000"
        assert root_text(Fraction(1, 4), 2) == "0.50"

    def test_known_digits(self):
        assert root_text(Fraction(2), 5) == "1.41421"
        assert root_text(Fraction(3), 4) == "1.7321"
        assert root_text(Fraction(2), 0) == "1"

    def test_sign_argument(self):
        assert root_text(Fraction(2), 2, sign=-1) == "-1.41"

    def test_rejects_negative_radicand(self):
        with pytest.raises(ValueError):
            SqrtExpr.from_sqrt(1, Fraction(-1))

    def test_exact_tie_rounds_to_even(self):
        # sqrt(1/4) at 1 place: 0.5 scaled = 5, no tie; build a real tie:
        # sqrt(9/4) = 1.5, at 0 places the half-point 1.5 must go to 2
        assert root_text(Fraction(9, 4), 0) == "2"
        assert root_text(Fraction(25, 4), 0) == "2"  # 2.5 ties to even 2

    @given(
        num=st.integers(min_value=0, max_value=10**6),
        den=st.integers(min_value=1, max_value=10**4),
        places=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=80, deadline=None)
    def test_scaled_root_is_nearest_integer(self, num, den, places):
        radicand = Fraction(num, den)
        scaled = int(Fraction(root_text(radicand, places)) * 10**places)
        # scaled is the correct rounding iff
        # scaled - 1/2 <= sqrt(radicand*10^(2p)) <= scaled + 1/2
        target = radicand * 10 ** (2 * places)
        if scaled > 0:
            assert (2 * scaled - 1) ** 2 <= 4 * target
        assert 4 * target <= (2 * scaled + 1) ** 2


class TestSqrtExpr:
    def test_rational_and_single_root(self):
        assert SqrtExpr.from_rational(Fraction(3, 2)).render(2) == "1.50"
        expr = SqrtExpr.from_sqrt(1, Fraction(2))
        assert expr.render(4) == "1.4142"
        assert expr.as_rational() is None

    def test_perfect_square_collapses_to_rational(self):
        expr = SqrtExpr.from_sqrt(Fraction(2, 3), Fraction(9, 4))
        assert expr.as_rational() == Fraction(1)
        assert expr.is_zero() is False

    def test_equal_radicands_cancel_exactly(self):
        a = SqrtExpr.from_sqrt(1, Fraction(5, 7))
        b = SqrtExpr.from_sqrt(-1, Fraction(5, 7))
        assert (a + b).is_zero()
        assert (a - a).is_zero()

    def test_radicands_a_rational_square_apart_merge(self):
        expr = SqrtExpr.from_sqrt(1, Fraction(2)) + SqrtExpr.from_sqrt(3, Fraction(8, 9))
        assert expr.terms == ((Fraction(3), Fraction(2)),)  # sqrt(2) + 2*sqrt(2)
        assert (expr - SqrtExpr.from_sqrt(3, Fraction(2))).is_zero()

    def test_roots_of_different_classes_raise(self):
        with pytest.raises(ArithmeticError):
            SqrtExpr.from_sqrt(1, 2) + SqrtExpr.from_sqrt(1, 3)

    def test_rational_plus_root_raises(self):
        root = SqrtExpr.from_sqrt(1, 2)
        with pytest.raises(ArithmeticError):
            SqrtExpr.from_rational(Fraction(1, 2)) + root
        with pytest.raises(ArithmeticError):
            root - SqrtExpr.from_rational(1)
        with pytest.raises(ArithmeticError):
            SqrtExpr(Fraction(1), ((Fraction(1), Fraction(2)),))
        assert SqrtExpr.from_rational(0) + root == root

    @given(
        r=st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
        d=st.fractions(min_value=0, max_value=10**6, max_denominator=10**4),
        places=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_root_matches_integer_reference(self, r, d, places):
        expr = SqrtExpr.from_sqrt(r, d)
        assume(expr.terms)
        assert Fraction(expr.render(places)) * 10**places == rounded_reference(
            r, d, places
        )

    def test_negation_and_zero(self):
        expr = SqrtExpr.from_sqrt(Fraction(1, 2), Fraction(3))
        assert (expr + (-expr)).is_zero()
        assert SqrtExpr.from_sqrt(0, Fraction(3)).is_zero()


def rounded_reference(r, d, places, guard=200):
    """round(10**places * r*sqrt(d)) from an isqrt bracket `guard` digits finer."""
    scale = 10 ** (places + guard)
    square = r * r * d * scale * scale
    low = isqrt(square.numerator // square.denominator)  # floor(|r|*sqrt(d)*scale)
    lo, hi = (low, low + 1) if r > 0 else (-low - 1, -low)
    first, last = round(Fraction(lo, 10**guard)), round(Fraction(hi, 10**guard))
    assert first == last, "bracket straddles a rounding boundary"
    return first
