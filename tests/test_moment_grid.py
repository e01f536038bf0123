"""MomentGrid against the Fraction binomial expansion it replaced.

The reference functions below are the earlier per-cell Fraction code: a
binomial re-expansion of each central moment, alpha^2 as a Fraction product,
SqrtExpr.from_sqrt(sign, square), and the full-width rounding routine.
"""

from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import treemoments.moments as moments
import treemoments.render as render
from treemoments import (
    ChildSet,
    DegenerateVariance,
    MomentSpec,
    NoTrees,
    central_moment,
    moment_report,
    normal_mixed_moment_poly,
    normality_gap_report,
    raw_moment,
    scaled_moment,
)
from treemoments.engine import numerator_grid
from treemoments.render import SqrtExpr, _format_scaled, _round_scaled, format_cell

S0123 = ChildSet((0, 1, 2, 3))


def full_width_round(rational, terms, places):
    """round((rational + r*sqrt(d)) * 10**places), ties to even, in one isqrt."""
    scale = 10**places
    if not terms:
        return round(rational * scale)
    ((coeff, radicand),) = terms
    half = rational * scale + Fraction(1, 2)
    square = coeff * coeff * radicand * scale * scale
    a, m = half.numerator, half.denominator
    u, v = square.numerator, square.denominator
    s = isqrt(u * v * m * m)
    if coeff > 0:
        return (a * v + s) // (m * v)
    return (a * v - s - 1) // (m * v)


def full_width_text(expr, places):
    return _format_scaled(full_width_round(expr.rational, expr.terms, places), places)


def reference_grid(spec, max_p1, max_p2):
    grid = numerator_grid(spec.child_set, spec.n, spec.s1, spec.s2, max_p1, max_p2)
    if grid[(0, 0)] == 0:
        raise NoTrees(f"no trees on {spec.n} vertices for child set {spec.child_set}")
    return grid


def reference_central(grid, p1, p2):
    n00 = grid[(0, 0)]
    n10 = grid[(1, 0)] if p1 > 0 else 0
    n01 = grid[(0, 1)] if p2 > 0 else 0
    total = 0
    for r in range(p1 + 1):
        for t in range(p2 + 1):
            term = comb(p1, r) * comb(p2, t) * n10**r * n01**t
            term *= n00 ** (p1 + p2 - r - t) * grid[(p1 - r, p2 - t)]
            total += -term if (r + t) % 2 else term
    return Fraction(total, n00 ** (p1 + p2 + 1))


def reference_scaled(spec, p1, p2, digits):
    """(value, square, sign, text) of alpha_{p1,p2}, the Fraction way."""
    grid = reference_grid(spec, max(p1, 2 if p1 > 0 else 0), max(p2, 2 if p2 > 0 else 0))
    m = reference_central(grid, p1, p2)
    var1 = reference_central(grid, 2, 0) if p1 > 0 else Fraction(1)
    var2 = reference_central(grid, 0, 2) if p2 > 0 else Fraction(1)
    if p1 > 0 and var1 <= 0:
        raise DegenerateVariance(f"X_{spec.s1} has zero variance at n={spec.n}")
    if p2 > 0 and var2 <= 0:
        raise DegenerateVariance(f"X_{spec.s2} has zero variance at n={spec.n}")
    square = m * m / (var1**p1 * var2**p2)
    sign = 1 if m > 0 else (-1 if m < 0 else 0)
    value = SqrtExpr.from_sqrt(sign, square)
    return value, square, sign, full_width_text(value, digits)


def outcome(fn, *args):
    """fn(*args), or the class and message of the domain error it raises."""
    try:
        return fn(*args)
    except (NoTrees, DegenerateVariance) as exc:
        return type(exc), str(exc)


def assert_scaled_equal(got, expected):
    value, square, sign, text = expected
    assert got.text == text
    assert got.sign == sign
    assert got.square == square and type(got.square) is Fraction
    assert got.value == value
    assert got.exact == value.as_rational()


@st.composite
def specs(draw):
    extra = draw(st.sets(st.integers(1, 6), max_size=4))
    child_set = ChildSet(tuple(sorted({0} | extra)))
    s1 = draw(st.sampled_from(child_set.elements))
    others = [s for s in child_set.elements if s != s1]
    s2 = draw(st.sampled_from(others)) if others and draw(st.booleans()) else None
    n = draw(st.integers(1, 80))
    max_p1 = draw(st.integers(0, 4))
    max_p2 = draw(st.integers(0, 4)) if s2 is not None else 0
    try:
        return MomentSpec(child_set, n, s1, s2, max_p1, max_p2)
    except ValueError:
        assume(False)


class TestAgainstFractionExpansion:
    @given(spec=specs(), digits=st.integers(0, 40), data=st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_cell_matches(self, spec, digits, data):
        p1 = data.draw(st.integers(0, spec.max_p1))
        p2 = data.draw(st.integers(0, spec.max_p2))

        def expected_raw():
            grid = reference_grid(spec, p1, p2)
            return Fraction(grid[(p1, p2)], grid[(0, 0)])

        def expected_central():
            return reference_central(reference_grid(spec, p1, p2), p1, p2)

        assert outcome(raw_moment, spec, p1, p2) == outcome(expected_raw)
        assert outcome(central_moment, spec, p1, p2) == outcome(expected_central)

        expected = outcome(reference_scaled, spec, p1, p2, digits)
        got = outcome(scaled_moment, spec, p1, p2, digits)
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert got == expected
            return
        assert_scaled_equal(got, expected)

    @given(spec=specs(), digits=st.integers(0, 40))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_reports_match(self, spec, digits):
        report = outcome(moment_report, spec, digits)
        if isinstance(report, tuple):
            expected = outcome(reference_grid, spec, 2, 0)
            assert report == expected
            return
        for (a, b), raw in report.raw.items():
            grid = reference_grid(spec, a, b)
            assert raw == Fraction(grid[(a, b)], grid[(0, 0)])
            assert report.central[(a, b)] == reference_central(grid, a, b)
            expected = outcome(reference_scaled, spec, a, b, digits)
            if (a, b) in report.scaled:
                assert_scaled_equal(report.scaled[(a, b)], expected)
            else:
                assert expected[0] is DegenerateVariance
        if report.correlation_rho is not None:
            assert_scaled_equal(report.correlation_rho, reference_scaled(spec, 1, 1, digits))

    @given(spec=specs(), digits=st.integers(0, 40))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_gap_reports_match(self, spec, digits):
        assume(spec.s2 is not None)
        try:
            rho = reference_scaled(spec, 1, 1, digits)
        except (NoTrees, DegenerateVariance):
            with pytest.raises((NoTrees, DegenerateVariance)):
                normality_gap_report(spec, digits=digits)
            return
        report = normality_gap_report(spec, digits=digits)
        assert_scaled_equal(report.rho, rho)
        for row in report.rows:
            alpha = reference_scaled(spec, row.p1, row.p2, digits)[0]
            poly = normal_mixed_moment_poly(row.p1, row.p2)
            reference = poly.evaluate_at_sqrt(rho[1], rho[2])
            gap = alpha - reference
            assert row.alpha == alpha
            assert row.reference == reference
            assert row.gap == gap
            assert row.alpha_text == full_width_text(alpha, digits)
            assert row.reference_text == full_width_text(reference, digits)
            assert row.gap_text == full_width_text(gap, digits)


def non_square(value):
    num, den = value.numerator, value.denominator
    return isqrt(num) ** 2 != num or isqrt(den) ** 2 != den


class TestPureRootBranch:
    def test_rational_cells_round_half_even(self):
        assert format_cell(5, 2, None, 0) == "2"
        assert format_cell(7, 2, None, 0) == "4"
        assert format_cell(-5, 2, None, 0) == "-2"
        assert format_cell(1, 8, None, 2) == "0.12"
        assert format_cell(-3, 8, None, 2) == "-0.38"
        with pytest.raises(ValueError):
            format_cell(1, 2, None, -1)

    def test_root_cells(self):
        assert format_cell(1, 1, (2, 1), 5) == "1.41421"
        assert format_cell(-2, 3, (1, 2), 3) == "-0.471"  # -(2/3)/sqrt(2)
        assert format_cell(0, 7, (3, 1), 4) == "0.0000"

    @given(
        coeff=st.fractions(max_denominator=10**6).filter(lambda f: f != 0),
        radicand=st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
        places=st.integers(0, 60),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_full_width_routine(self, coeff, radicand, places):
        assume(non_square(radicand))
        terms = ((coeff, radicand),)
        expected = full_width_round(Fraction(0), terms, places)
        assert _round_scaled(Fraction(0), terms, places) == expected

    @pytest.mark.parametrize("places", [0, 1, 7, 30, 60])
    @pytest.mark.parametrize("coeff", [Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-22, 5)])
    @pytest.mark.parametrize("k", [0, 1, 4, 123456])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_values_next_to_a_half_unit(self, places, coeff, k, delta):
        # sqrt(d) = (k + 1/2) 10^-places (1 + delta / (2 T^2 10^(2g))) to first
        # order, with T = 2k+1: within 10^-(places+3) of the rounding boundary
        t, g = 2 * k + 1, places + 3
        d = Fraction(t * t * 10 ** (2 * g) + delta, 4 * 10 ** (2 * places + 2 * g))
        d /= coeff * coeff
        assert non_square(d)
        terms = ((coeff, d),)
        got = _round_scaled(Fraction(0), terms, places)
        assert got == full_width_round(Fraction(0), terms, places)
        magnitude = k + 1 if delta > 0 else k
        assert got == (magnitude if coeff > 0 else -magnitude)


class TestCost:
    """A printed cell costs a division and an isqrt of about 2*digits digits."""

    @pytest.fixture
    def spies(self, monkeypatch):
        operands = []

        def counting_isqrt(value):
            operands.append(value.bit_length())
            return isqrt(value)

        centrals = []
        original = moments._central_numerators

        def counting_central(grid, max_p1, max_p2):
            result = original(grid, max_p1, max_p2)
            centrals.append(len(result))
            return result

        monkeypatch.setattr(render, "isqrt", counting_isqrt)
        monkeypatch.setattr(moments, "isqrt", counting_isqrt)
        monkeypatch.setattr(moments, "_central_numerators", counting_central)
        return operands, centrals

    @pytest.mark.parametrize("report", [moment_report, normality_gap_report])
    def test_wide_isqrt_once_per_class(self, spies, report):
        operands, centrals = spies
        digits = 30
        spec = MomentSpec(S0123, 200, 1, 3, 4, 4)
        report(spec, digits=digits)
        small = 4 * digits * 10 // 3 + 64  # bits of 4 * 10^(2*digits) * alpha^2
        wide = [bits for bits in operands if bits > small]
        assert len(wide) <= 3  # one per radicand class (1,0), (0,1), (1,1)
        assert len([bits for bits in operands if bits > 2000]) <= 3
        assert len(operands) > len(wide)  # cells did render through small isqrts
        assert centrals == [25]  # every central numerator computed once

    def test_exact_forms_are_built_on_first_access(self):
        spec = MomentSpec(S0123, 40, 1, 3, 3, 3)
        cell = moment_report(spec, 10).scaled[(3, 1)]
        row = normality_gap_report(spec, digits=10).rows[-1]
        assert not {"square", "exact", "value"} & set(cell.__dict__)
        assert not {"reference", "gap"} & set(row.__dict__)
        assert cell.value.terms == ((Fraction(cell.sign), cell.square),)
        assert row.gap == row.alpha - row.reference
        assert {"square", "exact", "value"} <= set(cell.__dict__)
