from fractions import Fraction

import pytest

from treemoments import (
    ChildSet,
    DegenerateVariance,
    MomentSpec,
    NoTrees,
    central_moment,
    child_count_distribution,
    correlation,
    count_trees,
    moment_report,
    raw_moment,
    scaled_moment,
)

S012 = ChildSet((0, 1, 2))
S0123 = ChildSet((0, 1, 2, 3))
FAMILY = [
    ChildSet(s) for s in [(0, 1, 2), (0, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3)]
]


def oracle_central(child_set, n, s1, s2, p1, p2):
    """Direct centered expectation over the enumerated distribution."""
    dist = child_count_distribution(child_set, n)
    fn = sum(dist.values())
    i1 = child_set.index(s1)
    i2 = child_set.index(s2) if s2 is not None else None
    mu1 = Fraction(sum(m * c[i1] for c, m in dist.items()), fn)
    mu2 = (
        Fraction(sum(m * c[i2] for c, m in dist.items()), fn)
        if i2 is not None
        else Fraction(0)
    )
    total = Fraction(0)
    for counts, mult in dist.items():
        term = (counts[i1] - mu1) ** p1
        if i2 is not None:
            term *= (counts[i2] - mu2) ** p2
        total += mult * term
    return total / fn


class TestSpecValidation:
    def test_statistics_must_be_members(self):
        with pytest.raises(ValueError):
            MomentSpec(S012, 5, 7)
        with pytest.raises(ValueError):
            MomentSpec(S012, 5, 0, 7)
        assert MomentSpec(S012, 5, 1, 1).s2 == 1  # a repeated statistic is a pair

    def test_pair_defaults(self):
        assert MomentSpec(S012, 5, 0).max_p2 == 0
        assert MomentSpec(S012, 5, 0, 1).max_p2 == 2


class TestRawMoments:
    def test_reference_values_at_n30(self):
        spec = MomentSpec(S012, 30, 0, 1)
        assert raw_moment(spec, 1, 0) == Fraction(6186675630819, 593742784829)
        assert raw_moment(spec, 0, 1) == Fraction(6032675068061, 593742784829)
        assert raw_moment(spec, 2, 3) == Fraction(68622906286794431, 593742784829)

    def test_small_leaf_expectation(self):
        assert raw_moment(MomentSpec(S012, 3, 0), 1) == Fraction(3, 2)

    def test_zeroth_moment_is_one(self):
        for child_set in FAMILY:
            assert raw_moment(MomentSpec(child_set, 7, 0), 0) == 1

    def test_no_trees(self):
        with pytest.raises(NoTrees):
            raw_moment(MomentSpec(ChildSet((0, 2)), 4, 0), 1)

    def test_first_moments_sum_to_n(self):
        for child_set in FAMILY:
            for n in (1, 4, 9, 16):
                if count_trees(child_set, n) == 0:
                    continue
                total = sum(
                    raw_moment(MomentSpec(child_set, n, s), 1) for s in child_set
                )
                assert total == n


class TestCentralMoments:
    def test_first_central_moment_vanishes(self):
        for child_set in FAMILY:
            spec = MomentSpec(child_set, 9, 0, child_set.elements[1])
            assert central_moment(spec, 1, 0) == 0
            assert central_moment(spec, 0, 1) == 0

    def test_hand_computed_pair_values(self):
        spec = MomentSpec(S012, 3, 0, 1)
        assert central_moment(spec, 2, 0) == Fraction(1, 4)
        assert central_moment(spec, 1, 1) == Fraction(-1, 2)

    def test_variance_matches_raw_difference(self):
        for child_set in FAMILY:
            for n in (5, 8, 13):
                if count_trees(child_set, n) == 0:
                    continue
                spec = MomentSpec(child_set, n, 0)
                assert central_moment(spec, 2) == raw_moment(spec, 2) - raw_moment(
                    spec, 1
                ) ** 2

    def test_binomial_formula_equals_direct_expectation(self):
        for child_set in (S012, S0123):
            s1, s2 = 0, 1
            for n in range(2, 9):
                spec = MomentSpec(child_set, n, s1, s2)
                for p1 in range(4):
                    for p2 in range(4 - p1):
                        assert central_moment(spec, p1, p2) == oracle_central(
                            child_set, n, s1, s2, p1, p2
                        )


class TestScaledMoments:
    def test_normalized_second_moment_is_one(self):
        for child_set in FAMILY:
            spec = MomentSpec(child_set, 12, 0)
            if count_trees(child_set, 12) == 0:
                continue
            assert scaled_moment(spec, 2).exact == 1

    def test_perfectly_anticorrelated_pair(self):
        rho = correlation(MomentSpec(S012, 3, 0, 1))
        assert rho.exact == -1
        assert rho.square == 1

    def test_correlation_squared_within_cauchy_schwarz(self):
        for child_set in FAMILY:
            for n in (6, 9, 12):
                if count_trees(child_set, n) == 0:
                    continue
                s1, s2 = child_set.elements[0], child_set.elements[1]
                spec = MomentSpec(child_set, n, s1, s2)
                if central_moment(spec, 2, 0) == 0 or central_moment(spec, 0, 2) == 0:
                    continue
                rho = correlation(spec)
                assert rho.square <= 1

    def test_odd_power_value_keeps_exact_square_and_sign(self):
        sm = scaled_moment(MomentSpec(S012, 10, 0), 3, digits=8)
        assert sm.exact is None  # irrational skewness
        assert sm.square > 0
        assert sm.sign in (-1, 1)
        assert sm.value.render(8) == sm.text

    @pytest.mark.parametrize("child_set, n, s", [(S012, 30, 0), (S012, 17, 1), (S0123, 14, 3)])
    def test_repeated_statistic_is_the_one_statistic_moment(self, child_set, n, s):
        pair = moment_report(MomentSpec(child_set, n, s, s, 3, 3), digits=12)
        single = moment_report(MomentSpec(child_set, n, s, None, 6), digits=12)
        for (a, b), cell in pair.scaled.items():
            assert cell.text == single.scaled[(a + b, 0)].text, (a, b)
            assert pair.raw[(a, b)] == single.raw[(a + b, 0)]
            assert pair.central[(a, b)] == single.central[(a + b, 0)]
        assert pair.correlation_rho.exact == 1
        assert correlation(MomentSpec(child_set, n, s, s)).exact == 1

    def test_repeated_statistic_pins_alpha_4_at_n30(self):
        spec = MomentSpec(S012, 30, 0, 0)
        assert scaled_moment(spec, 2, 2, digits=6).text == "2.950574"
        assert scaled_moment(MomentSpec(S012, 30, 0), 4, digits=6).text == "2.950574"

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance, match=r"X_0 .*n=2"):
            scaled_moment(MomentSpec(S012, 2, 0, 1), 2, 2)

    def test_correlation_needs_pair(self):
        with pytest.raises(ValueError):
            correlation(MomentSpec(S012, 5, 0))


class TestMomentReport:
    def test_degenerate_report_still_has_raw_and_central(self):
        report = moment_report(MomentSpec(S012, 2, 0, 1), digits=4)
        assert report.degenerate
        assert report.raw[(1, 0)] == 1
        assert report.central[(2, 0)] == 0
        assert (2, 0) not in report.scaled  # unavailable, not fabricated
        assert report.correlation_rho is None

    def test_full_report_grid(self):
        spec = MomentSpec(S012, 30, 0, 1, max_p1=2, max_p2=3)
        report = moment_report(spec, digits=2)
        assert set(report.raw) == {(a, b) for a in range(3) for b in range(4)}
        assert report.raw[(2, 3)] == Fraction(68622906286794431, 593742784829)
        assert report.central[(1, 0)] == 0
        assert report.scaled[(2, 0)].exact == 1
        assert report.correlation_rho is not None
        assert not report.degenerate

    def test_report_no_trees(self):
        with pytest.raises(NoTrees):
            moment_report(MomentSpec(ChildSet((0, 2)), 4, 0))
