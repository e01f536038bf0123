from itertools import combinations
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treemoments.errors import NonUnitConstantTerm
from treemoments.polyint import (
    _pow_binary,
    exact_div,
    falling_factorial,
    poly_mul_trunc,
    poly_pow_coeffs,
    stirling2,
    stirling2_rows,
)


def naive_pow(phi, m, max_deg):
    out = [1]
    for _ in range(m):
        out = poly_mul_trunc(out, phi, max_deg)
    return out


def shifted_sum_pow(support, m, max_deg):
    """(1 + sum of z**s over support)**m up to max_deg: m products, each a sum of shifts.

    Dense powers near degree 1300 cost seconds through _pow_binary; this
    costs m*max_deg*len(support) additions.
    """
    out = [1] + [0] * max_deg
    for _ in range(m):
        product = list(out)
        for s in support:
            product[s:] = map(add, product[s:], out[: max_deg + 1 - s])
        out = product
    return out


class TestBasics:
    def test_exact_div(self):
        assert exact_div(12, 4) == 3
        assert exact_div(-12, 4) == -3
        with pytest.raises(ArithmeticError):
            exact_div(7, 2)

    def test_mul_trunc_drops_high_terms(self):
        assert poly_mul_trunc([1, 1], [1, 1], 1) == [1, 2]
        assert poly_mul_trunc([1, 1, 1], [1, 1, 1], 4) == [1, 2, 3, 2, 1]


class TestPowerCoefficients:
    def test_known_small_powers(self):
        assert poly_pow_coeffs([1, 1, 1], 2, 4) == [1, 2, 3, 2, 1]
        assert poly_pow_coeffs([1, 0, 1], 3, 6) == [1, 0, 3, 0, 3, 0, 1]
        assert poly_pow_coeffs([1, 1], 5, 3) == [1, 5, 10, 10]

    def test_power_zero_and_identity(self):
        assert poly_pow_coeffs([1, 1, 1], 0, 3) == [1, 0, 0, 0]
        assert poly_pow_coeffs([1, 0, 0, 1], 1, 3) == [1, 0, 0, 1]

    def test_strategies_agree_on_offspring_like_polynomials(self):
        for support in [(0, 1, 2), (0, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3)]:
            phi = [0] * (max(support) + 1)
            for s in support:
                phi[s] = 1
            for m in (1, 2, 7, 20):
                assert _pow_binary(phi, m, 25) == poly_pow_coeffs(phi, m, 25)

    @given(
        support=st.sets(st.integers(min_value=1, max_value=6), min_size=0, max_size=4),
        m=st.integers(min_value=0, max_value=12),
        max_deg=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_strategies_agree_property(self, support, m, max_deg):
        phi = [1] + [0] * max(support, default=0)
        for s in support:
            phi[s] = 1
        assert _pow_binary(phi, m, max_deg) == poly_pow_coeffs(phi, m, max_deg)

    @given(
        support=st.sets(st.integers(min_value=1, max_value=6), min_size=0, max_size=4),
        m=st.integers(min_value=0, max_value=12),
        max_deg=st.integers(min_value=0, max_value=1300),
        lo=st.integers(min_value=0, max_value=1300),
    )
    @settings(max_examples=60, deadline=None)
    def test_min_deg_returns_the_tail(self, support, m, max_deg, lo):
        phi = [1] + [0] * max(support, default=0)
        for s in support:
            phi[s] = 1
        lo = min(lo, max_deg)
        full = _pow_binary(phi, m, max_deg)
        assert poly_pow_coeffs(phi, m, max_deg, min_deg=lo) == full[lo:]
        assert poly_pow_coeffs(phi, m, max_deg) == full

    # numerator_grid asks for phi^(n-k_hi) up to degree n - 1: m >= max_deg
    # keeps every coefficient up to max_deg that phi's support allows nonzero
    @given(
        support=st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        max_deg=st.integers(min_value=0, max_value=1300),
        extra=st.integers(min_value=0, max_value=8),
        lo=st.integers(min_value=0, max_value=1300),
    )
    @example(support={1, 2}, max_deg=1300, extra=0, lo=0)  # min_deg = 0: nothing dropped
    @example(support={6}, max_deg=1300, extra=1, lo=3)  # min_deg < deg(phi)
    @example(support={2, 5}, max_deg=1299, extra=1, lo=4)
    @example(support={1, 2, 6}, max_deg=1300, extra=0, lo=1300)  # min_deg = max_deg
    @settings(max_examples=20, deadline=None)
    def test_engine_shaped_powers(self, support, max_deg, extra, lo):
        phi = [1] + [0] * max(support)
        for s in support:
            phi[s] = 1
        m, lo = max_deg + extra, min(lo, max_deg)
        full = shifted_sum_pow(support, m, max_deg)
        assert poly_pow_coeffs(phi, m, max_deg, min_deg=lo) == full[lo:]

    def test_min_deg_outside_the_range_is_rejected(self):
        with pytest.raises(ValueError):
            poly_pow_coeffs([1, 1], 2, 3, min_deg=-1)
        with pytest.raises(ValueError):
            poly_pow_coeffs([1, 1], 2, 3, min_deg=4)

    def test_recurrence_needs_unit_constant_term(self):
        with pytest.raises(NonUnitConstantTerm):
            poly_pow_coeffs([2, 1], 3, 5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            poly_pow_coeffs([1, 1], -1, 3)
        with pytest.raises(ValueError):
            poly_pow_coeffs([1, 1], 2, -1)


def brute_stirling2(p, k):
    """Count set partitions of {0..p-1} into exactly k nonempty blocks."""
    if p == 0:
        return 1 if k == 0 else 0
    count = 0

    def place(i, blocks):
        nonlocal count
        if i == p:
            count += len(blocks) == k
            return
        for b in blocks:
            b.append(i)
            place(i + 1, blocks)
            b.pop()
        blocks.append([i])
        place(i + 1, blocks)
        blocks.pop()

    place(0, [])
    return count


class TestCombinatorialHelpers:
    def test_stirling_matches_partition_enumeration(self):
        for p in range(8):
            for k in range(p + 2):
                assert stirling2(p, k) == brute_stirling2(p, k)

    def test_stirling_edges(self):
        assert stirling2(0, 0) == 1
        assert [stirling2(p, 0) for p in (1, 2, 9)] == [0, 0, 0]
        assert [stirling2(0, k) for k in (1, 2)] == [0, 0]
        assert [stirling2(p, p + d) for p in (1, 4, 9) for d in (1, 3)] == [0] * 6
        with pytest.raises(ValueError):
            stirling2(-1, 0)
        with pytest.raises(ValueError):
            stirling2(2, -1)

    def test_stirling_at_high_power_matches_closed_form(self):
        # S(p, 3) = (3^p - 3*2^p + 3)/6; p = 5000 is far past any recursion limit
        for p in (3, 10, 5000):
            assert stirling2(p, 3) == (3**p - 3 * 2**p + 3) // 6

    def test_stirling_rows_are_truncated_rows_of_the_table(self):
        for width in (0, 1, 3, 12):
            for p, row in zip(range(14), stirling2_rows(width)):
                assert row == [stirling2(p, k) for k in range(min(p, width) + 1)]

    def test_falling_factorial_values(self):
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(5, 2) == 20
        assert falling_factorial(5, 6) == 0
        assert falling_factorial(-2, 2) == 6

    def test_operator_expansion_identity(self):
        # x^p = sum_k S(p,k) * x(x-1)...(x-k+1), the identity behind
        # rewriting (u d/du)^p in terms of plain derivatives
        for x in range(9):
            for p in range(9):
                total = sum(
                    stirling2(p, k) * falling_factorial(x, k) for k in range(p + 1)
                )
                assert total == x**p
