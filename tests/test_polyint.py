from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treemoments.errors import NonUnitConstantTerm
from treemoments.polyint import (
    exact_div,
    falling_factorial,
    poly_mul_trunc,
    poly_pow_coeffs,
    stirling2,
)


def naive_pow(phi, m, max_deg):
    out = [1]
    for _ in range(m):
        out = poly_mul_trunc(out, phi, max_deg)
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
                a = poly_pow_coeffs(phi, m, 25, strategy="binary")
                b = poly_pow_coeffs(phi, m, 25, strategy="recurrence")
                assert a == b

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
        assert poly_pow_coeffs(phi, m, max_deg, "binary") == poly_pow_coeffs(
            phi, m, max_deg, "recurrence"
        )

    @given(
        support=st.sets(st.integers(min_value=1, max_value=6), min_size=0, max_size=4),
        m=st.integers(min_value=0, max_value=12),
        max_deg=st.integers(min_value=0, max_value=1300),
        lo=st.integers(min_value=0, max_value=1300),
    )
    # a window past the recurrence's first trim block
    @example(support={1, 2, 6}, m=3, max_deg=1300, lo=1290)
    @settings(max_examples=60, deadline=None)
    def test_min_deg_returns_the_tail(self, support, m, max_deg, lo):
        phi = [1] + [0] * max(support, default=0)
        for s in support:
            phi[s] = 1
        lo = min(lo, max_deg)
        for strategy in ("recurrence", "binary"):
            full = poly_pow_coeffs(phi, m, max_deg, strategy=strategy)
            tail = poly_pow_coeffs(phi, m, max_deg, strategy=strategy, min_deg=lo)
            assert tail == full[lo:]

    def test_min_deg_outside_the_range_is_rejected(self):
        with pytest.raises(ValueError):
            poly_pow_coeffs([1, 1], 2, 3, min_deg=-1)
        with pytest.raises(ValueError):
            poly_pow_coeffs([1, 1], 2, 3, min_deg=4)

    def test_recurrence_needs_unit_constant_term(self):
        with pytest.raises(NonUnitConstantTerm):
            poly_pow_coeffs([2, 1], 3, 5, strategy="recurrence")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            poly_pow_coeffs([1, 1], -1, 3)
        with pytest.raises(ValueError):
            poly_pow_coeffs([1, 1], 2, -1)
        with pytest.raises(ValueError):
            poly_pow_coeffs([1, 1], 2, 3, strategy="magic")


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
