from itertools import combinations
from operator import add
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treemoments import polyint
from treemoments.polyint import (
    _pow_binary,
    exact_div,
    falling_factorial,
    poly_mul_trunc,
    poly_pow_coeffs,
    stirling2,
    stirling2_rows,
)


def dense(steps):
    """phi = 1 + sum(z**k for k in steps), dense by degree: the reference's input."""
    phi = [1] + [0] * max(steps, default=0)
    for k in steps:
        phi[k] = 1
    return phi


def reference_recurrence(steps, m, max_deg, min_deg):
    """c_min_deg..c_max_deg of phi**m, one exact division per coefficient.

    The power kernel's per-step loop as it ran before whole blocks of steps
    below min_deg shared one division: the reference for the blocked path.
    """
    if not steps:
        return ([1] + [0] * max_deg)[min_deg:]
    reach = steps[-1]
    coeffs = [0] * reach + [1]
    for j in range(1, max_deg + 1):
        coeffs.append(exact_div(sum(((m + 1) * k - j) * coeffs[-k] for k in steps), j))
        if j <= min_deg:
            del coeffs[0]
    return coeffs[reach:]


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
        assert poly_pow_coeffs([1, 2], 2, 4) == [1, 2, 3, 2, 1]
        assert poly_pow_coeffs([2], 3, 6) == [1, 0, 3, 0, 3, 0, 1]
        assert poly_pow_coeffs([1], 5, 3) == [1, 5, 10, 10]

    def test_power_zero_and_identity(self):
        assert poly_pow_coeffs([1, 2], 0, 3) == [1, 0, 0, 0]
        assert poly_pow_coeffs([3], 1, 3) == [1, 0, 0, 1]
        assert poly_pow_coeffs([], 4, 3, min_deg=1) == [0, 0, 0]  # phi = 1, S = {0}

    def test_strategies_agree_on_offspring_like_polynomials(self):
        for steps in [[1, 2], [2], [1, 3], [2, 3], [1, 2, 3]]:
            for m in (1, 2, 7, 20):
                assert _pow_binary(dense(steps), m, 25) == poly_pow_coeffs(steps, m, 25)

    @given(
        support=st.sets(st.integers(min_value=1, max_value=6), min_size=0, max_size=4),
        m=st.integers(min_value=0, max_value=12),
        max_deg=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_strategies_agree_property(self, support, m, max_deg):
        steps = sorted(support)
        assert _pow_binary(dense(steps), m, max_deg) == poly_pow_coeffs(steps, m, max_deg)

    @given(
        support=st.sets(st.integers(min_value=1, max_value=6), min_size=0, max_size=4),
        m=st.integers(min_value=0, max_value=12),
        max_deg=st.integers(min_value=0, max_value=1300),
        lo=st.integers(min_value=0, max_value=1300),
    )
    @settings(max_examples=60, deadline=None)
    def test_min_deg_returns_the_tail(self, support, m, max_deg, lo):
        steps, lo = sorted(support), min(lo, max_deg)
        full = _pow_binary(dense(steps), m, max_deg)
        assert poly_pow_coeffs(steps, m, max_deg, min_deg=lo) == full[lo:]
        assert poly_pow_coeffs(steps, m, max_deg) == full

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
        m, lo = max_deg + extra, min(lo, max_deg)
        full = shifted_sum_pow(support, m, max_deg)
        assert poly_pow_coeffs(sorted(support), m, max_deg, min_deg=lo) == full[lo:]

    # leaves of 1..4 steps, 1..4 to a block, reach the blocked path at small
    # degrees, every reach 1..6 included, leaping from the first block or once
    # the coefficients reach a few bits; min_deg sits on a block boundary or
    # one step either side of it
    @given(
        support=st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        m=st.integers(min_value=0, max_value=60),
        leaf=st.integers(min_value=1, max_value=4),
        leaves=st.integers(min_value=1, max_value=4),
        blocks=st.integers(min_value=1, max_value=8),
        offset=st.sampled_from((-1, 0, 1)),
        extra=st.integers(min_value=0, max_value=10),
        leap_bits=st.sampled_from((0, 40, 400)),
    )
    @example(support={1, 5}, m=40, leaf=2, leaves=2, blocks=8, offset=0, extra=3, leap_bits=0)
    @example(support={3}, m=2, leaf=1, leaves=3, blocks=6, offset=1, extra=0, leap_bits=0)  # m < reach
    @example(support={1, 6}, m=60, leaf=4, leaves=2, blocks=7, offset=-1, extra=10, leap_bits=40)
    @settings(max_examples=150, deadline=None)
    def test_blocked_steps_match_the_per_step_loop(self, support, m, leaf, leaves, blocks, offset, extra, leap_bits):
        steps = sorted(support)
        block = leaf * leaves
        min_deg = blocks * block + offset
        max_deg = min_deg + extra
        leaps = dict.fromkeys(range(1, 7), leap_bits)
        with mock.patch.multiple(polyint, _BLOCK=block, _LEAF=leaf, _LEAP_BITS=leaps):
            got = poly_pow_coeffs(steps, m, max_deg, min_deg)
        assert got == _pow_binary(dense(steps), m, max_deg)[min_deg:]
        assert got == reference_recurrence(steps, m, max_deg, min_deg)

    @pytest.mark.parametrize("steps", [[1], [1, 2], [2], [1, 3], [3]])
    @pytest.mark.parametrize("min_deg", [1023, 1024, 1025, 2049])
    def test_blocks_at_full_size(self, steps, min_deg):
        m = 1500
        with mock.patch.object(polyint, "_LEAP_BITS", dict.fromkeys(range(1, 4), 0)):
            got = poly_pow_coeffs(steps, m, min_deg + 5, min_deg)
        assert got == reference_recurrence(steps, m, min_deg + 5, min_deg)

    @pytest.mark.parametrize(
        "steps, min_deg", [([1, 2], 1023), ([1, 2, 3, 4], 1500), ([1, 5], 2100), ([2, 3], 2100)]
    )
    def test_per_step_loop_below_a_block_beyond_the_reach_or_on_small_coefficients(self, steps, min_deg):
        # min_deg below one block, deg(phi) past 3, or coefficients too short
        # to pay for a leap ({0,2,3} at degree 2100 of phi^900: 1.2 k bits)
        with mock.patch.object(polyint, "_leap", side_effect=AssertionError("leapt")):
            got = poly_pow_coeffs(steps, 900, min_deg + 2, min_deg)
        assert got == reference_recurrence(steps, 900, min_deg + 2, min_deg)

    def test_min_deg_outside_the_range_is_rejected(self):
        with pytest.raises(ValueError):
            poly_pow_coeffs([1], 2, 3, min_deg=-1)
        with pytest.raises(ValueError):
            poly_pow_coeffs([1], 2, 3, min_deg=4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            poly_pow_coeffs([1], -1, 3)
        with pytest.raises(ValueError):
            poly_pow_coeffs([1], 2, -1)


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
