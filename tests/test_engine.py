from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treemoments import (
    ChildSet,
    NumeratorQuery,
    count_trees,
    numerator_grid,
    numerator_mixed,
    numerator_sequence,
)
from treemoments.polyint import _pow_binary, falling_factorial, stirling2

S012 = ChildSet((0, 1, 2))
S02 = ChildSet((0, 2))
FAMILY = [
    ChildSet(s) for s in [(0, 1, 2), (0, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3)]
]


class TestCountTrees:
    def test_shifted_motzkin_prefix(self):
        assert [count_trees(S012, n) for n in range(1, 11)] == [
            1, 1, 2, 4, 9, 21, 51, 127, 323, 835,
        ]

    def test_thirty_vertex_count(self):
        assert count_trees(S012, 30) == 593742784829

    def test_full_binary_counts_are_catalan_at_odd_sizes(self):
        # 2k+1 vertices -> k internal nodes -> Catalan(k)
        assert [count_trees(S02, n) for n in range(1, 10)] == [
            1, 0, 1, 0, 2, 0, 5, 0, 14,
        ]

    def test_single_leaf_class(self):
        only_leaf = ChildSet((0,))
        assert count_trees(only_leaf, 1) == 1
        assert count_trees(only_leaf, 2) == 0

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            count_trees(S012, 0)


class TestNumerators:
    def test_leaf_count_numerators_small(self):
        values = [
            numerator_mixed(NumeratorQuery(S012, n, 0, 1)) for n in (1, 2, 3)
        ]
        assert values == [1, 1, 3]

    def test_single_child_numerators_small(self):
        values = [
            numerator_mixed(NumeratorQuery(S012, n, 1, 1)) for n in (1, 2, 3)
        ]
        assert values == [0, 1, 2]

    def test_mixed_numerator_small(self):
        q = NumeratorQuery(S012, 3, 0, 1, 1, 1)
        assert numerator_mixed(q) == 2  # chain: 1*2, cherry: 2*0

    def test_reference_values_at_n30(self):
        assert numerator_mixed(NumeratorQuery(S012, 30, 0, 1)) == 6186675630819
        assert numerator_mixed(NumeratorQuery(S012, 30, 1, 1)) == 6032675068061
        assert (
            numerator_mixed(NumeratorQuery(S012, 30, 0, 2, 1, 3))
            == 68622906286794431
        )

    def test_power_zero_recovers_count(self):
        for child_set in FAMILY:
            for n in (1, 3, 7):
                q = NumeratorQuery(child_set, n, 0, 0)
                assert numerator_mixed(q) == count_trees(child_set, n)

    def test_empty_class_gives_zero(self):
        assert numerator_mixed(NumeratorQuery(S02, 4, 0, 1)) == 0

    def test_same_statistic_twice_merges_powers(self):
        # X_0^1 * X_0^1 is X_0^2
        assert numerator_mixed(NumeratorQuery(S012, 5, 0, 1, 0, 1)) == 43
        assert numerator_mixed(NumeratorQuery(S012, 5, 0, 2)) == 43
        merged = numerator_grid(S012, 9, 1, None, 5, 0)
        assert numerator_grid(S012, 9, 1, 1, 2, 3) == {
            (a, b): merged[(a + b, 0)] for a in range(3) for b in range(4)
        }
        table = numerator_sequence(S012, 0, 0, 1, 2, 8)
        assert table.sequence(1, 2) == numerator_sequence(S012, 0, None, 3, 0, 8).sequence(3)

    def test_second_power_needs_second_statistic(self):
        with pytest.raises(ValueError):
            NumeratorQuery(S012, 5, 0, 1, None, 2)

    @pytest.mark.parametrize(
        "s1, s2, max_p1, max_p2",
        [(7, None, 1, 0), (0, 3, 1, 1), (0, None, -1, 0)],
        ids=["s1-outside-S", "s2-outside-S", "negative-power"],
    )
    def test_grid_rejects_what_the_query_rejects(self, s1, s2, max_p1, max_p2):
        with pytest.raises(ValueError):
            NumeratorQuery(S012, 5, s1, max_p1, s2, max_p2)
        with pytest.raises(ValueError):
            numerator_grid(S012, 5, s1, s2, max_p1, max_p2)


class TestIdentities:
    def test_vertex_and_edge_sums(self):
        # every vertex has some child count; child counts total n-1 edges
        for child_set in FAMILY:
            for n in range(1, 26):
                fn = count_trees(child_set, n)
                firsts = {
                    s: numerator_mixed(NumeratorQuery(child_set, n, s, 1))
                    for s in child_set
                }
                assert sum(firsts.values()) == n * fn
                assert sum(s * v for s, v in firsts.items()) == (n - 1) * fn

    def test_grid_matches_individual_queries(self):
        grid = numerator_grid(S012, 9, 0, 1, 3, 2)
        for (p1, p2), value in grid.items():
            q = NumeratorQuery(S012, 9, 0, p1, 1, p2)
            assert numerator_mixed(q) == value

    def test_sequence_table_matches_queries(self):
        table = numerator_sequence(S012, 0, None, 2, 0, 12)
        assert table.sequence(2, 0) == [
            numerator_mixed(NumeratorQuery(S012, n, 0, 2)) for n in range(1, 13)
        ]
        assert table.value(5, 1) == numerator_mixed(NumeratorQuery(S012, 5, 0, 1))


def per_k_binary_grid(child_set, n, s1, s2, max_p1, max_p2):
    """The grid from one binary-exponentiation power phi^(n-k) per k."""
    phi = child_set.offspring_polynomial()
    t2 = 0 if s2 is None else s2
    powers = [
        _pow_binary(phi, n - k, n - 1)
        for k in range(min(max_p1 + max_p2, n) + 1)
    ]
    grid = {}
    for a in range(max_p1 + 1):
        for b in range(max_p2 + 1):
            total = 0
            for k1 in range(a + 1):
                for k2 in range(b + 1):
                    degree = n - 1 - k1 * s1 - k2 * t2
                    if k1 + k2 <= n and degree >= 0:
                        weight = stirling2(a, k1) * stirling2(b, k2)
                        total += weight * falling_factorial(n, k1 + k2) * powers[k1 + k2][degree]
            assert total % n == 0
            grid[(a, b)] = total // n
    return grid


class TestOnePowerPerGrid:
    @given(
        support=st.sets(st.integers(min_value=1, max_value=6), max_size=4),
        n=st.integers(min_value=1, max_value=70),
        data=st.data(),
    )
    # windows that start above degree 0, where each product by phi loses reach
    @example(support={1, 2}, n=60, data=None)
    @example(support={2, 5}, n=70, data=None)
    @settings(max_examples=80, deadline=None)
    def test_grid_matches_per_k_binary_powers(self, support, n, data):
        child_set = ChildSet({0} | support)
        if data is None:
            s1, s2, p1, p2 = 0, child_set.elements[1], 2, 2
        else:
            s1 = data.draw(st.sampled_from(child_set.elements))
            others = [s for s in child_set.elements if s != s1]
            s2 = data.draw(st.sampled_from([None, *others]))
            p1 = data.draw(st.integers(min_value=0, max_value=4))
            p2 = 0 if s2 is None else data.draw(st.integers(min_value=0, max_value=4))
        expected = per_k_binary_grid(child_set, n, s1, s2, p1, p2)
        assert numerator_grid(child_set, n, s1, s2, p1, p2) == expected
