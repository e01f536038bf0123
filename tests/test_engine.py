import io
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treemoments.engine as engine_module
from treemoments import (
    ChildSet,
    count_range,
    count_trees,
    numerator_grid,
    numerator_grids,
    numerator_mixed,
    numerator_sequence,
)
from treemoments.cli import RowWriter, main
from treemoments.engine import check_query
from treemoments.polyint import _pow_binary, falling_factorial, poly_pow_coeffs, stirling2

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
        assert [numerator_mixed(S012, n, 0, 1) for n in (1, 2, 3)] == [1, 1, 3]

    def test_single_child_numerators_small(self):
        assert [numerator_mixed(S012, n, 1, 1) for n in (1, 2, 3)] == [0, 1, 2]

    def test_mixed_numerator_small(self):
        assert numerator_mixed(S012, 3, 0, 1, 1, 1) == 2  # chain: 1*2, cherry: 2*0

    def test_reference_values_at_n30(self):
        assert numerator_mixed(S012, 30, 0, 1) == 6186675630819
        assert numerator_mixed(S012, 30, 1, 1) == 6032675068061
        assert numerator_mixed(S012, 30, 0, 2, 1, 3) == 68622906286794431

    def test_power_zero_recovers_count(self):
        for child_set in FAMILY:
            for n in (1, 3, 7):
                assert numerator_mixed(child_set, n, 0, 0) == count_trees(child_set, n)

    def test_empty_class_gives_zero(self):
        assert numerator_mixed(S02, 4, 0, 1) == 0

    def test_same_statistic_twice_merges_powers(self):
        # X_0^1 * X_0^1 is X_0^2
        assert numerator_mixed(S012, 5, 0, 1, 0, 1) == 43
        assert numerator_mixed(S012, 5, 0, 2) == 43
        merged = numerator_grid(S012, 9, 1, None, 5, 0)
        assert numerator_grid(S012, 9, 1, 1, 2, 3) == {
            (a, b): merged[(a + b, 0)] for a in range(3) for b in range(4)
        }
        table = numerator_sequence(S012, 0, 0, 1, 2, 8)
        assert table.sequence(1, 2) == numerator_sequence(S012, 0, None, 3, 0, 8).sequence(3)

    def test_second_power_needs_second_statistic(self):
        with pytest.raises(ValueError):
            numerator_mixed(S012, 5, 0, 1, None, 2)

    @pytest.mark.parametrize(
        "n, s1, s2, max_p1, max_p2",
        [
            (5, 7, None, 1, 0),
            (5, 0, 3, 1, 1),
            (5, 0, None, -1, 0),
            (0, 0, None, 1, 0),
            (5, 0, None, 1, 2),
            (5, 0, 1, 1, -1),
        ],
        ids=[
            "s1-outside-S",
            "s2-outside-S",
            "negative-power",
            "n-below-one",
            "second-power-without-s2",
            "negative-second-power",
        ],
    )
    def test_grid_rejects_what_the_query_rejects(self, n, s1, s2, max_p1, max_p2):
        with pytest.raises(ValueError):
            check_query(S012, n, s1, max_p1, s2, max_p2)
        with pytest.raises(ValueError):
            numerator_mixed(S012, n, s1, max_p1, s2, max_p2)
        with pytest.raises(ValueError):
            numerator_grid(S012, n, s1, s2, max_p1, max_p2)


class TestIdentities:
    def test_vertex_and_edge_sums(self):
        # every vertex has some child count; child counts total n-1 edges
        for child_set in FAMILY:
            for n in range(1, 26):
                fn = count_trees(child_set, n)
                firsts = {s: numerator_mixed(child_set, n, s, 1) for s in child_set}
                assert sum(firsts.values()) == n * fn
                assert sum(s * v for s, v in firsts.items()) == (n - 1) * fn

    def test_grid_matches_individual_queries(self):
        grid = numerator_grid(S012, 9, 0, 1, 3, 2)
        for (p1, p2), value in grid.items():
            assert numerator_mixed(S012, 9, 0, p1, 1, p2) == value

    def test_sequence_table_matches_queries(self):
        table = numerator_sequence(S012, 0, None, 2, 0, 12)
        assert table.sequence(2, 0) == [numerator_mixed(S012, n, 0, 2) for n in range(1, 13)]
        assert table.value(5, 1) == numerator_mixed(S012, 5, 0, 1)


def dense_phi(child_set):
    """sum(z**s for s in S), dense by degree: _pow_binary's input."""
    return [int(d in child_set.elements) for d in range(child_set.max_count + 1)]


def per_k_binary_grid(child_set, n, s1, s2, max_p1, max_p2):
    """The grid from one binary-exponentiation power phi^(n-k) per k."""
    phi = dense_phi(child_set)
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


class TestGridsAcrossARange:
    @given(
        support=st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
        late=st.none() | st.integers(min_value=40, max_value=70),
        bounds=st.tuples(
            st.integers(min_value=1, max_value=150), st.integers(min_value=1, max_value=150)
        ),
        # s1 and s2 as positions in S (s2 absent below 0), then p1 and p2
        picks=st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=-1, max_value=5),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
        ),
    )
    # deg(phi) = 1: the window loses nothing at the bottom
    @example(support={1}, late=None, bounds=(1, 150), picks=(0, 1, 2, 3))
    # an element that enters mid-range, and refills of 59 degrees after it
    @example(support={1, 2}, late=60, bounds=(1, 150), picks=(3, 1, 2, 2))
    # a repeated statistic
    @example(support={1, 2}, late=None, bounds=(5, 120), picks=(2, 2, 3, 2))
    # from n = 1 with an element of lo or more, statistics up to it
    @example(support={1}, late=12, bounds=(1, 40), picks=(2, 1, 3, 2))
    @settings(max_examples=80, deadline=None)
    def test_range_matches_per_n_grids(self, support, late, bounds, picks):
        child_set = ChildSet({0} | support | ({late} if late else set()))
        lo, hi = sorted(bounds)
        elements = child_set.elements
        s1, s2 = elements[picks[0] % len(elements)], None
        if picks[1] >= 0:
            s2 = elements[picks[1] % len(elements)]
        p1, p2 = picks[2], 0 if s2 is None else picks[3]
        per_n = [numerator_grid(child_set, n, s1, s2, p1, p2) for n in range(lo, hi + 1)]
        assert list(numerator_grids(child_set, lo, hi, s1, s2, p1, p2)) == per_n


RANGE_SETS = [
    ChildSet(s)
    for s in [(0, 2), (0, 3), (0, 1, 2), (0, 1, 3), (0, 1, 2, 3), (0, 1, 5), (0, 1, 2, 3, 4)]
    + [(0,), (0, 1), (0, 2, 3, 5, 7), (0, 1, 2, 3, 4, 5), (0, 1, 12), (0, 1, 2, 60)]
]


class TestCountRange:
    @pytest.mark.parametrize("child_set", RANGE_SETS, ids=str)
    def test_ranges_equal_count_trees(self, child_set):
        full = [count_trees(child_set, n) for n in range(1, 201)]
        lo_past = 2 * child_set.max_count + 3  # every window starts above degree 0
        for lo, hi in [(1, 200), (2, 120), (17, 40), (119, 120), (lo_past, lo_past + 30)]:
            assert list(count_range(child_set, lo, hi)) == full[lo - 1 : hi], (lo, hi)

    @pytest.mark.parametrize("child_set", [S012, ChildSet((0, 2, 3, 5, 7)), ChildSet((0, 1, 12))], ids=str)
    def test_range_values_solve_the_functional_equation(self, child_set):
        # T = x * phi(T), coefficient by coefficient: f_n = [x^(n-1)] sum_s T^s
        top = 80
        f = [0] + list(count_range(child_set, 1, top))
        power, phi_of_t = [1] + [0] * top, [0] * (top + 1)
        for s in range(child_set.max_count + 1):
            if s in child_set:
                phi_of_t = [a + b for a, b in zip(phi_of_t, power)]
            power = [sum(power[i] * f[d - i] for i in range(d + 1)) for d in range(top + 1)]
        assert f[1:] == phi_of_t[:top]

    @pytest.mark.parametrize("k, shift", [(0, 0), (2, 1), (3, 4)])
    def test_a_range_window_is_the_top_of_the_power(self, k, shift):
        child_set = ChildSet((0, 1, 2, 9))
        reach = child_set.max_count
        for n, (phi_set, power, low) in enumerate(engine_module._powers(child_set, 3, 60, k, shift), 3):
            k_hi = min(k, n)
            full = _pow_binary(dense_phi(phi_set), n - k_hi, n - 1)
            assert power == full[low:], n
            # the window is sized by S and the grid's reads, not by n
            assert len(power) <= 1 + max(shift + k_hi * reach, 2 * reach - 1), n

    def test_bad_ranges_are_rejected_at_the_call(self):
        for lo, hi in [(0, 5), (5, 4)]:
            with pytest.raises(ValueError):
                count_range(S012, lo, hi)

    def test_an_inexact_step_raises(self, monkeypatch):
        # the lowest coefficient of the first window, one too large, reaches
        # higher degrees through the products and the steps below them
        windows = []

        def perturbed(*args, **kwargs):
            window = poly_pow_coeffs(*args, **kwargs)
            if not windows:
                window[0] += 1
            windows.append(window)
            return window

        monkeypatch.setattr(engine_module, "poly_pow_coeffs", perturbed)
        with pytest.raises(ArithmeticError, match="inexact division"):
            list(count_range(S012, 10, 60))
        assert len(windows) == 1  # stepped, not started afresh, until a division failed

    def test_a_short_range_of_a_sparse_set_prints_the_per_n_bytes(self, capsys):
        sparse = ChildSet((0, 2, 3, 5, 7))
        assert main(["count", "-S", "0,2,3,5,7", "-n", "1..60"]) == 0
        expected = io.StringIO()
        writer = RowWriter("text", ["n", "count"], expected, buffered=False)
        for n in range(1, 61):
            writer.write({"n": n, "count": count_trees(sparse, n)})
        assert capsys.readouterr().out == expected.getvalue()


@pytest.fixture(scope="module")
def counts_to_2001():
    return [count_trees(S012, n) for n in range(1, 2002)]


@pytest.mark.parametrize("lo, hi", [(1, 2000), (2, 2001)])
def test_benchmark_count_jobs_print_the_per_n_bytes(capsys, monkeypatch, counts_to_2001, lo, hi):
    starts = []

    def spy(steps, m, max_deg, min_deg=0):
        starts.append(max_deg + 1)
        return poly_pow_coeffs(steps, m, max_deg, min_deg)

    monkeypatch.setattr(engine_module, "poly_pow_coeffs", spy)
    values = counts_to_2001[lo - 1 : hi]
    csv = "n,count\n" + "".join(f"{n},{v}\n" for n, v in zip(range(lo, hi + 1), values))
    json_lines = "".join(
        json.dumps({"n": n, "count": v}) + "\n" for n, v in zip(range(lo, hi + 1), values)
    )
    for fmt, expected in [("csv", csv), ("json", json_lines)]:
        assert main(["count", "-S", "0,1,2", "-n", f"{lo}..{hi}", "--format", fmt]) == 0
        assert capsys.readouterr().out == expected
    # windows start at lo and where 1 and 2 become possible child counts
    assert starts == 2 * sorted({lo, 2, 3})
