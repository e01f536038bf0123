"""A child count of n or more occurs in no tree on n vertices.

So at small n every answer for S plus one huge child count equals the answer
without it, and it must cost no more: no table, polynomial or search may be
sized by max(S).  Before tables were sized by n, each call below allocated
or scanned about 10**12 entries.
"""

from random import Random

import pytest

import treemoments.engine as engine_module
from treemoments import (
    ChildSet,
    TreeSampler,
    child_count_distribution,
    count_range,
    count_trees,
    joint_gf_fixpoint,
    numerator_grid,
    numerator_sequence,
)
from treemoments.cli import main

HUGE = [10**12, 10**12 + 1]  # an even and an odd one: gcd(inner, last) is 2 or 1
SETS = [(0, 1, 2), (0, 2, 3), (0, 1, 2, 3)]


def plus(elements, extra):
    return ChildSet((*elements, extra))


@pytest.mark.parametrize("elements", SETS)
@pytest.mark.parametrize("huge", HUGE)
def test_counts_ignore_a_huge_child_count(elements, huge):
    small, big = ChildSet(elements), plus(elements, huge)
    assert [count_trees(big, n) for n in range(1, 16)] == [
        count_trees(small, n) for n in range(1, 16)
    ]
    assert list(count_range(big, 1, 25)) == list(count_range(small, 1, 25))
    assert list(count_range(big, 7, 12)) == list(count_range(small, 7, 12))


@pytest.mark.parametrize("elements", SETS)
@pytest.mark.parametrize("huge", HUGE)
def test_numerators_ignore_a_huge_child_count(elements, huge):
    small, big = ChildSet(elements), plus(elements, huge)
    for n in range(1, 11):
        for s1 in elements:
            for s2 in (None, *elements):
                p2 = 0 if s2 is None else 2
                assert numerator_grid(big, n, s1, s2, 2, p2) == numerator_grid(
                    small, n, s1, s2, 2, p2
                ), (n, s1, s2)
        # X_huge is 0 in every tree
        alone = numerator_grid(small, n, elements[-1], None, 2, 0)
        grid = numerator_grid(big, n, elements[-1], huge, 2, 2)
        assert grid == {(a, b): alone[(a, 0)] if b == 0 else 0 for a, b in grid}
    s1, s2 = elements[:2]
    assert (
        numerator_sequence(big, s1, s2, 2, 1, 12).values
        == numerator_sequence(small, s1, s2, 2, 1, 12).values
    )


# (elements, n): |S| = 4 takes the cycle lemma, |S| = 5 the halving word
DRAWS = [
    ((0, 1, 2), 3), ((0, 1, 2), 9), ((0, 1, 2), 20),
    ((0, 2, 3), 1), ((0, 2, 3), 9), ((0, 2, 3), 20),
    ((0, 1, 2, 3), 9), ((0, 1, 2, 3), 20),
    ((0, 1, 3, 4), 2), ((0, 1, 3, 4), 9), ((0, 1, 3, 4), 20),
]


@pytest.mark.parametrize("elements, n", DRAWS)
@pytest.mark.parametrize("huge", HUGE)
def test_sampler_draws_do_not_depend_on_a_huge_child_count(elements, n, huge):
    # the method depends on |S|, so the reference adds the smallest count
    # that no tree on n vertices uses: n itself
    reference, big = plus(elements, n), plus(elements, huge)
    draws = [TreeSampler(s, n) for s in (reference, big)]
    assert [draws[0].sample(Random(seed)) for seed in range(20)] == [
        draws[1].sample(Random(seed)) for seed in range(20)
    ]
    code = draws[0].sample(Random(0))
    assert draws[0].decision_probability(code) == draws[1].decision_probability(code)


@pytest.mark.parametrize("elements", SETS)
def test_fixpoint_ignores_a_huge_child_count(elements):
    big_set = plus(elements, HUGE[0])
    big = joint_gf_fixpoint(big_set, 7)
    small = joint_gf_fixpoint(ChildSet(elements), 7)
    assert list(big) == list(small)
    for n, dist in big.items():
        assert list(dist.items()) == [((*k, 0), c) for k, c in small[n].items()]
        assert dist == child_count_distribution(big_set, n)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "-S", "0,1,2,150", "-n", "1..200"],
        ["numerator", "-S", "0,1,2,150", "-n", "140..160", "--s1", "0", "--p", "2"],
    ],
)
def test_the_power_kernel_only_sees_counts_below_n(monkeypatch, capsys, argv):
    # a power of phi up to degree n - 1 takes the steps of within(n)
    calls, kernel = [], engine_module.poly_pow_coeffs

    def spy(steps, m, max_deg, min_deg=0):
        calls.append((list(steps), max_deg))
        return kernel(steps, m, max_deg, min_deg)

    monkeypatch.setattr(engine_module, "poly_pow_coeffs", spy)
    assert main(argv) == 0
    capsys.readouterr()
    for steps, max_deg in calls:
        assert max(steps, default=0) <= max_deg
        assert (150 in steps) == (max_deg >= 150), (steps, max_deg)
    assert any(150 in steps for steps, _ in calls)  # the range starts afresh at n = 151
