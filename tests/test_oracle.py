import ast
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import product, zip_longest
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from treemoments import (
    ChildSet,
    EnumerationTooLarge,
    NoTrees,
    TreeSampler,
    child_count_distribution,
    count_trees,
    enumerate_trees,
    is_valid_code,
    joint_gf_fixpoint,
    monte_carlo_moment,
    numerator_grid,
    oracle_numerator,
    sample_tree_uniform,
)
from treemoments.oracle import (
    _CycleLemma,
    _HalvingWord,
    _lukasiewicz_rotation,
    _outer_counts,
    _shuffle,
    format_code,
    parse_code,
)

S012 = ChildSet((0, 1, 2))
S02 = ChildSet((0, 2))


def reference_enumeration(child_set, n):
    """Every valid code on n vertices in lexicographic order, one position at a time."""
    elements = child_set.elements
    nonzero_gcd = math.gcd(*elements[1:]) if len(elements) > 1 else 0
    last = n - 1
    prefix, open_slots, tried = [0] * n, [1] * n, [0] * n
    pos = 0
    while pos >= 0:
        if pos == last:
            yield tuple(prefix)
            pos -= 1
            continue
        i = tried[pos]
        if i == len(elements):
            tried[pos] = 0
            pos -= 1
            continue
        tried[pos] = i + 1
        c = elements[i]
        new_open = open_slots[pos] + c - 1
        surplus = last - pos - new_open
        if new_open < 1 or surplus < 0:
            continue
        if surplus and (nonzero_gcd == 0 or surplus % nonzero_gcd):
            continue
        prefix[pos] = c
        pos += 1
        open_slots[pos] = new_open

FAMILY = [
    ChildSet(s) for s in [(0, 1, 2), (0, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2, 3)]
]
CYCLE_LEMMA_4 = [(0, 1, 2, 3), (0, 1, 2, 5), (0, 2, 3, 5), (0, 2, 4, 6)]


def multinomial(n, counts):
    return math.factorial(n) // math.prod(map(math.factorial, counts))


def per_row_table(child_set, n):
    """Every child-count vector with its cumulative weight, one per row, in
    the cycle lemma's row order: the table its checkpoints replaced, kept as
    the reference that _CycleLemma.pick must agree with."""
    *outer_coords, inner, last = child_set.elements[1:]  # |S| >= 3
    g = math.gcd(inner, last)
    step, drop = last // g, inner // g
    lose = step - drop
    vectors, cums = [], []
    acc = 0
    for outer, budget in _outer_counts(outer_coords, n - 1):
        x = next((x for x in range(step) if (budget - inner * x) % last == 0), None)
        if x is None or inner * x > budget:
            continue
        k_last = (budget - inner * x) // last
        k_zero = n - sum(outer) - x - k_last
        weight = multinomial(n, (k_zero, *outer, x, k_last))
        while True:
            acc += weight
            cums.append(acc)
            vectors.append((k_zero, *outer, x, k_last))
            if k_last < drop:
                break
            ratio_num = math.prod(range(k_last - drop + 1, k_last + 1)) * math.prod(
                range(k_zero - lose + 1, k_zero + 1)
            )
            weight = weight * ratio_num // math.prod(range(x + 1, x + step + 1))
            x += step
            k_last -= drop
            k_zero -= lose
    return vectors, cums


def plain_power_row(child_set, m, n):
    """[z^r] phi^m for r < n, phi multiplied in m times, truncated at degree n - 1."""
    row = [1] + [0] * (n - 1)
    for _ in range(m):
        row = [sum(row[r - s] for s in child_set if s <= r) for r in range(n)]
    return row


def halving_walk(rows, m, r):
    """Every word of m letters with sum r that _HalvingWord draws, with its
    exact probability: each split decision weighed by c(a, r1) * c(b, r - r1)
    over c(m, r)."""
    if m == 1:
        yield (r,), Fraction(1)
        return
    a = m // 2
    for r1 in range(r + 1):
        weight = Fraction(rows[a][r1] * rows[m - a][r - r1], rows[m][r])
        if weight:
            for left, p_left in halving_walk(rows, a, r1):
                for right, p_right in halving_walk(rows, m - a, r - r1):
                    yield left + right, weight * p_left * p_right


class Redrawn(Exception):
    pass


class Replay:
    """An rng whose getrandbits answers from a list, then with 0, records
    the width of every call, and raises Redrawn at call number calls + 1."""

    def __init__(self, answers, calls):
        self.answers, self.calls, self.widths = answers, calls, []

    def getrandbits(self, width):
        i = len(self.widths)
        if i == self.calls:
            raise Redrawn
        self.widths.append(width)
        return self.answers[i] if i < len(self.answers) else 0


def every_halving_draw(sampler, n):
    """Map every answer sequence that _HalvingWord.sample accepts, one per
    halving, to the code it draws.

    The answers are walked in order, like an odometer.  A draw is redrawn
    when its answer is at or past its bound, which shows as an n-th call;
    every larger answer is past the bound too, so the walk carries to the
    answer before it.
    """
    answers, draws = [], {}
    while True:
        rng = Replay(answers, n - 1)
        try:
            code = sampler.sample(rng)
            answers += [0] * (n - 1 - len(answers))
            draws[tuple(answers)] = code
        except Redrawn:
            answers.pop()
        while answers and answers[-1] + 1 == 1 << rng.widths[len(answers) - 1]:
            answers.pop()
        if not answers:
            return draws
        answers[-1] += 1


class TestValidity:
    def test_accepts_valid_codes(self):
        assert is_valid_code(S012, (0,))
        assert is_valid_code(S012, (1, 1, 0))
        assert is_valid_code(S012, (2, 0, 0))

    def test_rejects_invalid_codes(self):
        assert not is_valid_code(S012, ())
        assert not is_valid_code(S012, (0, 0))  # closes early
        assert not is_valid_code(S012, (2, 0))  # never closes
        assert not is_valid_code(S012, (3, 0, 0, 0))  # 3 not in S
        assert not is_valid_code(S02, (1, 0))

    def test_code_serialization_round_trip(self):
        code = (2, 1, 0, 0)
        assert format_code(code) == "2 1 0 0"
        assert parse_code("2 1 0 0") == code
        assert format_code(iter([2, 10, 0])) == "2 10 0"  # any iterable, read once

    @given(
        st.one_of(
            st.lists(st.integers(min_value=-20, max_value=2_000_000)),
            st.lists(st.integers(min_value=0, max_value=12)).map(tuple),
        )
    )
    @example(())
    @example((0,))
    @example((10,))
    @example([3, 1_000_000, 0])
    @example((2, -1, 0))
    def test_format_code_matches_str_join_past_one_digit(self, code):
        assert format_code(code) == " ".join(map(str, code))
        if all(c >= 0 for c in code):
            assert parse_code(format_code(code)) == tuple(code)


class TestEnumeration:
    def test_hand_enumerable_cases(self):
        assert list(enumerate_trees(S012, 1)) == [(0,)]
        assert list(enumerate_trees(S012, 3)) == [(1, 1, 0), (2, 0, 0)]
        assert len(list(enumerate_trees(S02, 5))) == 2

    def test_lexicographic_order(self):
        codes = list(enumerate_trees(S012, 6))
        assert codes == sorted(codes)
        assert len(codes) == 21

    def test_matches_filtering_all_sequences(self):
        # independent generation: filter every sequence over S of length n
        for child_set, n_max in [(S012, 7), (S02, 8), (ChildSet((0, 1, 3)), 6)]:
            for n in range(1, n_max + 1):
                brute = [
                    code
                    for code in product(child_set.elements, repeat=n)
                    if is_valid_code(child_set, code)
                ]
                assert list(enumerate_trees(child_set, n)) == brute

    def test_count_agrees_with_engine(self):
        for child_set in FAMILY:
            for n in range(1, 10):
                assert len(list(enumerate_trees(child_set, n))) == count_trees(
                    child_set, n
                )

    def test_cap_is_enforced_and_configurable(self):
        with pytest.raises(EnumerationTooLarge):
            list(enumerate_trees(S012, 19))
        # explicit cap lifts the limit; pull one code without materializing
        assert next(enumerate_trees(S012, 19, cap=19)) == (1,) * 18 + (0,)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            list(enumerate_trees(S012, 0))

    @pytest.mark.parametrize(
        "elements", [(0,), (0, 1), (0, 2), (0, 3), (0, 1, 2), (0, 1, 12), (0, 1, 2, 3, 4, 5)]
    )
    def test_order_and_codes_match_the_reference(self, elements):
        # the codes stream past each other: {0..5} has 665 471 codes at n = 14
        child_set = ChildSet(elements)
        for n in range(1, 15):
            pairs = zip_longest(enumerate_trees(child_set, n), reference_enumeration(child_set, n))
            assert all(new == old for new, old in pairs), n

    def test_deep_codes_need_no_recursion(self):
        # S={0,1} has one tree, a path: one position per vertex on the walk
        assert list(enumerate_trees(ChildSet((0, 1)), 2000, cap=2000)) == [(1,) * 1999 + (0,)]
        assert next(enumerate_trees(S012, 2000, cap=2000)) == (1,) * 1999 + (0,)


class TestOracleNumerator:
    def test_hand_counted_values(self):
        assert oracle_numerator(S012, 3, 0, 1) == 3
        assert oracle_numerator(S012, 3, 0, 1, 1, 1) == 2
        assert oracle_numerator(S012, 3, 0, 0) == 2

    def test_distribution_marginals(self):
        dist = child_count_distribution(S012, 6)
        assert sum(dist.values()) == 21
        for counts in dist:
            assert sum(counts) == 6
            assert sum(s * c for s, c in zip(S012.elements, counts)) == 5


@pytest.mark.parametrize("estimate", [oracle_numerator, monte_carlo_moment])
@pytest.mark.parametrize(
    "args, message",
    [
        ((0, -1), "powers must be nonnegative"),
        ((0, 1, 1, -1), "powers must be nonnegative"),
        ((7, 1), r"s1=7 not in child set \{0,1,2\}"),
        ((0, 1, 7, 1), r"s2=7 not in child set \{0,1,2\}"),
        ((0, 1, None, 2), "p2 must be 0 when s2 is absent"),
    ],
    ids=["negative-p1", "negative-p2", "s1-outside", "s2-outside", "p2-without-s2"],
)
def test_oracles_reject_bad_statistics(estimate, args, message):
    with pytest.raises(ValueError, match=message):
        estimate(S012, 5, *args)


def test_oracles_merge_powers_of_one_statistic():
    assert oracle_numerator(S012, 6, 1, 1, 1, 2) == oracle_numerator(S012, 6, 1, 3)
    pair = monte_carlo_moment(S012, 6, 1, 1, 1, 2, samples=50, rng_seed=4)
    merged = monte_carlo_moment(S012, 6, 1, 3, samples=50, rng_seed=4)
    assert (pair.mean, pair.variance) == (merged.mean, merged.variance)


@pytest.mark.parametrize("child_set", FAMILY, ids=str)
def test_engine_merges_a_repeated_statistic_as_the_oracle_does(child_set):
    for n in range(1, 11):
        for s in child_set:
            grid = numerator_grid(child_set, n, s, s, 3, 3)
            for (a, b), value in grid.items():
                assert value == oracle_numerator(child_set, n, s, a, s, b), (n, s, a, b)


class TestFixpoint:
    def test_small_coefficients(self):
        series = joint_gf_fixpoint(S012, 3)
        assert series[1] == {(1, 0, 0): 1}
        # chain y0*y1^2 and cherry y0^2*y2
        assert series[3] == {(1, 2, 0): 1, (2, 0, 1): 1}

    def test_exponent_constraints_and_specialization(self):
        for child_set in FAMILY[:3]:
            series = joint_gf_fixpoint(child_set, 8)
            assert list(series) == list(range(1, 9))
            for n, dist in series.items():
                assert list(dist) == sorted(dist)
                for counts, trees in dist.items():
                    assert sum(counts) == n
                    assert sum(s * k for s, k in zip(child_set.elements, counts)) == n - 1
                    assert trees > 0
                assert sum(dist.values()) == count_trees(child_set, n)

    def test_matches_enumeration_distribution(self):
        for child_set in FAMILY:
            series = joint_gf_fixpoint(child_set, 9)
            for n in range(1, 10):
                assert series[n] == child_count_distribution(child_set, n), (child_set, n)

    def test_orders_with_no_power_above_f(self):
        # min(max S, n_max - 1) = 0: f still needs its row of degrees
        assert joint_gf_fixpoint(ChildSet((0,)), 4) == {1: {(1,): 1}, 2: {}, 3: {}, 4: {}}
        for child_set in FAMILY:
            assert joint_gf_fixpoint(child_set, 1) == {1: child_count_distribution(child_set, 1)}
        with pytest.raises(ValueError):
            joint_gf_fixpoint(S012, 0)

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge):
            joint_gf_fixpoint(S012, 19)


class TestSampler:
    def test_single_tree_classes(self):
        assert sample_tree_uniform(S012, 1, rng_seed=0) == (0,)
        assert sample_tree_uniform(S012, 2, rng_seed=9) == (1, 0)

    def test_support_and_validity(self):
        sampler = TreeSampler(S012, 9)
        rng = Random(4)
        for _ in range(200):
            assert is_valid_code(S012, sampler.sample(rng))

    def test_deterministic_given_seed(self):
        a = [sample_tree_uniform(S012, 12, rng_seed=77) for _ in range(3)]
        assert a[0] == a[1] == a[2]
        sampler = TreeSampler(S012, 15)
        first = [sampler.sample(Random(5)) for _ in range(10)]
        second = [sampler.sample(Random(5)) for _ in range(10)]
        assert first == second

    def test_no_trees_raises(self):
        with pytest.raises(NoTrees):
            TreeSampler(S02, 4)

    # If a CPython release changes how shuffle or randrange take words from
    # getrandbits, these two tests fail where the digest pins only differ.
    def test_inline_shuffle_takes_the_words_random_shuffle_takes(self):
        lengths = sorted({0, 1, 2, 3} | {2**k + d for k in range(1, 11) for d in (-1, 0, 1)})
        assert lengths[-1] == 1025
        for seed in range(200):
            for length in lengths:
                mine, theirs = Random(seed), Random(seed)
                xs, ys = list(range(length)), list(range(length))
                _shuffle(mine, xs)
                theirs.shuffle(ys)
                assert xs == ys, (seed, length)
                assert mine.getstate() == theirs.getstate(), (seed, length)

    @pytest.mark.parametrize(
        "elements", [(0, 1, 2), (0, 2), (0, 1, 2, 3), (0, 1, 5), (0, 2, 3, 5)]
    )
    def test_shuffle_returns_the_cut_of_the_valid_rotation(self, elements):
        lengths = sorted({*range(1, 80)} | {2**k + d for k in range(1, 12) for d in (-1, 1)})
        assert lengths[-1] == 2049
        child_set = ChildSet(elements)
        for length in lengths:
            try:
                sampler = _CycleLemma(child_set, length)
            except NoTrees:
                continue  # no multiset of these counts sums to length - 1
            pick = Random(length)
            for seed in range(4):
                counts = sampler.pick(pick.randrange(sampler.total))
                seq = [c for c, k in zip(elements, counts) for _ in range(k)]
                assert len(seq) == length and sum(seq) == length - 1
                mine, theirs = Random(seed), Random(seed)
                xs, ys = list(seq), list(seq)
                cut = _shuffle(mine, xs)
                theirs.shuffle(ys)
                assert xs == ys, (elements, length, seed)
                assert mine.getstate() == theirs.getstate(), (elements, length, seed)
                code = (*xs[cut:], *xs[:cut])
                assert code == _lukasiewicz_rotation(ys), (elements, length, seed)
                assert is_valid_code(child_set, code)

    def test_inline_pick_draw_takes_the_words_randrange_takes(self):
        sampler = _CycleLemma(S012, 700)
        total = sampler.total
        assert 3**690 < total < 3**700  # about 3^696
        pick = sampler.pick
        picked = []

        def recording(r):  # records each draw and the rng state right after it
            picked.append((r, rng.getstate()))
            return pick(r)

        sampler.pick = recording
        redrawn = 0
        for seed in range(200):
            rng = Random(seed)
            code = sampler.sample(rng)
            theirs = Random(seed)
            assert picked[-1] == (theirs.randrange(total), theirs.getstate()), seed
            seq = [c for c, k in zip(S012.elements, pick(picked[-1][0])) for _ in range(k)]
            theirs.shuffle(seq)
            assert rng.getstate() == theirs.getstate(), seed
            assert code == _lukasiewicz_rotation(seq), seed
            redrawn += Random(seed).getrandbits(total.bit_length()) >= total
        assert redrawn  # some seeds take the redraw loop

    def test_decision_probabilities_are_exactly_uniform(self):
        # the sampler's chance of emitting any given tree is exactly 1/f_n;
        # |S| <= 4 runs the cycle lemma, |S| = 5 the halving word
        for child_set, n_max in [
            (S012, 8),
            (S02, 7),
            (ChildSet((0, 1, 3)), 7),
            (ChildSet((0, 2, 3)), 7),
            (ChildSet((0, 1, 2, 3)), 6),
            (ChildSet((0, 2, 3, 5)), 8),
            (ChildSet((0, 1, 2, 3, 4)), 6),
            (ChildSet((0, 2, 3, 5, 7)), 8),
        ]:
            for n in range(1, n_max + 1):
                fn = count_trees(child_set, n)
                if fn == 0:
                    continue
                sampler = TreeSampler(child_set, n)
                trees = list(enumerate_trees(child_set, n))
                # each tree is n of the weighted words
                assert sampler._method.total == n * len(trees), (child_set, n)
                total = Fraction(0)
                for code in trees:
                    prob = sampler.decision_probability(code)
                    assert prob == Fraction(1, fn), (child_set, n, code)
                    total += prob
                assert total == 1

    def test_recursive_method_gives_a_deep_path_exactly_one_over_f_n(self):
        child_set = ChildSet((0, 1, 2, 3, 4))  # |S| = 5: the halving word
        n = 1100
        sampler = TreeSampler(child_set, n)
        fn = count_trees(child_set, n)
        assert sampler._method.total == n * fn
        path = (1,) * (n - 1) + (0,)
        assert sampler.decision_probability(path) == Fraction(1, fn)
        rng = Random(4)
        for _ in range(3):
            assert sampler.decision_probability(sampler.sample(rng)) == Fraction(1, fn)

    @pytest.mark.parametrize(
        "elements, n",
        [
            ((0, 1, 2, 3, 5), 7),
            ((0, 2, 3, 4, 9), 8),
            ((0, 1, 4, 5, 6, 7), 8),
            ((0, 1, 2, 3, 4), 6),
            ((0, 2, 4, 6, 8), 9),  # odd first-half sums weigh 0
        ],
    )
    def test_halving_word_draws_every_word_with_probability_one_over_total(
        self, elements, n
    ):
        sampler = _HalvingWord(ChildSet(elements), n)
        words = dict(halving_walk(sampler.rows, n, n - 1))
        assert len(words) == sampler.total
        for word, prob in words.items():
            assert prob == Fraction(1, sampler.total), word
            assert len(word) == n and sum(word) == n - 1, word
            assert set(word) <= set(elements), word

    @pytest.mark.parametrize(
        "elements, n", [((0, 1, 2, 3, 4), 5), ((0, 2, 3, 5, 7), 6), ((0, 2, 4, 6, 8), 7)]
    )
    def test_halving_word_draw_loop_is_exactly_uniform(self, elements, n):
        # every answer the draw loop accepts, each weighed by one over the
        # number of answers accepted after the same prefix
        child_set = ChildSet(elements)
        sampler = _HalvingWord(child_set, n)
        draws = every_halving_draw(sampler, n)
        nodes = {seq[:i] for seq in draws for i in range(1, len(seq) + 1)}
        choices = Counter(node[:-1] for node in nodes)
        assert choices[()] == sampler.total
        probs = Counter()
        for seq, code in draws.items():
            probs[code] += 1 / math.prod(Fraction(choices[seq[:i]]) for i in range(len(seq)))
        fn = count_trees(child_set, n)
        assert sorted(probs) == list(enumerate_trees(child_set, n))
        assert set(probs.values()) == {Fraction(1, fn)}

    @pytest.mark.parametrize(
        "elements, n",
        [
            ((0, 1, 2, 3, 4), 1), ((0, 1, 2, 3, 4), 2), ((0, 1, 2, 3, 4), 37),
            ((0, 2, 3, 5, 7), 60), ((0, 2, 4, 6, 8), 61), ((0, 1, 2, 3, 4, 5), 200),
            ((0, 1, 2, 3, 150), 160),  # an element below n
        ],
    )
    def test_halving_word_rows_are_powers_of_phi(self, elements, n):
        child_set = ChildSet(elements)
        sampler = _HalvingWord(child_set, n)
        for m, row in sampler.rows.items():
            assert row == plain_power_row(child_set, m, n), (elements, n, m)
        # a count of n or more is never used, so it changes no row
        wider = _HalvingWord(ChildSet((*elements, n, n + 40)), n)
        assert wider.rows == sampler.rows and wider.total == sampler.total

    def test_count_vectors_match_enumeration(self):
        extra = [ChildSet((0,)), ChildSet((0, 3)), ChildSet((0, 1, 5)), ChildSet((0, 1, 2, 3, 4))]
        for child_set in FAMILY + extra:
            for n in range(1, 10):
                dist = child_count_distribution(child_set, n, cap=n)
                if not dist:
                    with pytest.raises(NoTrees):
                        _CycleLemma(child_set, n)
                    continue
                sampler = _CycleLemma(child_set, n)
                # every row in table order: pick at each row's first draw
                vectors = []
                r = 0
                while r < sampler.total:
                    vectors.append(sampler.pick(r))
                    r += multinomial(n, vectors[-1])
                assert r == sampler.total
                assert sorted(vectors) == sorted(dist), (child_set, n)
                assert len(set(vectors)) == len(vectors)

    @pytest.mark.parametrize("elements", [(0, 1, 2), (0, 2, 3), (0, 1, 5), *CYCLE_LEMMA_4])
    def test_picks_match_per_row_reference(self, elements):
        child_set = ChildSet(elements)
        rng = Random(sum(elements))
        for n in (*range(1, 16), 29, 44, 59, 60, 301):
            vectors, cums = per_row_table(child_set, n)
            if not cums:
                with pytest.raises(NoTrees):
                    _CycleLemma(child_set, n)
                continue
            sampler = _CycleLemma(child_set, n)
            assert sampler.total == cums[-1], (child_set, n)
            for vector, weight in zip(sampler.vectors, sampler.weights):
                assert weight == multinomial(n, vector), (child_set, n, vector)
            if sampler.total <= 5000:
                draws = range(sampler.total)
            else:
                boundaries = {c + d for c in [0, *cums[:-1]] for d in (-1, 0, 1)}
                boundaries |= {c + d for c in sampler.starts for d in (-1, 0, 1)}
                randoms = {rng.randrange(sampler.total) for _ in range(2000)}
                draws = sorted(r for r in boundaries | randoms if 0 <= r < sampler.total)
            for r in draws:
                assert sampler.pick(r) == vectors[bisect_right(cums, r)], (child_set, n, r)

    def test_cycle_lemma_table_holds_o_n_weights(self):
        n = 2000
        sampler = _CycleLemma(ChildSet((0, 1, 2, 3)), n)
        assert len(sampler.starts) == len(sampler.vectors) == len(sampler.weights)
        assert len(sampler.weights) <= 2 * n + 2
        # one run of at most n rows keeps every row: S={0,1,2} has n/2 rows
        assert len(_CycleLemma(S012, n).weights) == n // 2

    def test_rejects_codes_it_never_draws(self):
        for child_set in (S012, ChildSet((0, 1, 2, 3)), ChildSet((0, 1, 2, 3, 4))):
            sampler = TreeSampler(child_set, 4)
            assert sampler.decision_probability((1, 1, 0, 1)) == 0  # rotation
            assert sampler.decision_probability((2, 0, 0)) == 0  # too short
            assert sampler.decision_probability((1, 1, 1, 0, 0)) == 0  # too long
            assert sampler.decision_probability((5, 0, 0, 0)) == 0  # not in S

    def test_empirical_uniformity_smoke(self):
        sampler = TreeSampler(S012, 6)
        rng = Random(99)
        counts = Counter(sampler.sample(rng) for _ in range(5000))
        assert set(counts) == set(enumerate_trees(S012, 6))


class TestMonteCarlo:
    def test_constant_statistic_is_exact(self):
        est = monte_carlo_moment(S012, 1, 0, 1, samples=50, rng_seed=3)
        assert est.mean == 1
        assert est.variance == 0

    def test_deterministic_given_seed(self):
        a = monte_carlo_moment(S012, 10, 0, 1, samples=500, rng_seed=11)
        b = monte_carlo_moment(S012, 10, 0, 1, samples=500, rng_seed=11)
        assert (a.mean, a.variance) == (b.mean, b.variance)

    def test_mean_and_variance_accumulators_are_exact(self):
        est = monte_carlo_moment(S012, 5, 0, 2, samples=7, rng_seed=2)
        sampler = TreeSampler(S012, 5)
        rng = Random(2)
        values = [sampler.sample(rng).count(0) ** 2 for _ in range(7)]
        mean = Fraction(sum(values), 7)
        var = sum((Fraction(v) - mean) ** 2 for v in values) / 6
        assert est.mean == mean
        assert est.variance == var

    def test_pair_estimate_close_to_exact(self):
        est = monte_carlo_moment(S012, 12, 0, 1, 1, 1, samples=20000, rng_seed=8)
        from treemoments import MomentSpec, raw_moment

        exact = raw_moment(MomentSpec(S012, 12, 0, 1), 1, 1)
        assert est.within_std_errors(exact, 5)

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            monte_carlo_moment(S012, 3, 0, 1, samples=0)


def test_oracle_imports_only_childset_errors_and_values_from_the_package():
    # the oracles stay independent of the engine: none of polyint, engine,
    # moments or recurrence may reach them
    source = Path(__file__).resolve().parents[1] / "src" / "treemoments" / "oracle.py"
    nodes = list(ast.walk(ast.parse(source.read_text())))
    relative = {node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {node.module for node in nodes if isinstance(node, ast.ImportFrom) and not node.level}
    absolute |= {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    assert relative == {"childset", "errors", "values"}
    assert not {name for name in absolute if name.split(".")[0] == "treemoments"}
