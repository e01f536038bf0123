"""End-to-end checks, one test per guarantee the package makes.

Each test is self-contained and prints one pass/fail line under pytest -v.
Numeric comparisons are exact (integers and fractions); the only tolerances
are the ones stated inline, and timing bounds use wall-clock seconds.
"""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from random import Random

from treemoments import (
    ChildSet,
    MomentSpec,
    Recurrence,
    TreeSampler,
    central_moment,
    child_count_distribution,
    correlation,
    count_trees,
    extend_sequence,
    format_fraction,
    guess_recurrence,
    monte_carlo_moment,
    normal_mixed_moment_poly,
    numerator_mixed,
    oracle_numerator,
    raw_moment,
    scaled_moment,
    verify_recurrence,
)

S012 = ChildSet((0, 1, 2))
FAMILY = [
    ChildSet((0, 1, 2)),
    ChildSet((0, 2)),
    ChildSet((0, 1, 3)),
    ChildSet((0, 2, 3)),
    ChildSet((0, 1, 2, 3)),
]


def test_exact_values_at_n30_for_child_counts_012():
    t0 = time.perf_counter()
    n = 30
    count = count_trees(S012, n)
    assert count == 593742784829

    leaf = numerator_mixed(S012, n, 0, 1)
    single = numerator_mixed(S012, n, 1, 1)
    mixed = numerator_mixed(S012, n, 0, 2, 1, 3)
    assert leaf == 6186675630819
    assert single == 6032675068061
    assert mixed == 68622906286794431

    assert format_fraction(Fraction(leaf, count), 2) == "10.42"
    assert format_fraction(Fraction(single, count), 2) == "10.16"
    assert format_fraction(Fraction(mixed, count), 2) == "115576.83"
    assert time.perf_counter() - t0 < 5.0


def test_numerators_match_enumeration_oracle():
    t0 = time.perf_counter()
    for child_set in FAMILY:
        for n in range(1, 13):
            for s1, s2 in combinations(child_set.elements, 2):
                for pair in ((s1, s2), (s2, s1)):
                    for p1 in range(5):
                        for p2 in range(5 - p1):
                            expected = oracle_numerator(
                                child_set, n, pair[0], p1, pair[1], p2
                            )
                            actual = numerator_mixed(child_set, n, pair[0], p1, pair[1], p2)
                            assert actual == expected, (
                                child_set, n, pair, p1, p2,
                            )
    assert time.perf_counter() - t0 < 60.0


def test_vertex_and_edge_sum_identities_to_n100():
    for child_set in FAMILY:
        for n in range(1, 101):
            f_n = count_trees(child_set, n)
            totals = {
                s: numerator_mixed(child_set, n, s, 1)
                for s in child_set.elements
            }
            assert sum(totals.values()) == n * f_n, (child_set, n)
            assert sum(s * v for s, v in totals.items()) == (n - 1) * f_n, (
                child_set, n,
            )


def oracle_central(child_set, n, s1, p1, s2, p2):
    """Direct centered expectation over the enumerated joint distribution."""
    dist = child_count_distribution(child_set, n)
    total = sum(dist.values())
    i1 = child_set.index(s1)
    i2 = child_set.index(s2)
    mu1 = Fraction(sum(v[i1] * c for v, c in dist.items()), total)
    mu2 = Fraction(sum(v[i2] * c for v, c in dist.items()), total)
    acc = Fraction(0)
    for vector, copies in dist.items():
        acc += (vector[i1] - mu1) ** p1 * (vector[i2] - mu2) ** p2 * copies
    return acc / total


def test_central_moments_match_direct_expectation():
    for child_set in (ChildSet((0, 1, 2)), ChildSet((0, 1, 2, 3))):
        for n in range(2, 11):
            if count_trees(child_set, n) == 0:
                continue
            for p1 in range(6):
                for p2 in range(6 - p1):
                    expected = oracle_central(child_set, n, 0, p1, 1, p2)
                    spec = MomentSpec(child_set, n, 0, 1, max(p1, 1), max(p2, 1))
                    assert central_moment(spec, p1, p2) == expected, (
                        child_set, n, p1, p2,
                    )


def isserlis_poly(p1, p2):
    """Mixed normal moment via perfect matchings: rho per cross pair."""
    total = p1 + p2
    if total % 2:
        return ()
    coeffs = [0] * (total // 2 + 1)

    def match(points):
        if not points:
            return {0: 1}
        first, rest = points[0], points[1:]
        out = {}
        for i, partner in enumerate(rest):
            cross = (first < p1) != (partner < p1)
            remaining = rest[:i] + rest[i + 1 :]
            for power, ways in match(remaining).items():
                key = power + (1 if cross else 0)
                out[key] = out.get(key, 0) + ways
        return out

    for power, ways in match(tuple(range(total))).items():
        coeffs[power] += ways
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def test_normal_moment_polynomials_match_pairing_enumeration():
    for p1 in range(9):
        for p2 in range(9 - p1):
            assert (
                normal_mixed_moment_poly(p1, p2).coefficients == isserlis_poly(p1, p2)
            ), (p1, p2)
    assert normal_mixed_moment_poly(4, 0).coefficients == (3,)
    assert normal_mixed_moment_poly(6, 0).coefficients == (15,)
    assert normal_mixed_moment_poly(2, 2).coefficients == (1, 0, 2)
    assert normal_mixed_moment_poly(3, 1).coefficients == (0, 3)


def test_scaled_moments_approach_normal_reference():
    t0 = time.perf_counter()
    bound = Fraction(1, 10)

    def kurtosis_gap(n):
        alpha = scaled_moment(MomentSpec(S012, n, 0), 4)
        return abs(alpha.exact - 3)

    gaps = [kurtosis_gap(n) for n in (100, 400, 800)]
    assert gaps[0] > gaps[1] > gaps[2]
    if not gaps[2] < bound:
        assert kurtosis_gap(1600) < bound

    def mixed_gap(n):
        spec = MomentSpec(S012, n, 0, 1)
        alpha = scaled_moment(spec, 2, 2)
        rho_square = correlation(spec).square
        reference = normal_mixed_moment_poly(2, 2).coefficients
        ref_value = reference[0] + reference[2] * rho_square
        return abs(alpha.exact - ref_value)

    if not mixed_gap(800) < bound:
        assert mixed_gap(1600) < bound
    assert time.perf_counter() - t0 < 120.0


def test_count_recurrence_round_trip():
    counts = [count_trees(S012, n) for n in range(1, 41)]
    rec = guess_recurrence(counts, 4, 3)
    assert rec.order == 2
    assert rec.degree == 1
    # (n+1) f_n = (2n-1) f_{n-1} + 3(n-2) f_{n-2}
    assert rec.render_text() == "(n+1)*a(n) - (2*n-1)*a(n-1) - 3*(n-2)*a(n-2) = 0"

    ext = extend_sequence(rec, [1, 1], 100)
    assert ext.non_integral == []
    assert [int(t) for t in ext.terms[:40]] == counts
    assert ext.term(30) == 593742784829
    assert ext.term(100) == count_trees(S012, 100)

    # A widely circulated near-miss form of this relation must be rejected:
    # its first violated window is the one producing the term at n = 3.
    near_miss = Recurrence(((-6, -9, -3), (-28, -15, -2), (3, 4, 1)))
    result = verify_recurrence(near_miss, counts)
    assert not result.ok
    assert result.first_failure + near_miss.order == 3


def test_uniform_sampler_and_monte_carlo_accuracy():
    n, trials = 6, 100_000
    sampler = TreeSampler(S012, n)
    classes = 21
    assert count_trees(S012, n) == classes
    rng = Random(12345)
    freq = Counter(sampler.sample(rng) for _ in range(trials))
    assert len(freq) == classes
    expected = Fraction(trials, classes)
    sigma_sq = trials * Fraction(1, classes) * Fraction(classes - 1, classes)
    for tree, seen in freq.items():
        assert (seen - expected) ** 2 <= 16 * sigma_sq, tree

    target = Fraction(6186675630819, 593742784829)
    estimate = monte_carlo_moment(
        S012, 30, 0, 1, samples=1_000_000, rng_seed=20260815
    )
    assert estimate.within_std_errors(target, 5)


def test_desk_scale_performance():
    t0 = time.perf_counter()
    for p1 in range(6):
        for p2 in range(6 - p1):
            if p2 == 0:
                numerator_mixed(S012, 2000, 0, p1)
            else:
                numerator_mixed(S012, 2000, 0, p1, 1, p2)
    assert time.perf_counter() - t0 < 60.0

    t0 = time.perf_counter()
    assert count_trees(S012, 5000) > 0
    assert time.perf_counter() - t0 < 60.0


def _peak_rss_mb(argv):
    """Peak RSS in MB of one CLI child run on argv, and its exit code.

    perfbench/launch.py forks the CLI from a small process and reports that
    child's own ru_maxrss; a child forked from pytest would start at
    pytest's peak.
    """
    root = Path(__file__).resolve().parents[1]
    report_read, report_write = os.pipe()
    try:
        subprocess.run(
            (
                sys.executable, "-I", "-S", str(root / "perfbench" / "launch.py"),
                str(report_write), "60", sys.executable, "-m", "treemoments.cli", *argv,
            ),
            stdout=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            pass_fds=(report_write,),
            check=True,
        )
    finally:
        os.close(report_write)
    with os.fdopen(report_read) as fh:
        report = json.load(fh)
    return report["max_rss_kib"] / 1024, report["code"]


def test_recursive_sampler_memory_does_not_grow_with_draws():
    peak, code = _peak_rss_mb("sample -S 0,1,2,3,4 -n 1000 --count 20".split())
    assert code == 0
    assert peak < 40.0


def test_sampler_memory_grows_with_n_not_with_max_s():
    # a vertex of an n-vertex tree has at most n - 1 children; a forest
    # table with max(S) + 1 rows took 114.5 MB here
    peak, code = _peak_rss_mb("sample -S 0,1,2,3,1000000 -n 3".split())
    assert code == 0
    assert peak < 40.0


def test_halving_word_memory_grows_with_n_not_with_max_s():
    # a forest table with a row per child count below n, up to 500, took
    # 11.8 s and 34.2 MB here
    floor, code = _peak_rss_mb("count -S 0,1,2,3,500 -n 1".split())
    assert code == 0
    peak, code = _peak_rss_mb("sample -S 0,1,2,3,500 -n 600 --count 3".split())
    assert code == 0
    assert peak < floor + 2.0


def test_count_range_memory_grows_with_n_not_with_max_s():
    # a dense offspring polynomial up to max(S) and an ODE search over
    # orders up to max(S) took 56.8 MB here
    peak, code = _peak_rss_mb("count -S 0,1,10000 -n 1..20".split())
    assert code == 0
    assert peak < 40.0


def test_cycle_lemma_table_memory_is_quadratic_in_bits():
    # one full-size cumulative weight per row of the |S| = 4 table would be
    # O(n^3) bits, about 233 MB here
    peak, code = _peak_rss_mb("sample -S 0,1,2,3 -n 2000 --count 10".split())
    assert code == 0
    assert peak < 40.0


def test_count_holds_one_coefficient_window():
    # a power kernel that trims its window every 512 coefficients held
    # about 512 full-width coefficients here, 3.4 MB over `count -n 1`
    floor, code = _peak_rss_mb("count -S 0,1,2 -n 1".split())
    assert code == 0
    peak, code = _peak_rss_mb("count -S 0,1,2 -n 30000".split())
    assert code == 0
    assert peak < floor + 1.0


def test_count_blocks_hold_one_coefficient_window():
    # reach 3: each block's dense 3 x 3 transfer matrix and the state it
    # divides stay near the size of the answer
    floor, code = _peak_rss_mb("count -S 0,1,2,3 -n 1".split())
    assert code == 0
    peak, code = _peak_rss_mb("count -S 0,1,2,3 -n 30000".split())
    assert code == 0
    assert peak < floor + 1.0


def test_scaled_moment_costs_its_cells_not_the_grid():
    # a (p+1) x (p+1) table of binomial weights took 154 MB and 4.5 s here
    t0 = time.perf_counter()
    peak, code = _peak_rss_mb("scaled -S 0,1,2 -n 30 --s1 0 --p 400".split())
    assert code == 0
    assert peak < 40.0
    assert time.perf_counter() - t0 < 2.0


def test_scaled_moment_weights_live_for_one_grid():
    # a process-wide cache of S(p, k) for k <= n held 61 596 entries, and
    # the process peaked at 54.4 MB, here
    peak, code = _peak_rss_mb("scaled -S 0,1,2 -n 30 --s1 0 --p 2000".split())
    assert code == 0
    assert peak < 25.0


def test_code_blocks_stay_small_at_large_n():
    # 15.95 MB at per-code writes; blocks of 256 codes took 18.93 MB here,
    # where blocks of about 4096 counts hold two codes
    peak, code = _peak_rss_mb("sample -S 0,1,2 -n 2000 --count 100".split())
    assert code == 0
    assert peak < 17.0


def test_numerator_range_holds_one_power():
    # a range steps a window of phi^(n-2) of a few coefficients below
    # degree n; holding that power at degrees 0..n-1, O(hi^2) bits, took
    # 17.4 MB here (18.3 MB with no compiled modules cached)
    peak, code = _peak_rss_mb("numerator -S 0,1,2 -n 1..2000 --s1 0 --p 2".split())
    assert code == 0
    assert peak < 20.0


def test_a_short_numerator_range_at_large_n_holds_a_window():
    # phi^(n-2) at degrees 0..n-1 took 60.3 MB here
    peak, code = _peak_rss_mb("numerator -S 0,1,2 -n 9999..10000 --s1 0 --p 2".split())
    assert code == 0
    assert peak < 20.0


def test_a_count_range_with_a_large_child_count_steps_its_window():
    # a linear ODE searched over orders up to max(S), then abandoned for a
    # count per n, took 3.9 s and 22.8 MB here
    t0 = time.perf_counter()
    peak, code = _peak_rss_mb("count -S 0,1,2,150 -n 1..200".split())
    assert code == 0
    assert peak < 17.0
    assert time.perf_counter() - t0 < 1.0
