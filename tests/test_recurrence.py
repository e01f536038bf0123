from fractions import Fraction

import pytest

import treemoments.recurrence as recurrence
from treemoments import (
    ChildSet,
    InsufficientData,
    LeadingCoefficientZero,
    Recurrence,
    count_trees,
    extend_sequence,
    guess_recurrence,
    numerator_sequence,
    verify_recurrence,
)

S012 = ChildSet((0, 1, 2))
S02 = ChildSet((0, 2))

COUNTS = [count_trees(S012, n) for n in range(1, 41)]
LEAF_NUMERATORS = numerator_sequence(S012, 0, None, 1, 0, 40).sequence(1)
UNARY_NUMERATORS = numerator_sequence(S012, 1, None, 1, 0, 40).sequence(1)

# Candidate relations used as fixtures below.  The first two are close to
# the true relations for COUNTS and LEAF_NUMERATORS but wrong; the third
# is a valid relation for UNARY_NUMERATORS.
WRONG_COUNT_CANDIDATE = Recurrence(((-6, -9, -3), (-28, -15, -2), (3, 4, 1)))
WRONG_LEAF_CANDIDATE = Recurrence(((0, -3), (-1, -2), (3, 1)))
UNARY_RELATION = Recurrence(((0, -3, -3), (-1, -3, -2), (0, 2, 1)))


class TestRecurrenceType:
    def test_order_and_degree(self):
        rec = Recurrence(((1, 2), (0, 0, 5), (7,)))
        assert rec.order == 2
        assert rec.degree == 2

    def test_trailing_zero_coefficients_are_trimmed(self):
        rec = Recurrence(((1, 0, 0), (2, 3, 0)))
        assert rec.coefficients == ((1,), (2, 3))
        assert rec.degree == 1

    def test_requires_order_at_least_one(self):
        with pytest.raises(ValueError):
            Recurrence(((1, 2),))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            Recurrence(((0,), (0, 0)))

    def test_rejects_vanishing_leading_polynomial(self):
        with pytest.raises(ValueError):
            Recurrence(((1, 2), (0,)))

    def test_residual(self):
        rec = Recurrence(((0, -3), (-3, -2), (3, 1)))
        # q_0(n) a_n + q_1(n) a_{n+1} + q_2(n) a_{n+2} at n = 1
        assert rec.residual(1, COUNTS[0:3]) == -3 * 1 - 5 * 1 + 4 * 2
        assert rec.residual(1, COUNTS[0:3]) == 0

    def test_normalized_removes_content_and_fixes_sign(self):
        rec = Recurrence(((0, 6), (-2, -4), (-6, -2)))
        canon = rec.normalized()
        assert canon.coefficients == ((0, -3), (1, 2), (3, 1))
        assert canon.normalized().coefficients == canon.coefficients

    def test_json_dict_round_trips_coefficients(self):
        rec = Recurrence(((0, -3), (-3, -2), (3, 1)), 1, 38)
        d = rec.to_json_dict()
        assert d["order"] == 2
        assert d["degree"] == 1
        assert d["coefficients"] == [[0, -3], [-3, -2], [3, 1]]
        assert d["verified_from"] == 1
        assert d["verified_to"] == 38
        assert d["text"] == rec.render_text()


class TestRendering:
    def test_linear_coefficients_with_content_factor(self):
        rec = Recurrence(((0, -3), (-3, -2), (3, 1)))
        assert rec.render_text() == "(n+1)*a(n) - (2*n-1)*a(n-1) - 3*(n-2)*a(n-2) = 0"

    def test_single_zero_shift(self):
        rec = Recurrence(((0, -3), (-1, -2), (1, 1)))
        assert rec.render_text() == "(n-1)*a(n) - (2*n-3)*a(n-1) - 3*(n-2)*a(n-2) = 0"

    def test_constant_coefficients(self):
        rec = Recurrence(((-1,), (-1,), (1,)))
        assert rec.render_text() == "a(n) - a(n-1) - a(n-2) = 0"

    def test_identically_zero_middle_term_is_omitted(self):
        rec = Recurrence(((0, -4), (0,), (3, 1)))
        assert rec.render_text() == "(n+1)*a(n) - 4*(n-2)*a(n-2) = 0"


class TestVerification:
    def test_valid_relation_for_single_child_counts(self):
        result = verify_recurrence(UNARY_RELATION, UNARY_NUMERATORS)
        assert result.ok
        assert result.first_failure is None
        assert bool(result)

    def test_near_miss_count_relation_fails_immediately(self):
        result = verify_recurrence(WRONG_COUNT_CANDIDATE, COUNTS)
        assert not result.ok
        # the first violated relation produces the term at n + order = 3
        assert result.first_failure == 1

    def test_near_miss_leaf_relation_fails_immediately(self):
        result = verify_recurrence(WRONG_LEAF_CANDIDATE, LEAF_NUMERATORS)
        assert not result.ok
        assert result.first_failure == 1

    def test_empty_window_is_vacuously_true(self):
        short = COUNTS[:2]  # exactly order terms, no relation to test
        assert verify_recurrence(WRONG_COUNT_CANDIDATE, short).ok

    def test_subrange_verification(self):
        result = verify_recurrence(UNARY_RELATION, UNARY_NUMERATORS, 5, 20)
        assert result.ok

    def test_range_outside_sequence_is_rejected(self):
        with pytest.raises(ValueError):
            verify_recurrence(UNARY_RELATION, UNARY_NUMERATORS, 0, 10)
        with pytest.raises(ValueError):
            verify_recurrence(UNARY_RELATION, UNARY_NUMERATORS, 1, 39)


class TestExtension:
    def test_extends_count_sequence_exactly(self):
        rec = guess_recurrence(COUNTS, 2, 1)
        ext = extend_sequence(rec, COUNTS[:2], 60)
        assert ext.non_integral == []
        assert [int(t) for t in ext.terms[:40]] == COUNTS
        assert ext.term(60) == count_trees(S012, 60)

    def test_start_offset(self):
        rec = guess_recurrence(COUNTS, 2, 1)
        ext = extend_sequence(rec, COUNTS[4:6], 40, start=5)
        assert ext.term(40) == COUNTS[39]

    def test_wrong_relation_goes_non_integral(self):
        ext = extend_sequence(WRONG_COUNT_CANDIDATE, COUNTS[:2], 6)
        assert ext.non_integral[0] == 3
        assert ext.term(3) == Fraction(63, 8)

    def test_needs_enough_initial_terms(self):
        with pytest.raises(ValueError):
            extend_sequence(UNARY_RELATION, [0], 10)

    def test_vanishing_leading_value_raises(self):
        rec = Recurrence(((1,), (-3, 1)))  # leading polynomial is n - 3
        with pytest.raises(LeadingCoefficientZero):
            extend_sequence(rec, [1], 5)


class TestGuessing:
    def test_count_sequence_round_trip(self):
        rec = guess_recurrence(COUNTS, 3, 2)
        assert rec.coefficients == ((0, -3), (-3, -2), (3, 1))
        assert rec.order == 2
        assert rec.degree == 1
        assert rec.render_text() == "(n+1)*a(n) - (2*n-1)*a(n-1) - 3*(n-2)*a(n-2) = 0"
        assert rec.verified_from == 1
        assert rec.verified_to == 38

    def test_leaf_numerator_round_trip(self):
        rec = guess_recurrence(LEAF_NUMERATORS, 3, 2)
        assert rec.render_text() == "(n-1)*a(n) - (2*n-3)*a(n-1) - 3*(n-2)*a(n-2) = 0"

    def test_single_child_numerator_round_trip(self):
        rec = guess_recurrence(UNARY_NUMERATORS, 3, 2)
        assert rec.coefficients == UNARY_RELATION.coefficients

    def test_interleaved_zero_counts(self):
        seq = [count_trees(S02, n) for n in range(1, 41)]
        rec = guess_recurrence(seq, 2, 1)
        assert rec.coefficients == ((0, -4), (0,), (3, 1))
        ext = extend_sequence(rec, seq[:2], 61)
        assert ext.term(61) == count_trees(S02, 61)

    def test_wider_bounds_return_the_same_minimal_relation(self):
        tight = guess_recurrence(COUNTS, 2, 1)
        wide = guess_recurrence(COUNTS, 4, 3)
        assert tight.coefficients == wide.coefficients

    def test_guess_is_deterministic(self):
        a = guess_recurrence(UNARY_NUMERATORS, 3, 2)
        b = guess_recurrence(UNARY_NUMERATORS, 3, 2)
        assert a.coefficients == b.coefficients

    def test_no_relation_within_bounds_returns_none(self):
        primes = [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
            53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
        ]
        assert guess_recurrence(primes, 2, 2) is None

    def test_corrupted_tail_is_caught_by_full_verification(self):
        seq = COUNTS[:30] + [COUNTS[30] + 1] + COUNTS[31:]
        assert guess_recurrence(seq, 2, 1) is None

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            guess_recurrence(COUNTS[:22], 3, 2)
        # 23 terms is exactly enough for order 3, degree 2, margin 8
        assert guess_recurrence(COUNTS[:23], 3, 2) is not None

    def test_zero_margin_is_allowed(self):
        rec = guess_recurrence(COUNTS[:15], 2, 1, margin=0)
        assert rec.coefficients == ((0, -3), (-3, -2), (3, 1))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            guess_recurrence(COUNTS, 0, 1)
        with pytest.raises(ValueError):
            guess_recurrence(COUNTS, 2, -1)
        with pytest.raises(ValueError):
            guess_recurrence(COUNTS, 2, 1, margin=-1)


def all_rows_guess(seq, max_order, max_degree, start=1, margin=8):
    """Reference search: Fraction Gauss-Jordan on every row of every system."""
    fit_len = len(seq) - margin
    for order in range(1, max_order + 1):
        for degree in range(max_degree + 1):
            width = degree + 1
            cols = (order + 1) * width
            rows = [
                [
                    Fraction(seq[i + j] * (start + i) ** e)
                    for j in range(order + 1)
                    for e in range(width)
                ]
                for i in range(fit_len - order)
            ]
            if len(rows) < cols:
                continue
            for vec in recurrence._nullspace(rows, cols):
                candidate = recurrence._candidate_from_vector(vec, order, degree)
                if candidate is not None and verify_recurrence(candidate, seq, start=start):
                    return Recurrence(
                        candidate.coefficients, start, start + len(seq) - 1 - order
                    )
    return None


SWEEP_SETS = [(0, 1), (0, 2), (0, 1, 2), (0, 2, 3), (0, 1, 3), (0, 1, 2, 3), (0, 3)]
SWEEP = [
    (support, s1, p, bounds)
    for support in SWEEP_SETS
    for s1 in support
    for p in (1, 2)
    for bounds in ((2, 2), (3, 3), (4, 2))
]


class TestModularPruning:
    @pytest.mark.parametrize(
        "support, s1, p, bounds",
        SWEEP,
        ids=[
            f"S{''.join(map(str, c[0]))}-s{c[1]}-p{c[2]}-{c[3][0]}x{c[3][1]}"
            for c in SWEEP
        ],
    )
    def test_matches_all_rows_search(self, support, s1, p, bounds):
        seq = numerator_sequence(ChildSet(support), s1, None, p, 0, 40).sequence(p)
        assert guess_recurrence(seq, *bounds) == all_rows_guess(seq, *bounds)

    def test_unlucky_modulus_falls_back_to_all_rows(self, monkeypatch):
        expected = guess_recurrence(COUNTS, 3, 2)
        solved = []
        nullspace = recurrence._nullspace

        def spy(rows, cols):
            solved.append(len(rows))
            return nullspace(rows, cols)

        monkeypatch.setattr(recurrence, "_MODULUS", 2)
        monkeypatch.setattr(recurrence, "_nullspace", spy)
        rec = guess_recurrence(COUNTS, 3, 2)
        assert rec == expected
        # order 1 systems have 40 - 8 - 1 rows; a fallback solves all of them
        assert len(COUNTS) - 8 - 1 in solved

    def test_failed_search_makes_no_exact_solve(self, monkeypatch):
        seq = numerator_sequence(ChildSet((0, 1, 5)), 0, 5, 2, 2, 90).sequence(2, 2)
        calls = []
        monkeypatch.setattr(
            recurrence, "_nullspace", lambda rows, cols: calls.append(rows) or []
        )
        assert guess_recurrence(seq, 5, 5) is None
        assert calls == []
