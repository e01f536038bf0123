from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def fraction_nullspace(rows, cols):
    """Reference nullspace: Gauss-Jordan over Fraction, a vector per free column."""
    matrix = [[Fraction(c) for c in row] for row in rows]
    pivot_cols = []
    rank = 0
    for col in range(cols):
        pivot_row = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [c * inv for c in matrix[rank]]
        for i in range(len(matrix)):
            if i != rank and matrix[i][col]:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[rank])]
        pivot_cols.append(col)
        rank += 1
    basis = []
    for free in (c for c in range(cols) if c not in pivot_cols):
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -matrix[i][free]
        basis.append(vec)
    return basis


def all_rows_guess(seq, max_order, max_degree, start=1, margin=8):
    """Reference search: Fraction Gauss-Jordan on every row of every system."""
    fit_len = len(seq) - margin
    for order in range(1, max_order + 1):
        for degree in range(max_degree + 1):
            width = degree + 1
            cols = (order + 1) * width
            rows = [
                [
                    seq[i + j] * (start + i) ** e
                    for j in range(order + 1)
                    for e in range(width)
                ]
                for i in range(fit_len - order)
            ]
            if len(rows) < cols:
                continue
            for vec in fraction_nullspace(rows, cols):
                scale = lcm(*(v.denominator for v in vec))
                ints = [int(v * scale) for v in vec]
                candidate = recurrence._candidate_from_vector(ints, order, degree)
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


@st.composite
def planted_systems(draw):
    """(rows, cols): integer rows spanned by a few random rows, shuffled."""
    cols = draw(st.integers(min_value=1, max_value=7))
    entries = st.integers(min_value=-9, max_value=9)
    vectors = st.lists(entries, min_size=cols, max_size=cols)
    spanning = draw(st.lists(vectors, max_size=cols))
    size = len(spanning)
    weights = st.lists(st.integers(-3, 3), min_size=size, max_size=size)
    rows = [
        [sum(w * row[c] for w, row in zip(ws, spanning)) for c in range(cols)]
        for ws in draw(st.lists(weights, max_size=10))
    ]
    return draw(st.permutations(rows + spanning)), cols


class TestModularPruning:
    """exact_nullspace and guess_recurrence against the Fraction reference.

    The class keeps the name it had when the search ranked rows modulo a
    prime, so that its test ids stay stable.
    """

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

    @given(planted_systems())
    @settings(max_examples=300, deadline=None)
    def test_nullspace_matches_fraction_reference(self, system):
        rows, cols = system
        got = recurrence.exact_nullspace(rows, cols)
        want = fraction_nullspace(rows, cols)
        assert len(got) == len(want)
        for vec, ref in zip(got, want):
            # reduced echelon rows are zero left of their pivots, so a basis
            # vector is zero right of its free column, where it holds 1
            free = max(c for c, v in enumerate(ref) if v)
            assert ref[free] == 1
            assert all(type(c) is int for c in vec)
            assert gcd(*vec) == 1
            assert vec[free] > 0
            assert vec == [vec[free] * r for r in ref]

    def test_failed_search_makes_no_exact_solve(self, monkeypatch):
        seq = numerator_sequence(ChildSet((0, 1, 5)), 0, 5, 2, 2, 90).sequence(2, 2)
        scans = []
        echelon = recurrence._echelon

        def spy(rows, cols):
            scans.append(echelon(rows, cols))
            return scans[-1]

        monkeypatch.setattr(recurrence, "_echelon", spy)
        monkeypatch.setattr(
            recurrence, "_kernel", lambda kept, cols: pytest.fail("built a kernel")
        )
        assert guess_recurrence(seq, 5, 5) is None
        # each of the 5 x 6 (order, degree) systems ends at full rank in the scan
        assert scans == [None] * 30
