"""The contract every result type keeps: equality, hashing, repr, immutability, pickling.

Each case builds an instance from fixed arguments, freshly on every call, and
lists the fields that `==`, `hash` and `repr` use, in order.  ScaledMoment's
cell and grid and GapRow's scaled and rho are carried but neither compared
nor printed.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from treemoments import (
    ChildSet,
    ExtendedSequence,
    GapReport,
    GapRow,
    JointCoefficient,
    MomentReport,
    MomentSpec,
    MonteCarloEstimate,
    NormalMomentPoly,
    NormalMomentValue,
    NumeratorTable,
    Recurrence,
    ScaledMoment,
    SqrtExpr,
    VerifyResult,
    moment_report,
    normality_gap_report,
    numerator_mixed,
    numerator_sequence,
    scaled_moment,
)
from treemoments.oracle import count_vector_table


def spec() -> MomentSpec:
    return MomentSpec(ChildSet((0, 1, 2)), 7, s1=0, s2=1)


def alpha() -> ScaledMoment:
    return scaled_moment(spec(), 2, 1, 8)


def gap_report() -> GapReport:
    return normality_gap_report(spec(), 2, 2, digits=8)


# name: (build, fields compared and printed, hashable)
CASES = {
    "ChildSet": (lambda: ChildSet([2, 0, 1]), ["elements"], True),
    "NumeratorTable": (
        lambda: NumeratorTable(ChildSet((0, 2)), 0, None, 3, 1, 0, {(1, 0, 0): 1}),
        ["child_set", "s1", "s2", "n_max", "max_p1", "max_p2", "values"],
        False,
    ),
    "MomentSpec": (spec, ["child_set", "n", "s1", "s2", "max_p1", "max_p2"], True),
    "ScaledMoment": (alpha, ["p1", "p2", "sign", "text"], True),
    "MomentReport": (
        lambda: moment_report(spec(), 6),
        ["spec", "digits", "raw", "central", "scaled", "correlation_rho", "degenerate"],
        False,
    ),
    "NormalMomentPoly": (
        lambda: NormalMomentPoly(4, 2, (3, 0, 12)), ["p1", "p2", "coefficients"], True
    ),
    "NormalMomentValue": (
        lambda: NormalMomentValue(1, 1, SqrtExpr.from_sqrt(1, Fraction(1, 2)), "0.71"),
        ["p1", "p2", "value", "text"],
        True,
    ),
    "GapRow": (
        lambda: gap_report().rows[4],
        ["p1", "p2", "alpha_text", "reference_text", "gap_text"],
        True,
    ),
    "GapReport": (gap_report, ["spec", "digits", "rho", "rows"], False),
    "JointCoefficient": (
        lambda: JointCoefficient(4, (2, 1, 1), 3), ["n", "exponents", "count"], True
    ),
    "MonteCarloEstimate": (
        lambda: MonteCarloEstimate(Fraction(7, 3), Fraction(1, 9), 12),
        ["mean", "variance", "samples"],
        True,
    ),
    "Recurrence": (
        lambda: Recurrence(((-2, -1, 0), (1, 1)), 1, 30),
        ["coefficients", "verified_from", "verified_to"],
        True,
    ),
    "VerifyResult": (lambda: VerifyResult(False, 12), ["ok", "first_failure"], True),
    "ExtendedSequence": (
        lambda: ExtendedSequence(1, [Fraction(1), Fraction(5, 2)], [2]),
        ["start", "terms", "non_integral"],
        False,
    ),
    "SqrtExpr": (
        lambda: SqrtExpr(Fraction(0), ((Fraction(-2, 3), Fraction(5, 7)),)),
        ["rational", "terms"],
        True,
    ),
    "CountVectorTable": (
        lambda: count_vector_table(ChildSet((0, 1, 2, 3)), 9),
        ["starts", "vectors", "weights", "total", "step", "drop"],
        False,
    ),
}

@pytest.fixture(params=sorted(CASES))
def case(request):
    return request.param, *CASES[request.param]


def test_equal_arguments_give_equal_objects(case):
    name, build, _, hashable = case
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert not first != second
    assert type(first).__name__ == name
    if hashable:
        assert hash(first) == hash(second)


def test_hash_raises_exactly_for_records_holding_dicts_or_lists(case):
    _, build, _, hashable = case
    obj = build()
    if hashable:
        hash(obj)
    else:
        with pytest.raises(TypeError):
            hash(obj)


def test_different_field_values_are_unequal():
    assert ChildSet((0, 1)) != ChildSet((0, 2))
    assert NormalMomentPoly(4, 2, (3, 0, 12)) != NormalMomentPoly(2, 4, (3, 0, 12))
    assert VerifyResult(False, 12) != VerifyResult(False, 13)
    assert SqrtExpr.from_rational(1) != SqrtExpr.from_rational(2)
    assert JointCoefficient(4, (2, 1, 1), 3) != (4, (2, 1, 1), 3)


def test_repr_lists_compared_fields_in_order(case):
    name, build, fields, _ = case
    obj = build()
    shown = ", ".join(f"{field}={getattr(obj, field)!r}" for field in fields)
    assert repr(obj) == f"{name}({shown})"


def test_carried_fields_are_neither_compared_nor_printed():
    a = alpha()
    other = ScaledMoment(a.p1, a.p2, a.sign, a.text, (0, 1, (0, 0)), None)
    assert other == a and hash(other) == hash(a)
    assert "cell" not in repr(a) and "grid" not in repr(a)
    row = gap_report().rows[4]
    bare = GapRow(row.p1, row.p2, row.alpha_text, row.reference_text, row.gap_text, None, None)
    assert bare == row and hash(bare) == hash(row)
    assert "scaled" not in repr(row) and "rho=" not in repr(row)


@pytest.mark.parametrize("name", list(CASES))
def test_assignment_and_deletion_raise_attribute_error(name):
    build, fields, _ = CASES[name]
    obj = build()
    for field in [*fields, "unlisted"]:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert obj == build()


def test_numerator_sequence_returns_a_frozen_table():
    table = numerator_sequence(ChildSet((0, 1, 2)), 0, 1, 2, 1, 8)
    twin = numerator_sequence(ChildSet((0, 1, 2)), 0, 1, 2, 1, 8)
    assert table == twin
    assert table != numerator_sequence(ChildSet((0, 1, 2)), 0, 1, 2, 1, 7)
    with pytest.raises(AttributeError):
        table.n_max = 9
    with pytest.raises(TypeError):
        hash(table)  # it holds a dict
    assert table.value(8, 2, 1) == numerator_mixed(ChildSet((0, 1, 2)), 8, 0, 2, 1, 1)


@pytest.mark.parametrize("clone", [
    lambda obj: pickle.loads(pickle.dumps(obj)),
    lambda obj: pickle.loads(pickle.dumps(obj, protocol=0)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "pickle-0", "copy", "deepcopy"])
def test_pickle_and_copy_round_trip(case, clone):
    _, build, fields, _ = case
    obj = build()
    twin = clone(obj)
    assert type(twin) is type(obj)
    assert twin == obj
    assert [getattr(twin, f) for f in fields] == [getattr(obj, f) for f in fields]


def test_cached_values_survive_a_copy():
    a = alpha()
    assert copy.deepcopy(a).square == a.square
    assert pickle.loads(pickle.dumps(a)).value == a.value
    row = gap_report().rows[4]
    assert copy.deepcopy(row).gap == row.gap
    assert pickle.loads(pickle.dumps(row)).reference == row.reference


def test_default_containers_are_fresh_per_instance():
    first = MomentReport(spec(), 4, {}, {})
    second = MomentReport(spec(), 4, {}, {})
    assert first.scaled == {} and first.scaled is not second.scaled
    assert (first.correlation_rho, first.degenerate) == (None, False)


def test_defaults_and_normalisation_keep_their_values():
    assert numerator_mixed(ChildSet((0, 1)), 3, 0, 1) == numerator_mixed(
        ChildSet((0, 1)), 3, 0, 1, None, 0
    )
    assert MomentSpec(ChildSet((0, 1, 2)), 5, 0).max_p2 == 0
    assert MomentSpec(ChildSet((0, 1, 2)), 5, 0, 2).max_p2 == 2
    assert Recurrence(((1, 0, 0), (-1,))).coefficients == ((1,), (-1,))
    assert Recurrence(((1,), (-1,))).verified_from is None
    assert VerifyResult(True).first_failure is None
    assert SqrtExpr() == SqrtExpr(Fraction(0), ())


@pytest.mark.parametrize("name", [name for name in CASES if name != "CountVectorTable"])
def test_no_instance_is_a_tuple(name):
    assert not isinstance(CASES[name][0](), tuple)
