import io
import json

import pytest

from treemoments import ChildSet, count_trees, derived
from treemoments.cli import RowWriter, main

DERIVED_SETS = [
    ChildSet(s)
    for s in [(0, 2), (0, 3), (0, 1, 2), (0, 1, 3), (0, 1, 2, 3), (0, 1, 5), (0, 1, 2, 3, 4)]
    # {0}: every term of the relation has one shift, so the window is empty
    + [(0,), (0, 1)]
]
S012 = ChildSet((0, 1, 2))


@pytest.fixture
def per_n_calls(monkeypatch):
    """The n of every count_trees call the derived module makes."""
    calls = []

    def spy(child_set, n):
        calls.append(n)
        return count_trees(child_set, n)

    monkeypatch.setattr(derived, "count_trees", spy)
    return calls


@pytest.mark.parametrize("child_set", DERIVED_SETS, ids=str)
def test_derived_values_equal_count_trees(child_set, per_n_calls):
    derived.count_ode(child_set)  # no budget: the search always finishes
    values = list(derived.count_range(child_set, 1, 200))
    assert values == [count_trees(child_set, n) for n in range(1, 201)]
    # only where the leading coefficient vanishes, all below the ODE's order
    assert len(per_n_calls) <= len(derived.count_ode(child_set))


@pytest.mark.parametrize("child_set", DERIVED_SETS[:5], ids=str)
def test_ranges_not_starting_at_one_give_the_same_values(child_set):
    derived.count_ode(child_set)
    full = list(derived.count_range(child_set, 1, 120))
    for lo, hi in [(2, 120), (17, 40), (119, 120)]:
        assert list(derived.count_range(child_set, lo, hi)) == full[lo - 1 : hi]


def test_the_ode_holds_for_the_counting_series():
    # sum_kj c[k][j] * x^j * u^(k) = 0 as a power series, coefficient by coefficient
    ode = derived.count_ode(S012)
    f = [0] + [count_trees(S012, n) for n in range(1, 40)]
    for m in range(30):
        total = 0
        for k, row in enumerate(ode):
            for j, c in enumerate(row):
                i = m - j + k  # [x^m] x^j u^(k) = ff(i, k) * f_i
                if c and m >= j and i < len(f):
                    ff = 1
                    for r in range(k):
                        ff *= i - r
                    total += c * ff * f[i]
        assert total == 0


def test_an_inexact_step_raises(monkeypatch):
    wrong = [list(row) for row in derived.count_ode(S012)]
    wrong[1][2] += 1
    monkeypatch.setitem(derived._ODES, S012, tuple(map(tuple, wrong)))
    with pytest.raises(ArithmeticError, match="n=2 is not exact"):
        list(derived.count_range(S012, 1, 60))


def test_a_search_past_its_budget_gives_up():
    sparse = ChildSet((0, 2, 3, 5, 7))
    assert derived.count_ode(sparse, budget=10**5) is None
    assert sparse not in derived._ODES


def test_bad_ranges_are_rejected():
    for lo, hi in [(0, 5), (5, 4)]:
        with pytest.raises(ValueError):
            derived.count_range(S012, lo, hi)


def test_a_short_range_of_a_sparse_set_stays_per_n(capsys, per_n_calls):
    sparse = ChildSet((0, 2, 3, 5, 7))
    assert main(["count", "-S", "0,2,3,5,7", "-n", "1..60"]) == 0
    assert per_n_calls == list(range(1, 61))
    expected = io.StringIO()
    writer = RowWriter("text", ["n", "count"], expected, buffered=False)
    for n in range(1, 61):
        writer.write({"n": n, "count": count_trees(sparse, n)})
    assert capsys.readouterr().out == expected.getvalue()
    assert sparse not in derived._ODES


@pytest.fixture(scope="module")
def counts_to_2001():
    return [count_trees(S012, n) for n in range(1, 2002)]


@pytest.mark.parametrize("lo, hi", [(1, 2000), (2, 2001)])
def test_benchmark_count_jobs_print_the_per_n_bytes(capsys, per_n_calls, counts_to_2001, lo, hi):
    values = counts_to_2001[lo - 1 : hi]
    csv = "n,count\n" + "".join(f"{n},{v}\n" for n, v in zip(range(lo, hi + 1), values))
    json_lines = "".join(
        json.dumps({"n": n, "count": v}) + "\n" for n, v in zip(range(lo, hi + 1), values)
    )
    for fmt, expected in [("csv", csv), ("json", json_lines)]:
        assert main(["count", "-S", "0,1,2", "-n", f"{lo}..{hi}", "--format", fmt]) == 0
        assert capsys.readouterr().out == expected
    assert len(per_n_calls) <= 2 * len(derived.count_ode(S012))
