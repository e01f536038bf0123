import json
import math
import sys
from fractions import Fraction

import pytest

from treemoments import ChildSet, count_trees, enumerate_trees, format_code, is_valid_code, parse_code
from treemoments import cli
from treemoments.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digit_limit():
    """The interpreter's int->str digit limit, or None where there is none."""
    if hasattr(sys, "get_int_max_str_digits"):
        return sys.get_int_max_str_digits()
    return None


def unlimited_str(value: int) -> str:
    """str(value) regardless of the int->str digit limit."""
    old = digit_limit()
    if old is None:
        return str(value)
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


class TestKnownOutputs:
    def test_count_single_n_prints_bare_value(self, capsys):
        code, out, err = run(capsys, "count", "-S", "0,1,2", "-n", "30")
        assert code == 0
        assert out == "593742784829\n"
        assert err == ""

    def test_count_zero_is_a_value_not_an_error(self, capsys):
        code, out, _ = run(capsys, "count", "-S", "0,2", "-n", "4")
        assert code == 0
        assert out == "0\n"

    def test_numerator_single_n_prints_bare_value(self, capsys):
        code, out, _ = run(capsys, "numerator", "-S", "0,1,2", "-n", "3", "--s1", "0", "--p", "1")
        assert code == 0
        assert out == "3\n"  # one leaf on the path plus two on the cherry

    def test_scaled_second_moment_is_one(self, capsys):
        code, out, _ = run(
            capsys, "scaled", "-S", "0,1,2", "-n", "10", "--s1", "0", "--p", "2",
            "--digits", "4",
        )
        assert code == 0
        assert out == "1.0000\n"

    def test_normal_compare_matched_cells_have_zero_gap(self, capsys):
        code, out, _ = run(
            capsys, "normal-compare", "-S", "0,1,2", "-n", "30", "--s1", "0",
            "--s2", "1", "--max-p", "2,2", "--format", "json", "--digits", "8",
        )
        assert code == 0
        rows = {(r["p1"], r["p2"]): r for r in map(json.loads, out.splitlines())}
        assert len(rows) == 9
        for cell in [(1, 1), (2, 0), (0, 2), (1, 0), (0, 1), (0, 0)]:
            assert rows[cell]["gap"] == "0.00000000", cell
        assert rows[(2, 2)]["normal"] != rows[(2, 2)]["alpha"]


class TestFormats:
    def test_text_range_has_aligned_header(self, capsys):
        code, out, _ = run(capsys, "count", "-S", "0,1,2", "-n", "1..5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["n", "count"]
        assert [line.split() for line in lines[1:]] == [
            ["1", "1"], ["2", "1"], ["3", "2"], ["4", "4"], ["5", "9"],
        ]

    def test_csv_uses_plain_newlines(self, capsys):
        code, out, _ = run(capsys, "count", "-S", "0,1,2", "-n", "1..3", "--format", "csv")
        assert code == 0
        assert out == "n,count\n1,1\n2,1\n3,2\n"

    def test_json_emits_one_object_per_row(self, capsys):
        code, out, _ = run(capsys, "count", "-S", "0,1,2", "-n", "29..30", "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {"n": 29, "count": 208023278209}
        assert rows[1] == {"n": 30, "count": 593742784829}

    def test_reruns_are_byte_identical(self, capsys):
        argv_sets = [
            ("moments", "-S", "0,1,2", "-n", "12", "--s1", "0", "--s2", "1"),
            ("scaled", "-S", "0,1,2", "-n", "3..8", "--s1", "0", "--p", "3"),
            ("sample", "-S", "0,1,2", "-n", "25", "--seed", "9", "--count", "4"),
        ]
        for argv in argv_sets:
            _, first, _ = run(capsys, *argv)
            _, second, _ = run(capsys, *argv)
            assert first == second, argv

    def test_numerator_pair_columns(self, capsys):
        code, out, _ = run(
            capsys, "numerator", "-S", "0,1,2", "-n", "3..4", "--s1", "0",
            "--s2", "1", "--p", "1,1", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,s1,p1,s2,p2,numerator"
        assert lines[1].startswith("3,0,1,1,1,")

    def test_numerator_rows_without_s2_have_no_pair_keys(self, capsys):
        code, out, _ = run(
            capsys, "numerator", "-S", "0,1,2", "-n", "2..3", "--s1", "0",
            "--format", "json",
        )
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"n": 2, "s1": 0, "p1": 1, "numerator": 1},
            {"n": 3, "s1": 0, "p1": 1, "numerator": 3},
        ]

    def test_moments_table_shape(self, capsys):
        code, out, _ = run(
            capsys, "moments", "-S", "0,1,2", "-n", "30", "--s1", "0", "--s2", "1",
            "--format", "json", "--digits", "6",
        )
        assert code == 0
        rows = {(r["p1"], r["p2"]): r for r in map(json.loads, out.splitlines())}
        assert len(rows) == 9
        assert rows[(0, 0)]["raw"] == "1"
        assert rows[(1, 0)]["raw"] == "6186675630819/593742784829"
        assert rows[(2, 0)]["scaled"] == "1.000000"
        assert rows[(1, 1)]["scaled"] == "-1.000000"

    def test_degenerate_moment_cells_render_as_missing(self, capsys):
        code, out, _ = run(
            capsys, "moments", "-S", "0,1,2", "-n", "2", "--s1", "0", "--s2", "1",
        )
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split()
        scaled_col = header.index("scaled")
        cells = {tuple(line.split()[:2]): line.split()[scaled_col] for line in lines[1:]}
        assert cells[("0", "0")] == "1.000000000000000000000000000000"
        for key, value in cells.items():
            if key != ("0", "0"):
                assert value == "-", key

    def test_scaled_json_reports_exact_value_when_rational(self, capsys):
        code, out, _ = run(
            capsys, "scaled", "-S", "0,1,2", "-n", "10..10", "--s1", "0",
            "--p", "2", "--format", "json",
        )
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["exact"] == "1"

    def test_scaled_json_irrational_value_has_no_exact(self, capsys):
        code, out, _ = run(
            capsys, "scaled", "-S", "0,1,2", "-n", "10..10", "--s1", "0",
            "--p", "3", "--format", "json",
        )
        row = json.loads(out.splitlines()[0])
        assert row["exact"] is None


class TestLargeValues:
    # f_9500 for S={0,1,2} has 4526 digits, above the default limit of 4300
    @pytest.mark.parametrize(
        "fmt, template",
        [
            ("text", "{}\n"),
            ("csv", "n,count\n9500,{}\n"),
            ("json", '{{"n": 9500, "count": {}}}\n'),
        ],
        ids=["text", "csv", "json"],
    )
    def test_values_past_the_digit_limit_print_in_full(self, capsys, fmt, template):
        digits = unlimited_str(count_trees(ChildSet((0, 1, 2)), 9500))
        assert len(digits) > 4300
        before = digit_limit()
        code, out, err = run(capsys, "count", "-S", "0,1,2", "-n", "9500", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == template.format(digits)
        assert digit_limit() == before


class TestExitCodes:
    def test_malformed_child_set(self, capsys):
        code, _, err = run(capsys, "count", "-S", "0,x", "-n", "5")
        assert code == 1
        assert err.startswith("error: usage:")

    def test_child_set_must_contain_zero(self, capsys):
        code, _, err = run(capsys, "count", "-S", "1,2", "-n", "5")
        assert code == 1
        assert err.startswith("error: usage:")

    def test_bad_n_range(self, capsys):
        for bad in ("0", "5..3", "2..x", "5.."):
            code, _, err = run(capsys, "count", "-S", "0,1,2", "-n", bad)
            assert code == 1, bad
            assert err.startswith("error: usage:"), bad

    def test_range_rejected_on_single_n_command(self, capsys):
        code, _, err = run(capsys, "moments", "-S", "0,1,2", "-n", "1..5", "--s1", "0")
        assert code == 1
        assert "single n" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate", "-S", "0,1,2", "-n", "3")
        assert code == 1
        assert err.startswith("error: usage:")

    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "count" in out and "guess-rec" in out

    def test_degenerate_variance_is_a_domain_error(self, capsys):
        code, _, err = run(
            capsys, "scaled", "-S", "0,1,2", "-n", "2", "--s1", "0", "--s2", "1",
            "--p", "2,2",
        )
        assert code == 2
        assert err.startswith("error: DegenerateVariance:")

    def test_degenerate_variance_names_n_and_statistic_in_a_range(self, capsys):
        code, _, err = run(
            capsys, "scaled", "-S", "0,1,2", "-n", "1..5", "--s1", "1", "--p", "2"
        )
        assert code == 2
        assert err.startswith("error: DegenerateVariance:")
        assert "n=1" in err and "X_1" in err

    def test_no_trees_is_a_domain_error_for_moments(self, capsys):
        code, _, err = run(capsys, "moments", "-S", "0,2", "-n", "4", "--s1", "0")
        assert code == 2
        assert err.startswith("error: NoTrees:")

    def test_statistic_outside_child_set(self, capsys):
        code, _, err = run(capsys, "numerator", "-S", "0,1,2", "-n", "5", "--s1", "7")
        assert code == 1
        assert err.startswith("error: usage:")

    def test_second_power_requires_second_statistic(self, capsys):
        code, _, err = run(
            capsys, "numerator", "-S", "0,1,2", "-n", "5", "--s1", "0", "--p", "1,1",
        )
        assert code == 1

    def test_internal_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(child_set, n):
            raise ValueError("internal invariant broken")

        monkeypatch.setattr(cli, "count_trees", broken)
        before = digit_limit()
        with pytest.raises(ValueError, match="internal invariant broken"):
            main(["count", "-S", "0,1,2", "-n", "5"])
        assert "error:" not in capsys.readouterr().err
        assert digit_limit() == before

    @pytest.mark.parametrize(
        "argv",
        [
            "moments -S 0,1,2 -n 5 --s1 0 --max-p 2,1",
            "normal-compare -S 0,1,2 -n 5 --s1 0 --s2 3",
            "scaled -S 0,1,2 -n 5 --s1 0 --p 2,2",
            "scaled -S 0,1,2 -n 1..5 --s1 0 --s2 7",
            "numerator -S 0,1,2 -n 5 --s1 7",
            "numerator -S 0,1,2 -n 1..5 --s1 0 --s2 3 --p 1,1",
            "guess-rec -S 0,1,2 --stat numerator --s1 7",
            "guess-rec -S 0,1,2 --stat numerator --s1 0 --p 1,1",
            "guess-rec -S 0,1,2 --max-order 0",
            "guess-rec -S 0,1,2 --max-degree -1",
            "guess-rec -S 0,1,2 --margin -1",
            "guess-rec -S 0,1,2 --terms 0",
            "guess-rec -S 0,1,2 --stat count --s1 7",
            "guess-rec -S 0,1,2 --s2 0",
            "guess-rec -S 0,1,2 --stat count --p 1",
            "enumerate -S 0,1,2 -n 4 --cap -1",
            "enumerate -S 0,1,2 -n 4 --cap 0",
            "count -S 0,1,2 -n 5 --digits -1",
            "sample -S 0,1,2 -n 5 --count 0",
        ],
    )
    def test_usage_errors_are_found_before_any_handler_runs(self, capsys, monkeypatch, argv):
        def handler(args, out):
            pytest.fail(f"a handler ran for {argv}")

        for command in cli._HANDLERS:
            monkeypatch.setitem(cli._HANDLERS, command, handler)
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err.startswith("error: usage:")

    def test_same_statistic_twice_prints_the_merged_numerator(self, capsys):
        pair = "numerator -S 0,1,2 -n 5 --s1 0 --s2 0 --p 1,1".split()
        assert run(capsys, *pair) == (0, "43\n", "")
        code, out, err = run(capsys, *pair[:4], "1..6", *pair[5:], "--format", "csv")
        assert (code, err) == (0, "")
        _, merged, _ = run(capsys, *"numerator -S 0,1,2 -n 1..6 --s1 0 --p 2 --format csv".split())
        # the same numerator column; the pair's rows name both statistics
        assert [row.rsplit(",", 1)[1] for row in out.splitlines()] == [
            row.rsplit(",", 1)[1] for row in merged.splitlines()
        ]

    def test_same_statistic_twice_gives_moment_tables(self, capsys):
        code, out, err = run(
            capsys, "moments", "-S", "0,1,2", "-n", "30", "--s1", "0", "--s2", "0",
            "--digits", "6",
        )
        assert (code, err) == (0, "")
        rows = {tuple(line.split()[:2]): line.split()[-1] for line in out.splitlines()[1:]}
        assert rows[("1", "1")] == "1.000000"  # rho = 1
        assert rows[("2", "2")] == "2.950574"  # alpha_4

    def test_same_statistic_twice_gaps_are_one_statistic_gaps(self, capsys):
        code, out, err = run(
            capsys, "normal-compare", "-S", "0,1,2,3", "-n", "20", "--s1", "2", "--s2", "2",
            "--max-p", "3,3", "--digits", "20",
        )
        assert (code, err) == (0, "")
        for line in out.splitlines()[1:]:
            p1, p2, alpha, normal, gap = line.split()
            k = int(p1) + int(p2)
            double_factorial = 0 if k % 2 else math.prod(range(k - 1, 0, -2))
            assert Fraction(normal) == double_factorial, line
            assert Fraction(gap) == Fraction(alpha) - double_factorial, line


class TestGuessRec:
    def test_count_relation(self, capsys):
        code, out, _ = run(capsys, "guess-rec", "-S", "0,1,2")
        assert code == 0
        assert out == "(n+1)*a(n) - (2*n-1)*a(n-1) - 3*(n-2)*a(n-2) = 0\n"

    def test_numerator_relation(self, capsys):
        code, out, _ = run(
            capsys, "guess-rec", "-S", "0,1,2", "--stat", "numerator", "--s1", "0",
        )
        assert code == 0
        assert out == "(n-1)*a(n) - (2*n-3)*a(n-1) - 3*(n-2)*a(n-2) = 0\n"

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "guess-rec", "-S", "0,1,2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["order"] == 2
        assert payload["degree"] == 1
        assert payload["coefficients"] == [[0, -3], [-3, -2], [3, 1]]
        assert payload["verified_from"] == 1
        assert payload["verified_to"] == 38

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "guess-rec", "-S", "0,1,2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "order,degree,coefficients,verified_from,verified_to,text"
        assert lines[1].startswith("2,1,")

    def test_none_when_bounds_are_too_tight(self, capsys):
        code, out, _ = run(
            capsys, "guess-rec", "-S", "0,1,2", "--max-order", "1", "--max-degree", "0",
        )
        assert code == 0
        assert out == "none\n"
        code, out, _ = run(
            capsys, "guess-rec", "-S", "0,1,2", "--max-order", "1",
            "--max-degree", "0", "--format", "json",
        )
        assert json.loads(out) == {"found": False}

    def test_too_few_terms_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "guess-rec", "-S", "0,1,2", "--terms", "10")
        assert code == 2
        assert err.startswith("error: InsufficientData:")

    def test_numerator_stat_requires_s1(self, capsys):
        code, _, err = run(capsys, "guess-rec", "-S", "0,1,2", "--stat", "numerator")
        assert code == 1
        assert err.startswith("error: usage:")

    @pytest.mark.parametrize("option", ["--s1", "--s2", "--p"])
    def test_count_stat_names_the_option_it_rejects(self, capsys, option):
        code, out, err = run(capsys, "guess-rec", "-S", "0,1,2", option, "1")
        assert (code, out) == (1, "")
        assert err == f"error: usage: --stat count takes no {option}\n"

    def test_numerator_stat_defaults_to_the_first_power(self, capsys):
        argv = ["guess-rec", "-S", "0,1,2", "--stat", "numerator", "--s1", "0"]
        _, default, _ = run(capsys, *argv)
        _, explicit, _ = run(capsys, *argv, "--p", "1")
        assert default == explicit != ""


class TestEnumerate:
    def test_codes_match_library_enumeration(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-S", "0,1,2", "-n", "4")
        assert code == 0
        expected = [format_code(c) for c in enumerate_trees(ChildSet((0, 1, 2)), 4)]
        assert out.splitlines() == expected

    def test_json_rows_carry_code_lists(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-S", "0,1,2", "-n", "3", "--format", "json")
        assert code == 0
        rows = [json.loads(line)["code"] for line in out.splitlines()]
        assert rows == [[1, 1, 0], [2, 0, 0]]

    def test_cap_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEMOMENTS_ENUM_CAP", "3")
        code, _, err = run(capsys, "enumerate", "-S", "0,1,2", "-n", "4")
        assert code == 2
        assert err.startswith("error: EnumerationTooLarge:")

    def test_cap_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEMOMENTS_ENUM_CAP", "3")
        code, out, _ = run(capsys, "enumerate", "-S", "0,1,2", "-n", "4", "--cap", "4")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_bad_cap_in_environment_is_a_usage_error_naming_it(self, capsys, monkeypatch):
        monkeypatch.setenv("TREEMOMENTS_ENUM_CAP", "abc")
        code, out, err = run(capsys, "enumerate", "-S", "0,1,2", "-n", "4")
        assert (code, out) == (1, "")
        assert err.startswith("error: usage:")
        assert "TREEMOMENTS_ENUM_CAP" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cap_below_one_is_a_usage_error(self, capsys, monkeypatch, value):
        code, out, err = run(capsys, "enumerate", "-S", "0,1,2", "-n", "4", "--cap", value)
        assert (code, out) == (1, "")
        assert err.startswith("error: usage: argument --cap: must be at least 1")
        monkeypatch.setenv("TREEMOMENTS_ENUM_CAP", value)
        code, out, err = run(capsys, "enumerate", "-S", "0,1,2", "-n", "4")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: usage: TREEMOMENTS_ENUM_CAP='{value}': must be at least 1")

    def test_a_deep_tree_prints_without_recursion(self, capsys):
        code, out, _ = run(capsys, "enumerate", "-S", "0,1", "-n", "1500", "--cap", "2000")
        assert code == 0
        assert out == "1 " * 1499 + "0\n"

    def test_default_cap_rejects_large_n(self, capsys):
        code, _, err = run(capsys, "enumerate", "-S", "0,1,2", "-n", "19")
        assert code == 2
        assert err.startswith("error: EnumerationTooLarge:")


class TestSample:
    def test_samples_are_valid_and_deterministic(self, capsys):
        argv = ("sample", "-S", "0,1,2", "-n", "30", "--seed", "4", "--count", "10")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        child_set = ChildSet((0, 1, 2))
        lines = first.splitlines()
        assert len(lines) == 10
        for line in lines:
            tree = parse_code(line)
            assert len(tree) == 30
            assert is_valid_code(child_set, tree)

    def test_different_seeds_differ(self, capsys):
        _, a, _ = run(capsys, "sample", "-S", "0,1,2", "-n", "40", "--seed", "1", "--count", "3")
        _, b, _ = run(capsys, "sample", "-S", "0,1,2", "-n", "40", "--seed", "2", "--count", "3")
        assert a != b

    def test_text_codes_with_a_two_digit_count_match_json(self, capsys):
        argv = ("sample", "-S", "0,1,10", "-n", "23", "--count", "2", "--seed", "1")
        _, text, _ = run(capsys, *argv)
        _, rows, _ = run(capsys, *argv, "--format", "json")
        codes = [json.loads(line)["code"] for line in rows.splitlines()]
        assert all(10 in code for code in codes)  # each line takes the fallback
        assert text == "".join(" ".join(map(str, code)) + "\n" for code in codes)

    def test_no_trees_to_sample(self, capsys):
        code, _, err = run(capsys, "sample", "-S", "0,2", "-n", "4")
        assert code == 2
        assert err.startswith("error: NoTrees:")

    def test_count_must_be_positive(self, capsys):
        code, _, err = run(capsys, "sample", "-S", "0,1,2", "-n", "5", "--count", "0")
        assert code == 1
