"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

They check that every output check accepts the program's answer and rejects
a corrupted one, that job generation is a function of the seed, and that
the per-child measurement really is per child.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from treemoments.cli import main  # noqa: E402
from workloads import SETUP_ARGV, WORKLOADS, all_variants, generate  # noqa: E402

PINNED = checks.load_pinned()
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _long_integers():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def answer(text: str) -> tuple[tuple[str, ...], str]:
    """argv and the program's output for it, computed without the digit limit."""
    argv = tuple(text.split())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return argv, out.getvalue()


def replace_last(text: str, old: str, new: str) -> str:
    head, sep, tail = text.rpartition(old)
    assert sep, f"{old!r} not in output"
    return head + new + tail


def bump_last_digit(cell: str) -> str:
    return cell[:-1] + str((int(cell[-1]) + 1) % 10)


def lines_with(text: str, index: int, line: str) -> str:
    lines = text.splitlines()
    lines[index] = line
    return "\n".join(lines) + "\n"


def assert_checks(argv, good: str, *bad: str) -> None:
    assert checks.check_output(argv, good, PINNED) is None
    for corrupted in bad:
        assert corrupted != good
        assert checks.check_output(argv, corrupted, PINNED) is not None


def test_benchmark_json_describes_what_the_code_reports():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.PER_LAYER_UNITS


def test_every_variant_has_an_expectation():
    for argv in all_variants():
        key = checks.argv_key(argv)
        command = argv[0]
        if command in ("count", "numerator", "scaled"):
            assert key in PINNED["values"]
        elif command == "guess-rec":
            assert key in PINNED["texts"]


def test_count_check():
    argv, out = answer(checks.argv_key(SETUP_ARGV))
    assert_checks(argv, out, "2\n", "", "1\n1\n")


def test_numerator_range_check():
    argv, out = answer("numerator -S 0,1,2,3 -n 1..300 --s1 0 --s2 3 --p 2,2 --format csv")
    last = out.splitlines()[-1]
    dropped = "\n".join(out.splitlines()[:-1]) + "\n"
    assert_checks(argv, out, replace_last(out, last, bump_last_digit(last)), dropped)


def test_scaled_check_decides_decimals_by_value():
    argv, out = answer("scaled -S 0,1,2 -n 100..400 --s1 0 --p 4 --format csv")
    n, p1, p2, alpha, exact = out.splitlines()[-1].split(",")
    wrong_decimal = replace_last(out, alpha, bump_last_digit(alpha))
    wrong_exact = replace_last(out, exact, exact.replace("/", "1/", 1))
    assert_checks(argv, out, wrong_decimal, wrong_exact)


def test_moments_check():
    argv, out = answer("moments -S 0,1,2 -n 2000 --s1 0 --s2 1 --max-p 4,4")
    row = out.splitlines()[-1]
    p1, p2, raw, central, scaled = row.split()
    assert_checks(
        argv,
        out,
        replace_last(out, scaled, bump_last_digit(scaled)),
        replace_last(out, central, "1" + central),
        replace_last(out, raw, raw.replace("/", "1/", 1)),
        "\n".join(out.splitlines()[:-1]) + "\n",
    )


def test_normal_compare_check_uses_true_values_of_two_root_gaps():
    argv, out = answer("normal-compare -S 0,1,2,3 -n 3000 --s1 1 --s2 3 --max-p 4,4")
    rows = {tuple(line.split()[:2]): line for line in out.splitlines()[1:]}
    two_root = rows[("3", "3")]  # gap = alpha - rho-term: two distinct roots
    gap = two_root.split()[-1]
    normal = rows[("3", "1")].split()[3]
    assert_checks(
        argv,
        out,
        out.replace(two_root, replace_last(two_root, gap, bump_last_digit(gap))),
        out.replace(rows[("3", "1")], replace_last(rows[("3", "1")], normal, bump_last_digit(normal))),
    )


def test_guess_rec_check():
    argv, out = answer(
        "guess-rec -S 0,1,2,3 --stat numerator --s1 0 --p 2 --terms 80 --max-order 6 --max-degree 6"
    )
    assert_checks(argv, out, out.replace("855", "856", 1), "none\n")


def test_sample_check_is_structural():
    argv, out = answer("sample -S 0,1,2 -n 30 --count 30000 --seed 0")
    first = out.splitlines()[0]
    assert_checks(
        argv,
        out,
        lines_with(out, 0, "0" + first[1:]),  # the root becomes a leaf
        lines_with(out, 0, first + " 0"),
        "\n".join(out.splitlines()[1:]) + "\n",
    )


def test_enumerate_check():
    argv, out = answer("enumerate -S 0,1,2 -n 14")
    lines = out.splitlines()
    assert_checks(argv, out, lines_with(out, 0, lines[1]), "\n".join(lines[1:]) + "\n")


def test_rounding_of_a_tie_and_of_roots():
    assert checks.rounded_candidates(checks.Fraction(5, 2), (), 0) == {2}
    assert checks.rounded_candidates(checks.Fraction(7, 2), (), 0) == {4}
    # sqrt(2) = 1.41421356..., sqrt(3) = 1.7320508...
    assert checks.rounded_candidates(checks.Fraction(0), [(1, checks.Fraction(2))], 3) == {1414}
    assert checks.rounded_candidates(
        checks.Fraction(0), [(1, checks.Fraction(3)), (-1, checks.Fraction(2))], 4
    ) == {3178}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    for seed in range(20):
        jobs = generate(workload, seed)
        assert jobs == generate(workload, seed)
        assert all(argv in job.menu for argv, job in zip(jobs, workload.jobs))
    if any(len(job.menu) > 1 for job in workload.jobs):
        assert len({tuple(generate(workload, seed)) for seed in range(20)}) > 1


def test_peak_rss_is_per_child():
    big = run.run_child((sys.executable, "-c", "x = b'x' * (300 << 20)"), 60)
    harness_peak = b"x" * (300 << 20)  # nor may the benchmark's own peak leak in
    del harness_peak
    small = run.run_child((sys.executable, "-c", "pass"), 60)
    assert big.code == 0 and small.code == 0
    assert big.max_rss_mb > 300
    assert small.max_rss_mb < 50


def test_timeout_counts_as_failure():
    result = run.run_child((sys.executable, "-c", "import time; time.sleep(60)"), 0.5)
    assert result.code is None
    assert result.wall_s < 30
    assert run.failure(SETUP_ARGV, result, run.Checker(PINNED)) == "timed out"
