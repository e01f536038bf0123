"""A randomized sweep of the command line's contract.

For each subcommand, hypothesis draws a child set, n or a range,
statistics, powers and --digits, and for some cases one fault that makes
the arguments invalid.  The draws are derandomized, so every run on every
Python sees the same cases.  Each case runs cli.main in-process in text, csv and json, and
checks that:

- the exit code is 0, 1 or 2, with one line on stderr when it is not 0 and
  none when it is;
- exit 1, a usage error with no output, comes exactly from the cases given
  a fault;
- the three formats tell the same cells;
- a range prints the rows of its single-n runs, and stops where they fail;
- at n <= 10, counts and numerators equal oracle_numerator's sums over the
  enumerated trees;
- every enumerated or sampled code is a tree on n vertices, enumeration
  gives count_trees of them, and a repeated seed repeats the draws.

A timer bounds each CLI call at TIME_LIMIT_S, far above its cost: the
slowest calls of a sweep take about 0.05 s, and a sample from |S| >= 5
with a large element below n about 6 ms (sample -S 0,1,2,3,190 -n 200).
Enumeration stays at n <= 10, since its output is the whole
tree class (about 10**8 codes at S = {0..5}, n = 18).
"""

import contextlib
import csv
import io
import json
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from treemoments import ChildSet, count_trees, is_valid_code, oracle_numerator, parse_code
from treemoments.cli import main

TIME_LIMIT_S = 10
FORMATS = ("text", "csv", "json")
COMMANDS = (
    "count", "numerator", "moments", "scaled", "normal-compare", "guess-rec", "enumerate", "sample"
)
SINGLE_N = {"moments", "normal-compare", "enumerate", "sample"}
BARE = {"count": "count", "numerator": "numerator", "scaled": "alpha"}  # a single n in text


class CaseTimeout(Exception):
    pass


def _expire(signum, frame):
    raise CaseTimeout(f"a CLI call ran past {TIME_LIMIT_S} s")


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), bounded by TIME_LIMIT_S."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _outside(draw, elements):
    return draw(st.integers(-3, 310).filter(lambda s: s not in elements))


@st.composite
def cases(draw, command):
    """(argv without --format, index of n's value or None, faulty, S, n range)."""
    # small elements, so that most sets have trees at most n; then sometimes
    # one large element, below or above n, or one far above any n drawn
    extra = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5, unique=True))
    large = draw(st.sampled_from((None, None, (9, 300), (10**6, 10**12))))
    if large is not None:
        extra[-1] = draw(st.integers(*large))
    elements = tuple(sorted({0, *extra}))
    child_set = ChildSet(elements)
    top = 10 if command == "enumerate" else 200
    lo = draw(st.integers(1, top))
    hi = lo if command in SINGLE_N else min(top, lo + draw(st.integers(0, 5)))

    has_stats = command in ("numerator", "moments", "scaled", "normal-compare")
    if command == "guess-rec":
        stat = draw(st.sampled_from(("count", "numerator")))
        has_stats = stat == "numerator"
    s1 = draw(st.sampled_from(elements))
    s2 = draw(st.sampled_from(elements))
    if command != "normal-compare" and draw(st.booleans()):
        s2 = None
    p1, p2 = draw(st.integers(0, 6)), draw(st.integers(0, 6)) if s2 is not None else 0

    faults = ["no-zero", "negative-digits"]
    if command != "guess-rec":
        faults.append("bad-n")
    if command in SINGLE_N:
        faults.append("range")
    if has_stats:
        faults += ["s1-outside", "s2-outside", "negative-power"]
        if s2 is None and command != "normal-compare":
            faults.append("p2-alone")
    if command == "guess-rec":
        faults += ["zero-terms", "stat-count-with-s1" if stat == "count" else "no-s1"]
    if command == "sample":
        faults.append("zero-count")
    fault = draw(st.sampled_from(faults)) if draw(st.integers(0, 3)) == 0 else None

    digits = draw(st.integers(0, 40))
    n_text = str(lo) if lo == hi else f"{lo}..{hi}"
    if fault == "no-zero":
        elements = elements[1:]
    elif fault == "negative-digits":
        digits = -draw(st.integers(1, 5))
    elif fault == "bad-n":
        n_text = draw(st.sampled_from(("0", f"{hi + 1}..{hi}")))
    elif fault == "range":
        n_text = f"{lo}..{lo + draw(st.integers(1, 5))}"
    elif fault == "s1-outside":
        s1 = _outside(draw, elements)
    elif fault == "s2-outside":
        s2 = _outside(draw, elements)
    elif fault == "p2-alone":
        p2 = draw(st.integers(1, 6))
    elif fault == "negative-power":
        p1 = -draw(st.integers(1, 3))

    argv = [command, "-S", ",".join(map(str, elements)), "--digits", str(digits)]
    n_at = None
    if command != "guess-rec":
        argv += ["-n", n_text]
        n_at = len(argv) - 1
    stat_options = ["--s1", str(s1)] + ([] if s2 is None else ["--s2", str(s2)])
    powers = f"{p1},{p2}"
    if command in ("numerator", "scaled"):
        argv += [*stat_options, "--p", powers]
    elif command in ("moments", "normal-compare"):
        argv += stat_options
        if command == "normal-compare" or fault in ("p2-alone", "negative-power"):
            argv += ["--max-p", powers]
        elif draw(st.booleans()):
            argv += ["--max-p", powers]
    elif command == "guess-rec":
        terms = 0 if fault == "zero-terms" else draw(st.integers(1, 40))
        argv += ["--stat", stat, "--terms", str(terms)]
        argv += ["--max-order", str(draw(st.integers(1, 3)))]
        argv += ["--max-degree", str(draw(st.integers(0, 2)))]
        argv += ["--margin", str(draw(st.integers(0, 8)))]
        if stat == "numerator":
            argv += ["--p", powers] + (stat_options[2:] if fault == "no-s1" else stat_options)
        elif fault == "stat-count-with-s1":
            argv += ["--s1", str(s1)]
    elif command == "sample":
        count = 0 if fault == "zero-count" else draw(st.integers(1, 5))
        argv += ["--seed", str(draw(st.integers(0, 2**32))), "--count", str(count)]
    return argv, n_at, fault is not None, child_set, (lo, hi)


def _cell(value):
    if isinstance(value, list):
        return " ".join(map(str, value))
    return None if value is None else str(value)


def _rows(command, single, fmt, out):
    """The rows of one output as dicts of cell strings, None for an empty cell."""
    lines = out.splitlines()
    if fmt == "json":
        return [{k: _cell(v) for k, v in json.loads(line).items()} for line in lines]
    if fmt == "csv":
        return [{k: v or None for k, v in row.items()} for row in csv.DictReader(lines)]
    if command in ("enumerate", "sample"):
        return [{"code": line} for line in lines]
    if single and command in BARE:
        return [{BARE[command]: line} for line in lines]
    header, *body = (line.split() for line in lines) if lines else [[]]
    return [
        {k: None if v == "-" else v for k, v in zip(header, cells, strict=True)} for cells in body
    ]


def _check_guess_rec(results):
    (_, text, _), (_, table, _), (_, line, _) = (results[fmt] for fmt in FORMATS)
    if not line:  # a domain error before any output
        assert text == table == ""
        return
    found = json.loads(line)
    rows = list(csv.DictReader(table.splitlines()))
    if not found.pop("found"):
        assert (text, rows) == ("none\n", [])
        return
    assert text == found["text"] + "\n"
    coefficients = json.dumps(found["coefficients"])
    assert rows == [{**{k: str(v) for k, v in found.items()}, "coefficients": coefficients}]


@settings(
    derandomize=True,
    max_examples=80,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@pytest.mark.parametrize("command", COMMANDS)
@given(data=st.data())
def test_cli_contract(command, data):
    argv, n_at, faulty, child_set, (lo, hi) = data.draw(cases(command), label="case")
    results = {fmt: run([*argv, "--format", fmt]) for fmt in FORMATS}
    codes = {code for code, _, _ in results.values()}
    assert len(codes) == 1, results  # the format changes no exit code
    code = codes.pop()
    assert code in (0, 1, 2), results
    for _, out, err in results.values():
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert err.startswith("error: usage: ") == (code == 1), err
        else:
            assert err == ""
    assert (code == 1) == faulty, (argv, results)
    if code == 1:  # found before any work
        assert all(out == "" for _, out, _ in results.values())
        return

    if command == "guess-rec":
        _check_guess_rec(results)
        return
    rows = {fmt: _rows(command, lo == hi, fmt, results[fmt][1]) for fmt in FORMATS}
    assert rows["csv"] == rows["json"], argv
    assert len(rows["text"]) == len(rows["json"]), argv
    for text_row, row in zip(rows["text"], rows["json"]):
        assert text_row == {k: row[k] for k in text_row}, argv

    if lo < hi:  # the rows of the single-n runs, up to the first that fails
        expected, expected_code = "", 0
        for n in range(lo, hi + 1):
            single = list(argv)
            single[n_at] = str(n)
            expected_code, out, _ = run([*single, "--format", "json"])
            expected += out
            if expected_code:
                break
        assert results["json"][:2] == (expected_code, expected), argv

    if command in ("count", "numerator"):
        for row in rows["json"]:
            n = int(row["n"])
            if n <= 10:
                if command == "count":
                    stat = (0, 0)
                else:
                    s2 = None if row.get("s2") is None else int(row["s2"])
                    stat = (int(row["s1"]), int(row["p1"]), s2, int(row.get("p2") or 0))
                value = row[BARE[command]]
                assert int(value) == oracle_numerator(child_set, n, *stat), (argv, n)
    elif command in ("enumerate", "sample") and code == 0:
        trees = [parse_code(row["code"]) for row in rows["text"]]
        assert all(len(t) == lo and is_valid_code(child_set, t) for t in trees), argv
        if command == "enumerate":
            assert len(trees) == count_trees(child_set, lo)
        else:
            assert len(trees) == int(argv[argv.index("--count") + 1])
            assert run([*argv, "--format", "text"]) == results["text"], argv
