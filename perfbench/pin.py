"""Regenerate pinned.json: the exact answers every job variant is checked against.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/pin.py

It lifts the integer string-conversion limit in this process only, so it
also pins the true answers of jobs whose CLI run fails on that limit.  Tree
counts are cross-checked against a recurrence guessed from the first terms
and run forward, a route that does not use the power-coefficient engine.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from treemoments import ChildSet, count_trees, extend_sequence, guess_recurrence
from treemoments.cli import main
from treemoments.engine import numerator_grid

import checks
from workloads import all_variants

GRID_ORDER = 4  # every moment job asks for --max-p 4,4


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if code:
        raise SystemExit(f"{checks.argv_key(argv)} exited {code}")
    return out.getvalue()


def counts_by_recurrence(child_set: ChildSet, n_max: int) -> list[int]:
    """f_1..f_n_max from a recurrence fitted to the first 60 counts."""
    first = [count_trees(child_set, n) for n in range(1, 61)]
    rec = guess_recurrence(first, max_order=4, max_degree=3)
    if rec is None:
        raise SystemExit(f"no count recurrence for {child_set}")
    terms = extend_sequence(rec, first[: rec.order], n_max).terms
    return [int(t) for t in terms]


def cross_check_counts(argv, stdout: str, cache: dict) -> None:
    opts = checks.options(argv)
    child_set = ChildSet(int(t) for t in opts["-S"].split(","))
    ns = checks.n_range(opts["-n"])
    counts = cache.get(child_set, [])
    if len(counts) < ns[-1]:
        counts = cache[child_set] = counts_by_recurrence(child_set, ns[-1])
    expected = [f"{n}:{counts[n - 1]}" for n in ns]
    if checks.value_lines(argv, stdout) != expected:
        raise SystemExit(f"{checks.argv_key(argv)} disagrees with the count recurrence")


def pin() -> dict:
    sys.set_int_max_str_digits(0)
    pinned: dict = {"values": {}, "grids": {}, "texts": {}}
    recurrence_counts: dict = {}
    for argv in all_variants():
        key = checks.argv_key(argv)
        command = argv[0]
        opts = checks.options(argv)
        if command in ("count", "numerator", "scaled"):
            stdout = run_cli(argv)
            if command == "count":
                cross_check_counts(argv, stdout, recurrence_counts)
            pinned["values"][key] = checks.digest(checks.value_lines(argv, stdout))
        elif command in ("moments", "normal-compare"):
            s1, s2 = sorted((int(opts["--s1"]), int(opts["--s2"])))
            child_set = ChildSet(int(t) for t in opts["-S"].split(","))
            n = int(opts["-n"])
            grid = numerator_grid(child_set, n, s1, s2, GRID_ORDER, GRID_ORDER)
            if grid[(0, 0)] != count_trees(child_set, n):
                raise SystemExit(f"{key}: N00 is not the tree count")
            rows = [[str(grid[(a, b)]) for b in range(GRID_ORDER + 1)] for a in range(GRID_ORDER + 1)]
            pinned["grids"][f"{opts['-S']}|{n}|{s1}|{s2}"] = rows
        elif command == "guess-rec":
            pinned["texts"][key] = run_cli(argv)
        print(f"pinned {key}", file=sys.stderr)
    return pinned


if __name__ == "__main__":
    with open(checks.PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pin(), fh, indent=0, sort_keys=True)
        fh.write("\n")
