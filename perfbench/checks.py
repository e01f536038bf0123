"""Output checks that do not use the package under test.

Three kinds of check:

* exact integers and fractions are compared with values pinned in
  `pinned.json` (digests of the canonical value list, or the exact numerator
  grid for moment tables), and `guess-rec` output with the pinned text;
* every decimal cell must be the round-half-even rounding of the exact
  quantity, decided here in integer arithmetic from the pinned grid or from
  exact fractions already verified;
* `sample` and `enumerate` output is checked structurally, since a change of
  sampler changes which trees a seed draws.

The caller must lift the interpreter's integer string-conversion limit
(`sys.set_int_max_str_digits(0)`): the exact values run to tens of
thousands of digits.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from math import comb, factorial, isqrt
from pathlib import Path

PINNED_PATH = Path(__file__).with_name("pinned.json")
DIGITS = 30  # the CLI's default --digits, which every job uses


class CheckFailed(Exception):
    """The output is not the correct answer for its arguments."""


def load_pinned(path: Path = PINNED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def argv_key(argv) -> str:
    return " ".join(argv)


def options(argv) -> dict[str, str]:
    """Every option the jobs use takes one value: pair them up."""
    return dict(zip(argv[1::2], argv[2::2]))


def n_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# ---------------------------------------------------------------- decimals


def _parse_decimal(text: str, places: int) -> int:
    """The printed decimal times 10**places, requiring exactly `places` digits."""
    body = text[1:] if text.startswith("-") else text
    whole, dot, frac = body.partition(".")
    if not whole.isdigit() or (places and (not dot or len(frac) != places or not frac.isdigit())):
        raise CheckFailed(f"malformed decimal {text!r}")
    value = int(whole + frac)
    return -value if text.startswith("-") else value


def _rational_root(value: Fraction) -> Fraction | None:
    p, q = isqrt(value.numerator), isqrt(value.denominator)
    if p * p == value.numerator and q * q == value.denominator:
        return Fraction(p, q)
    return None


def rounded_candidates(rational: Fraction, terms, places: int) -> set[int]:
    """round-half-even(value * 10**places) for value = rational + sum c*sqrt(r).

    Each root is bracketed with integer square roots at growing precision
    until both ends of the bracket round alike.  A value that sits exactly on
    a tie after cancelling roots cannot be resolved this way; both
    neighbours are then accepted.
    """
    roots = []
    for coeff, radicand in terms:
        if coeff == 0 or radicand == 0:
            continue
        root = _rational_root(radicand)
        if root is not None:
            rational += coeff * root
        else:
            roots.append((1 if coeff > 0 else -1, coeff * coeff * radicand))
    if not roots:
        return {round(rational * 10**places)}
    for guard in (10, 60, 400):
        scale = 10 ** (places + guard)
        lo = hi = rational * scale
        for sign, square in roots:
            # sqrt(P/Q)*scale lies in [s/Q, (s+1)/Q) with s = isqrt(P*Q*scale^2)
            p, q = square.numerator, square.denominator
            s = isqrt(p * q * scale * scale)
            low, high = Fraction(s, q), Fraction(s + 1, q)
            if sign > 0:
                lo, hi = lo + low, hi + high
            else:
                lo, hi = lo - high, hi - low
        unit = 10**guard
        first, last = round(lo / unit), round(hi / unit)
        if first == last:
            return {first}
    return {first, last}


def check_decimal(text: str, rational: Fraction, terms=(), places: int = DIGITS) -> None:
    printed = _parse_decimal(text, places)
    if printed not in rounded_candidates(Fraction(rational), terms, places):
        raise CheckFailed(f"decimal {text} is not the rounded exact value")


# ---------------------------------------------------------- moment grids


def _grid(pinned: dict, child_set: str, n: int, s1: int, s2: int) -> list[list[int]]:
    """Numerators N[a][b] = sum over trees of X_s1^a X_s2^b, a, b <= 4."""
    lo, hi = sorted((s1, s2))
    rows = pinned["grids"].get(f"{child_set}|{n}|{lo}|{hi}")
    if rows is None:
        raise KeyError(f"no pinned grid for S={child_set} n={n} s={lo},{hi}")
    grid = [[int(v) for v in row] for row in rows]
    return grid if s1 < s2 else [list(col) for col in zip(*grid)]


def central_moments(grid: list[list[int]]) -> dict[tuple[int, int], Fraction]:
    """E[(X1-mu1)^a (X2-mu2)^b] from raw moments by the binomial theorem."""
    total = grid[0][0]
    raw = {(a, b): Fraction(v, total) for a, row in enumerate(grid) for b, v in enumerate(row)}
    mu1, mu2 = raw[(1, 0)], raw[(0, 1)]
    central = {}
    for a, b in raw:
        central[(a, b)] = sum(
            comb(a, r) * comb(b, t) * (-mu1) ** r * (-mu2) ** t * raw[(a - r, b - t)]
            for r in range(a + 1)
            for t in range(b + 1)
        )
    return central


def scaled_square(central, a: int, b: int) -> tuple[int, Fraction]:
    """(sign, square) of alpha_{a,b} = m_ab / (var1^(a/2) var2^(b/2))."""
    m = central[(a, b)]
    var1 = central[(2, 0)] if a else Fraction(1)
    var2 = central[(0, 2)] if b else Fraction(1)
    sign = (m > 0) - (m < 0)
    return sign, m * m / (var1**a * var2**b)


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def normal_moment_poly(a: int, b: int) -> list[int]:
    """E[X^a Y^b] for a standard normal pair, by counting Isserlis pairings.

    Coefficient k counts pairings with k cross pairs (each worth rho).
    """
    coeffs = [0] * (min(a, b) + 1)
    for k in range(min(a, b) + 1):
        if (a - k) % 2 or (b - k) % 2:
            continue
        coeffs[k] = (
            comb(a, k) * comb(b, k) * factorial(k)
            * _double_factorial(a - k - 1) * _double_factorial(b - k - 1)
        )
    return coeffs


# ---------------------------------------------------------------- tables


def _table_rows(stdout: str, columns: list[str]) -> list[list[str]]:
    lines = stdout.splitlines()
    if not lines or lines[0].split() != columns:
        raise CheckFailed(f"expected header {columns}")
    rows = [line.split() for line in lines[1:]]
    if any(len(row) != len(columns) for row in rows):
        raise CheckFailed("ragged table row")
    return rows


def _csv_rows(stdout: str, columns: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != columns:
        raise CheckFailed(f"expected csv header {columns}")
    if any(len(row) != len(columns) for row in rows[1:]):
        raise CheckFailed("ragged csv row")
    return rows[1:]


def _cells(rows) -> dict[tuple[int, int], list[str]]:
    return {(int(row[0]), int(row[1])): row[2:] for row in rows}


def _expect_grid_cells(cells, size: int = 5) -> None:
    if set(cells) != {(a, b) for a in range(size) for b in range(size)}:
        raise CheckFailed("moment table does not cover the 5x5 grid")


# --------------------------------------------------------------- per command


def value_lines(argv, stdout: str) -> list[str]:
    """Canonical `n:value` lines of a count, numerator or scaled answer.

    For `scaled` the value is the exact column; its decimals are checked
    separately.
    """
    opts = options(argv)
    if opts.get("--format", "text") == "text":
        if argv[0] == "scaled" or len(n_range(opts["-n"])) != 1:
            raise NotImplementedError("only single-value text answers are used")
        pairs = [(opts["-n"], stdout.strip())]
    else:
        header = next(csv.reader(io.StringIO(stdout)), [])
        column = "exact" if argv[0] == "scaled" else argv[0]
        if header[:1] != ["n"] or column not in header:
            raise CheckFailed(f"expected csv columns n and {column}")
        at = header.index(column)
        pairs = [(row[0], row[at]) for row in _csv_rows(stdout, header)]
    parse = Fraction if argv[0] == "scaled" else int
    return [f"{int(n)}:{parse(value)}" for n, value in pairs]


def check_values(argv, stdout, pinned) -> None:
    if digest(value_lines(argv, stdout)) != pinned["values"][argv_key(argv)]:
        raise CheckFailed("values differ from the pinned exact values")


def check_scaled(argv, stdout, pinned) -> None:
    check_values(argv, stdout, pinned)
    for row in _csv_rows(stdout, ["n", "p1", "p2", "alpha", "exact"]):
        check_decimal(row[3], Fraction(row[4]))


def check_moments(argv, stdout, pinned) -> None:
    opts = options(argv)
    grid = _grid(pinned, opts["-S"], int(opts["-n"]), int(opts["--s1"]), int(opts["--s2"]))
    central = central_moments(grid)
    cells = _cells(_table_rows(stdout, ["p1", "p2", "raw", "central", "scaled"]))
    _expect_grid_cells(cells)
    for (a, b), (raw, cen, scaled) in cells.items():
        if Fraction(raw) != Fraction(grid[a][b], grid[0][0]):
            raise CheckFailed(f"raw moment ({a},{b}) is wrong")
        if Fraction(cen) != central[(a, b)]:
            raise CheckFailed(f"central moment ({a},{b}) is wrong")
        sign, square = scaled_square(central, a, b)
        check_decimal(scaled, 0, [(sign, square)])


def check_normal_compare(argv, stdout, pinned) -> None:
    opts = options(argv)
    grid = _grid(pinned, opts["-S"], int(opts["-n"]), int(opts["--s1"]), int(opts["--s2"]))
    central = central_moments(grid)
    rho_sign, rho_square = scaled_square(central, 1, 1)
    cells = _cells(_table_rows(stdout, ["p1", "p2", "alpha", "normal", "gap"]))
    _expect_grid_cells(cells)
    for (a, b), (alpha, normal, gap) in cells.items():
        sign, square = scaled_square(central, a, b)
        even, odd = Fraction(0), Fraction(0)
        for k, c in enumerate(normal_moment_poly(a, b)):
            if k % 2:
                odd += c * rho_square ** (k // 2)
            else:
                even += c * rho_square ** (k // 2)
        ref_root = (rho_sign * odd, rho_square)
        check_decimal(alpha, 0, [(sign, square)])
        check_decimal(normal, even, [ref_root])
        check_decimal(gap, -even, [(sign, square), (-ref_root[0], rho_square)])


def check_guess_rec(argv, stdout, pinned) -> None:
    if stdout != pinned["texts"][argv_key(argv)]:
        raise CheckFailed("guessed recurrence differs from the pinned result")


def parse_child_set(text: str) -> set[int]:
    return {int(tok) for tok in text.split(",")}


def is_lukasiewicz(code: list[int], child_set: set[int]) -> bool:
    """Preorder child counts of one tree: slots stay open until the last vertex."""
    open_slots = 1
    for c in code:
        if open_slots < 1 or c not in child_set:
            return False
        open_slots += c - 1
    return open_slots == 0


def tree_count(child_set: set[int], n: int) -> int:
    """Number of valid codes of length n, by dynamic programming on open slots."""
    ways = {1: 1}
    for step in range(n):
        nxt: dict[int, int] = {}
        for slots, count in ways.items():
            for c in child_set:
                left = slots + c - 1
                if left >= 1 or (left == 0 and step == n - 1):
                    nxt[left] = nxt.get(left, 0) + count
        ways = nxt
    return ways.get(0, 0)


def _codes(argv, stdout) -> list[list[int]]:
    opts = options(argv)
    child_set, n = parse_child_set(opts["-S"]), int(opts["-n"])
    codes = []
    for line in stdout.splitlines():
        try:
            code = [int(tok) for tok in line.split()]
        except ValueError:
            raise CheckFailed(f"malformed code {line!r}") from None
        if len(code) != n or not is_lukasiewicz(code, child_set):
            raise CheckFailed(f"not a tree on {n} vertices over S: {line!r}")
        codes.append(code)
    return codes


def check_sample(argv, stdout, pinned) -> None:
    if len(_codes(argv, stdout)) != int(options(argv)["--count"]):
        raise CheckFailed("wrong number of samples")


def check_enumerate(argv, stdout, pinned) -> None:
    codes = _codes(argv, stdout)
    opts = options(argv)
    if len({tuple(c) for c in codes}) != len(codes):
        raise CheckFailed("enumeration repeats a tree")
    if len(codes) != tree_count(parse_child_set(opts["-S"]), int(opts["-n"])):
        raise CheckFailed("enumeration misses trees")


CHECKS = {
    "count": check_values,
    "numerator": check_values,
    "scaled": check_scaled,
    "moments": check_moments,
    "normal-compare": check_normal_compare,
    "guess-rec": check_guess_rec,
    "sample": check_sample,
    "enumerate": check_enumerate,
}


def check_output(argv, stdout: str, pinned: dict) -> str | None:
    """None when stdout is the correct answer for argv, else the reason.

    A job with no pinned expectation raises KeyError: that is a fault of the
    benchmark, not of the program.
    """
    try:
        CHECKS[argv[0]](argv, stdout, pinned)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None
