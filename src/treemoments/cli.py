"""Command-line front end.

Subcommands: count, numerator, moments, scaled, normal-compare, guess-rec,
enumerate, sample.  Exit codes: 0 success, 1 usage error, found while
parsing before any work starts, 2 domain error (no trees, degenerate
variance, enumeration cap, ...), each with a one-line `error: usage: ...`
or `error: <CODE>: <message>` on standard error.  Any other failure is an
internal bug and ends in a traceback.

Output is deterministic: identical arguments (including --seed) produce
byte-identical bytes.  Every number printed is an exact integer, an exact
fraction `p/q`, or a decimal string at the requested --digits; no binary
floating point is involved anywhere.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable
from itertools import chain, islice
from io import TextIOBase
from random import Random

from .childset import ChildSet
from .engine import check_query, count_range, count_trees, numerator_grids
from .engine import numerator_mixed, numerator_sequence
from .errors import DomainError
from .gaussref import normality_gap_report
from .moments import DEFAULT_DIGITS, MomentSpec, moment_report, scaled_bounds, scaled_moment
from .oracle import DEFAULT_ENUMERATION_CAP, TreeSampler, enumerate_trees, format_code
from .recurrence import guess_recurrence


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this surface uses 1."""

    def error(self, message: str) -> None:
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_child_set(text: str) -> ChildSet:
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"child set {text!r} is not a comma-separated integer list"
        ) from None
    try:
        return ChildSet(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_n(text: str) -> tuple[int, int]:
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        lo = hi = 0  # reported below as a bad range
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad n range {text!r}")
    return lo, hi


def _parse_powers(text: str) -> tuple[int, int]:
    try:
        p1, p2 = map(int, text.split(",")) if "," in text else (int(text), 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad power pair {text!r}") from None
    if p1 < 0 or p2 < 0:
        raise argparse.ArgumentTypeError("powers must be nonnegative")
    return p1, p2


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


class RowWriter:
    """Serializes row dicts as text columns, CSV, or JSON objects.

    Text output is buffered and aligned when `buffered`, otherwise streamed
    with columns padded to the widest value seen so far (ranges stream so
    long runs can be watched incrementally).
    """

    def __init__(self, fmt: str, columns: list[str], out: TextIOBase, buffered: bool):
        self.fmt = fmt
        self.columns = columns
        self.out = out
        self.buffered = buffered and fmt == "text"
        self.rows: list[list[str]] = []
        self.widths = [len(c) for c in columns]
        self.started = False
        # csv and json are imported where used, not by every command
        if fmt == "csv":
            import csv
            self.csv = csv.writer(out, lineterminator="\n")
        elif fmt == "json":
            import json
            self.dumps = json.dumps

    @staticmethod
    def _cell(value, fmt: str) -> str:
        if value is None:
            return "" if fmt == "csv" else "-"
        if isinstance(value, (list, tuple)):
            return " ".join(str(v) for v in value)
        return str(value)

    def write(self, row: dict) -> None:
        if self.fmt == "json":
            self.out.write(self.dumps(row) + "\n")
            return
        if self.fmt == "csv":
            if not self.started:
                self.csv.writerow(self.columns)
                self.started = True
            self.csv.writerow([self._cell(row[c], "csv") for c in self.columns])
            return
        cells = [self._cell(row[c], "text") for c in self.columns]
        self.widths = [max(w, len(c)) for w, c in zip(self.widths, cells)]
        if self.buffered:
            self.rows.append(cells)
            return
        if not self.started:
            self._print_aligned(self.columns)
            self.started = True
        self._print_aligned(cells)

    def _print_aligned(self, cells: Iterable[str]) -> None:
        line = "  ".join(c.rjust(w) for c, w in zip(cells, self.widths))
        self.out.write(line.rstrip() + "\n")

    def close(self) -> None:
        if self.buffered and self.rows:
            self._print_aligned(self.columns)
            for cells in self.rows:
                self._print_aligned(cells)


def _per_n(
    args: argparse.Namespace, out: TextIOBase, columns: list[str], rows, bare: str
) -> None:
    """A single n in text prints its row's [bare] alone; otherwise one row per n."""
    lo, hi = args.n
    if lo == hi and args.format == "text":
        out.write(f"{next(iter(rows))[bare]}\n")
        return
    writer = RowWriter(args.format, columns, out, buffered=False)
    for row in rows:
        writer.write(row)
    writer.close()


def _cmd_count(args: argparse.Namespace, out: TextIOBase) -> None:
    # one n reads one coefficient of phi^n; a range steps a window of it across n
    lo, hi = args.n
    if lo == hi:
        counts: Iterable[int] = [count_trees(args.child_set, lo)]
    else:
        counts = count_range(args.child_set, lo, hi)
    rows = ({"n": n, "count": value} for n, value in zip(range(lo, hi + 1), counts))
    _per_n(args, out, ["n", "count"], rows, "count")


def _cmd_numerator(args: argparse.Namespace, out: TextIOBase) -> None:
    lo, hi = args.n
    p1, p2 = args.p
    given = {"s1": args.s1, "p1": p1}
    if args.s2 is not None:
        given.update(s2=args.s2, p2=p2)

    if lo == hi:
        values: Iterable[int] = [numerator_mixed(args.child_set, lo, args.s1, p1, args.s2, p2)]
    else:
        grids = numerator_grids(args.child_set, lo, hi, args.s1, args.s2, p1, p2)
        values = (grid[(p1, p2)] for grid in grids)
    rows = ({"n": n, **given, "numerator": value} for n, value in zip(range(lo, hi + 1), values))
    _per_n(args, out, ["n", *given, "numerator"], rows, "numerator")


def _cmd_moments(args: argparse.Namespace, out: TextIOBase) -> None:
    report = moment_report(args.query, args.digits)
    writer = RowWriter(args.format, ["p1", "p2", "raw", "central", "scaled"], out, True)
    for cell in sorted(report.raw):
        scaled = report.scaled.get(cell)
        writer.write(
            {
                "p1": cell[0],
                "p2": cell[1],
                "raw": str(report.raw[cell]),
                "central": str(report.central[cell]),
                "scaled": None if scaled is None else scaled.text,
            }
        )
    writer.close()


def _cmd_scaled(args: argparse.Namespace, out: TextIOBase) -> None:
    spec = args.query
    p1, p2 = args.p
    lo, hi = args.n

    if lo == hi:
        grids: Iterable = [None]  # scaled_moment computes the grid itself
    else:
        grids = numerator_grids(spec.child_set, lo, hi, spec.s1, spec.s2, *scaled_bounds(p1, p2))

    def row(n: int, grid) -> dict:
        at_n = MomentSpec(spec.child_set, n, spec.s1, spec.s2, spec.max_p1, spec.max_p2)
        value = scaled_moment(at_n, p1, p2, args.digits, grid=grid)
        exact = None if value.exact is None else str(value.exact)
        return {"n": n, "p1": p1, "p2": p2, "alpha": value.text, "exact": exact}

    columns = ["n", "p1", "p2", "alpha", "exact"]
    _per_n(args, out, columns, map(row, range(lo, hi + 1), grids), "alpha")


def _cmd_normal_compare(args: argparse.Namespace, out: TextIOBase) -> None:
    report = normality_gap_report(args.query, args.digits)
    writer = RowWriter(args.format, ["p1", "p2", "alpha", "normal", "gap"], out, True)
    for row in report.rows:
        writer.write(
            {
                "p1": row.p1,
                "p2": row.p2,
                "alpha": row.alpha_text,
                "normal": row.reference_text,
                "gap": row.gap_text,
            }
        )
    writer.close()


def _cmd_guess_rec(args: argparse.Namespace, out: TextIOBase) -> None:
    if args.stat == "count":
        seq = list(count_range(args.child_set, 1, args.terms))
    else:
        p1, p2 = args.p
        table = numerator_sequence(args.child_set, args.s1, args.s2, p1, p2, args.terms)
        seq = table.sequence(p1, p2)
    rec = guess_recurrence(seq, args.max_order, args.max_degree, margin=args.margin)
    if args.format == "json":
        import json
        if rec is None:
            out.write(json.dumps({"found": False}) + "\n")
        else:
            out.write(json.dumps({"found": True, **rec.to_json_dict()}) + "\n")
        return
    if args.format == "csv":
        import csv
        import json
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["order", "degree", "coefficients", "verified_from", "verified_to", "text"]
        )
        if rec is not None:
            writer.writerow(
                [
                    rec.order,
                    rec.degree,
                    json.dumps([list(q) for q in rec.coefficients]),
                    rec.verified_from,
                    rec.verified_to,
                    rec.render_text(),
                ]
            )
        return
    out.write("none\n" if rec is None else rec.render_text() + "\n")


# byte c -> the digit c, for codes whose counts are all 0..9
_DIGIT_BYTES = bytes.maketrans(bytes(range(10)), b"0123456789")


def _write_codes(args: argparse.Namespace, out: TextIOBase, codes: Iterable) -> None:
    n = args.n[0]
    if args.format != "text":
        writer = RowWriter(args.format, ["code"], out, buffered=False)
        for code in codes:
            writer.write({"code": list(code)})
        writer.close()
    elif args.child_set.within(n).max_count > 9:
        for code in codes:
            out.write(format_code(code) + "\n")
    else:
        # blocks of about 4096 one-digit counts, each written as one string:
        # digits at even offsets, the spaces and newline of each code at odd ones
        codes, per_block, gaps = iter(codes), max(1, 4096 // n), b" " * (n - 1) + b"\n"
        while block := list(islice(codes, per_block)):
            text = bytearray(2 * n * len(block))
            text[::2] = bytes(chain.from_iterable(block)).translate(_DIGIT_BYTES)
            text[1::2] = gaps * len(block)
            out.write(text.decode())


def _cmd_enumerate(args: argparse.Namespace, out: TextIOBase) -> None:
    _write_codes(args, out, enumerate_trees(args.child_set, args.n[0], args.cap))


def _cmd_sample(args: argparse.Namespace, out: TextIOBase) -> None:
    sampler = TreeSampler(args.child_set, args.n[0])
    rng = Random(args.seed)
    _write_codes(args, out, (sampler.sample(rng) for _ in range(args.count)))


_HANDLERS = {
    "count": _cmd_count,
    "numerator": _cmd_numerator,
    "moments": _cmd_moments,
    "scaled": _cmd_scaled,
    "normal-compare": _cmd_normal_compare,
    "guess-rec": _cmd_guess_rec,
    "enumerate": _cmd_enumerate,
    "sample": _cmd_sample,
}

_SINGLE_N = {"moments", "normal-compare", "enumerate", "sample"}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="treemoments",
        description=(
            "Exact counts and child-count moment statistics of ordered "
            "rooted trees with restricted child counts."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_n=True):
        sp.add_argument(
            "-S",
            "--child-set",
            type=_parse_child_set,
            required=True,
            metavar="LIST",
            help="allowed child counts, e.g. 0,1,2 (must contain 0)",
        )
        if with_n:
            sp.add_argument(
                "-n",
                type=_parse_n,
                required=True,
                metavar="N[..M]",
                help="vertex count, or inclusive range like 1..60",
            )
        sp.add_argument(
            "--format",
            choices=("text", "csv", "json"),
            default="text",
            help="output format (default text)",
        )
        sp.add_argument(
            "--digits",
            type=_at_least(0),
            default=DEFAULT_DIGITS,
            help="decimal digits after the point (default 30)",
        )

    def powers(sp, default):
        sp.add_argument(
            "--p",
            type=_parse_powers,
            default=default,
            metavar="P1[,P2]",
            help=f"powers (default {default})",
        )

    sp = sub.add_parser("count", help="number of trees on n vertices")
    common(sp)

    sp = sub.add_parser("numerator", help="moment numerator N_{p1,p2}")
    common(sp)
    sp.add_argument("--s1", type=int, required=True, help="first child-count statistic")
    sp.add_argument("--s2", type=int, help="second child-count statistic")
    powers(sp, "1")

    sp = sub.add_parser("moments", help="raw/central/scaled moment table")
    common(sp)
    sp.add_argument("--s1", type=int, required=True)
    sp.add_argument("--s2", type=int)
    sp.add_argument("--max-p", type=_parse_powers, metavar="A[,B]", help="grid bounds")

    sp = sub.add_parser("scaled", help="one scaled mixed moment alpha_{p1,p2}")
    common(sp)
    sp.add_argument("--s1", type=int, required=True)
    sp.add_argument("--s2", type=int)
    powers(sp, "2")

    sp = sub.add_parser(
        "normal-compare", help="scaled moments vs bivariate normal reference"
    )
    common(sp)
    sp.add_argument("--s1", type=int, required=True)
    sp.add_argument("--s2", type=int, required=True)
    sp.add_argument(
        "--max-p", type=_parse_powers, default="2,2", metavar="A,B", help="grid bounds"
    )

    sp = sub.add_parser("guess-rec", help="guess a P-recursive recurrence")
    common(sp, with_n=False)
    sp.add_argument(
        "--stat",
        choices=("count", "numerator"),
        default="count",
        help="sequence to fit (default count)",
    )
    sp.add_argument("--s1", type=int, help="statistic for --stat numerator")
    sp.add_argument("--s2", type=int)
    # no default, so that --stat count can reject an explicit --p
    sp.add_argument(
        "--p", type=_parse_powers, metavar="P1[,P2]", help="powers (default 1)"
    )
    sp.add_argument(
        "--terms", type=_at_least(1), default=40, help="terms to fit (default 40)"
    )
    sp.add_argument("--max-order", type=_at_least(1), default=4)
    sp.add_argument("--max-degree", type=_at_least(0), default=3)
    sp.add_argument(
        "--margin", type=_at_least(0), default=8, help="held-out terms (default 8)"
    )

    sp = sub.add_parser("enumerate", help="list all trees as child-count codes")
    common(sp)
    sp.add_argument(
        "--cap",
        type=_at_least(1),
        default=DEFAULT_ENUMERATION_CAP,
        help=f"enumeration cap (default {DEFAULT_ENUMERATION_CAP})",
    )

    sp = sub.add_parser("sample", help="uniform random trees")
    common(sp)
    sp.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    sp.add_argument("--count", type=_at_least(1), default=1, help="samples (default 1)")

    return parser


def _check(parser: _Parser, args: argparse.Namespace) -> None:
    """Usage checks that span arguments; a moment command's MomentSpec to args.query."""
    lo, hi = getattr(args, "n", (1, 1))
    if args.command in _SINGLE_N and lo != hi:
        parser.error(f"{args.command} takes a single n, not a range")
    if getattr(args, "stat", None) == "count":
        for option in ("s1", "s2", "p"):
            if getattr(args, option) is not None:
                parser.error(f"--stat count takes no --{option}")
    try:
        if args.command in ("moments", "normal-compare", "scaled"):
            bounds = args.p if args.command == "scaled" else args.max_p or ()
            args.query = MomentSpec(args.child_set, lo, args.s1, args.s2, *bounds)
        elif args.command == "numerator" or getattr(args, "stat", None) == "numerator":
            if args.s1 is None:
                parser.error("--stat numerator requires --s1")
            n = args.terms if args.command == "guess-rec" else lo
            p1, p2 = args.p = args.p or (1, 0)
            check_query(args.child_set, n, args.s1, p1, args.s2, p2)
    except ValueError as exc:
        parser.error(str(exc))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # Exact answers can exceed Python's int->str digit limit (4300 by
    # default); lift it for the handler only, since main also runs in-process.
    has_limit = hasattr(sys, "set_int_max_str_digits")
    old_limit = sys.get_int_max_str_digits() if has_limit else None
    try:
        args = parser.parse_args(argv)
        _check(parser, args)
        if has_limit:
            sys.set_int_max_str_digits(0)
        _HANDLERS[args.command](args, sys.stdout)
        sys.stdout.flush()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except DomainError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    finally:
        if has_limit:
            sys.set_int_max_str_digits(old_limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
