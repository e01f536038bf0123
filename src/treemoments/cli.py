"""Command-line front end.

Subcommands: count, numerator, moments, scaled, normal-compare, guess-rec,
enumerate, sample.  Exit codes: 0 success, 1 usage error, 2 domain error
(no trees, degenerate variance, enumeration cap, ...), with a one-line
`error: <CODE>: <message>` on standard error.

Output is deterministic: identical arguments (including --seed) produce
byte-identical bytes.  Every number printed is an exact integer, an exact
fraction `p/q`, or a decimal string at the requested --digits; no binary
floating point is involved anywhere.  The optional environment variable
TREEMOMENTS_ENUM_CAP overrides the default enumeration cap.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from random import Random
from typing import IO, Iterable

from .childset import ChildSet
from .engine import NumeratorQuery, count_trees, numerator_mixed, numerator_sequence
from .errors import DomainError
from .gaussref import normality_gap_report
from .moments import DEFAULT_DIGITS, MomentSpec, moment_report, scaled_moment
from .oracle import DEFAULT_ENUMERATION_CAP, TreeSampler, enumerate_trees, format_code
from .recurrence import guess_recurrence

ENUM_CAP_ENV = "TREEMOMENTS_ENUM_CAP"


@dataclass(frozen=True)
class RunConfig:
    """Validated arguments for one invocation."""

    command: str
    child_set: ChildSet
    n_lo: int = 1
    n_hi: int = 1
    s1: int | None = None
    s2: int | None = None
    p1: int = 0
    p2: int = 0
    max_p1: int = 2
    max_p2: int = 2
    fmt: str = "text"
    digits: int = DEFAULT_DIGITS
    seed: int = 0
    count: int = 1
    cap: int = DEFAULT_ENUMERATION_CAP
    stat: str = "count"
    terms: int = 40
    max_order: int = 4
    max_degree: int = 3
    margin: int = 8

    @property
    def single_n(self) -> bool:
        return self.n_lo == self.n_hi


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this surface uses 1."""

    def error(self, message: str) -> None:
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_child_set(text: str) -> ChildSet:
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"child set {text!r} is not a comma-separated integer list")
    return ChildSet(values)


def _parse_n(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad n range {text!r}")
    return lo, hi


def _parse_powers(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) == 1:
        pair = (int(parts[0]), 0)
    elif len(parts) == 2:
        pair = (int(parts[0]), int(parts[1]))
    else:
        raise ValueError(f"bad power pair {text!r}")
    if pair[0] < 0 or pair[1] < 0:
        raise ValueError("powers must be nonnegative")
    return pair


class RowWriter:
    """Serializes row dicts as text columns, CSV, or JSON objects.

    Text output is buffered and aligned when `buffered`, otherwise streamed
    with columns padded to the widest value seen so far (ranges stream so
    long runs can be watched incrementally).
    """

    def __init__(self, fmt: str, columns: list[str], out: IO[str], buffered: bool):
        self.fmt = fmt
        self.columns = columns
        self.out = out
        self.buffered = buffered and fmt == "text"
        self.rows: list[list[str]] = []
        self.widths = [len(c) for c in columns]
        self.started = False
        if fmt == "csv":
            self.csv = csv.writer(out, lineterminator="\n")

    @staticmethod
    def _cell(value, fmt: str) -> str:
        if value is None:
            return "" if fmt == "csv" else "-"
        if isinstance(value, (list, tuple)):
            return " ".join(str(v) for v in value)
        return str(value)

    def write(self, row: dict) -> None:
        if self.fmt == "json":
            self.out.write(json.dumps(row, default=str) + "\n")
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


def _cmd_count(cfg: RunConfig, out: IO[str]) -> None:
    if cfg.single_n and cfg.fmt == "text":
        out.write(f"{count_trees(cfg.child_set, cfg.n_lo)}\n")
        return
    writer = RowWriter(cfg.fmt, ["n", "count"], out, buffered=cfg.single_n)
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        writer.write({"n": n, "count": count_trees(cfg.child_set, n)})
    writer.close()


def _cmd_numerator(cfg: RunConfig, out: IO[str]) -> None:
    with_pair = cfg.s2 is not None
    columns = ["n", "s1", "p1", "numerator"]
    if with_pair:
        columns = ["n", "s1", "p1", "s2", "p2", "numerator"]
    if cfg.single_n and cfg.fmt == "text":
        query = NumeratorQuery(
            cfg.child_set, cfg.n_lo, cfg.s1, cfg.p1, cfg.s2, cfg.p2
        )
        out.write(f"{numerator_mixed(query)}\n")
        return
    writer = RowWriter(cfg.fmt, columns, out, buffered=cfg.single_n)
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        query = NumeratorQuery(cfg.child_set, n, cfg.s1, cfg.p1, cfg.s2, cfg.p2)
        row = {"n": n, "s1": cfg.s1, "p1": cfg.p1}
        if with_pair:
            row["s2"] = cfg.s2
            row["p2"] = cfg.p2
        row["numerator"] = numerator_mixed(query)
        writer.write(row)
    writer.close()


def _cmd_moments(cfg: RunConfig, out: IO[str]) -> None:
    spec = MomentSpec(
        cfg.child_set, cfg.n_lo, cfg.s1, cfg.s2, cfg.max_p1, cfg.max_p2
    )
    report = moment_report(spec, cfg.digits)
    writer = RowWriter(cfg.fmt, ["p1", "p2", "raw", "central", "scaled"], out, True)
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


def _cmd_scaled(cfg: RunConfig, out: IO[str]) -> None:
    if cfg.single_n and cfg.fmt == "text":
        spec = MomentSpec(cfg.child_set, cfg.n_lo, cfg.s1, cfg.s2)
        out.write(f"{scaled_moment(spec, cfg.p1, cfg.p2, cfg.digits).text}\n")
        return
    writer = RowWriter(cfg.fmt, ["n", "p1", "p2", "alpha", "exact"], out, cfg.single_n)
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        spec = MomentSpec(cfg.child_set, n, cfg.s1, cfg.s2)
        value = scaled_moment(spec, cfg.p1, cfg.p2, cfg.digits)
        writer.write(
            {
                "n": n,
                "p1": cfg.p1,
                "p2": cfg.p2,
                "alpha": value.text,
                "exact": None if value.exact is None else str(value.exact),
            }
        )
    writer.close()


def _cmd_normal_compare(cfg: RunConfig, out: IO[str]) -> None:
    spec = MomentSpec(
        cfg.child_set, cfg.n_lo, cfg.s1, cfg.s2, cfg.max_p1, cfg.max_p2
    )
    report = normality_gap_report(spec, cfg.max_p1, cfg.max_p2, cfg.digits)
    writer = RowWriter(cfg.fmt, ["p1", "p2", "alpha", "normal", "gap"], out, True)
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


def _cmd_guess_rec(cfg: RunConfig, out: IO[str]) -> None:
    if cfg.stat == "count":
        seq = [count_trees(cfg.child_set, n) for n in range(1, cfg.terms + 1)]
    else:
        table = numerator_sequence(
            cfg.child_set, cfg.s1, cfg.s2, cfg.p1, cfg.p2, cfg.terms
        )
        seq = table.sequence(cfg.p1, cfg.p2)
    rec = guess_recurrence(seq, cfg.max_order, cfg.max_degree, margin=cfg.margin)
    if cfg.fmt == "json":
        if rec is None:
            out.write(json.dumps({"found": False}) + "\n")
        else:
            out.write(json.dumps({"found": True, **rec.to_json_dict()}) + "\n")
        return
    if cfg.fmt == "csv":
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


def _write_codes(cfg: RunConfig, out: IO[str], codes: Iterable) -> None:
    if cfg.fmt == "text":
        for code in codes:
            out.write(format_code(code) + "\n")
        return
    writer = RowWriter(cfg.fmt, ["code"], out, buffered=False)
    for code in codes:
        writer.write({"code": list(code)})
    writer.close()


def _cmd_enumerate(cfg: RunConfig, out: IO[str]) -> None:
    _write_codes(cfg, out, enumerate_trees(cfg.child_set, cfg.n_lo, cfg.cap))


def _cmd_sample(cfg: RunConfig, out: IO[str]) -> None:
    sampler = TreeSampler(cfg.child_set, cfg.n_lo)
    rng = Random(cfg.seed)
    _write_codes(cfg, out, (sampler.sample(rng) for _ in range(cfg.count)))


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
            required=True,
            metavar="LIST",
            help="allowed child counts, e.g. 0,1,2 (must contain 0)",
        )
        if with_n:
            sp.add_argument(
                "-n",
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
            type=int,
            default=DEFAULT_DIGITS,
            help="decimal digits after the point (default 30)",
        )

    sp = sub.add_parser("count", help="number of trees on n vertices")
    common(sp)

    sp = sub.add_parser("numerator", help="moment numerator N_{p1,p2}")
    common(sp)
    sp.add_argument("--s1", type=int, required=True, help="first child-count statistic")
    sp.add_argument("--s2", type=int, help="second child-count statistic")
    sp.add_argument("--p", default="1", metavar="P1[,P2]", help="powers (default 1)")

    sp = sub.add_parser("moments", help="raw/central/scaled moment table")
    common(sp)
    sp.add_argument("--s1", type=int, required=True)
    sp.add_argument("--s2", type=int)
    sp.add_argument("--max-p", default=None, metavar="A[,B]", help="grid bounds")

    sp = sub.add_parser("scaled", help="one scaled mixed moment alpha_{p1,p2}")
    common(sp)
    sp.add_argument("--s1", type=int, required=True)
    sp.add_argument("--s2", type=int)
    sp.add_argument("--p", default="2", metavar="P1[,P2]", help="powers (default 2)")

    sp = sub.add_parser(
        "normal-compare", help="scaled moments vs bivariate normal reference"
    )
    common(sp)
    sp.add_argument("--s1", type=int, required=True)
    sp.add_argument("--s2", type=int, required=True)
    sp.add_argument("--max-p", default="2,2", metavar="A,B", help="grid bounds")

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
    sp.add_argument("--p", default="1", metavar="P1[,P2]")
    sp.add_argument("--terms", type=int, default=40, help="terms to fit (default 40)")
    sp.add_argument("--max-order", type=int, default=4)
    sp.add_argument("--max-degree", type=int, default=3)
    sp.add_argument("--margin", type=int, default=8, help="held-out terms (default 8)")

    sp = sub.add_parser("enumerate", help="list all trees as child-count codes")
    common(sp)
    sp.add_argument("--cap", type=int, default=None, help="enumeration cap override")

    sp = sub.add_parser("sample", help="uniform random trees")
    common(sp)
    sp.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    sp.add_argument("--count", type=int, default=1, help="samples (default 1)")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    child_set = _parse_child_set(args.child_set)
    kwargs: dict = {"command": args.command, "child_set": child_set}
    if getattr(args, "n", None) is not None:
        kwargs["n_lo"], kwargs["n_hi"] = _parse_n(args.n)
        if args.command in _SINGLE_N and kwargs["n_lo"] != kwargs["n_hi"]:
            raise ValueError(f"{args.command} takes a single n, not a range")
    kwargs["fmt"] = args.format
    if args.digits < 0:
        raise ValueError("--digits must be nonnegative")
    kwargs["digits"] = args.digits
    if hasattr(args, "s1"):
        kwargs["s1"] = args.s1
        kwargs["s2"] = args.s2
    if hasattr(args, "p"):
        kwargs["p1"], kwargs["p2"] = _parse_powers(args.p)
    if getattr(args, "max_p", None) is not None:
        kwargs["max_p1"], kwargs["max_p2"] = _parse_powers(args.max_p)
    elif args.command == "moments":
        kwargs["max_p1"] = 2
        kwargs["max_p2"] = 2 if args.s2 is not None else 0
    if hasattr(args, "seed"):
        kwargs["seed"] = args.seed
        if args.count < 1:
            raise ValueError("--count must be at least 1")
        kwargs["count"] = args.count
    if hasattr(args, "cap"):
        cap = args.cap
        if cap is None:
            cap = int(os.environ.get(ENUM_CAP_ENV, DEFAULT_ENUMERATION_CAP))
        kwargs["cap"] = cap
    if hasattr(args, "stat"):
        kwargs["stat"] = args.stat
        if args.stat == "numerator" and args.s1 is None:
            raise ValueError("--stat numerator requires --s1")
        if args.terms < 1:
            raise ValueError("--terms must be at least 1")
        kwargs["terms"] = args.terms
        kwargs["max_order"] = args.max_order
        kwargs["max_degree"] = args.max_degree
        kwargs["margin"] = args.margin
    return RunConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    # Exact answers can exceed Python's int->str digit limit (4300 by
    # default); lift it for this call only, since main also runs in-process.
    has_limit = hasattr(sys, "set_int_max_str_digits")
    if has_limit:
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        config = _config_from_args(args)
        _HANDLERS[config.command](config, sys.stdout)
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
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
