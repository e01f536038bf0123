"""Traced replay of one workload in a single process, for per-layer metrics.

Run from the repository root (run.py --trace 1 does this):

    PYTHONPATH=src python3 perfbench/tracer.py --workload many-small --seed 1

The workload's jobs go through `treemoments.cli.main(argv)` once untraced,
with output captured and checked.  Then each job runs once traced, with every
public function a layer calls in another layer wrapped in a span under the
name its caller looks up, and once more untraced; output of these two goes
to a byte counter.
Spans are kept in memory and reduced to per-layer self times and counts when
the replay ends.  The tracing overhead is the traced runs' wall time minus
the untraced runs' that follow them; it includes the counting done after
each span closes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import time
from collections import defaultdict

import treemoments.cli as cli
import treemoments.engine as engine
import treemoments.gaussref as gaussref
import treemoments.moments as moments
import treemoments.recurrence as recurrence
from treemoments.oracle import TreeSampler
from treemoments.render import SqrtExpr

import checks
from workloads import WORKLOADS, generate

PER_LAYER_UNITS = {
    "polyint.calls": "count",
    "polyint.self_s": "s",
    "polyint.coeffs": "count",
    "polyint.max_bits": "bits",
    "engine.calls": "count",
    "engine.self_s": "s",
    "engine.max_bits": "bits",
    "moments.calls": "count",
    "moments.self_s": "s",
    "moments.cells": "count",
    "gaussref.calls": "count",
    "gaussref.self_s": "s",
    "gaussref.multi_root_gaps": "count",
    "render.calls": "count",
    "render.self_s": "s",
    "render.digits_out": "count",
    "recurrence.calls": "count",
    "recurrence.self_s": "s",
    "recurrence.verify_s": "s",
    "recurrence.found": "count",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.build_s": "s",
    "oracle.draw_s": "s",
    "oracle.draws": "count",
    "oracle.draw_us": "us",
    "oracle.enum_s": "s",
    "oracle.enum_trees": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "cli.usage_errors": "count",
    "cli.domain_errors": "count",
    "trace.overhead_s": "s",
}


def _max_bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


class Tracer:
    """Span recorder.  A span is (id, parent id, name, layer, start, end, self)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [id, layer, child time]
        self.next_id = 0
        self.counts: dict[str, float] = defaultdict(float)

    def _open(self, layer: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        frame = [self.next_id, layer, 0.0, parent, time.perf_counter()]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, name: str) -> None:
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[4]
        if self.stack:
            self.stack[-1][2] += duration
        self.spans.append((frame[0], frame[3], name, frame[1], frame[4], end, duration - frame[2]))

    def span(self, name: str, layer: str, fn, count=None):
        """fn wrapped so each call records a span and then updates counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, name)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def generator(self, name: str, layer: str, fn, per_item: str):
        """fn returns an iterator; each item it yields is timed as a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(layer)
            try:
                inner = fn(*args, **kwargs)
            finally:
                self._close(frame, name)
            return self._items(inner, name + ".next", layer, per_item)

        return wrapper

    def _items(self, inner, name: str, layer: str, per_item: str):
        while True:
            frame = self._open(layer)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._close(frame, name)
            self.counts[per_item] += 1
            yield item


def _count_poly(counts, args, kwargs, result) -> None:
    counts["polyint.coeffs"] += len(result)
    counts["polyint.max_bits"] = max(counts["polyint.max_bits"], _max_bits(result))


def _count_engine(values_of):
    def count(counts, args, kwargs, result) -> None:
        bits = _max_bits(values_of(result))
        counts["engine.max_bits"] = max(counts["engine.max_bits"], bits)

    return count


def _count_cells(cells_of):
    def count(counts, args, kwargs, result) -> None:
        counts["moments.cells"] += cells_of(result)

    return count


def _count_gaps(counts, args, kwargs, result) -> None:
    counts["gaussref.multi_root_gaps"] += sum(len(row.gap.terms) >= 2 for row in result.rows)


def _count_digits(counts, args, kwargs, result) -> None:
    counts["render.digits_out"] += len(result)


def _count_found(counts, args, kwargs, result) -> None:
    counts["recurrence.found"] += result is not None


def install(tracer: Tracer) -> list:
    """Wrap each cross-layer entry point where its caller looks it up.

    Returns what uninstall() needs to put the originals back.
    """
    wrap = [
        (cli, "main", "cli", None),  # the root span of each job
        (engine, "poly_pow_coeffs", "polyint", _count_poly),
        (engine, "exact_div", "polyint", None),
        (engine, "stirling2", "polyint", None),
        (engine, "falling_factorial", "polyint", None),
        (cli, "count_trees", "engine", _count_engine(lambda r: [r])),
        (cli, "numerator_mixed", "engine", _count_engine(lambda r: [r])),
        (cli, "numerator_sequence", "engine", _count_engine(lambda r: r.values.values())),
        (moments, "numerator_grid", "engine", _count_engine(lambda r: r.values())),
        (cli, "moment_report", "moments", _count_cells(lambda r: len(r.raw))),
        (cli, "scaled_moment", "moments", _count_cells(lambda r: 1)),
        (gaussref, "_grid", "moments", None),
        (gaussref, "_central_from_grid", "moments", _count_cells(lambda r: 1)),
        (gaussref, "_scaled_from_grid", "moments", _count_cells(lambda r: 1)),
        (cli, "normality_gap_report", "gaussref", _count_gaps),
        (SqrtExpr, "render", "render", _count_digits),
        (SqrtExpr, "__add__", "render", None),
        (SqrtExpr, "__sub__", "render", None),
        (cli, "guess_recurrence", "recurrence", _count_found),
        (recurrence, "verify_recurrence", "recurrence", None),
        (TreeSampler, "__init__", "oracle", None),
        (TreeSampler, "sample", "oracle", None),
        (cli, "format_code", "oracle", None),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in wrap]
    originals += [(SqrtExpr, attr, SqrtExpr.__dict__[attr]) for attr in ("from_sqrt", "from_rational")]
    originals.append((cli, "enumerate_trees", cli.enumerate_trees))
    for owner, attr, layer, count in wrap:
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        setattr(owner, attr, tracer.span(name, layer, getattr(owner, attr), count))
    for attr in ("from_sqrt", "from_rational"):
        fn = tracer.span(f"SqrtExpr.{attr}", "render", getattr(SqrtExpr, attr))
        setattr(SqrtExpr, attr, staticmethod(fn))
    cli.enumerate_trees = tracer.generator(
        "treemoments.cli.enumerate_trees", "oracle", cli.enumerate_trees, "oracle.enum_trees"
    )
    return originals


def uninstall(originals) -> None:
    for owner, attr, value in originals:
        setattr(owner, attr, value)


class ByteSink(io.TextIOBase):
    def __init__(self) -> None:
        self.bytes = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        return len(text)


def replay(jobs, stdout_factory) -> tuple[float, list[tuple[int, object]]]:
    """Run every job through cli.main; (wall seconds, [(exit code, stdout)])."""
    results = []
    start = time.perf_counter()
    for argv in jobs:
        out = stdout_factory()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        results.append((code, out))
    return time.perf_counter() - start, results


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    values: dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    layer_of = {span[0]: span[3] for span in tracer.spans}
    for span_id, parent, name, layer, start, end, self_s in tracer.spans:
        values[f"{layer}.self_s"] += self_s
        entered = parent is None or layer_of[parent] != layer
        if layer != "cli" and entered and not name.endswith(".next"):
            values[f"{layer}.calls"] += 1
        if name == "treemoments.recurrence.verify_recurrence":
            values["recurrence.verify_s"] += end - start
        elif name == "TreeSampler.__init__":
            values["oracle.build_s"] += end - start
        elif name == "TreeSampler.sample":
            values["oracle.draw_s"] += end - start
            values["oracle.draws"] += 1
        elif name == "treemoments.cli.enumerate_trees.next":
            values["oracle.enum_s"] += end - start
    values.update(tracer.counts)
    if values["oracle.draws"]:
        values["oracle.draw_us"] = 1e6 * values["oracle.draw_s"] / values["oracle.draws"]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    jobs = generate(WORKLOADS[args.workload], args.seed)

    # The first replay warms the process (heap growth, caches) and supplies
    # the outputs to check.  Then each job runs traced and untraced back to
    # back, so the overhead compares warm runs made close together in time.
    _, plain = replay(jobs, io.StringIO)
    tracer = Tracer()
    traced = []
    traced_s = plain_s = 0.0
    for argv in jobs:
        originals = install(tracer)
        seconds, results = replay([argv], ByteSink)
        uninstall(originals)
        traced_s += seconds
        traced += results
        plain_s += replay([argv], ByteSink)[0]
    metrics = layer_metrics(tracer)
    metrics["cli.out_bytes"] = sum(out.bytes for _, out in traced)
    metrics["cli.usage_errors"] = sum(code == 1 for code, _ in traced)
    metrics["cli.domain_errors"] = sum(code == 2 for code, _ in traced)
    metrics["trace.overhead_s"] = traced_s - plain_s

    sys.set_int_max_str_digits(0)  # only now: the replays ran with the CLI's limit
    pinned = checks.load_pinned()
    failed = wrong = 0
    for argv, (code, out) in zip(jobs, plain):
        reason = checks.check_output(argv, out.getvalue(), pinned) if code == 0 else f"exit {code}"
        if reason is not None:
            failed += 1
            wrong += code == 0
            print(f"failed: {checks.argv_key(argv)}: {reason}", file=sys.stderr)
    report = {
        "correct": wrong == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
