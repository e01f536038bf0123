"""Workload definitions: fixed job lists with a per-seed menu of variants.

Each workload is one closed-loop client running its jobs one after another.
A job is a menu of argument vectors of equal cost; the benchmark seed picks
one entry per job, and the child process receives only that argument vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random


@dataclass(frozen=True)
class Job:
    """One CLI job: the variants the seed chooses between."""

    menu: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]
    jobs: tuple[Job, ...]


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _menu(template: str, **choices) -> Job:
    """Menu of `template` formatted with each aligned tuple of choices."""
    keys = list(choices)
    rows = zip(*(choices[k] for k in keys))
    return Job(tuple(_argv(template.format(**dict(zip(keys, row)))) for row in rows))


def _seeds(template: str, seeds=(0, 1, 2, 3, 4)) -> Job:
    return Job(tuple(_argv(f"{template} --seed {s}") for s in seeds))


def _fixed(text: str) -> Job:
    return Job((_argv(text),))


# Statistic order swaps give the transposed grid at the same cost, and
# neighbouring n changes the answer's size by a fraction of a percent.
LARGE_EXACT = Workload(
    name="large-exact",
    why=(
        "one big exact answer per job: polyint and engine hold O(n^2) bits, "
        "moments, gaussref and render the rest; four jobs exceed the CLI's "
        "4300-digit limit"
    ),
    loads=("polyint", "engine", "moments", "gaussref", "render", "cli"),
    bypasses=("oracle", "recurrence"),
    jobs=(
        _menu("count -S 0,1,2 -n {n}", n=(49999, 50000, 50001)),
        _menu("count -S 0,1,2,3 -n {n}", n=(29999, 30000, 30001)),
        _menu(
            "numerator -S 0,1,2 -n {n} --s1 {a} --s2 {b} --p 3,3",
            n=(8000, 8000, 8001),
            a=(0, 1, 0),
            b=(1, 0, 1),
        ),
        _menu(
            "moments -S 0,1,2 -n 2000 --s1 {a} --s2 {b} --max-p 4,4",
            a=(0, 1),
            b=(1, 0),
        ),
        _menu(
            "moments -S 0,1,2,3 -n 3000 --s1 {a} --s2 {b} --max-p 4,4",
            a=(1, 3),
            b=(3, 1),
        ),
        _menu(
            "normal-compare -S 0,1,2,3 -n 3000 --s1 {a} --s2 {b} --max-p 4,4",
            a=(1, 3),
            b=(3, 1),
        ),
    ),
)

# The sampler seed changes which trees are drawn, not the table build.
LARGE_SAMPLE = Workload(
    name="large-sample",
    why=(
        "exact sampler builds at large n, nearly all time in oracle tables; "
        "|S|=4 and a sparse S probe how the tables grow with |S|"
    ),
    loads=("oracle", "cli"),
    bypasses=("polyint", "engine", "moments", "gaussref", "render", "recurrence"),
    jobs=(
        _seeds("sample -S 0,1,2 -n 2000 --count 100"),
        _seeds("sample -S 0,1,2,3 -n 800 --count 300"),
        _seeds("sample -S 0,1,5 -n 1201 --count 100"),
    ),
)

MANY_SMALL = Workload(
    name="many-small",
    why=(
        "many cheap answers: engine recomputes phi^m across n, a full "
        "recurrence search, cli streams rows, and 30000 small draws price "
        "each sample"
    ),
    loads=("polyint", "engine", "moments", "render", "recurrence", "oracle", "cli"),
    bypasses=("gaussref",),
    jobs=(
        _menu("count -S 0,1,2 -n {r} --format csv", r=("1..2000", "2..2001")),
        _menu(
            "numerator -S 0,1,2,3 -n 1..300 --s1 {a} --s2 {b} --p 2,2 --format csv",
            a=(0, 3),
            b=(3, 0),
        ),
        _menu(
            "scaled -S 0,1,2 -n {r} --s1 {a} --p 4 --format csv",
            r=("100..400", "100..400", "101..401"),
            a=(0, 2, 0),
        ),
        # a full search over orders and degrees up to 5 that finds nothing
        _menu(
            "guess-rec -S 0,1,5 --stat numerator --s1 {a} --s2 {b} --p 2,2 "
            "--terms 90 --max-order 5 --max-degree 5",
            a=(0, 5),
            b=(5, 0),
        ),
        # finds a recurrence
        _menu(
            "guess-rec -S 0,1,2,3 --stat numerator --s1 0 --p 2 --terms {t} "
            "--max-order 6 --max-degree 6",
            t=(80, 81),
        ),
        _seeds("sample -S 0,1,2 -n 30 --count 30000"),
        _fixed("enumerate -S 0,1,2 -n 14"),
    ),
)

WORKLOADS = {w.name: w for w in (LARGE_EXACT, LARGE_SAMPLE, MANY_SMALL)}

# Interpreter start, import and argument parsing, with no real work.
SETUP_ARGV = _argv("count -S 0,1,2 -n 1")


def generate(workload: Workload, seed: int) -> list[tuple[str, ...]]:
    """The argument vectors of one pass, chosen deterministically from seed."""
    rng = Random(seed)
    return [rng.choice(job.menu) for job in workload.jobs]


def all_variants() -> list[tuple[str, ...]]:
    """Every argument vector any seed can produce, plus the set-up probe."""
    out = [SETUP_ARGV]
    for workload in WORKLOADS.values():
        for job in workload.jobs:
            out.extend(job.menu)
    return out
