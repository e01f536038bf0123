"""Benchmark of the treemoments command line.

Run from the repository root:

    python3 perfbench/run.py --workload large-exact --seed 1 --seconds 30 --trace 0

With --trace 0 it runs every job of the workload as a fresh
`python -m treemoments.cli` child, one at a time (a closed loop with one
client), repeating the pass over the workload's jobs while the next pass
still fits in --seconds.  Each child's CPU time and peak RSS come from
os.wait4 on that child alone.  For one pass it reports the wall time, the
CPU time, the largest peak RSS and the sum of peak RSS, taking each job's
figures as their median over the passes; and the median set-up time of a
trivial invocation, probed before every job.

With --trace 1 it replays the workload once in a single traced process
(tracer.py) and reports the per-layer metrics instead.

Every output is checked (checks.py).  A job fails when it exits nonzero,
times out or prints a wrong answer; the last line of standard output is a
JSON object with `correct` (no wrong answer was printed), `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import checks
from workloads import SETUP_ARGV, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The package is run from source, not installed.  The environment is fixed:
# in particular no PYTHONINTMAXSTRDIGITS (lifting the digit limit would hide
# inputs the CLI cannot print) and no TREEMOMENTS_ENUM_CAP.
CHILD_ENV = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC)}
CLI = (sys.executable, "-m", "treemoments.cli")
LAUNCHER = HERE / "launch.py"

JOB_TIMEOUT_S = 100.0
RUN_DEADLINE_S = 160.0  # stay well inside the 180 s a run may take

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "rss_sum_mb": "MB",
    "setup_s": "s",
}


@dataclass
class ChildResult:
    code: int | None  # None when killed on timeout
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    max_rss_mb: float


def run_child(cmd, timeout: float) -> ChildResult:
    """Run one child to completion, measured by wait4 in launch.py."""
    report_read, report_write = os.pipe()
    proc = subprocess.Popen(
        (sys.executable, "-I", "-S", str(LAUNCHER), str(report_write), str(timeout), *cmd),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
        cwd=ROOT,
        pass_fds=(report_write,),
    )
    os.close(report_write)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    proc.wait()
    proc.stdout.close()
    proc.stderr.close()
    with os.fdopen(report_read) as fh:
        text = fh.read()
    if proc.returncode != 0 or not text:
        raise RuntimeError(f"launcher failed: {b''.join(err).decode(errors='replace')}")
    report = json.loads(text)
    return ChildResult(
        code=report["code"],
        stdout=out.decode("utf-8", "replace"),
        stderr=b"".join(err).decode("utf-8", "replace"),
        wall_s=report["wall_s"],
        cpu_s=report["cpu_s"],
        max_rss_mb=report["max_rss_kib"] / 1024,
    )


class Checker:
    """Checks each distinct (argv, output) once and remembers the verdict."""

    def __init__(self, pinned: dict) -> None:
        self.pinned = pinned
        self.verdicts: dict[tuple[str, str], str | None] = {}

    def wrong(self, argv, stdout: str) -> str | None:
        key = (checks.argv_key(argv), hashlib.sha256(stdout.encode()).hexdigest())
        if key not in self.verdicts:
            self.verdicts[key] = checks.check_output(argv, stdout, self.pinned)
        return self.verdicts[key]


def failure(argv, result: ChildResult, checker: Checker) -> str | None:
    if result.code is None:
        return "timed out"
    if result.code != 0:
        return f"exit {result.code}: {result.stderr.strip()[:160]}"
    reason = checker.wrong(argv, result.stdout)
    return None if reason is None else f"wrong output: {reason}"


def probe_setup(checker: Checker, timeout: float) -> float:
    """Wall time of a trivial invocation: interpreter start, import, parse."""
    result = run_child(CLI + SETUP_ARGV, timeout)
    reason = failure(SETUP_ARGV, result, checker)
    if reason is not None:
        raise SystemExit(f"set-up probe failed: {reason}")
    return result.wall_s


def run_passes(jobs, checker: Checker, seconds: float, deadline: float):
    """Whole passes over the jobs while the longest pass so far still fits.

    A set-up probe runs before every job, so the probes sample the same
    stretch of time as the jobs.  Returns the probe times and, per pass,
    each job's result (output dropped) with its failure reason.
    """
    probes: list[float] = []
    passes = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        start = time.perf_counter()
        results = []
        for argv in jobs:
            timeout = min(JOB_TIMEOUT_S, max(1.0, deadline - time.perf_counter()))
            probes.append(probe_setup(checker, timeout))
            result = run_child(CLI + argv, timeout)
            reason = failure(argv, result, checker)
            results.append((replace(result, stdout="", stderr=""), reason))
        passes.append(results)
        longest = max(longest, time.perf_counter() - start)
        now = time.perf_counter()
        if now - begin + longest > seconds or now + longest > deadline:
            return probes, passes


def end_to_end(workload, seed: int, seconds: float) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    checker = Checker(checks.load_pinned())
    jobs = generate(workload, seed)
    probes, passes = run_passes(jobs, checker, seconds, deadline)

    attempted = sum(len(results) for results in passes)
    reasons = {}
    failed = 0
    for results in passes:
        for argv, (_, reason) in zip(jobs, results):
            if reason is not None:
                failed += 1
                reasons.setdefault(checks.argv_key(argv), reason)
    for key, reason in reasons.items():
        print(f"failed: {key}: {reason}", file=sys.stderr)

    # Each job's figure is its median over the passes, so a job slowed by a
    # burst of outside load in one pass does not move the result.
    per_job = [[r for r, _ in runs] for runs in zip(*passes)]
    wall = [statistics.median(r.wall_s for r in runs) for runs in per_job]
    cpu = [statistics.median(r.cpu_s for r in runs) for runs in per_job]
    rss = [statistics.median(r.max_rss_mb for r in runs) for runs in per_job]
    values = {
        "wall_s": sum(wall),
        "cpu_s": sum(cpu),
        "peak_rss_mb": max(rss),
        "rss_sum_mb": sum(rss),
        "setup_s": statistics.median(probes),
    }
    print(
        f"{workload.name} seed {seed}: {len(passes)} passes of {len(jobs)} jobs, "
        f"{failed}/{attempted} failed (fail_share {failed / attempted:.4f})"
    )
    for argv, runs in zip(jobs, per_job):
        walls = " ".join(f"{r.wall_s:.3f}" for r in runs)
        print(f"  job wall_s [{walls}] max_rss_mb {max(r.max_rss_mb for r in runs):.1f}: {' '.join(argv)}")
    return {
        "correct": not any(reason.startswith("wrong output") for reason in reasons.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        },
    }


def traced(workload, seed: int) -> dict:
    """Per-layer metrics from one traced replay in a separate process."""
    cmd = (sys.executable, str(HERE / "tracer.py"), "--workload", workload.name, "--seed", str(seed))
    result = run_child(cmd, RUN_DEADLINE_S)
    sys.stderr.write(result.stderr)
    if result.code != 0:
        raise SystemExit(f"traced replay failed with exit {result.code}")
    return json.loads(result.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "treemoments" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'treemoments'}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # this process only: exact answers are long
    workload = WORKLOADS[args.workload]
    if args.trace:
        report = traced(workload, args.seed)
    else:
        report = end_to_end(workload, args.seed, args.seconds)
    for name, metric in report["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
