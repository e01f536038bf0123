"""Run one command and report its own resource usage on a given descriptor.

    python3 -I -S perfbench/launch.py REPORT_FD TIMEOUT_S PROGRAM [ARG ...]

The command inherits stdin, stdout, stderr and the environment.  A child's
ru_maxrss starts at the RSS of the process it was forked from, so the
command is forked from this small process rather than from the benchmark,
whose memory would otherwise show up in every small job's peak.  The report
is one JSON object: exit code (null when killed on timeout), wall seconds,
CPU seconds and peak RSS in KiB, all from os.wait4 on the command alone.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    report_fd = int(sys.argv[1])
    timeout = float(sys.argv[2])
    cmd = sys.argv[3:]
    os.set_inheritable(report_fd, False)
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execv(cmd[0], cmd)
        finally:
            os._exit(127)
    killed = []

    def kill(signum, frame) -> None:
        killed.append(True)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    # Wait without reaping, so the alarm can never signal a recycled pid.
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(pid, 0)
    report = {
        "code": None if killed else os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_kib": usage.ru_maxrss,
    }
    with os.fdopen(report_fd, "w") as out:
        json.dump(report, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
