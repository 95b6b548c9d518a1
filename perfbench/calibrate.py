"""The calibration loop, timed in a process of its own while the
workload process is frozen.

The loop's rate measures how fast the interpreter runs on this box at
this moment, independent of the program.  It must not compete with the
program: inside the workload process, the program's threads (idle
service workers' lease polls, the HTTP server) would take the
interpreter lock from the loop, and even a sibling process loses speed
to them, because the two CPUs of a small box share a core.  Any change
that made those threads cost more would then slow the loop too, and
scaling by the loop's rate would cancel part of that regression out of
the benchmark's times.  So :class:`Calibrator` starts this file as a
sibling process that, for each sample, stops the whole workload process
(``SIGSTOP``), times the loop, and resumes it (``SIGCONT``).

Run on its own, the file is that sibling process: it reads one loop
count per line and answers each with the loop's rate in loops/s, timed
while process *PID* is stopped (Linux only: it reads ``/proc``)::

    echo 100000 | python3 perfbench/calibrate.py PID
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

#: Iterations per sample (about 8 ms on the reference box).
CALIBRATION_LOOPS = 100_000
#: How long a process may take to stop before the sample fails.
STOP_TIMEOUT_S = 5.0


def calibration_loop(n: int) -> int:
    """A fixed pure-Python loop: arithmetic only, no allocation."""
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def loops_per_s(n: int) -> float:
    start = time.perf_counter()
    calibration_loop(n)
    return n / (time.perf_counter() - start)


def wait_stopped(pid: int) -> None:
    """Return once every thread of *pid* has stopped."""
    tasks = Path(f"/proc/{pid}/task")
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < deadline:
        states = []
        for stat in tasks.glob("*/stat"):
            try:
                states.append(stat.read_text().rsplit(")", 1)[1].split()[0])
            except (OSError, IndexError):  # a thread that just ended
                continue
        if states and all(state in ("T", "t") for state in states):
            return
        time.sleep(0.0001)
    raise RuntimeError(f"process {pid} did not stop within {STOP_TIMEOUT_S}s")


def frozen_loops_per_s(pid: int, n: int) -> float:
    """The loop's rate while process *pid* is stopped."""
    os.kill(pid, signal.SIGSTOP)
    try:
        wait_stopped(pid)
        return loops_per_s(n)
    finally:
        os.kill(pid, signal.SIGCONT)


class Calibrator:
    """A calibration process beside the caller, as a context manager."""

    def __enter__(self) -> "Calibrator":
        self.process = subprocess.Popen(
            [sys.executable, __file__, str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        return self

    def loops_per_s(self, n: int = CALIBRATION_LOOPS) -> float:
        """The loop's rate right now, timed while this process is stopped."""
        self.process.stdin.write(f"{n}\n")
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process has ended")
        return float(line)

    def __exit__(self, *exc) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def main() -> None:
    pid = int(sys.argv[1])
    for line in sys.stdin:
        print(frozen_loops_per_s(pid, int(line)), flush=True)


if __name__ == "__main__":
    main()
