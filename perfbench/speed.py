"""Machine-speed reference for timing on a shared machine.

Other tenants of a shared machine slow a run by a third or more, for
seconds at a time, so raw times of identical code differ that much
between runs.  A fixed reference task (standard library only, none of
the program's code) is timed between the measurements of a run, and
every time is scaled to the speed at which that task takes
``NOMINAL_S``:

    scaled = measured * NOMINAL_S / median(reference samples near it)

A change to the program moves the measured time but not the reference,
so it shows in the scaled figure; a slowdown of the whole machine moves
both and cancels.  The collector is paused while the reference runs, so
a program that leaves a large heap behind does not slow the reference
and hide its own cost.  Raw times are reported next to the scaled ones.
"""
from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

#: reference-task time the scaled figures assume (about its time on an
#: idle core of the machine the baseline was measured on)
NOMINAL_S = 0.001
#: reference-command time the scaled figures of commands assume
NOMINAL_COMMAND_S = 0.05
#: task repeats in one reference command
COMMAND_REPEATS = 5
#: a new reference sample is taken when the last is older than this
RESAMPLE_S = 0.5
RESAMPLE_COMMAND_S = 1.0
#: samples nearest in time that set the scale of one measurement
NEAREST = 3


def _task() -> int:
    """Integer products, tuple building and dict updates: the kind of
    interpreter work the program's inner loops do."""
    n = 12
    a = tuple(tuple((i * 7 + j * 3) % 11 - 5 for j in range(n)) for i in range(n))
    cols = tuple(zip(*a))
    out = a
    for _ in range(3):
        out = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in out)
    seen: dict = {}
    for k in range(1500):
        key = (k % 97, (k * 31) % 89, -(k % 7))
        seen[key] = seen.get(key, 0) + 1
    return len(seen) + out[0][0]


def reference_seconds() -> float:
    """Median of three timings of the reference task."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _task()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def timed_command(argv: list, **kwargs) -> float:
    """Wall time of a command run to its end.  Its output goes to a pipe,
    whose closing marks the end: ``wait`` with a timeout and no pipe
    polls the child only every 50 ms, which would put the times on
    steps of 50 ms."""
    t0 = time.perf_counter()
    subprocess.run(argv, stdout=subprocess.PIPE, check=True, timeout=60, **kwargs)
    return time.perf_counter() - t0


def reference_command_seconds() -> float:
    """Wall time of a fresh interpreter that runs the reference task:
    the reference for work done in other processes, which also pays
    process start."""
    return timed_command([sys.executable, __file__, str(COMMAND_REPEATS)])


def setup_factor() -> float:
    """Scale factor of a set-up timed right after this call.  Each set-up
    gets a reference command of its own, run just before it; that follows
    the machine's speed more closely than the samples of ``Reference``
    (spread of the median of 11 set-ups over repeated runs: 0.013 against
    0.058)."""
    return NOMINAL_COMMAND_S / reference_command_seconds()


class Reference:
    """Reference samples taken at most every ``RESAMPLE_S`` (or
    ``RESAMPLE_COMMAND_S``) seconds between measurements.  A measurement
    started at time ``t`` is scaled by the nominal time over the median of
    the ``NEAREST`` samples closest to ``t``: this follows a slowdown that
    lasts a few seconds, and no single disturbed sample moves it.  With
    ``commands`` the work being timed runs in child processes, and so
    does the reference."""

    def __init__(self, commands: bool = False):
        self.measure = reference_command_seconds if commands else reference_seconds
        self.nominal = NOMINAL_COMMAND_S if commands else NOMINAL_S
        self.interval = RESAMPLE_COMMAND_S if commands else RESAMPLE_S
        _task()  # the first run of the task in a process is slower
        self.samples: list = []  # (time taken, reference seconds)

    def sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.interval:
            value = self.measure()
            self.samples.append((time.perf_counter(), value))

    def factors(self, starts: list) -> list:
        """The scale factor of a measurement started at each of ``starts``."""
        self.sample()
        out = []
        for t in starts:
            near = sorted(self.samples, key=lambda s: abs(s[0] - t))[:NEAREST]
            out.append(self.nominal / statistics.median(v for _, v in near))
        return out


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        _task()
