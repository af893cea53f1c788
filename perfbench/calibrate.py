"""A fixed reference computation that tracks the host's speed.

The benchmark runs on a shared host.  Other tenants slow every kind of
code here -- interpreter loops, small NumPy operations, the program's
passes -- by up to 1.7x, for anything from one second to minutes at a
time, and a run cannot escape a slow stretch by measuring longer.  So
timed work is paired with runs of this kernel and its time is also
reported scaled to the kernel's reference time :data:`REFERENCE_MS`.
The kernel is part of the benchmark, not of the program, so a change to
the program moves the scaled time as much as the raw one.

Passes, which last seconds and may run in several processes, are
covered by a :class:`Sampler`: a child process that runs the kernel every
:data:`SAMPLE_INTERVAL_S` and times its CPU time, so waiting for a
processor the work keeps busy does not count as a slow host.  Work
shorter than that interval -- one served request, set-up -- is bracketed
by samples taken in its own thread just before and just after it
(:func:`sample_ms`, :func:`scaled`).

Run as a script, this module is the sampler's child process.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: The kernel's reference time.  On a 2.1 GHz Xeon vCPU (Python 3.11,
#: NumPy 2.4) it measured 7.7 ms on the quietest stretch and up to
#: 17 ms on the busiest; scaled times read as milliseconds on a host
#: where it takes 10 ms.
REFERENCE_MS = 10.0
#: Seconds between the sampler's kernels.
SAMPLE_INTERVAL_S = 0.2
#: Kernel runs per sample; a sample is their median.
RUNS = 3

_VECTOR = np.linspace(0.0, 1.0, 64)


def _kernel() -> int:
    """Interpreter-bound and small-array work, the two kinds the
    program's hot paths mix."""
    total = 0
    table: dict[int, int] = {}
    for i in range(30_000):
        total += i * i % 7
        table[i % 97] = total
    for _ in range(1_500):
        total += int(np.cumsum(_VECTOR * 2.0 + 1.0).argmin())
    return total


def sample_ms(runs: int = RUNS) -> float:
    """One calibration sample: the median time of ``runs`` kernels."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def scaled(ms: float, before: float, after: float) -> float:
    """``ms`` at reference speed, the host's speed taken as the mean of
    the samples on either side of the operation."""
    return ms * REFERENCE_MS / ((before + after) / 2)


class Sampler:
    """Host-speed samples from a child process, while in its ``with``
    block: ``(perf_counter time, kernel CPU ms)`` pairs, read when the
    block ends.  The child also exits if this process dies."""

    def __enter__(self) -> "Sampler":
        self.samples: list[tuple[float, float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             str(SAMPLE_INTERVAL_S), str(os.getpid())],
            stdout=subprocess.PIPE, text=True,
        )
        self._proc.stdout.readline()  # "ready": numpy is imported
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        try:
            out, _ = self._proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            out, _ = self._proc.communicate()
        self.samples = [
            (float(t), float(ms))
            for t, ms in (line.split() for line in out.splitlines())
        ]

    def scale(self, start: float, end: float) -> float:
        """Reference speed over the host's speed from ``start`` to
        ``end`` (``perf_counter`` times): the median of the samples
        within one interval of that span."""
        during = [ms for t, ms in self.samples
                  if start - SAMPLE_INTERVAL_S <= t <= end + SAMPLE_INTERVAL_S]
        return REFERENCE_MS / statistics.median(during)


def _sample_until_stopped(interval_s: float, parent: int) -> None:
    stop: list[int] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    print("ready", flush=True)
    while not stop and os.getppid() == parent:
        t0 = time.thread_time()
        _kernel()
        ms = (time.thread_time() - t0) * 1e3
        print(f"{time.perf_counter():.6f} {ms:.4f}", flush=True)
        time.sleep(interval_s)


if __name__ == "__main__":
    _sample_until_stopped(float(sys.argv[1]), int(sys.argv[2]))
