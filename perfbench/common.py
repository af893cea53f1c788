"""Shared helpers: checkout paths, statistics, machine context, results."""

from __future__ import annotations

import os
import platform
import re
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: The checkout root (the benchmark lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for stores and trace files; inside the checkout and
#: ignored by git.
WORK_DIR = ROOT / ".perfbench"

#: Every metric name the benchmark emits must match this.
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Offset of a workload's warm-up seed from its workload seed: set-up
#: never warms the caches of a seed that a timed pass uses.
WARM_SEED_OFFSET = 1_000_000

#: The tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_BEYOND = 10


def work_dir(name: str) -> Path:
    """A fresh, empty scratch directory under :data:`WORK_DIR`."""
    path = WORK_DIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median(values) -> float:
    return float(statistics.median(values))


@dataclass(frozen=True)
class Tail:
    """The highest percentile of a sample with ``TAIL_BEYOND`` samples
    beyond it.  Below ``2 * TAIL_BEYOND`` samples that percentile would
    not lie above the median, so the maximum stands in (``percentile``
    100)."""

    value: float
    percentile: float
    samples: int

    def describe(self) -> str:
        if self.percentile == 100.0:
            return f"max of {self.samples}"
        return f"p{self.percentile:.1f} of {self.samples}"


def tail(values) -> Tail:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 2 * TAIL_BEYOND:
        return Tail(ordered[-1], 100.0, n)
    return Tail(ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (children excluded)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_context() -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


@dataclass
class Outcome:
    """What one workload run produced.

    ``metrics`` maps a metric name to ``(value, unit)``.  ``report``
    holds human-readable lines printed before the result line.
    """

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        if not NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        self.metrics[name] = (float(value), unit)

    def result(self, names) -> dict[str, Any]:
        """The result object restricted to ``names``, in that order."""
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return {
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                n: {"value": self.metrics[n][0], "unit": self.metrics[n][1]}
                for n in names
            },
        }


def run_passes(one_pass, seconds: float, tracer=None):
    """Call ``one_pass(index)`` until the next pass would overrun
    ``seconds``.  With a tracer, odd passes run traced, and at least one
    does.  A calibration sampler runs throughout, and each pass is also
    scaled to reference speed by the samples taken during it (see
    :mod:`perfbench.calibrate`).

    Returns (untraced passes, traced passes, pass outputs); a pass is
    (seconds, milliseconds scaled to reference speed).
    """
    from perfbench.calibrate import Sampler

    spans, outputs = [], []
    with Sampler() as host:
        start = time.perf_counter()
        index = 0
        while True:
            trace_this = tracer is not None and index % 2 == 1
            if trace_this:
                tracer.install()
            t0 = time.perf_counter()
            try:
                outputs.append(one_pass(index))
            finally:
                t1 = time.perf_counter()
                if trace_this:
                    tracer.uninstall()
            spans.append((trace_this, t0, t1))
            index += 1
            enough = index >= (2 if tracer is not None else 1)
            if enough and t1 - start + (t1 - t0) > seconds:
                break
    untraced, traced = [], []
    for trace_this, t0, t1 in spans:
        (traced if trace_this else untraced).append(
            (t1 - t0, (t1 - t0) * 1e3 * host.scale(t0, t1))
        )
    return untraced, traced, outputs


def summarise_passes(passes: list[tuple[float, float]], out: Outcome,
                     label: str) -> None:
    """End-to-end metrics of a pass-based workload: ``op_ms`` is the
    median pass time scaled to reference speed; the raw median, tail and
    fastest pass are reported beside it."""
    times = [seconds for seconds, _ in passes]
    t = tail(times)
    op_ms = median(ms for _, ms in passes)
    out.report.append(
        f"{label} = {median(times):.4f} s (median of {len(times)} passes; "
        f"tail {t.value:.4f} s, {t.describe()}; fastest {min(times):.4f} s); "
        f"op_ms = {op_ms:.1f} ms at reference speed"
    )
    out.metric("op_ms", op_ms, "ms")
