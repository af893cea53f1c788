"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-regen --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with no wrappers installed; ``--trace 1`` splits the
time between untraced and traced work and prints the per-layer
metrics, the per-layer table and the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench.common import (  # noqa: E402
    Outcome,
    machine_context,
    median,
    peak_rss_mb,
    summarise_passes,
)

WORKLOADS = ("paper-regen", "design-time", "serve-mixed")
#: Set-up is timed in this process and in this many fresh interpreters;
#: the median is reported.
SETUP_PROBES = 2


def _workload(name: str, seed: int):
    if name == "paper-regen":
        from perfbench.regen import PaperRegen

        return PaperRegen(seed)
    if name == "design-time":
        from perfbench.design import DesignTime

        return DesignTime(seed)
    from perfbench.serve_mixed import ServeMixed

    return ServeMixed(seed)


def _timed_setup(name: str, seed: int):
    """Import, construct and warm one workload; returns (it, (seconds,
    seconds scaled to reference speed)).  The calibration samples come
    after set-up, so that set-up still pays for importing NumPy."""
    from perfbench.calibrate import sample_ms, scaled

    start = time.perf_counter()
    workload = _workload(name, seed)
    workload.setup()
    seconds = time.perf_counter() - start
    return workload, (seconds, scaled(seconds, sample_ms(), sample_ms()))


def _probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up seconds, raw and scaled, measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _end_to_end(workload, seconds: float, out: Outcome) -> None:
    if workload.name == "serve-mixed":
        from perfbench import serve_mixed

        run = workload.measure(seconds, "e2e")
        out.metric("peak_rss_mb", peak_rss_mb(), "MB")
        out.attempted, out.failed, out.correct, notes = workload.check(run.steps)
        serve_mixed.summarise(run, out)
        out.report.extend(notes)
        out.report.append(_poison_line(workload.poison_probe()))
        return
    untraced, _, outputs = workload.run_passes(seconds)
    out.metric("peak_rss_mb", peak_rss_mb(), "MB")
    checked, differing, notes = workload.check(outputs)
    out.attempted = checked
    out.failed = differing
    out.correct = differing == 0
    summarise_passes(untraced, out, workload.pass_label)
    out.report.extend(notes)


def _poison_line(probe: tuple[int, str]) -> str:
    from perfbench.serve_mixed import POISON_GROUP, VALID_NODES

    failed, code = probe
    return (
        f"poison-pill probe (outside the timed region): {failed} of "
        f"{POISON_GROUP} valid requests sent at once with one node_id "
        f"{VALID_NODES} request were not answered ok; the out-of-range "
        f"request got {code}"
    )


def _traced(workload, seconds: float, out: Outcome, seed: int) -> None:
    from perfbench.common import WORK_DIR
    from perfbench.tracing import (
        LAYER_METRICS,
        ServeCounters,
        Tracer,
        layer_metrics,
        table,
    )

    tracer = Tracer()
    plain_out, traced_out = Outcome(), Outcome()
    serve = None
    if workload.name == "serve-mixed":
        from perfbench import serve_mixed

        half = seconds / 2
        plain = workload.measure(half, "untraced")
        with tracer:
            traced = workload.measure(half, "traced")
        out.metric("peak_rss_mb", peak_rss_mb(), "MB")
        out.attempted, out.failed, out.correct, notes = workload.check(
            plain.steps + traced.steps
        )
        serve_mixed.summarise(plain, plain_out)
        serve_mixed.summarise(traced, traced_out)
        serve = ServeCounters()
        for step in traced.steps:
            serve.add_service(step.service_metrics)
            serve.serving_s += step.wall_s
        for rung in traced.rungs:
            serve.generator_late_ms.extend(rung.late_ms)
        probe = workload.poison_probe()
        serve.poison_collateral = probe[0] / serve_mixed.POISON_GROUP
        notes.append(_poison_line(probe))
        ops = sum(len(step.answered) for step in traced.steps)
    else:
        untraced, traced_times, outputs = workload.run_passes(seconds, tracer)
        out.metric("peak_rss_mb", peak_rss_mb(), "MB")
        checked, differing, notes = workload.check(outputs)
        out.attempted, out.failed = checked, differing
        out.correct = differing == 0
        summarise_passes(untraced, plain_out, workload.pass_label)
        summarise_passes(traced_times or untraced, traced_out,
                         workload.pass_label)
        ops = len(traced_times)
        if workload.name == "design-time":
            notes.append(
                "note: work inside the campaign pool's forked workers is "
                "seen only at the parent's CampaignEngine.run boundary"
            )
    base = plain_out.metrics["op_ms"][0]
    with_trace = traced_out.metrics["op_ms"][0]
    overhead = 100.0 * (with_trace - base) / base
    out.report.extend(f"untraced: {line}" for line in plain_out.report)
    out.report.append(
        f"tracing overhead: op_ms {base:.2f} ms untraced, "
        f"{with_trace:.2f} ms traced ({overhead:+.1f}%)"
    )
    out.report.extend(notes)
    out.report.extend(table(tracer.spans, ops, workload.op_name))
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    for name, value in layer_metrics(
        tracer.spans, ops, serve=serve, overhead_pct=overhead
    ).items():
        out.metric(name, value, units[name])
    path = WORK_DIR / f"trace-{workload.name}-{seed}.jsonl"
    tracer.write(path)
    out.report.append(
        f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up in this interpreter and exit")
    args = parser.parse_args(argv)

    workload, own_setup = _timed_setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setups = [own_setup] + [
        _probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
    ]
    setup_s = median(norm for _, norm in setups)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = Outcome()
    out.metric("setup_s", setup_s, "s")
    if args.trace:
        _traced(workload, args.seconds, out, args.seed)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        _end_to_end(workload, args.seconds, out)
        names = [m["name"] for m in spec["end_to_end"]]

    context = machine_context()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; " + ", ".join(f"{k}={v}" for k, v in context.items()))
    print(f"setup_s = {setup_s:.4f} s at reference speed (median of "
          + ", ".join(f"{n:.3f}" for _, n in setups) + "; raw "
          + ", ".join(f"{raw:.3f}" for raw, _ in setups) + ")")
    print(f"peak_rss_mb = {out.metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"failed_frac = {out.failed / max(out.attempted, 1):.4f} "
          f"({out.failed} of {out.attempted} attempted)")
    for line in out.report:
        print(line)
    print(json.dumps(out.result(names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
