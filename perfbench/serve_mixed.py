"""``serve-mixed``: open-loop Poisson load on one ``TuningService``.

The load is a rate ladder.  Each rung is a step of Poisson arrivals at
one rate against a freshly built service with its defaults (batched
admission, ``fleet`` coalescing, ``workers=1``) over a fresh SQLite
store, driven transport-free through ``TuningService.handle`` on one
event loop (plus the service's one executor thread).  Every request is
timed from its *scheduled* send time, so a stall also charges the
requests queued behind it.  The first rung is the low-rate step, the
second the high-rate step, and the highest rung whose tail latency
meets :data:`LIMIT_MS` without a growing backlog gives the maximum
sustainable rate.

Before the ladder, an unloaded step sends requests of the same mix from
one client, each when the previous one is answered, so no request
queues behind another.  Its median latency is the gated figure, scaled
to reference speed: the host the benchmark runs on is shared and other
tenants slow it by up to 1.7x at times, so each unloaded request is
bracketed by calibration samples (:mod:`perfbench.calibrate`).  Only
the part of a latency spent computing is scaled; the admission window
(``batcher.max_wait_s``) that a request starting a group waits out is a
timer, and a store hit skips it.  Open-loop latency is printed but not
gated: queueing makes it grow faster than linearly with a slowdown, so
no per-step scale corrects it.

The request mix: benchmark Zipf(s=1.1) over the 19 benchmarks in
registry order; seed from a pool of six; ``node_id`` 0 or 1; objective
uniform over energy/edp/ed2p; 30% carry a canned tuning model; 2% are
invalid, each breaking one field that admission checks (unknown
benchmark, unknown objective or ``stride`` 0), and must be refused with
a 4xx code.

A request whose ``node_id`` lies outside the cluster is not in the
timed mix.  Admission does not check ``node_id``, so such a request
fails inside execution and takes every request coalesced with it down
too.  Which requests share its group depends on timing, so that count
would differ between runs of the same code.  :meth:`ServeMixed.poison_probe`
measures the collateral deterministically instead, outside the timed
region: one out-of-range request sent at once with
:data:`POISON_GROUP` valid ones.

The load shape -- arrival times and each request's benchmark, objective,
node, tuning model, validity and pool slot -- is a fixed trace per rung
(:data:`TRACE_SEED`); the workload seed chooses the noise seeds of the
pool, so every workload seed asks about other simulated hardware
instances and noise streams (other answers, other store keys) under the
same offered load.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from perfbench.common import Outcome, median, tail, work_dir

ZIPF_S = 1.1
SEED_POOL = 6
INVALID_FRAC = 0.02
TMM_FRAC = 0.30
OBJECTIVES = ("energy", "edp", "ed2p")
VALID_NODES = 2
#: The field an invalid request breaks, and the value it carries.
INVALID_FIELDS = (
    ("benchmark", "NoSuchBenchmark"),
    ("objective", "fastest"),
    ("stride", 0),
)

#: Seed of the load-shape trace, fixed so that every workload seed
#: offers the same load.
TRACE_SEED = 20190520
#: Ladder rates (requests/s) and each rung's share of the run.
RATES = (5.0, 10.0, 15.0, 20.0, 25.0)
SHARES = (0.12, 0.18, 0.10, 0.10, 0.10)
LOW_RUNG, HIGH_RUNG = 0, 1
#: Requests of the unloaded step per second of the run, and its trace
#: stream and seed pool (apart from the ladder's).
UNLOADED_PER_S = 4.0
UNLOADED_TRACE = len(RATES)
UNLOADED_POOL = 1
#: Tail-latency limit a rung must meet to count as sustainable.
LIMIT_MS = 500.0
#: A rung is invalid when the generator's tail lateness exceeds this.
GENERATOR_LATE_LIMIT_MS = 50.0
#: Time between building a rung's service and its first due send.
LEAD_S = 0.05
#: Valid requests sent together with one out-of-range ``node_id``.
POISON_GROUP = 8


@dataclass(frozen=True)
class Request:
    """One scheduled request: due offset, wire payload, validity."""

    offset_s: float
    payload: dict[str, Any]
    valid: bool


def seed_pool(seed: int, pool: int = 0) -> tuple[int, ...]:
    """The noise seeds of one pool; pools never share one."""
    base = seed * 1000 + pool * SEED_POOL
    return tuple(base + k for k in range(SEED_POOL))


def zipf_weights(n: int, s: float = ZIPF_S) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** s
    return weights / weights.sum()


def quota(weights: np.ndarray, count: int) -> np.ndarray:
    """Integer counts summing to ``count`` in proportion to ``weights``
    (largest-remainder rounding)."""
    exact = weights * count
    counts = np.floor(exact).astype(int)
    order = np.argsort(-(exact - counts), kind="stable")
    counts[order[: count - counts.sum()]] += 1
    return counts


def flags(rng: np.random.Generator, count: int, share: float) -> np.ndarray:
    """``round(share * count)`` True values at random positions."""
    out = np.zeros(count, dtype=bool)
    out[rng.choice(count, size=int(round(share * count)), replace=False)] = True
    return out


def make_schedule(
    seed: int, rung: int, rate: float, duration_s: float,
    benchmarks: tuple[str, ...], tmm_of, pool: int = 0,
) -> list[Request]:
    """The deterministic arrivals and mix of one rung.

    ``tmm_of(benchmark)`` returns the canned tuning model's JSON.  Each
    rung draws its shape from its own trace stream, so a rung's schedule
    depends only on (seed, rung, rate, duration, pool), and two pools
    differ only in their noise seeds.
    """
    trace = np.random.default_rng([TRACE_SEED, rung])
    seeds = seed_pool(seed, pool)
    # A Poisson process conditioned on its count: the rung always sends
    # rate x duration requests, at uniformly scattered times.
    count = int(round(rate * duration_s))
    offsets = np.sort(trace.uniform(0.0, duration_s, count))
    # Benchmark shares are met by quota (largest remainder) in shuffled
    # order.
    benches = trace.permutation(np.repeat(
        np.arange(len(benchmarks)), quota(zipf_weights(len(benchmarks)), count)
    ))
    invalid = flags(trace, count, INVALID_FRAC)
    with_tmm = flags(trace, count, TMM_FRAC)
    schedule: list[Request] = []
    for i, offset in enumerate(offsets):
        bench = benchmarks[int(benches[i])]
        payload = {
            "version": 1,
            "benchmark": bench,
            "objective": OBJECTIVES[int(trace.integers(len(OBJECTIVES)))],
            "tmm": tmm_of(bench) if with_tmm[i] else None,
            "node_id": int(trace.integers(VALID_NODES)),
            "seed": seeds[int(trace.integers(SEED_POOL))],
        }
        if invalid[i]:
            name, value = INVALID_FIELDS[int(trace.integers(len(INVALID_FIELDS)))]
            payload[name] = value
        schedule.append(Request(float(offset), payload, not invalid[i]))
    return schedule


@dataclass
class Answered:
    request: Request
    latency_ms: float
    response: dict[str, Any]


@dataclass
class Step:
    """The answered requests of one step, against one fresh service."""

    answered: list[Answered]
    wall_s: float
    service_metrics: dict[str, Any]
    #: Filled by the reference check, one entry per answered request:
    #: latency of an ``ok`` valid request, ``inf`` for a failed valid
    #: one, ``None`` for an invalid one.
    slot_ms: list[float | None] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(1 for v in self.slot_ms if v == float("inf"))

    def ok_ms(self) -> list[float]:
        return [v for v in self.slot_ms if v is not None and v != float("inf")]

    def valid_tail_ms(self) -> float:
        """Tail over valid requests, a failed one counting as a miss."""
        values = [v for v in self.slot_ms if v is not None]
        return tail(values).value if values else float("inf")


@dataclass
class RungResult(Step):
    """One open-loop rung of the ladder."""

    rate: float = 0.0
    duration_s: float = 0.0
    late_ms: list[float] = field(default_factory=list)
    backlog_end: int = 0

    @property
    def generator_valid(self) -> bool:
        return not self.late_ms or tail(self.late_ms).value <= GENERATOR_LATE_LIMIT_MS

    @property
    def backlog_growing(self) -> bool:
        # More requests outstanding at the rung's end than could finish
        # within the latency limit at this rate (Little's law).
        return self.backlog_end > max(1.0, self.rate * LIMIT_MS / 1e3)

    def meets_limit(self) -> bool:
        return (
            self.generator_valid
            and not self.backlog_growing
            and self.valid_tail_ms() <= LIMIT_MS
        )


@dataclass
class Unloaded(Step):
    """The closed-loop step: one request at a time."""

    #: Per request: reference speed over the host's speed around it.
    scales: list[float] = field(default_factory=list)
    #: The service's admission window, in seconds.
    window_s: float = 0.0

    def scaled_ms(self) -> list[float]:
        """Latency of each ``ok`` valid request at reference speed: its
        time computing is scaled, its admission-window wait is not."""
        window_ms = self.window_s * 1e3
        out = []
        for a, ms, scale in zip(self.answered, self.slot_ms, self.scales):
            if ms is None or ms == float("inf"):
                continue
            waited = 0.0 if a.response["meta"]["cached"] else min(window_ms, ms)
            out.append(waited + (ms - waited) * scale)
        return out


@dataclass
class ServeRun:
    unloaded: Unloaded
    rungs: list[RungResult]

    @property
    def steps(self) -> list[Step]:
        return [self.unloaded, *self.rungs]


def _open(store_path):
    from repro.campaign.store import ResultStore
    from repro.serve.service import TuningService

    store = ResultStore(store_path, backend="sqlite")
    return store, TuningService(store=store)


async def _run_unloaded(schedule, store_path) -> Unloaded:
    from perfbench.calibrate import REFERENCE_MS, sample_ms

    store, service = _open(store_path)
    answered, scales = [], []
    try:
        t0 = time.perf_counter()
        # The samples block the event loop, between requests, when this
        # client has nothing in flight.
        before = sample_ms(runs=1)
        for request in schedule:
            start = time.perf_counter()
            response = await service.handle(request.payload)
            ms = (time.perf_counter() - start) * 1e3
            after = sample_ms(runs=1)
            answered.append(Answered(request, ms, response))
            scales.append(REFERENCE_MS / ((before + after) / 2))
            before = after
        wall = time.perf_counter() - t0
        metrics = service.metrics_payload()
        window_s = service.batcher.max_wait_s
    finally:
        await service.aclose()
        store.close()
    return Unloaded(answered=answered, wall_s=wall, service_metrics=metrics,
                    scales=scales, window_s=window_s)


async def _run_rung(rate, duration_s, schedule, store_path) -> RungResult:
    loop = asyncio.get_running_loop()
    store, service = _open(store_path)
    answered: list[Answered | None] = [None] * len(schedule)
    late: list[float] = []

    async def send(i: int, due: float, request: Request) -> None:
        response = await service.handle(request.payload)
        answered[i] = Answered(request, (loop.time() - due) * 1e3, response)

    try:
        t0 = loop.time() + LEAD_S
        tasks = []
        for i, request in enumerate(schedule):
            due = t0 + request.offset_s
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, loop.time() - due) * 1e3)
            tasks.append(asyncio.create_task(send(i, due, request)))
        delay = t0 + duration_s - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        backlog = sum(1 for t in tasks if not t.done())
        await asyncio.gather(*tasks)
        wall = loop.time() - t0
        metrics = service.metrics_payload()
    finally:
        await service.aclose()
        store.close()
    return RungResult(
        answered=answered, wall_s=wall, service_metrics=metrics, rate=rate,
        duration_s=duration_s, late_ms=late, backlog_end=backlog,
    )


class ServeMixed:
    """The workload: set-up, timed ladder, reference check, report."""

    name = "serve-mixed"
    op_name = "request sent"

    def __init__(self, seed: int):
        self.seed = seed

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        """Import the serving stack and warm every benchmark's caches by
        answering one request per benchmark through a throwaway
        service (a seed outside the request pool, no store)."""
        from benchmarks.bench_table6_savings import canned_tuning_model
        from repro.workloads import registry

        self.benchmarks = registry.benchmark_names()
        self._tmms = {
            b: canned_tuning_model(b).to_json() for b in self.benchmarks
        }
        warm_seed = self.seed * 1000 + 999
        responses = asyncio.run(self._send_together([
            {"version": 1, "benchmark": b, "tmm": self._tmms[b],
             "seed": warm_seed}
            for b in self.benchmarks
        ]))
        bad = [r for r in responses if r["status"] != "ok"]
        if bad:
            raise RuntimeError(f"warm-up request failed: {bad[0]}")

    @staticmethod
    async def _send_together(payloads) -> list[dict[str, Any]]:
        """Answer ``payloads`` sent at once to a fresh store-less service."""
        from repro.serve.service import TuningService

        service = TuningService()
        try:
            return await asyncio.gather(*(service.handle(p) for p in payloads))
        finally:
            await service.aclose()

    def tmm_of(self, benchmark: str) -> str:
        return self._tmms[benchmark]

    # -- measurement ----------------------------------------------------
    def measure(self, seconds: float, tag: str) -> ServeRun:
        """The unloaded step, then the ladder, each on a fresh service
        and store."""
        scratch = work_dir(f"serve-{tag}")
        count = round(seconds * UNLOADED_PER_S)
        # Arrival times are not used: the unloaded client sends each
        # request when the previous one is answered.
        unloaded = make_schedule(self.seed, UNLOADED_TRACE, 1.0, count,
                                 self.benchmarks, self.tmm_of, UNLOADED_POOL)

        async def run() -> ServeRun:
            result = ServeRun(
                await _run_unloaded(unloaded, scratch / "unloaded.sqlite"), []
            )
            for rung, (rate, share) in enumerate(zip(RATES, SHARES)):
                duration = seconds * share
                schedule = make_schedule(self.seed, rung, rate, duration,
                                         self.benchmarks, self.tmm_of)
                result.rungs.append(await _run_rung(
                    rate, duration, schedule, scratch / f"rung{rung}.sqlite",
                ))
            return result

        return asyncio.run(run())

    def poison_probe(self) -> tuple[int, str]:
        """Send one request with ``node_id`` outside the cluster at once
        with :data:`POISON_GROUP` valid ones (other benchmarks, a seed
        outside the request pool).  Returns (valid requests not answered
        ``ok``, the out-of-range request's status or error code)."""
        probe_seed = self.seed * 1000 + 998
        payloads = [
            {"version": 1, "benchmark": b, "node_id": 0, "seed": probe_seed}
            for b in self.benchmarks[:POISON_GROUP]
        ]
        payloads.append({"version": 1, "benchmark": self.benchmarks[0],
                         "node_id": VALID_NODES, "seed": probe_seed})
        *valid, bad = asyncio.run(self._send_together(payloads))
        failed = sum(1 for r in valid if r["status"] != "ok")
        return failed, bad["status"] if bad["status"] == "ok" else bad["error"]["code"]

    # -- reference check ------------------------------------------------
    def check(self, steps: list[Step]) -> tuple[int, int, bool, list[str]]:
        """Byte-compare every ``ok`` answer with offline ``api.tune``;
        invalid requests must be refused with a 4xx code.

        Returns (attempted, failed, correct, notes).  A wrong answer
        makes the run incorrect; an error answer is a failure.
        """
        from repro import api

        reference: dict[str, str] = {}
        correct = True
        failures: Counter[str] = Counter()
        attempted = 0
        for step in steps:
            step.slot_ms = []
            attempted += len(step.answered)
            for a in step.answered:
                response = a.response
                code = (
                    "ok" if response["status"] == "ok"
                    else response["error"]["code"]
                )
                if not a.request.valid:
                    step.slot_ms.append(None)
                    if code == "ok":
                        correct = False
                    if code not in ("bad-request", "bad-value"):
                        failures[f"invalid->{code}"] += 1
                    continue
                if code == "ok":
                    key = json.dumps(a.request.payload, sort_keys=True)
                    if key not in reference:
                        fields = {k: v for k, v in a.request.payload.items()
                                  if k != "version"}
                        answer = api.tune(api.TuningRequest(**fields))
                        reference[key] = json.dumps(answer.payload(), sort_keys=True)
                    if json.dumps(response["result"], sort_keys=True) != reference[key]:
                        code = "mismatch"
                        correct = False
                if code != "ok":
                    failures[f"valid->{code}"] += 1
                    step.slot_ms.append(float("inf"))
                    continue
                step.slot_ms.append(a.latency_ms)
        failed = sum(failures.values())
        notes = [
            "failures by kind: "
            + (", ".join(f"{k}={v}" for k, v in sorted(failures.items())) or "none")
            + f"; {len(reference)} distinct answers checked against api.tune"
        ]
        return attempted, failed, correct, notes


def max_rate(rungs: list[RungResult]) -> float:
    """The highest rate meeting the limit, interpolated between the last
    passing rung and the first failing one on their tail latencies."""
    best = 0.0
    for i, rung in enumerate(rungs):
        if not rung.meets_limit():
            if i == 0:
                t = rung.valid_tail_ms()
                return rung.rate * min(1.0, LIMIT_MS / t) if t > 0 else rung.rate
            prev = rungs[i - 1]
            lo, hi = prev.valid_tail_ms(), rung.valid_tail_ms()
            if (rung.generator_valid and not rung.backlog_growing
                    and hi != float("inf") and hi > lo):
                frac = (LIMIT_MS - lo) / (hi - lo)
                return prev.rate + (rung.rate - prev.rate) * frac
            return prev.rate
        best = rung.rate
    return best


def summarise(run: ServeRun, out: Outcome) -> None:
    """End-to-end metrics and report lines from a checked run."""
    steps = [("unloaded", run.unloaded), ("low", run.rungs[LOW_RUNG]),
             ("high", run.rungs[HIGH_RUNG])]
    for label, step in steps:
        lat = step.ok_ms()
        t = tail(lat)
        where = ("one request at a time" if step is run.unloaded
                 else f"at {step.rate:g} req/s")
        out.report.append(
            f"latency_p50_ms.{label} = {median(lat):.2f} ms; "
            f"latency_tail_ms.{label} = {t.value:.2f} ms ({t.describe()} ok "
            f"valid requests) {where}"
        )
    scaled = run.unloaded.scaled_ms()
    out.report.append(
        f"op_ms = {median(scaled):.2f} ms: latency_p50_ms.unloaded at "
        f"reference speed (speed scale median "
        f"{median(run.unloaded.scales):.2f}, "
        f"{sum(a.response.get('meta', {}).get('cached', False) for a in run.unloaded.answered)}"
        f" store hits of {len(run.unloaded.answered)})"
    )
    out.report.append(
        f"max_rate_rps = {max_rate(run.rungs):.2f} 1/s "
        f"(limit {LIMIT_MS:g} ms on the tail)"
    )
    for rung in run.rungs:
        lat = rung.ok_ms()
        lt = tail(rung.late_ms) if rung.late_ms else None
        out.report.append(
            f"  rung {rung.rate:5.1f} req/s x {rung.duration_s:.1f} s: "
            f"sent {len(rung.answered)}, failed {rung.failures} valid, "
            f"p50 {median(lat) if lat else 0:.1f} ms, "
            f"tail {rung.valid_tail_ms():.1f} ms, "
            f"backlog at end {rung.backlog_end}"
            f"{' (growing)' if rung.backlog_growing else ''}, "
            f"generator late max {max(rung.late_ms, default=0):.1f} ms / "
            f"tail {lt.value if lt else 0:.1f} ms"
            f"{'' if rung.generator_valid else ' (INVALID: generator behind)'}, "
            f"groups {rung.service_metrics['groups_fired']}"
        )
    out.metric("op_ms", median(scaled), "ms")
