"""Vectorized replay fast path for *controller-driven* (RRL) runs.

The paper's headline numbers come from controlled production runs: the
READEX RRL switches core/uncore frequency and thread count at region
enters.  Such a run is still fully determined before any time passes —
the RRL's decisions depend only on region names and the current hardware
state, never on durations or noise — so the run splits into two phases:

**Phase 1 — schedule compilation** (:func:`compile_schedule_by_walk`).
The region trace is walked symbolically against the controller: the real
``on_region_enter``/``on_region_exit`` hooks run against the live node's
frequency subsystem (MSRs, DVFS/UFS transition logs), but no simulated
time passes and no meter is charged.  The walk records, per iteration,
the ordered *charge sequence* — switch latencies, region bodies, probe
overheads, each with its operating point and power breakdown — i.e. the
switch schedule plus everything needed to price it.  Because controller
decisions are iteration-independent, the walk reaches a fixed point
after at most two iterations in practice: once an iteration starts from
the same (frequencies, pending transitions, controller state) as its
predecessor, its pattern — and every later iteration's — is already
known, and the controller's statistics are extrapolated instead of
re-walked.

**Phase 2 — segmented replay** (:func:`replay_controlled_run`).  The
trace is segmented by compiled pattern (*segments partition the
iterations*) and replayed with the PR-2 bulk kernels: keyed lognormal
noise through the batched RNG layer, meters through
:meth:`~repro.hardware.node.ComputeNode.advance_many`, energies through
strict-left-fold accumulations, instances materialised lazily.

The output is **bit-identical** to the recursive engine with the same
controller attached: same ``RunResult``, same
:class:`~repro.readex.rrl.RRLStatistics`, same keyed RNG streams, same
observable node state afterwards.  Controllers opt in through the
``compile_schedule`` protocol (see
:class:`~repro.execution.simulator.ScheduleCompiler`); the RRL and the
static-tuning controller implement it, foreign controllers keep the
recursive path.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import config
from repro.execution.timing import RegionTiming, region_timing
from repro.util.rng import StreamPrefix, batched_lognormal
from repro.workloads.application import Application
from repro.workloads.region import Region

#: Charge kinds, in the only order they can appear at one region enter.
SWITCH, BODY, PROBE = 0, 1, 2


@dataclass(frozen=True)
class _Charge:
    """One meter charge of the per-iteration sequence."""

    kind: int
    slot: int
    duration_s: float             #: fixed for SWITCH/PROBE, 0.0 for BODY
    node_w: float
    package_w: float
    dram_w: float


@dataclass
class _Slot:
    """One region of the flattened phase subtree (pre-order), under the
    operating point the walk observed for this pattern."""

    region: Region
    children: tuple[int, ...]
    has_work: bool
    probed: bool
    timing: RegionTiming | None
    base_time_s: float
    node_w: float                 #: body power
    cpu_fraction: float
    probe_s: float
    probe_node_w: float
    work_index: int               #: row in the work-region arrays, -1
    point: object                 #: OperatingPoint of the body
    charge_start: int             #: span in this pattern's charge sequence
    charge_end: int


@dataclass
class _Pattern:
    """The compiled charge plan of one distinct iteration shape."""

    slots: tuple[_Slot, ...]
    charges: tuple[_Charge, ...]
    fixed_durations: np.ndarray   #: (C,) switch/probe durations, 0 for bodies
    body_rows: np.ndarray         #: (C,) work-region row per charge, -1 fixed
    node_w: np.ndarray            #: (C,) power components per charge
    package_w: np.ndarray
    dram_w: np.ndarray
    switch_latencies: np.ndarray  #: SWITCH-charge durations, in order
    probe_overheads: np.ndarray   #: PROBE-charge durations, in order
    base_times: np.ndarray        #: (W,) body durations at this pattern's ops

    @property
    def num_switches(self) -> int:
        return int(self.switch_latencies.size)


@dataclass
class ControlSchedule:
    """Compiled switch schedule of one controlled run.

    ``spans`` segments the iteration axis: ``(pattern index, first
    iteration, count)`` triples in order, jointly covering every
    iteration exactly once.
    """

    patterns: list[_Pattern]
    spans: list[tuple[int, int, int]]
    post_order: tuple[int, ...]
    iterations: int
    num_work: int

    @property
    def region_enters(self) -> int:
        """Region enters over the whole run (every slot, every iteration)."""
        return sum(
            len(self.patterns[p].slots) * count for p, _start, count in self.spans
        )

    @property
    def switch_charges(self) -> int:
        """Hardware switch charges over the whole run."""
        return sum(
            self.patterns[p].num_switches * count for p, _start, count in self.spans
        )


class ScheduleCache:
    """Equality-keyed cache of compiled control schedules.

    A compiled schedule is a pure function of (application, controller
    configuration and state, node physics, entry hardware state,
    instrumentation) — everything *except* the run key, whose noise is
    applied at replay time.  Production sweeps repeat the same
    configuration many times (Table 6 averages five runs per variant),
    so caching the compile amortises the symbolic walk to once per
    configuration.  Applications are compared by value (registry builds
    return fresh but equal trees every call); entries are evicted FIFO
    beyond ``maxsize``.
    """

    def __init__(self, maxsize: int = 32):
        self._maxsize = maxsize
        self._entries: list[tuple[object, tuple, object]] = []

    def get(self, app, key: tuple):
        for cached_app, cached_key, value in self._entries:
            if cached_key == key and cached_app == app:
                return value
        return None

    def put(self, app, key: tuple, value) -> None:
        self._entries.append((app, key, value))
        if len(self._entries) > self._maxsize:
            del self._entries[0]


#: Per-owner caches, evicted when the owner is garbage-collected.
_OWNER_CACHES: dict[int, ScheduleCache] = {}


def schedule_cache_for(owner) -> ScheduleCache:
    """The schedule cache tied to ``owner``'s lifetime (e.g. a tuning
    model): shared by every controller built over the same object,
    released with it — without mutating or pickling along with it."""
    ident = id(owner)
    cache = _OWNER_CACHES.get(ident)
    if cache is None:
        cache = _OWNER_CACHES[ident] = ScheduleCache()
        weakref.finalize(owner, _OWNER_CACHES.pop, ident, None)
    return cache


class ScheduleCachePool:
    """Bounded pool of schedule caches keyed by *value* (for owners that
    are value objects, like a static operating point).  Oldest
    configurations are dropped beyond ``maxsize``."""

    def __init__(self, maxsize: int = 64):
        self._maxsize = maxsize
        self._caches: dict[object, ScheduleCache] = {}

    def for_value(self, value) -> ScheduleCache:
        cache = self._caches.get(value)
        if cache is None:
            if len(self._caches) >= self._maxsize:
                self._caches.pop(next(iter(self._caches)))
            cache = self._caches[value] = ScheduleCache()
        return cache


@dataclass
class CompiledControl:
    """One cached compile: the schedule plus everything a controller
    needs to reach its (and the node's) end-of-run state on reuse."""

    schedule: ControlSchedule
    controller_state: object      #: the controller's final internal state
    stats: object | None          #: opaque per-run statistics delta
    final_core_ghz: float
    final_uncore_ghz: float


def compile_or_reuse(
    cache: ScheduleCache, app, node, key: tuple, build
) -> CompiledControl:
    """Serve a compiled control from ``cache`` or build and store it.

    ``build()`` walks the live node (leaving it at the run's final
    frequencies with drained logs); a cache hit fast-forwards the node
    to that same state instead.
    """
    compiled = cache.get(app, key)
    if compiled is None:
        compiled = build()
        cache.put(app, key, compiled)
    else:
        fast_forward_node(
            node, compiled.final_core_ghz, compiled.final_uncore_ghz
        )
    return compiled


def fast_forward_node(node, core_freq_ghz: float, uncore_freq_ghz: float) -> None:
    """Bring ``node``'s frequency subsystem to a cached walk's end state.

    Equivalent to re-walking the run: the recursive engine leaves the
    node at its final frequencies with drained transition logs, so a
    cache hit programs those frequencies through the regular controllers
    (identical MSR contents) and clears the logs.
    """
    node.set_frequencies(core_freq_ghz, uncore_freq_ghz)
    node.dvfs.log.clear()
    node.ufs.log.clear()


def schedule_cache_key(
    node, *, threads: int, instrumented: bool, instrumentation
) -> tuple:
    """The run-invariant part of a schedule cache key.

    Captures everything of the *environment* a compiled schedule bakes
    in: node physics (topology plus the power model's variability
    factors — the constructor accepts an explicit ``variability``
    override, so id/seed alone would not pin the physics), entry
    frequencies, pending transition-log state (only emptiness matters —
    the charged latency is per-domain, not per-transition) and the
    instrumentation configuration.  Controller state is the caller's to
    append.
    """
    filter_key = (
        None
        if instrumentation is None
        else frozenset(instrumentation.filtered)
    )
    return (
        threads,
        instrumented,
        filter_key,
        node.node_id,
        node.seed,
        repr(node.topology),
        node.power_model.variability,
        node.core_freq_ghz,
        node.uncore_freq_ghz,
        node.dvfs.log.count > 0,
        node.ufs.log.count > 0,
    )


def compile_schedule_by_walk(
    controller,
    app: Application,
    node,
    *,
    threads: int,
    instrumented: bool,
    instrumentation,
    state_key: Callable[[], object],
    snapshot_stats: Callable[[], object] | None = None,
    extrapolate_stats: Callable[[object, object, int], None] | None = None,
) -> ControlSchedule:
    """Walk the region trace once against ``controller`` and compile it.

    The controller's real enter/exit hooks run against ``node``'s
    frequency subsystem, so MSR programming, quantization and transition
    logging are exactly the recursive engine's; only meters and the
    clock stay untouched.  After the walk the node is at its end-of-run
    frequencies with cleared transition logs — the state recursion would
    leave behind.

    ``state_key`` fingerprints the controller's internal state; once an
    iteration begins from the same (frequencies, pending transitions,
    state-key) as its predecessor, the remaining iterations reuse the
    last pattern and ``extrapolate_stats(before, after, copies)`` is
    asked to scale that pattern's statistics delta instead of walking.
    Controllers whose decisions depend on the iteration *index* must not
    use this compiler.
    """
    iterations = app.phase_iterations
    patterns: list[_Pattern] = []
    spans: list[tuple[int, int, int]] = []
    prev_key = None
    last_before = last_after = None
    walked = 0
    while walked < iterations:
        key = (
            node.core_freq_ghz,
            node.uncore_freq_ghz,
            node.dvfs.log.count,
            node.ufs.log.count,
            state_key(),
        )
        if prev_key is not None and key == prev_key:
            remaining = iterations - walked
            index, start, count = spans[-1]
            spans[-1] = (index, start, count + remaining)
            if extrapolate_stats is not None:
                extrapolate_stats(last_before, last_after, remaining)
            break
        last_before = snapshot_stats() if snapshot_stats is not None else None
        pattern = _walk_iteration(
            controller, app, node, threads, walked, instrumented, instrumentation
        )
        last_after = snapshot_stats() if snapshot_stats is not None else None
        patterns.append(pattern)
        spans.append((len(patterns) - 1, walked, 1))
        prev_key = key
        walked += 1

    post_order: list[int] = []
    slots = patterns[0].slots

    def order(index: int) -> None:
        for child in slots[index].children:
            order(child)
        post_order.append(index)

    order(0)
    return ControlSchedule(
        patterns=patterns,
        spans=spans,
        post_order=tuple(post_order),
        iterations=iterations,
        num_work=sum(1 for s in slots if s.has_work),
    )


def _walk_iteration(
    controller,
    app: Application,
    node,
    threads: int,
    iteration: int,
    instrumented: bool,
    instrumentation,
) -> _Pattern:
    """One symbolic pre-order walk, mirroring ``_exec_region`` minus the
    meters: controller hooks fire for real, switching latencies are read
    off the live transition logs, timings/powers are evaluated at the
    frequencies the node holds at that moment."""
    from repro.execution.simulator import (
        OperatingPoint,
        pending_switch_latency_s,
        probe_overhead_s,
    )

    slots: list[_Slot | None] = []
    charges: list[_Charge] = []
    work_count = 0

    def drain_switches(slot_index: int, frame_threads: int) -> None:
        dvfs_n = node.dvfs.log.count
        ufs_n = node.ufs.log.count
        node.dvfs.log.clear()
        node.ufs.log.clear()
        latency = pending_switch_latency_s(dvfs_n, ufs_n)
        if latency > 0:
            breakdown = node.compute_power(
                active_threads=frame_threads,
                core_activity=config.STALLED_CORE_ACTIVITY,
                uncore_activity=0.0,
                membw_gbs=0.0,
            )
            charges.append(
                _Charge(
                    kind=SWITCH,
                    slot=slot_index,
                    duration_s=latency,
                    node_w=breakdown.node_w,
                    package_w=breakdown.rapl_package_w,
                    dram_w=breakdown.rapl_dram_w,
                )
            )

    def visit(region: Region, frame_threads: int) -> int:
        nonlocal work_count
        index = len(slots)
        slots.append(None)
        new_threads = controller.on_region_enter(region, iteration, node)
        if new_threads:
            frame_threads = new_threads
        drain_switches(index, frame_threads)
        charge_start = len(charges)
        core_ghz = node.core_freq_ghz
        uncore_ghz = node.uncore_freq_ghz
        probed = instrumented and (
            instrumentation is None or instrumentation.is_instrumented(region)
        )
        timing = None
        base_time = node_w = cpu_fraction = 0.0
        work_index = -1
        if region.has_work:
            timing = region_timing(
                region.characteristics,
                threads=frame_threads,
                core_freq_ghz=core_ghz,
                uncore_freq_ghz=uncore_ghz,
            )
            breakdown = node.compute_power(
                active_threads=frame_threads,
                core_activity=timing.core_activity,
                uncore_activity=timing.uncore_activity,
                membw_gbs=timing.membw_gbs,
            )
            base_time = timing.time_s
            node_w = breakdown.node_w
            cpu_fraction = breakdown.cpu_w / breakdown.node_w
            work_index = work_count
            work_count += 1
            charges.append(
                _Charge(
                    kind=BODY,
                    slot=index,
                    duration_s=0.0,
                    node_w=breakdown.node_w,
                    package_w=breakdown.rapl_package_w,
                    dram_w=breakdown.rapl_dram_w,
                )
            )
        probe_s = probe_node_w = 0.0
        if probed:
            breakdown = node.compute_power(
                active_threads=frame_threads,
                core_activity=1.0,
                uncore_activity=0.1,
                membw_gbs=0.0,
            )
            probe_s = probe_overhead_s(region)
            probe_node_w = breakdown.node_w
            charges.append(
                _Charge(
                    kind=PROBE,
                    slot=index,
                    duration_s=probe_s,
                    node_w=breakdown.node_w,
                    package_w=breakdown.rapl_package_w,
                    dram_w=breakdown.rapl_dram_w,
                )
            )
        point = OperatingPoint(
            core_freq_ghz=core_ghz,
            uncore_freq_ghz=uncore_ghz,
            threads=frame_threads,
        )
        children = tuple(visit(child, frame_threads) for child in region.children)
        charge_end = len(charges)
        controller.on_region_exit(region, iteration, node)
        drain_switches(index, frame_threads)
        slots[index] = _Slot(
            region=region,
            children=children,
            has_work=region.has_work,
            probed=probed,
            timing=timing,
            base_time_s=base_time,
            node_w=node_w,
            cpu_fraction=cpu_fraction,
            probe_s=probe_s,
            probe_node_w=probe_node_w,
            work_index=work_index,
            point=point,
            charge_start=charge_start,
            charge_end=charge_end,
        )
        return index

    visit(app.phase, threads)
    compiled = tuple(slots)  # type: ignore[arg-type]

    num_charges = len(charges)
    fixed_durations = np.zeros(num_charges)
    body_rows = np.full(num_charges, -1, dtype=np.intp)
    node_w = np.empty(num_charges)
    package_w = np.empty(num_charges)
    dram_w = np.empty(num_charges)
    for c, charge in enumerate(charges):
        node_w[c] = charge.node_w
        package_w[c] = charge.package_w
        dram_w[c] = charge.dram_w
        if charge.kind == BODY:
            body_rows[c] = compiled[charge.slot].work_index
        else:
            fixed_durations[c] = charge.duration_s
    return _Pattern(
        slots=compiled,
        charges=tuple(charges),
        fixed_durations=fixed_durations,
        body_rows=body_rows,
        node_w=node_w,
        package_w=package_w,
        dram_w=dram_w,
        switch_latencies=np.array(
            [c.duration_s for c in charges if c.kind == SWITCH], dtype=float
        ),
        probe_overheads=np.array(
            [c.duration_s for c in charges if c.kind == PROBE], dtype=float
        ),
        base_times=np.array(
            [s.base_time_s for s in compiled if s.has_work], dtype=float
        ),
    )


@dataclass
class FlatControlSchedule:
    """One run's compiled charges, flattened to run-long sequences.

    The pricing view of a :class:`ControlSchedule` under one noise
    matrix: every span's charge plan tiled over its iterations and
    concatenated in execution order.
    """

    durations: np.ndarray         #: (L,) every charge duration, in order
    node_w: np.ndarray            #: (L,) power components per charge
    package_w: np.ndarray
    dram_w: np.ndarray
    switches: np.ndarray          #: SWITCH-charge durations, in order
    probes: np.ndarray            #: PROBE-charge durations, in order
    span_offsets: tuple[int, ...]
    span_durations: tuple         #: per span: (W, count) noisy bodies | None


def flatten_control_schedule(
    schedule: ControlSchedule, noise: np.ndarray
) -> FlatControlSchedule:
    """Flatten every segment's charges into one run-long sequence.

    ``noise`` is the run's global (work region x iteration) lognormal
    matrix; spans slice it by iteration range, so the flattened body
    durations consume exactly the keyed streams the recursive engine
    would draw one at a time.
    """
    flat_parts: list[np.ndarray] = []
    power_parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    switch_parts: list[np.ndarray] = []
    probe_parts: list[np.ndarray] = []
    span_offsets: list[int] = []
    span_durations: list[np.ndarray | None] = []
    offset = 0
    for index, start, count in schedule.spans:
        pattern = schedule.patterns[index]
        num_charges = len(pattern.charges)
        matrix = np.tile(pattern.fixed_durations, (count, 1))
        durations_work = None
        if schedule.num_work:
            durations_work = pattern.base_times[:, None] * noise[:, start:start + count]
            body = pattern.body_rows >= 0
            matrix[:, body] = durations_work[pattern.body_rows[body]].T
        flat_parts.append(matrix.reshape(-1))
        power_parts.append(
            (
                np.tile(pattern.node_w, count),
                np.tile(pattern.package_w, count),
                np.tile(pattern.dram_w, count),
            )
        )
        switch_parts.append(np.tile(pattern.switch_latencies, count))
        probe_parts.append(np.tile(pattern.probe_overheads, count))
        span_offsets.append(offset)
        span_durations.append(durations_work)
        offset += count * num_charges
    return FlatControlSchedule(
        durations=np.concatenate(flat_parts),
        node_w=np.concatenate([p[0] for p in power_parts]),
        package_w=np.concatenate([p[1] for p in power_parts]),
        dram_w=np.concatenate([p[2] for p in power_parts]),
        switches=np.concatenate(switch_parts),
        probes=np.concatenate(probe_parts),
        span_offsets=tuple(span_offsets),
        span_durations=tuple(span_durations),
    )


def control_noise_seeds(schedule: ControlSchedule, node_id, run_key, seed):
    """The (work region x iteration) seed matrix of one controlled run."""
    seeds = np.empty((schedule.num_work, schedule.iterations), dtype=np.uint64)
    for slot in schedule.patterns[0].slots:
        if slot.has_work:
            prefix = StreamPrefix(
                "time", node_id, run_key, slot.region.name, seed=seed
            )
            seeds[slot.work_index] = prefix.seeds_for_iterations(
                schedule.iterations
            )
    return seeds


def materialise_control_instances(
    schedule: ControlSchedule,
    timeline: np.ndarray,
    flat: FlatControlSchedule,
) -> list:
    """Derive every :class:`RegionInstance` row of one controlled run.

    ``timeline`` is the simulated clock after each flattened charge
    (with a leading entry time).
    """
    from repro.execution.simulator import RegionInstance

    rows: list = []
    append = rows.append
    for (index, start, count), span_offset, durations_work in zip(
        schedule.spans, flat.span_offsets, flat.span_durations
    ):
        pattern = schedule.patterns[index]
        slots = pattern.slots
        num_slots = len(slots)
        num_charges = len(pattern.charges)
        offsets = span_offset + np.arange(count) * num_charges
        enter_index = np.array([s.charge_start for s in slots])
        exit_index = np.array([s.charge_end for s in slots])
        enter = timeline[offsets[:, None] + enter_index[None, :]]
        total_time = timeline[offsets[:, None] + exit_index[None, :]] - enter

        zeros = np.zeros(count)
        body_time: list = [None] * num_slots
        body_energy: list = [None] * num_slots
        for k, slot in enumerate(slots):
            time = energy = None
            if slot.has_work:
                time = durations_work[slot.work_index]
                energy = slot.node_w * time
            if slot.probed:
                probe_joules = slot.probe_node_w * slot.probe_s
                time = (
                    time + slot.probe_s
                    if time is not None
                    else np.full(count, slot.probe_s)
                )
                energy = (
                    energy + probe_joules
                    if energy is not None
                    else np.full(count, probe_joules)
                )
            body_time[k] = time if time is not None else zeros
            body_energy[k] = energy if energy is not None else zeros

        # Inclusive energies: children accumulate in child order, own
        # body first — the recursive engine's exact expression tree.
        # Switch charges never enter instance energies (the recursion
        # accounts them to the run only).
        inclusive: list = [None] * num_slots
        for k in range(num_slots - 1, -1, -1):
            children_energy = None
            for child in slots[k].children:
                children_energy = (
                    inclusive[child]
                    if children_energy is None
                    else children_energy + inclusive[child]
                )
            if children_energy is None:
                children_energy = 0.0
            inclusive[k] = body_energy[k] + children_energy

        cpu_energy: list = [None] * num_slots
        for k, slot in enumerate(slots):
            if slot.has_work:
                cpu_energy[k] = np.where(
                    body_time[k] > 0, body_energy[k] * slot.cpu_fraction, 0.0
                )
            else:
                cpu_energy[k] = zeros

        for i in range(count):
            iteration = start + i
            for k in schedule.post_order:
                slot = slots[k]
                append(
                    RegionInstance(
                        region_name=slot.region.name,
                        iteration=iteration,
                        start_s=float(enter[i, k]),
                        time_s=float(total_time[i, k]),
                        node_energy_j=float(inclusive[k][i]),
                        cpu_energy_j=float(cpu_energy[k][i]),
                        operating_point=slot.point,
                        timing=slot.timing,
                    )
                )
    return rows


def replay_controlled_run(
    sim,
    app: Application,
    controller,
    *,
    threads: int,
    instrumented: bool,
    instrumentation,
    run_key: tuple,
):
    """Compile the controller's switch schedule and replay it in bulk.

    Returns the filled ``RunResult`` (``engine="replay"``), or ``None``
    when the controller's ``compile_schedule`` declines — in which case
    neither the controller nor the node has been touched and the caller
    falls back to the recursive engine.
    """
    from repro.execution.simulator import (
        TIME_NOISE_SIGMA,
        InstanceLog,
        OperatingPoint,
        RunResult,
    )

    node = sim.node
    entry_point = OperatingPoint(
        core_freq_ghz=node.core_freq_ghz,
        uncore_freq_ghz=node.uncore_freq_ghz,
        threads=threads,
    )
    schedule = controller.compile_schedule(
        app,
        node,
        threads=threads,
        instrumented=instrumented,
        instrumentation=instrumentation,
    )
    if schedule is None:
        return None
    result = RunResult(
        app_name=app.name,
        node_id=node.node_id,
        operating_point=entry_point,
        engine="replay",
    )

    iterations = schedule.iterations
    start_time = node.now_s
    start_cpu_j = node.rapl.read_cpu_energy_joules()

    # -- keyed time noise, batched over (work region x iteration) ----------
    # The streams are keyed by region name and iteration only — never by
    # operating point — so one global matrix serves every segment.
    if schedule.num_work:
        seeds = control_noise_seeds(schedule, node.node_id, run_key, sim.seed)
        noise = batched_lognormal(seeds.reshape(-1), TIME_NOISE_SIGMA).reshape(
            schedule.num_work, iterations
        )
    else:
        noise = np.empty((0, iterations))

    flat = flatten_control_schedule(schedule, noise)

    # Simulated clock after each charge; cumsum is a strict left fold, so
    # every value matches the recursive engine's repeated ``+=``.
    timeline = np.cumsum(np.concatenate(([start_time], flat.durations)))

    node.advance_many(flat.durations, flat.node_w, flat.package_w, flat.dram_w)

    if flat.durations.size:
        flat_joules = flat.node_w * flat.durations
        result.node_energy_j = float(np.add.accumulate(flat_joules)[-1])
    if flat.switches.size:
        result.switching_time_s = float(np.add.accumulate(flat.switches)[-1])
    if flat.probes.size:
        result.instrumentation_time_s = float(np.add.accumulate(flat.probes)[-1])

    result.time_s = node.now_s - start_time
    result.cpu_energy_j = node.rapl.read_cpu_energy_joules() - start_cpu_j

    result.instances = InstanceLog.deferred(
        lambda: materialise_control_instances(schedule, timeline, flat)
    )
    return result
