"""Config-axis batched sweep replay: a whole frequency grid in one pass.

The paper's Figures 6/7 heatmaps, the Table V exhaustive static search
and the trade-off study all measure *static* grids: one uncontrolled run
per (core-frequency, uncore-frequency[, threads]) configuration, each on
a fresh node.  After the per-run fast path (:mod:`repro.execution.replay`)
the grid itself remained a Python loop — fresh node, recompiled
schedule, one replay per cell.  This module adds a **configuration
axis** to the replay kernels and executes the entire sweep in one pass:

* the phase subtree is walked **once** into a config-independent
  structure (slot topology, charge order, probe overheads); only the
  per-cell timing/power numbers are evaluated per configuration, against
  one shared :class:`~repro.hardware.power.PowerModel` whose breakdown
  cache stays warm across the grid (the loop rebuilt it per cell);
* the keyed lognormal time noise is drawn as one 2-D batch over
  (configuration x work region x iteration) through
  :func:`repro.util.rng.batched_lognormal`, with per-configuration run
  keys, so every cell consumes exactly the stream the one-run-at-a-time
  loop would;
* charge timelines, node-energy folds and the RAPL tick/residual
  arithmetic run as row-wise numpy folds over the config axis — each
  row replays the exact IEEE-754 operation sequence of one
  :meth:`~repro.hardware.node.ComputeNode.advance_many` call on a fresh
  node, so per-cell results **and** meter end states are bit-identical
  to the historical loop;
* :class:`~repro.execution.simulator.RegionInstance` rows materialise
  lazily per cell through the shared
  :func:`repro.execution.replay.materialise_instances` producer.

Every cell of the sweep is bit-identical to::

    node = ComputeNode(node_id, seed=node_seed, topology=topology)
    node.set_frequencies(point.core_freq_ghz, point.uncore_freq_ghz)
    ExecutionSimulator(node, seed=seed).run(
        app, threads=point.threads, run_key=run_keys[i],
    )

which ``tests/execution/test_sweep_replay_equivalence.py`` locks down —
``RunResult`` fields, region instances and the node's meter/MSR end
state (:func:`meter_end_state`) — across benchmarks, thread counts and
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import config
from repro.errors import FrequencyError, WorkloadError
from repro.execution.replay import (
    _ReplayState,
    _Schedule,
    _Slot,
    materialise_instances,
)
from repro.execution.timing import RegionTiming, region_timing
from repro.hardware.frequency import quantize_frequency
from repro.hardware.msr import ghz_of_ratio, ratio_of_ghz
from repro.hardware.power import NodeVariability, PowerModel
from repro.hardware.rapl import RAPL_ENERGY_UNIT_J
from repro.hardware.topology import NodeTopology
from repro.util.rng import StreamPrefix, batched_lognormal
from repro.workloads.application import Application
from repro.workloads.region import Region

_COUNTER_MASK = (1 << 32) - 1


@dataclass(frozen=True)
class MeterEndState:
    """Observable node state after one grid cell's run on a fresh node.

    Mirrors what the per-config loop leaves behind: the simulated
    clocks, the programmed frequencies and the RAPL accumulators' raw
    counters plus sub-tick residuals (per domain, per socket).
    :func:`meter_end_state` extracts the same view from a real
    :class:`~repro.hardware.node.ComputeNode` for comparison.
    """

    now_s: float
    hdeem_now_s: float
    core_freq_ghz: float
    uncore_freq_ghz: float
    rapl_package: tuple[tuple[int, float], ...]  #: (raw, residual) / socket
    rapl_dram: tuple[tuple[int, float], ...]


def meter_end_state(node) -> MeterEndState:
    """The :class:`MeterEndState` of a real compute node."""
    state = node.rapl_state()
    return MeterEndState(
        now_s=node.now_s,
        hdeem_now_s=node.hdeem.now_s,
        core_freq_ghz=node.core_freq_ghz,
        uncore_freq_ghz=node.uncore_freq_ghz,
        rapl_package=state["package"],
        rapl_dram=state["dram"],
    )


@dataclass
class SweepReplay:
    """Per-configuration results of one grid sweep.

    ``results[i]`` corresponds to ``points[i]`` and compares equal to
    the :class:`~repro.execution.simulator.RunResult` of the equivalent
    fresh-node run; ``end_states[i]`` is the meter/MSR state that run
    would leave on its node.
    """

    points: tuple
    results: tuple
    end_states: tuple[MeterEndState, ...]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]


@dataclass
class _Structure:
    """The config-independent skeleton of the phase subtree."""

    regions: tuple[Region, ...]            #: per slot, pre-order
    children: tuple[tuple[int, ...], ...]
    has_work: tuple[bool, ...]
    probed: tuple[bool, ...]
    probe_s: tuple[float, ...]             #: per slot (0.0 when unprobed)
    work_index: tuple[int, ...]            #: row in work arrays, -1
    charge_start: tuple[int, ...]
    charge_end: tuple[int, ...]
    charges: tuple[tuple[int, bool], ...]  #: (slot index, is_probe)
    post_order: tuple[int, ...]
    work_slots: tuple[int, ...]            #: slot index per work row
    num_work: int
    any_probed: bool

    @property
    def probe_per_iteration(self) -> np.ndarray:
        """Probe overheads in charge order — config-independent."""
        return np.array(
            [self.probe_s[k] for k, is_probe in self.charges if is_probe],
            dtype=float,
        )


def _compile_structure(
    app: Application, instrumented: bool, instrumentation
) -> _Structure:
    """One walk of the phase subtree, mirroring ``replay._compile``'s
    traversal and charge order exactly — minus everything that depends
    on the operating point."""
    from repro.execution.simulator import probe_overhead_s

    regions: list[Region] = []
    children: list[tuple[int, ...]] = []
    has_work: list[bool] = []
    probed_flags: list[bool] = []
    probe_s: list[float] = []
    work_index: list[int] = []
    charge_start: list[int] = []
    charge_end: list[int] = []
    charges: list[tuple[int, bool]] = []
    work_slots: list[int] = []

    def visit(region: Region) -> int:
        index = len(regions)
        regions.append(region)
        children.append(())
        has_work.append(region.has_work)
        probed = instrumented and (
            instrumentation is None or instrumentation.is_instrumented(region)
        )
        probed_flags.append(probed)
        charge_start.append(len(charges))
        charge_end.append(0)  # filled after the subtree walk
        if region.has_work:
            work_index.append(len(work_slots))
            work_slots.append(index)
            charges.append((index, False))
        else:
            work_index.append(-1)
        if probed:
            probe_s.append(probe_overhead_s(region))
            charges.append((index, True))
        else:
            probe_s.append(0.0)
        children[index] = tuple(visit(child) for child in region.children)
        charge_end[index] = len(charges)
        return index

    visit(app.phase)

    post_order: list[int] = []

    def order(index: int) -> None:
        for child in children[index]:
            order(child)
        post_order.append(index)

    order(0)
    return _Structure(
        regions=tuple(regions),
        children=tuple(children),
        has_work=tuple(has_work),
        probed=tuple(probed_flags),
        probe_s=tuple(probe_s),
        work_index=tuple(work_index),
        charge_start=tuple(charge_start),
        charge_end=tuple(charge_end),
        charges=tuple(charges),
        post_order=tuple(post_order),
        work_slots=tuple(work_slots),
        num_work=len(work_slots),
        any_probed=any(probed_flags),
    )


def _effective_frequency(freq_ghz: float, lo: float, hi: float, domain: str) -> float:
    """The frequency a fresh node would report after programming
    ``freq_ghz``: quantized to the 100 MHz ratio grid and decoded back,
    exactly the DVFS/UFS controller round trip."""
    q = quantize_frequency(freq_ghz)
    if not lo <= q <= hi:
        raise FrequencyError(
            f"{domain} frequency {freq_ghz} GHz outside supported range "
            f"[{lo}, {hi}]"
        )
    return ghz_of_ratio(ratio_of_ghz(q))


@dataclass
class _ConfigEval:
    """Per-configuration numbers of the compiled schedule."""

    point: object                    #: effective OperatingPoint
    timings: list                    #: RegionTiming per work row
    base_times: np.ndarray           #: (W,)
    node_w: np.ndarray               #: (W,) body power components
    package_w: np.ndarray
    dram_w: np.ndarray
    cpu_fraction: np.ndarray         #: (W,)
    probe_node_w: float
    probe_package_w: float
    probe_dram_w: float


def _evaluate_config(
    structure: _Structure, power_model: PowerModel, point
) -> _ConfigEval:
    """Timing and power of every work region at one operating point.

    ``region_timing`` is memoised and the power model's breakdown cache
    is shared across the whole sweep, so repeated sweeps (and the probe
    breakdown within one) are dictionary hits.
    """
    w = structure.num_work
    timings: list[RegionTiming] = []
    base_times = np.empty(w)
    node_w = np.empty(w)
    package_w = np.empty(w)
    dram_w = np.empty(w)
    cpu_fraction = np.empty(w)
    for row, slot in enumerate(structure.work_slots):
        timing = region_timing(
            structure.regions[slot].characteristics,
            threads=point.threads,
            core_freq_ghz=point.core_freq_ghz,
            uncore_freq_ghz=point.uncore_freq_ghz,
        )
        breakdown = power_model.power(
            core_freq_ghz=point.core_freq_ghz,
            uncore_freq_ghz=point.uncore_freq_ghz,
            active_threads=point.threads,
            core_activity=timing.core_activity,
            uncore_activity=timing.uncore_activity,
            membw_gbs=timing.membw_gbs,
        )
        timings.append(timing)
        base_times[row] = timing.time_s
        node_w[row] = breakdown.node_w
        package_w[row] = breakdown.rapl_package_w
        dram_w[row] = breakdown.rapl_dram_w
        cpu_fraction[row] = breakdown.cpu_w / breakdown.node_w
    probe_node_w = probe_package_w = probe_dram_w = 0.0
    if structure.any_probed:
        breakdown = power_model.power(
            core_freq_ghz=point.core_freq_ghz,
            uncore_freq_ghz=point.uncore_freq_ghz,
            active_threads=point.threads,
            core_activity=1.0,
            uncore_activity=0.1,
            membw_gbs=0.0,
        )
        probe_node_w = breakdown.node_w
        probe_package_w = breakdown.rapl_package_w
        probe_dram_w = breakdown.rapl_dram_w
    return _ConfigEval(
        point=point,
        timings=timings,
        base_times=base_times,
        node_w=node_w,
        package_w=package_w,
        dram_w=dram_w,
        cpu_fraction=cpu_fraction,
        probe_node_w=probe_node_w,
        probe_package_w=probe_package_w,
        probe_dram_w=probe_dram_w,
    )


def _config_schedule(structure: _Structure, evaluated: _ConfigEval) -> _Schedule:
    """A per-configuration ``replay._Schedule`` for lazy instance rows."""
    slots = []
    for k, region in enumerate(structure.regions):
        row = structure.work_index[k]
        slots.append(
            _Slot(
                region=region,
                children=structure.children[k],
                has_work=structure.has_work[k],
                probed=structure.probed[k],
                timing=evaluated.timings[row] if row >= 0 else None,
                base_time_s=evaluated.base_times[row] if row >= 0 else 0.0,
                node_w=evaluated.node_w[row] if row >= 0 else 0.0,
                package_w=evaluated.package_w[row] if row >= 0 else 0.0,
                dram_w=evaluated.dram_w[row] if row >= 0 else 0.0,
                cpu_fraction=evaluated.cpu_fraction[row] if row >= 0 else 0.0,
                probe_s=structure.probe_s[k],
                work_index=row,
                charge_start=structure.charge_start[k],
                charge_end=structure.charge_end[k],
            )
        )
    return _Schedule(
        slots=tuple(slots),
        post_order=structure.post_order,
        charges=structure.charges,
        base_times=evaluated.base_times,
        charge_node_w=_charge_row(structure, evaluated.node_w, evaluated.probe_node_w),
        charge_package_w=_charge_row(
            structure, evaluated.package_w, evaluated.probe_package_w
        ),
        charge_dram_w=_charge_row(structure, evaluated.dram_w, evaluated.probe_dram_w),
        probe_per_iteration=structure.probe_per_iteration,
        num_work=structure.num_work,
    )


def _charge_row(
    structure: _Structure, work_values: np.ndarray, probe_value: float
) -> np.ndarray:
    """One configuration's per-charge power components, in charge order."""
    out = np.empty(len(structure.charges))
    for c, (slot, is_probe) in enumerate(structure.charges):
        out[c] = probe_value if is_probe else work_values[structure.work_index[slot]]
    return out


def _rapl_fold(joules: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tick counts and final residuals of depositing each row's energy
    sequence into a fresh RAPL accumulator.

    Replays :meth:`~repro.hardware.rapl.RaplAccumulator.deposit_many`'s
    float arithmetic per row, vectorized across the config axis: the
    per-segment ``int(total / unit)`` truncation and residual update are
    elementwise IEEE-754 operations, so each row matches the scalar fold
    to the bit.  Zero-energy segments are exact no-ops in that
    arithmetic (the residual is always below one unit), matching
    ``advance_many``'s explicit zero-duration filtering.
    """
    unit = RAPL_ENERGY_UNIT_J
    n, segments = joules.shape
    residual = np.zeros(n)
    ticks = np.zeros(n, dtype=np.int64)
    columns = np.ascontiguousarray(joules.T)
    for s in range(segments):
        total = residual + columns[s]
        t = np.floor(total / unit)
        residual = total - t * unit
        ticks += t.astype(np.int64)
    return ticks, residual


def sweep_run(
    app: Application,
    points: Sequence,
    *,
    run_keys: Sequence[tuple],
    node_id: int = 0,
    seed: int = config.DEFAULT_SEED,
    node_seed: int | None = None,
    topology: NodeTopology | None = None,
    variability: NodeVariability | None = None,
    instrumented: bool = False,
    instrumentation=None,
) -> SweepReplay:
    """Replay every static configuration of a grid sweep in one pass.

    Parameters
    ----------
    points:
        The grid cells as
        :class:`~repro.execution.simulator.OperatingPoint` values
        (thread counts may differ per cell).
    run_keys:
        One noise-stream label per point, mixed into the keyed RNG
        exactly as the equivalent :meth:`ExecutionSimulator.run` call
        would.
    node_id, seed, node_seed, topology, variability:
        The fresh-node recipe every cell runs on: ``node_seed`` (the
        cluster seed) and ``node_id`` determine the node's variability
        factors unless ``variability`` overrides them; ``seed`` feeds
        the simulator's noise streams.

    Returns a :class:`SweepReplay` whose per-cell results are
    bit-identical to the one-config-at-a-time loop.
    """
    from repro.execution.simulator import (
        TIME_NOISE_SIGMA,
        InstanceLog,
        OperatingPoint,
        RunResult,
    )

    points = list(points)
    run_keys = list(run_keys)
    if len(points) != len(run_keys):
        raise WorkloadError(
            f"sweep points and run keys disagree: {len(points)} points, "
            f"{len(run_keys)} run keys"
        )
    if not points:
        return SweepReplay(points=(), results=(), end_states=())
    if instrumentation is not None:
        instrumented = True

    topo = topology or NodeTopology.default()
    num_sockets = topo.num_sockets
    node_seed = seed if node_seed is None else node_seed
    power_model = PowerModel(
        variability or NodeVariability.sample(node_id, seed=node_seed),
        num_sockets=topo.num_sockets,
        num_cores=topo.num_cores,
    )

    structure = _compile_structure(app, instrumented, instrumentation)
    num_configs = len(points)
    iterations = app.phase_iterations
    num_work = structure.num_work
    num_charges = len(structure.charges)

    # -- per-configuration schedule numbers (compile once, price per cell)
    evaluated: list[_ConfigEval] = []
    for point in points:
        threads = app.resolve_threads(point.threads, topo.num_cores)
        effective = OperatingPoint(
            core_freq_ghz=_effective_frequency(
                point.core_freq_ghz,
                config.CORE_FREQ_MIN_GHZ,
                config.CORE_FREQ_MAX_GHZ,
                "core",
            ),
            uncore_freq_ghz=_effective_frequency(
                point.uncore_freq_ghz,
                config.UNCORE_FREQ_MIN_GHZ,
                config.UNCORE_FREQ_MAX_GHZ,
                "uncore",
            ),
            threads=threads,
        )
        evaluated.append(_evaluate_config(structure, power_model, effective))

    # -- keyed time noise: one batch over (config x work region x iteration)
    if num_work:
        seeds = np.empty((num_configs, num_work, iterations), dtype=np.uint64)
        for g, run_key in enumerate(run_keys):
            rows = seeds[g]
            for row, slot in enumerate(structure.work_slots):
                prefix = StreamPrefix(
                    "time",
                    node_id,
                    run_key,
                    structure.regions[slot].name,
                    seed=seed,
                )
                prefix.fill_iteration_seeds(rows[row])
        noise = batched_lognormal(seeds.reshape(-1), TIME_NOISE_SIGMA).reshape(
            num_configs, num_work, iterations
        )
        base_times = np.array([e.base_times for e in evaluated])
        durations_work = base_times[:, :, None] * noise  # (G, W, I)
    else:
        durations_work = np.empty((num_configs, 0, iterations))

    # -- the charge sequences, config-major (each row iteration-major) ----
    charge_node_w = np.array(
        [_charge_row(structure, e.node_w, e.probe_node_w) for e in evaluated]
    )
    charge_package_w = np.array(
        [_charge_row(structure, e.package_w, e.probe_package_w) for e in evaluated]
    )
    charge_dram_w = np.array(
        [_charge_row(structure, e.dram_w, e.probe_dram_w) for e in evaluated]
    )
    charge_matrix = np.empty((num_configs, iterations, num_charges))
    for c, (slot, is_probe) in enumerate(structure.charges):
        if is_probe:
            charge_matrix[:, :, c] = structure.probe_s[slot]
        else:
            charge_matrix[:, :, c] = durations_work[:, structure.work_index[slot], :]
    flat_durations = charge_matrix.reshape(num_configs, iterations * num_charges)
    flat_node_w = np.tile(charge_node_w, (1, iterations))

    # Per-row strict left folds: each row is the exact charge sequence the
    # per-config loop runs, so cumsum/accumulate rows match it to the bit.
    timeline = np.cumsum(
        np.concatenate(
            (np.zeros((num_configs, 1)), flat_durations), axis=1
        ),
        axis=1,
    )
    time_s = timeline[:, -1]
    if num_charges:
        node_energy = np.add.accumulate(flat_node_w * flat_durations, axis=1)[:, -1]
    else:
        node_energy = np.zeros(num_configs)

    probe_vector = structure.probe_per_iteration
    instrumentation_time_s = (
        float(np.add.accumulate(np.tile(probe_vector, iterations))[-1])
        if probe_vector.size
        else 0.0
    )

    # -- RAPL end state + CPU energy, replayed across the config axis ----
    package_j = np.tile(charge_package_w, (1, iterations)) * flat_durations / num_sockets
    dram_j = np.tile(charge_dram_w, (1, iterations)) * flat_durations / num_sockets
    package_ticks, package_residual = _rapl_fold(package_j)
    dram_ticks, dram_residual = _rapl_fold(dram_j)
    # The reader path: raw counters start at zero on a fresh node, each
    # socket receives the identical deposit sequence, and the per-domain
    # node totals sum socket by socket before package+DRAM combine.
    unit = RAPL_ENERGY_UNIT_J
    package_raw = package_ticks.astype(np.uint64) & np.uint64(_COUNTER_MASK)
    dram_raw = dram_ticks.astype(np.uint64) & np.uint64(_COUNTER_MASK)
    package_socket_j = package_raw.astype(np.float64) * unit
    dram_socket_j = dram_raw.astype(np.float64) * unit
    package_node_j = np.zeros(num_configs)
    dram_node_j = np.zeros(num_configs)
    for _ in range(num_sockets):
        package_node_j = package_node_j + package_socket_j
        dram_node_j = dram_node_j + dram_socket_j
    cpu_energy = package_node_j + dram_node_j

    results = []
    end_states = []
    for g in range(num_configs):
        eval_g = evaluated[g]
        result = RunResult(
            app_name=app.name,
            node_id=node_id,
            operating_point=eval_g.point,
            time_s=float(time_s[g]),
            node_energy_j=float(node_energy[g]) if num_charges else 0.0,
            cpu_energy_j=float(cpu_energy[g]),
            instrumentation_time_s=instrumentation_time_s,
            engine="sweep",
        )
        result.instances = InstanceLog.deferred(
            _instance_producer(
                structure, eval_g, durations_work[g], timeline[g], iterations
            )
        )
        results.append(result)
        raw_package = int(package_raw[g])
        raw_dram = int(dram_raw[g])
        end_states.append(
            MeterEndState(
                now_s=float(time_s[g]),
                hdeem_now_s=float(time_s[g]),
                core_freq_ghz=eval_g.point.core_freq_ghz,
                uncore_freq_ghz=eval_g.point.uncore_freq_ghz,
                rapl_package=tuple(
                    (raw_package, float(package_residual[g]))
                    for _ in range(num_sockets)
                ),
                rapl_dram=tuple(
                    (raw_dram, float(dram_residual[g]))
                    for _ in range(num_sockets)
                ),
            )
        )
    return SweepReplay(
        points=tuple(points),
        results=tuple(results),
        end_states=tuple(end_states),
    )


def _instance_producer(
    structure: _Structure,
    evaluated: _ConfigEval,
    durations_work: np.ndarray,
    timeline: np.ndarray,
    iterations: int,
):
    """Deferred per-cell row producer over the shared materialiser."""

    def produce() -> list:
        schedule = _config_schedule(structure, evaluated)
        state = _ReplayState(
            schedule=schedule,
            iterations=iterations,
            durations_work=durations_work,
            timeline=timeline,
        )
        return materialise_instances(state, evaluated.point)

    return produce
