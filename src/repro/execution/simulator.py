"""The execution simulator: runs applications on simulated nodes.

This is the stand-in for "actually running the benchmark on Taurus".
Given an :class:`~repro.workloads.application.Application`, an operating
point and a :class:`~repro.hardware.node.ComputeNode`, the simulator

* walks the region tree once per phase iteration,
* lets an optional *controller* (the RRL, or a PCP under PTF) switch
  frequencies/threads at region boundaries — charging the hardware
  transition latencies,
* charges Score-P probe overhead when the run is instrumented,
* advances the node's meters (RAPL, HDEEM) with the ground-truth power,
* reports per-region-instance timings and energies.

Controllers and listeners observe the run exactly like their real
counterparts: through region enter/exit callbacks.

Two execution engines produce the same results:

* the **generic recursive engine** in this module — region-by-region
  tree walking with callbacks, required whenever listeners observe
  events or a controller cannot pre-declare its switching behaviour;
* the **vectorized replay engine** — for uncontrolled runs
  (:mod:`repro.execution.replay`) the region schedule is compiled once
  and all ``phase_iterations x instances`` replay in bulk; controlled
  runs whose controller implements the :class:`ScheduleCompiler`
  protocol (the RRL and the static controller do) compile their switch
  schedule the same way and replay segment-by-segment
  (:mod:`repro.execution.controlled_replay`).  Both paths are
  bit-identical to the recursion and an order of magnitude faster.

:meth:`ExecutionSimulator.run` dispatches automatically; the
``fast_path`` parameter overrides the choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro import config
from repro.counters.generation import CounterGenerator, MeasurementContext
from repro.errors import WorkloadError
from repro.execution.timing import RegionTiming, region_timing
from repro.hardware.node import ComputeNode
from repro.util.rng import rng_for
from repro.workloads.application import Application
from repro.workloads.region import Region

#: Multiplicative run-to-run execution-time noise.
TIME_NOISE_SIGMA = 0.0025


def probe_overhead_s(region: "Region") -> float:
    """Instrumentation overhead of one region call: enter+exit probes
    plus the unfilterable internal events (OpenMP/MPI wrappers).

    Shared by every engine (recursive, uncontrolled replay, controlled
    replay) so the probe model cannot drift between them.
    """
    events = 2 + region.internal_events
    return events * region.calls_per_phase * config.SCOREP_PROBE_OVERHEAD_S


def pending_switch_latency_s(dvfs_transitions: int, ufs_transitions: int) -> float:
    """Hardware latency charged for pending frequency transitions.

    One DVFS and one UFS latency at most per check, however many
    cores/sockets switched — shared by the recursive engine and the
    controlled-replay schedule compiler.
    """
    latency = 0.0
    if dvfs_transitions:
        latency += config.DVFS_TRANSITION_LATENCY_S
    if ufs_transitions:
        latency += config.UFS_TRANSITION_LATENCY_S
    return latency


@dataclass(frozen=True)
class OperatingPoint:
    """One hardware configuration (the tuning parameter tuple)."""

    core_freq_ghz: float = config.DEFAULT_CORE_FREQ_GHZ
    uncore_freq_ghz: float = config.DEFAULT_UNCORE_FREQ_GHZ
    threads: int = config.DEFAULT_OPENMP_THREADS

    def __str__(self) -> str:
        return (
            f"{self.threads}T {self.core_freq_ghz:.1f}|"
            f"{self.uncore_freq_ghz:.1f} GHz (CF|UCF)"
        )


class RunController(Protocol):
    """Hook interface for runtime tuning (implemented by the RRL)."""

    def on_region_enter(self, region: Region, iteration: int, node: ComputeNode) -> int:
        """Called before a region body runs; returns the new thread count
        to use for the region (or the current one)."""

    def on_region_exit(self, region: Region, iteration: int, node: ComputeNode) -> None:
        """Called after a region body finishes."""


class ScheduleCompiler(Protocol):
    """Opt-in protocol for controllers whose switching is compilable.

    A controller implementing ``compile_schedule`` promises that its
    decisions depend only on region names and the hardware state it
    observes — never on simulated time, noise or the iteration index —
    so the run's switch schedule can be compiled up front and replayed
    through the vectorized fast path
    (:mod:`repro.execution.controlled_replay`).  Returning ``None``
    declines the fast path for this run; the implementation must leave
    the controller and node untouched in that case, and the simulator
    falls back to the recursive engine.
    """

    def compile_schedule(
        self, app, node: ComputeNode, *, threads: int, instrumented: bool,
        instrumentation,
    ):
        """Compile the run's switch schedule, or return ``None``."""


class RunListener(Protocol):
    """Observation interface (implemented by Score-P trace/profile layers)."""

    def on_enter(self, region: Region, iteration: int, time_s: float) -> None: ...

    def on_exit(
        self,
        region: Region,
        iteration: int,
        time_s: float,
        metrics: dict[str, float],
    ) -> None: ...


@dataclass(frozen=True)
class RegionInstance:
    """Ground truth for one executed region instance."""

    region_name: str
    iteration: int
    start_s: float
    time_s: float
    node_energy_j: float
    cpu_energy_j: float
    operating_point: OperatingPoint
    timing: RegionTiming | None


class InstanceLog:
    """Append-only sequence of :class:`RegionInstance` rows.

    Behaves like a list (iteration, indexing, equality against lists)
    with two performance features on top:

    * rows can be *deferred*: the replay fast path registers a producer
      callback and the rows materialise only when first accessed, so
      runs whose instances are never inspected (energy sweeps, static
      searches) skip building them entirely;
    * per-region lookups are served from a name index built on first
      use and maintained across :meth:`append`, turning the previous
      full-scan-per-call access pattern into a dict hit.
    """

    __slots__ = ("_items", "_producer", "_index")

    def __init__(self, items=None):
        self._items: list[RegionInstance] = list(items) if items is not None else []
        self._producer = None
        self._index: dict[str, list[RegionInstance]] | None = None

    @classmethod
    def deferred(cls, producer) -> "InstanceLog":
        """A log whose rows come from ``producer()`` on first access."""
        log = cls()
        log._producer = producer
        return log

    def _materialise(self) -> None:
        if self._producer is not None:
            items = self._producer()
            self._producer = None  # only after success, so a failed
            self._items = items    # producer run can be retried
            self._index = None

    def append(self, instance: RegionInstance) -> None:
        self._materialise()
        self._items.append(instance)
        if self._index is not None:
            self._index.setdefault(instance.region_name, []).append(instance)

    def by_region(self, name: str) -> list[RegionInstance]:
        """All rows of one region, in execution order."""
        self._materialise()
        if self._index is None:
            index: dict[str, list[RegionInstance]] = {}
            for instance in self._items:
                index.setdefault(instance.region_name, []).append(instance)
            self._index = index
        return list(self._index.get(name, ()))

    def __len__(self) -> int:
        self._materialise()
        return len(self._items)

    def __iter__(self):
        self._materialise()
        return iter(self._items)

    def __getitem__(self, item):
        self._materialise()
        return self._items[item]

    def __eq__(self, other) -> bool:
        if isinstance(other, InstanceLog):
            other._materialise()
            other = other._items
        if isinstance(other, (list, tuple)):
            self._materialise()
            return self._items == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        if self._producer is not None:
            return "InstanceLog(<deferred>)"
        return f"InstanceLog({len(self._items)} instances)"

    def __reduce__(self):
        self._materialise()
        return (InstanceLog, (self._items,))


@dataclass
class RunResult:
    """Outcome of one application run on one node.

    ``engine`` records which execution path produced the result
    (``"generic"`` recursion or the vectorized ``"replay"`` fast path);
    it is excluded from equality because the two paths are bit-identical.
    """

    app_name: str
    node_id: int
    operating_point: OperatingPoint
    time_s: float = 0.0
    node_energy_j: float = 0.0
    cpu_energy_j: float = 0.0
    switching_time_s: float = 0.0
    instrumentation_time_s: float = 0.0
    instances: InstanceLog = field(default_factory=InstanceLog)
    engine: str = field(default="generic", compare=False)

    def region_instances(self, name: str) -> list[RegionInstance]:
        return self.instances.by_region(name)

    def region_time_s(self, name: str) -> float:
        return sum(i.time_s for i in self.region_instances(name))

    def region_energy_j(self, name: str) -> float:
        return sum(i.node_energy_j for i in self.region_instances(name))

    @property
    def mean_power_w(self) -> float:
        return self.node_energy_j / self.time_s if self.time_s > 0 else 0.0


class ExecutionSimulator:
    """Runs applications on a node, producing ground-truth results."""

    def __init__(self, node: ComputeNode, *, seed: int = config.DEFAULT_SEED):
        self.node = node
        self.seed = seed
        self._counter_generator = CounterGenerator(seed)

    # ------------------------------------------------------------------
    def run(
        self,
        app: Application,
        *,
        threads: int | None = None,
        controller: RunController | None = None,
        instrumented: bool = False,
        instrumentation=None,
        listeners: tuple[RunListener, ...] = (),
        collect_counters: bool = False,
        run_key: tuple = (),
        fast_path: bool | None = None,
    ) -> RunResult:
        """Execute ``app`` once on this simulator's node.

        Parameters
        ----------
        threads:
            OpenMP thread count; defaults to the application default.
            MPI-only codes always run with their fixed configuration.
        controller:
            Optional runtime tuner called at region boundaries (RRL).
        instrumented:
            Whether Score-P probes are compiled in (adds overhead).
        listeners:
            Trace/profile observers; they imply ``instrumented``.
        instrumentation:
            Optional object with an ``is_instrumented(region) -> bool``
            method (see :mod:`repro.scorep.instrumentation`); when given,
            probe overhead and listener events apply only to regions it
            reports as instrumented.  Implies ``instrumented=True``.
        collect_counters:
            Whether to derive PAPI counter values for listener metrics.
        run_key:
            Label mixed into the noise streams so repeated runs differ
            reproducibly.
        fast_path:
            Engine selection.  ``None`` (default) picks automatically:
            runs without listeners replay through a vectorized fast
            path — uncontrolled runs via :mod:`repro.execution.replay`,
            controlled runs whose controller implements
            :class:`ScheduleCompiler` via
            :mod:`repro.execution.controlled_replay` — both
            bit-identical to the recursive engine.  Observed runs and
            foreign controllers use the generic recursion.  ``False``
            forces the generic engine, ``True`` demands the fast path
            and raises if the run is not eligible.
        """
        if listeners or instrumentation is not None:
            instrumented = True
        threads = app.resolve_threads(threads, self.node.topology.num_cores)

        compiler = getattr(controller, "compile_schedule", None)
        eligible = not listeners and (controller is None or compiler is not None)
        if fast_path is None:
            attempt_fast = eligible
        elif fast_path and not eligible:
            raise WorkloadError(
                "fast_path requires a run without listeners whose controller "
                "(if any) implements the compile_schedule protocol"
            )
        else:
            attempt_fast = fast_path
        if attempt_fast:
            if controller is None:
                from repro.execution.replay import replay_run

                return replay_run(
                    self,
                    app,
                    threads=threads,
                    instrumented=instrumented,
                    instrumentation=instrumentation,
                    run_key=run_key,
                )
            from repro.execution.controlled_replay import replay_controlled_run

            result = replay_controlled_run(
                self,
                app,
                controller,
                threads=threads,
                instrumented=instrumented,
                instrumentation=instrumentation,
                run_key=run_key,
            )
            if result is not None:
                return result
            if fast_path:
                raise WorkloadError(
                    "controller declined to compile a switch schedule for "
                    "the demanded fast path"
                )
            # declined: fall through to the recursive engine

        result = RunResult(
            app_name=app.name,
            node_id=self.node.node_id,
            operating_point=self._current_point(threads),
        )
        start_time = self.node.now_s
        start_cpu_j = self.node.rapl.read_cpu_energy_joules()
        for iteration in range(app.phase_iterations):
            self._exec_region(
                app.phase,
                iteration,
                threads,
                controller,
                instrumented,
                instrumentation,
                listeners,
                collect_counters,
                run_key,
                result,
            )
        result.time_s = self.node.now_s - start_time
        result.cpu_energy_j = self.node.rapl.read_cpu_energy_joules() - start_cpu_j
        return result

    # ------------------------------------------------------------------
    def run_phase_counters(
        self,
        app: Application,
        *,
        threads: int | None = None,
        counters: tuple[str, ...],
        run_key: tuple = (),
    ):
        """Instrumented fast-path run returning phase counter totals.

        Fast-path equivalent of running with a listener that sums the
        phase region's inclusive counter metrics (the campaign engine's
        ``counters`` mode): the returned
        :class:`~repro.execution.replay.PhaseCounterRun` carries totals
        and accumulated phase time bit-identical to that listener path.
        """
        from repro.execution.replay import replay_phase_counters

        threads = app.resolve_threads(threads, self.node.topology.num_cores)
        return replay_phase_counters(
            self, app, threads=threads, counters=tuple(counters), run_key=run_key
        )

    # ------------------------------------------------------------------
    def sweep_run(
        self,
        app: Application,
        points,
        *,
        run_keys,
        instrumented: bool = False,
        instrumentation=None,
    ):
        """Replay a whole static configuration sweep in one pass.

        Every entry of ``points`` is measured as if on a **fresh** node
        with this simulator's node recipe (id, seed, topology, power
        variability) — the grid idiom of the heatmaps, the exhaustive
        static search and the trade-off study — and the per-cell
        results are bit-identical to looping
        ``ExecutionSimulator(fresh_node).run(...)`` per configuration.
        This simulator's own node is left untouched.  See
        :mod:`repro.execution.sweep_replay`.
        """
        from repro.execution.sweep_replay import sweep_run

        node = self.node
        return sweep_run(
            app,
            points,
            run_keys=run_keys,
            node_id=node.node_id,
            seed=self.seed,
            node_seed=node.seed,
            topology=node.topology,
            variability=node.power_model.variability,
            instrumented=instrumented,
            instrumentation=instrumentation,
        )

    # ------------------------------------------------------------------
    def _current_point(self, threads: int) -> OperatingPoint:
        return OperatingPoint(
            core_freq_ghz=self.node.core_freq_ghz,
            uncore_freq_ghz=self.node.uncore_freq_ghz,
            threads=threads,
        )

    def _charge(self, duration_s: float, breakdown, result: RunResult) -> float:
        """Advance node time/meters and account node energy; returns joules."""
        self.node.advance(duration_s, breakdown)
        joules = breakdown.node_w * duration_s
        result.node_energy_j += joules
        return joules

    def _charge_switching(self, result: RunResult, threads: int) -> None:
        """Charge hardware transition latency for any pending frequency
        changes logged since the last check."""
        dvfs_n = self.node.dvfs.log.count
        ufs_n = self.node.ufs.log.count
        self.node.dvfs.log.clear()
        self.node.ufs.log.clear()
        latency = pending_switch_latency_s(dvfs_n, ufs_n)
        if latency > 0:
            breakdown = self.node.compute_power(
                active_threads=threads,
                core_activity=config.STALLED_CORE_ACTIVITY,
                uncore_activity=0.0,
                membw_gbs=0.0,
            )
            self._charge(latency, breakdown, result)
            result.switching_time_s += latency

    def _probe_overhead_s(self, region: Region) -> float:
        return probe_overhead_s(region)

    def _exec_region(
        self,
        region: Region,
        iteration: int,
        threads: int,
        controller: RunController | None,
        instrumented: bool,
        instrumentation,
        listeners: tuple[RunListener, ...],
        collect_counters: bool,
        run_key: tuple,
        result: RunResult,
    ) -> tuple[float, dict[str, float]]:
        """Execute one region instance; returns its inclusive node energy
        (joules) and inclusive PAPI counter totals."""
        # The controller may reprogram frequencies / threads here.
        if controller is not None:
            new_threads = controller.on_region_enter(region, iteration, self.node)
            if new_threads:
                threads = new_threads
            self._charge_switching(result, threads)

        region_instrumented = instrumented and (
            instrumentation is None or instrumentation.is_instrumented(region)
        )
        enter_time = self.node.now_s
        if region_instrumented:
            for listener in listeners:
                listener.on_enter(region, iteration, enter_time)

        body_energy_j = 0.0
        body_time_s = 0.0
        timing: RegionTiming | None = None
        if region.has_work:
            timing = region_timing(
                region.characteristics,
                threads=threads,
                core_freq_ghz=self.node.core_freq_ghz,
                uncore_freq_ghz=self.node.uncore_freq_ghz,
            )
            rng = rng_for("time", self.node.node_id, run_key, region.name, iteration,
                          seed=self.seed)
            duration = timing.time_s * float(rng.lognormal(0.0, TIME_NOISE_SIGMA))
            breakdown = self.node.compute_power(
                active_threads=threads,
                core_activity=timing.core_activity,
                uncore_activity=timing.uncore_activity,
                membw_gbs=timing.membw_gbs,
            )
            body_energy_j = self._charge(duration, breakdown, result)
            body_time_s = duration

        if region_instrumented:
            overhead = self._probe_overhead_s(region)
            breakdown = self.node.compute_power(
                active_threads=threads,
                core_activity=1.0,
                uncore_activity=0.1,
                membw_gbs=0.0,
            )
            body_energy_j += self._charge(overhead, breakdown, result)
            body_time_s += overhead
            result.instrumentation_time_s += overhead

        point = self._current_point(threads)
        children_energy_j = 0.0
        children_counters: dict[str, float] = {}
        for child in region.children:
            child_energy, child_counters = self._exec_region(
                child, iteration, threads, controller, instrumented,
                instrumentation, listeners, collect_counters, run_key, result,
            )
            children_energy_j += child_energy
            for name, value in child_counters.items():
                children_counters[name] = children_counters.get(name, 0.0) + value

        exit_time = self.node.now_s
        total_time = exit_time - enter_time
        # Approximate CPU share of this region's node energy via the power
        # ratio of its own body (children account for themselves).
        cpu_energy_j = 0.0
        if region.has_work and body_time_s > 0:
            cpu_energy_j = body_energy_j * self._cpu_fraction(timing, threads)
        instance = RegionInstance(
            region_name=region.name,
            iteration=iteration,
            start_s=enter_time,
            time_s=total_time,
            node_energy_j=body_energy_j + children_energy_j,
            cpu_energy_j=cpu_energy_j,
            operating_point=point,
            timing=timing,
        )
        result.instances.append(instance)

        counters: dict[str, float] = dict(children_counters)
        if collect_counters and region.has_work and timing is not None:
            ctx = MeasurementContext(
                elapsed_s=body_time_s,
                core_freq_ghz=point.core_freq_ghz,
                threads=threads,
            )
            own = self._counter_generator.sample(
                region.characteristics,
                ctx,
                key=(self.node.node_id, run_key, region.name, iteration),
            )
            for name, value in own.items():
                counters[name] = counters.get(name, 0.0) + value
        metrics: dict[str, float] = {
            "time_s": total_time,
            "node_energy_j": instance.node_energy_j,
            **counters,
        }
        if region_instrumented:
            for listener in listeners:
                listener.on_exit(region, iteration, exit_time, metrics)

        if controller is not None:
            controller.on_region_exit(region, iteration, self.node)
            self._charge_switching(result, threads)
        return body_energy_j + children_energy_j, counters

    def _cpu_fraction(self, timing: RegionTiming, threads: int) -> float:
        """Fraction of node power attributable to the CPU+DRAM."""
        breakdown = self.node.compute_power(
            active_threads=threads,
            core_activity=timing.core_activity,
            uncore_activity=timing.uncore_activity,
            membw_gbs=timing.membw_gbs,
        )
        return breakdown.cpu_w / breakdown.node_w
