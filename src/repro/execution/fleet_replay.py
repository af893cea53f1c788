"""Fleet replay: one call for any mix of fresh-node runs.

A *fleet* is any mix of replay requests — different applications,
different (virtual) nodes, different controllers or none, instrumented
or not.  :func:`fleet_run` prices all of them and returns one result
per member, in member order.  It owns no pricing of its own; it
dispatches every member to the kernel that already prices its kind:

* **Uncontrolled members** are grouped by fresh-node recipe — the
  application build, the instrumentation filter, ``node_id``,
  ``node_seed``, topology, variability and ``seed``.  Each group is
  one :func:`~repro.execution.sweep_replay.sweep_run` call over its
  members' operating points and run keys, so a CF x UCF grid compiles
  its structure, draws its keyed noise and folds its charges once.
* **Controlled members** run one at a time through
  :meth:`ExecutionSimulator.run <repro.execution.simulator.ExecutionSimulator.run>`
  on a fresh node, which dispatches to
  :func:`~repro.execution.controlled_replay.replay_controlled_run` (or
  to the recursive engine when the controller cannot compile a switch
  schedule).  RRL statistics and MSR/DVFS side effects are therefore
  exactly those of the per-run path.

Grouping keys on object identity (app, instrumentation, topology,
variability), so it costs no topology construction or dataclass
hashing; equal but distinct objects just land in different groups.

The contract is **bit-identical per member**: each result and meter/MSR
end state equals the member's own fresh-node run, so permuting the
fleet, splitting it, or batching unrelated members together never
changes any member's payload (property-tested in
``tests/execution/test_fleet_replay_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import config
from repro.execution.simulator import ExecutionSimulator, OperatingPoint
from repro.execution.sweep_replay import MeterEndState, meter_end_state, sweep_run
from repro.hardware.node import ComputeNode
from repro.hardware.power import NodeVariability
from repro.hardware.topology import NodeTopology


@dataclass
class FleetMember:
    """One replay request: an application run on a fresh virtual node.

    Every member describes the same experiment the per-run engines
    execute: build ``ComputeNode(node_id, seed=node_seed, topology=...,
    variability=...)``, optionally program ``point``'s frequencies,
    then ``ExecutionSimulator(node, seed=seed).run(app, threads=...,
    controller=..., instrumented=..., instrumentation=...,
    run_key=run_key)``.  ``point=None`` leaves the node at its default
    frequencies (the ``reset_to_default()`` start every analysis layer
    uses).  ``controller`` is a per-member instance — its statistics
    mutate exactly as in the per-run engines.
    """

    app: object
    run_key: tuple
    node_id: int = 0
    seed: int = config.DEFAULT_SEED
    node_seed: int | None = None
    topology: NodeTopology | None = None
    variability: NodeVariability | None = None
    point: object | None = None           #: OperatingPoint to program, or None
    threads: int | None = None
    controller: object | None = None
    instrumented: bool = False
    instrumentation: object | None = None


@dataclass
class FleetReplay:
    """Per-member results of one fleet pass, in member order.

    ``results[i]`` compares equal to the
    :class:`~repro.execution.simulator.RunResult` of member ``i``'s
    per-run execution; ``end_states[i]`` is the meter/MSR state that
    run would leave on its node.
    """

    members: tuple = ()
    results: tuple = ()
    end_states: tuple[MeterEndState, ...] = ()

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]


def _recipe(member: FleetMember) -> tuple:
    """The key of the fresh node (and app build) a member runs on."""
    return (
        id(member.app),
        member.instrumented,
        id(member.instrumentation),
        member.node_id,
        member.node_seed,
        id(member.topology),
        id(member.variability),
        member.seed,
    )


def _static_point(member: FleetMember) -> OperatingPoint:
    """The programmed point at the member's resolved thread count."""
    point = member.point
    threads = member.threads
    if threads is None and point is not None:
        threads = point.threads
    threads = threads or member.app.default_threads
    if point is None:
        return OperatingPoint(
            config.DEFAULT_CORE_FREQ_GHZ, config.DEFAULT_UNCORE_FREQ_GHZ, threads
        )
    if point.threads == threads:
        return point
    return OperatingPoint(point.core_freq_ghz, point.uncore_freq_ghz, threads)


def _run_controlled(member: FleetMember):
    """One controller-driven member through the per-run engine."""
    node = ComputeNode(
        member.node_id,
        seed=member.seed if member.node_seed is None else member.node_seed,
        topology=member.topology,
        variability=member.variability,
    )
    threads = member.threads
    if member.point is not None:
        node.set_frequencies(member.point.core_freq_ghz, member.point.uncore_freq_ghz)
        if threads is None:
            threads = member.point.threads
    result = ExecutionSimulator(node, seed=member.seed).run(
        member.app,
        threads=threads,
        controller=member.controller,
        instrumented=member.instrumented,
        instrumentation=member.instrumentation,
        run_key=member.run_key,
    )
    return result, meter_end_state(node)


def fleet_run(members) -> FleetReplay:
    """Price every fleet member: one sweep per recipe group, one
    per-run replay per controlled member.

    Returns a :class:`FleetReplay` whose per-member results and end
    states are bit-identical to running each member individually
    through :class:`~repro.execution.simulator.ExecutionSimulator` on a
    fresh node.  Uncontrolled results carry ``engine="fleet"``.
    """
    members = tuple(members)
    results: list = [None] * len(members)
    end_states: list = [None] * len(members)

    groups: dict[tuple, list[int]] = {}
    controlled: list[int] = []
    for index, member in enumerate(members):
        if member.controller is not None:
            controlled.append(index)
        else:
            groups.setdefault(_recipe(member), []).append(index)

    for indices in groups.values():
        first = members[indices[0]]
        sweep = sweep_run(
            first.app,
            [_static_point(members[i]) for i in indices],
            run_keys=[members[i].run_key for i in indices],
            node_id=first.node_id,
            seed=first.seed,
            node_seed=first.node_seed,
            topology=first.topology,
            variability=first.variability,
            instrumented=first.instrumented,
            instrumentation=first.instrumentation,
        )
        for i, result, end_state in zip(indices, sweep.results, sweep.end_states):
            result.engine = "fleet"
            results[i] = result
            end_states[i] = end_state

    for i in controlled:
        results[i], end_states[i] = _run_controlled(members[i])

    return FleetReplay(
        members=members, results=tuple(results), end_states=tuple(end_states)
    )
