"""The coalescing queue: many pending requests, few kernel passes.

Two requests that share a **grid key** — ``(benchmark, threads,
stride, node_id, seed)``, see :meth:`repro.api.TuningRequest.grid_key`
— are answered from the same CF x UCF measurement: objectives and TMMs
are evaluated *from* the grid, not measured into it.  The fleet replay
kernel (:mod:`repro.execution.fleet_replay`) goes further: requests
with *different* grid keys — different benchmarks, thread counts,
nodes, seeds — can still share one batched measurement call, because
no cell depends on its batch-mates.  The batcher
therefore coalesces under a configurable key: ``coalesce="fleet"``
(what the service uses) groups *all* pending requests together so N
queued requests across M applications cost one measurement call, while
``coalesce="grid"`` preserves the historical per-grid-key grouping.  A
group flushes when it reaches ``max_batch`` members or its
``max_wait_s`` admission window closes.

This is sound because every cell's noise stream is keyed by (seed,
node, run key, region, iteration) — never by process, wall clock or
batch composition — so a coalesced answer is bit-identical to the solo
:func:`repro.api.tune` answer (property-tested in
``tests/serve/test_batcher.py``).

The batcher itself is a synchronous, clock-injected data structure —
no asyncio, no threads — so its invariants are directly testable; the
service (:mod:`repro.serve.service`) supplies the event loop, timers
and futures around it.  :func:`answer_group` is the pure execution
step: one batched measurement of the group's distinct grids, then one
answer per member request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro import api
from repro.errors import CampaignError

__all__ = [
    "COALESCE_MODES",
    "CoalescingBatcher",
    "FLEET_KEY",
    "PendingGroup",
    "answer_group",
    "split_group",
]

#: Coalescing keys the batcher understands: per grid key, or one fleet.
COALESCE_MODES: tuple[str, ...] = ("grid", "fleet")

#: The fleet-compatible signature: every :class:`~repro.api.TuningRequest`
#: field is a per-member axis of the fleet kernel (benchmark, threads,
#: node, seed and stride all vary member-to-member), so one constant key
#: groups everything.  Kept as a named signature so a future request
#: field that selects *execution context* rather than measurement
#: identity has a place to split groups.
FLEET_KEY: tuple = ("fleet",)

#: Default admission window and batch cap.  The window only delays the
#: *first* request of a group; followers join for free.  20 ms is long
#: against network jitter between near-simultaneous clients and short
#: against a sweep (hundreds of ms cold).
DEFAULT_MAX_WAIT_S = 0.02
DEFAULT_MAX_BATCH = 16


@dataclass
class PendingGroup:
    """One coalescing key's pending requests, ordered by admission."""

    key: tuple
    requests: list[api.TuningRequest] = field(default_factory=list)
    #: Tickets (admission sequence numbers) parallel to ``requests``.
    tickets: list[int] = field(default_factory=list)
    deadline: float = 0.0


class CoalescingBatcher:
    """Group pending tuning requests by coalescing key, deterministically.

    ``admit`` files a request under its coalescing key (see
    :meth:`key_for`) and returns ``(ticket, started, fire)`` —
    ``started`` is True when the admission opened a new group (the
    caller should arm its flush timer) and ``fire`` is True when it
    filled the group to ``max_batch`` (flush now, don't wait for the
    window).  ``due(now)``/``pop`` drain groups whose window elapsed.
    The order of requests inside a group is admission order, and
    tickets are a global admission sequence: given the same admissions,
    flushes are fully deterministic (results never depend on order
    anyway — every member's answer is bit-identical to its solo
    answer).
    """

    def __init__(
        self,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_s: float = DEFAULT_MAX_WAIT_S,
        clock: Callable[[], float] = time.monotonic,
        coalesce: str = "grid",
    ):
        if max_batch < 1:
            raise CampaignError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise CampaignError("max_wait_s must be >= 0")
        if coalesce not in COALESCE_MODES:
            raise CampaignError(
                f"unknown coalesce mode: {coalesce!r}; "
                f"known: {COALESCE_MODES}"
            )
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.coalesce = coalesce
        self._clock = clock
        self._groups: dict[tuple, PendingGroup] = {}
        self._next_ticket = 0
        #: Lifetime counters (the service exposes them via /metrics).
        self.admitted = 0
        self.coalesced = 0
        self.groups_fired = 0

    # ------------------------------------------------------------------
    def key_for(self, request: api.TuningRequest) -> tuple:
        """The coalescing key one request files under."""
        if self.coalesce == "fleet":
            return FLEET_KEY
        return request.grid_key()

    def admit(self, request: api.TuningRequest) -> tuple[int, bool, bool]:
        """File one resolved request; returns (ticket, started, fire)."""
        key = self.key_for(request)
        group = self._groups.get(key)
        started = group is None
        if started:
            group = PendingGroup(
                key=key, deadline=self._clock() + self.max_wait_s
            )
            self._groups[key] = group
        else:
            self.coalesced += 1
        ticket = self._next_ticket
        self._next_ticket += 1
        group.requests.append(request)
        group.tickets.append(ticket)
        self.admitted += 1
        return ticket, started, len(group.requests) >= self.max_batch

    def pop(self, key: tuple) -> PendingGroup | None:
        """Remove and return one pending group (None if already fired)."""
        group = self._groups.pop(key, None)
        if group is not None:
            self.groups_fired += 1
        return group

    def due(self, now: float | None = None) -> list[tuple]:
        """Keys of groups whose admission window has closed."""
        now = self._clock() if now is None else now
        return [k for k, g in self._groups.items() if g.deadline <= now]

    def next_deadline(self) -> float | None:
        """Earliest pending deadline (None when nothing is queued)."""
        if not self._groups:
            return None
        return min(g.deadline for g in self._groups.values())

    def drain(self) -> list[PendingGroup]:
        """Flush every pending group regardless of deadlines."""
        groups = [self.pop(key) for key in list(self._groups)]
        return [g for g in groups if g is not None]

    @property
    def pending(self) -> int:
        return sum(len(g.requests) for g in self._groups.values())


def split_group(group: PendingGroup, parts: int) -> list[PendingGroup]:
    """Partition one fired group by grid key for parallel execution.

    A fleet-coalesced group holds *every* pending request; executing it
    as one unit would serialise the whole queue onto one pool worker.
    Splitting by grid key keeps the batching win intact — requests that
    share a measurement stay together, so no grid is ever measured
    twice — while distinct grids spread round-robin across up to
    ``parts`` subgroups that execute concurrently.  Admission order is
    preserved within each subgroup and answers are bit-identical either
    way (only ``meta.coalesced``, which is explicitly not part of the
    answer, observes the partitioning).
    """
    if parts <= 1 or len(group.requests) <= 1:
        return [group]
    slot_of: dict[tuple, int] = {}
    buckets: list[PendingGroup] = []
    for request, ticket in zip(group.requests, group.tickets):
        key = request.grid_key()
        slot = slot_of.get(key)
        if slot is None:
            slot = len(slot_of) % parts
            slot_of[key] = slot
            if slot == len(buckets):
                buckets.append(
                    PendingGroup(
                        key=group.key + (slot,), deadline=group.deadline
                    )
                )
        bucket = buckets[slot]
        bucket.requests.append(request)
        bucket.tickets.append(ticket)
    return buckets


def answer_group(
    requests: list[api.TuningRequest],
    options: api.ExecutionOptions | None = None,
) -> list[api.TuningAnswer]:
    """Answer one coalesced group from one batched measurement.

    The group's *distinct* grid keys are deduplicated and their grids
    measured in a single :func:`repro.api.sweep_grids` invocation (one
    config-axis sweep per grid, or one fleet-strategy campaign run when
    ``options.campaign`` is set — or, under ``options.engine="loop"``,
    the per-cell reference); each request's objective argmin — plus its TMM-priced
    dynamic run, when it carries one — is then evaluated from its grid.
    Per request, the result is bit-identical to :func:`repro.api.tune`,
    which performs exactly this fold for a group of one.  Groups from a
    grid-keyed batcher (all requests sharing one grid key) are simply
    the single-grid special case.
    """
    if not requests:
        return []
    resolved = [request.resolved() for request in requests]
    grid_of: dict[tuple, api.GridMeasurement] = {}
    unique = []
    for request in resolved:
        key = request.grid_key()
        if key not in grid_of:
            grid_of[key] = None  # type: ignore[assignment]
            unique.append(request)
    options = options if options is not None else api.ExecutionOptions()
    grids = api.sweep_grids(
        [request.grid_spec() for request in unique], options=options
    )
    for request, grid in zip(unique, grids):
        grid_of[request.grid_key()] = grid
    answers = []
    for request in resolved:
        answer = grid_of[request.grid_key()].answer(request)
        if request.tmm is not None:
            answer = replace(
                answer, dynamic=api._dynamic_outcome(request, options)
            )
        answers.append(answer)
    return answers
