"""The request lifecycle: admission → dedup → coalesce → execute → respond.

:class:`TuningService` is the transport-agnostic core of ``repro-serve``
(the HTTP front end in :mod:`repro.serve.server` is a thin shell around
:meth:`TuningService.handle`, and the throughput benchmark drives
``handle`` directly).  One request flows through four gates:

1. **Admission** — parse and validate against the wire schema and the
   service's cluster (an out-of-range ``node_id``, a thread count the
   node cannot run or a malformed ``tmm`` is a ``bad-value``, refused
   before it can join a group);
   while draining, new work is refused with a ``draining`` error so
   clients retry elsewhere.
2. **Dedup** — an *exact* duplicate of an in-flight request joins its
   future (zero extra work); a request whose grid rows are all in the
   result store is answered from the store without touching the
   execution path.  Result records always shadow failure records here —
   a stale :class:`~repro.campaign.resilience.FailureRecord` left over
   from a failed run that later succeeded must not quarantine a request
   whose answer is sitting in the store (the same precedence
   :meth:`CampaignEngine.run` applies).  Only when rows are *missing*
   does a persisted failure record quarantine the request (unless the
   service runs with ``retry_failed=True``).
3. **Coalesce** — distinct pending requests sharing a grid key wait in
   the :class:`~repro.serve.batcher.CoalescingBatcher` and are answered
   from one pass of the sweep kernel.
4. **Execute** — with ``workers >= 2`` and a concurrent-writer store
   backend, independent groups execute *concurrently* on the warm
   process pool of :mod:`repro.serve.workers` (fleet-coalesced groups
   are first split by grid key so distinct measurements spread across
   workers); otherwise groups run serially on one worker thread.
   Either way execution goes through the campaign engine (store-backed
   caching plus the PR-7 retry/timeout semantics) and definitive
   failures come back as structured ``quarantined`` /
   ``execution-error`` responses, never as a dead connection.
   Responses are bit-identical across both paths.

Graceful drain (:meth:`drain`): stop admitting, flush every pending
group immediately, cancel the idle admission-window timers, and wait
for in-flight work — bounded by the drain deadline: a group still
*queued* (not yet started) when the deadline expires is cancelled and
its waiters get a structured ``draining`` error instead of hanging
forever; groups already running always finish and answer normally.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro import api
from repro.campaign.engine import (
    CampaignEngine,
    qualified_descriptor,
    topology_job_key,
)
from repro.campaign.plan import grid_jobs
from repro.campaign.resilience import FailureRecord, failure_descriptor
from repro.campaign.store import ResultStore, job_key
from repro.errors import (
    JobError,
    ReproError,
    SchemaError,
    TuningError,
    TuningModelError,
    WorkloadError,
)
from repro.execution.simulator import OperatingPoint
from repro.hardware.topology import NodeTopology
from repro.readex.tuning_model import TuningModel
from repro.serve import batcher as batching
from repro.serve import workers as pooling
from repro.serve.schema import error_response, ok_response, parse_request
from repro.workloads import registry

__all__ = ["DEFAULT_DRAIN_DEADLINE_S", "ServiceMetrics", "TuningService"]

#: Default bound on :meth:`TuningService.drain`: how long flushed and
#: in-flight groups may keep executing before still-queued ones are
#: cancelled with a ``draining`` error.
DEFAULT_DRAIN_DEADLINE_S = 30.0

#: Sentinel distinguishing "use the service default" from an explicit
#: ``deadline_s=None`` (wait forever) in :meth:`TuningService.drain`.
_UNSET: Any = object()


#: The node layout of a cluster built without an explicit topology.
_DEFAULT_TOPOLOGY = NodeTopology.default()


@functools.lru_cache(maxsize=None)
def _registered_app(benchmark: str):
    """One application instance per benchmark, read only at admission."""
    return registry.build(benchmark)


@dataclass
class ServiceMetrics:
    """Lifetime counters, exposed verbatim at ``GET /metrics``."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    #: Requests answered entirely from the result store.
    cached_hits: int = 0
    #: Requests that joined an identical in-flight request's future.
    inflight_joins: int = 0
    #: Requests refused because the service was draining.
    drain_rejections: int = 0
    #: Requests answered with a ``quarantined`` error.
    quarantined: int = 0
    #: Requests whose queued group was cancelled at the drain deadline.
    drain_cancelled: int = 0

    def payload(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "cached_hits": self.cached_hits,
            "inflight_joins": self.inflight_joins,
            "drain_rejections": self.drain_rejections,
            "quarantined": self.quarantined,
            "drain_cancelled": self.drain_cancelled,
        }


@dataclass
class _Inflight:
    """One in-flight identity: its future and how many callers wait."""

    future: asyncio.Future
    waiters: int = 1
    coalesced_with: int = 0
    extra: dict[str, Any] = field(default_factory=dict)


class TuningService:
    """Asyncio tuning service with store dedup and cross-request batching.

    ``admission="batched"`` (the default) coalesces via the configured
    ``max_batch``/``max_wait_s`` window; ``"unbatched"`` degrades to a
    one-request-per-sweep service (the benchmark's control arm) while
    keeping the rest of the lifecycle identical.  A ``store`` turns on
    persistent dedup and quarantine; without one the service still
    coalesces and joins in-flight duplicates, it just never remembers.

    ``workers >= 2`` executes independent groups concurrently on a
    warm process pool (:mod:`repro.serve.workers`) when the store can
    take parallel writers (SQLite, or no store at all); a
    JSONL or in-memory store falls back to the serial in-process path
    and records why under ``worker_pool.fallback`` in the metrics.
    ``warm`` names benchmarks whose caches are preloaded before the
    pool forks, so workers start warm.
    """

    def __init__(
        self,
        *,
        store: ResultStore | None = None,
        max_batch: int = batching.DEFAULT_MAX_BATCH,
        max_wait_s: float = batching.DEFAULT_MAX_WAIT_S,
        admission: str = "batched",
        coalesce: str = "fleet",
        retry_failed: bool = False,
        retry_policy=None,
        workers: int = 1,
        drain_deadline_s: float | None = DEFAULT_DRAIN_DEADLINE_S,
        warm: tuple[str, ...] = (),
    ):
        if admission not in ("batched", "unbatched"):
            raise SchemaError(
                f"unknown admission mode: {admission!r}; "
                "known: ('batched', 'unbatched')"
            )
        if admission == "unbatched":
            max_batch, max_wait_s = 1, 0.0
        self.admission = admission
        self.retry_failed = retry_failed
        self.metrics = ServiceMetrics()
        # "fleet" (the default) coalesces across grid keys: requests
        # for different benchmarks/threads/nodes/seeds share one
        # fleet-kernel invocation.  "grid" restores the historical
        # per-grid-key grouping.  Answers are bit-identical either way.
        self.batcher = batching.CoalescingBatcher(
            max_batch=max_batch, max_wait_s=max_wait_s, coalesce=coalesce
        )
        engine_kwargs: dict[str, Any] = {"max_workers": 0}
        if retry_policy is not None:
            engine_kwargs["retry_policy"] = retry_policy
        self.engine = (
            CampaignEngine(store=store, **engine_kwargs)
            if store is not None
            else None
        )
        # "quarantine": definitive failures persist as FailureRecords
        # (with a store), so later duplicates are refused instantly
        # instead of re-simulating a known-bad job.
        self.options = api.ExecutionOptions(
            campaign=self.engine,
            on_failure="quarantine",
            retry_failed=retry_failed,
        )
        self._inflight: dict[api.TuningRequest, _Inflight] = {}
        self._draining = False
        self.drain_deadline_s = drain_deadline_s
        self._group_tasks: set[asyncio.Task] = set()
        #: Admission-window timers, kept apart from the group tasks so
        #: drain never waits one out.
        self._window_timers: set[asyncio.Task] = set()
        #: Cancellation handles of dispatched groups (drain deadline).
        self._dispatches: set[pooling.GroupDispatch] = set()
        # Serial path: one worker thread, so the engine and store never
        # see concurrent in-process writers and batched throughput
        # gains come from doing fewer sweeps — the pool below is what
        # adds cores.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._serial_inflight = 0
        self._serial_groups = 0
        # Parallel path: a warm process pool, only when the store can
        # take concurrent writers (or there is no store to write).
        self.workers = 1
        self.pool_fallback: str | None = None
        self._pool: pooling.WorkerPool | None = None
        requested = max(1, int(workers))
        if requested > 1:
            reason = pooling.pool_supported(store)
            if reason is not None:
                self.pool_fallback = reason
            else:
                spec = pooling.WorkerSpec(
                    store_path=(
                        str(store.path) if store is not None else None
                    ),
                    store_backend=(
                        store.backend if store is not None else None
                    ),
                    retry_failed=retry_failed,
                    warm=tuple(warm),
                )
                self._pool = pooling.WorkerPool(requested, spec)
                # Workers must not inherit an open store handle: release
                # the parent's before the pool forks, reopen after.
                if store is not None:
                    store.release()
                try:
                    self._pool.start()
                finally:
                    if store is not None:
                        store.refresh()
                self.workers = requested
        elif warm:
            pooling.warm_process(tuple(warm))

    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def metrics_payload(self) -> dict[str, Any]:
        payload = self.metrics.payload()
        payload.update(
            admitted=self.batcher.admitted,
            coalesced=self.batcher.coalesced,
            groups_fired=self.batcher.groups_fired,
            pending=self.batcher.pending,
            inflight=len(self._inflight),
        )
        payload["worker_pool"] = self._pool_metrics()
        return payload

    def _pool_metrics(self) -> dict[str, Any]:
        """Worker-pool gauges: saturation must be observable."""
        if self._pool is not None:
            return self._pool.metrics()
        gauges: dict[str, Any] = {
            "workers": 1,
            "busy_workers": min(1, self._serial_inflight),
            "queue_depth": max(0, self._serial_inflight - 1),
            "groups_executed": self._serial_groups,
            "groups_per_worker": {"in-process": self._serial_groups},
        }
        if self.pool_fallback is not None:
            gauges["fallback"] = self.pool_fallback
        return gauges

    # ------------------------------------------------------------------
    async def handle(self, payload: Any) -> dict[str, Any]:
        """Serve one wire request; always returns a response envelope."""
        self.metrics.requests += 1
        response = await self._handle(payload)
        if response.get("status") == "ok":
            self.metrics.ok += 1
        else:
            self.metrics.errors += 1
        return response

    async def _handle(self, payload: Any) -> dict[str, Any]:
        if self._draining:
            self.metrics.drain_rejections += 1
            return error_response(
                "draining", "service is draining; resubmit elsewhere"
            )
        try:
            request = parse_request(payload).resolved()
            # An out-of-range node fails at admission, alone, instead of
            # failing every request coalesced with it.
            cluster = self.options.resolve_cluster(request.seed)
            cluster.check_node_id(request.node_id)
            # So does a thread count the node cannot run (MPI-only codes
            # ignore ``threads``, exactly as execution does).
            topology = cluster.topology or _DEFAULT_TOPOLOGY
            _registered_app(request.benchmark).resolve_threads(
                request.threads, topology.num_cores
            )
            # So does a malformed tuning model.
            if request.tmm is not None:
                TuningModel.from_json(request.tmm)
        except SchemaError as exc:
            return error_response("bad-request", str(exc))
        except (TuningError, JobError, TuningModelError, WorkloadError) as exc:
            return error_response("bad-value", str(exc))

        # Exact in-flight duplicate: join its future.
        entry = self._inflight.get(request)
        if entry is not None:
            entry.waiters += 1
            self.metrics.inflight_joins += 1
            return await asyncio.shield(entry.future)

        # Store fast path: a fully cached grid answers without executing,
        # and a persisted failure quarantines without executing.
        if self.engine is not None and self.engine.store is not None:
            hit = await self._from_store(request)
            if hit is not None:
                return hit

        return await self._enqueue(request)

    # ------------------------------------------------------------------
    def _grid_jobs(self, request: api.TuningRequest):
        cfs, ucfs = api.grid_axes(request.stride)
        cluster = self.options.resolve_cluster(request.seed)
        points = [
            OperatingPoint(cf, ucf, request.threads)
            for cf in cfs
            for ucf in ucfs
        ]
        jobs = grid_jobs(
            request.benchmark,
            label="heatmap",
            points=points,
            node_id=request.node_id,
            seed=request.seed,
            node_seed=cluster.seed,
        )
        return jobs, cfs, ucfs

    async def _from_store(self, request: api.TuningRequest) -> dict | None:
        """Answer (or quarantine) one request from the result store.

        Returns ``None`` when any grid row is missing *and* none of the
        missing rows carries a failure record — the request then takes
        the normal coalesce/execute path.  A result record always wins
        over a failure record for the same job: stale quarantine
        entries (failed once, re-run successfully later) never shadow a
        stored answer.
        """
        store = self.engine.store
        topology = self.engine.topology
        jobs, cfs, ucfs = self._grid_jobs(request)
        payloads = []
        for job in jobs:
            payload = store.get(topology_job_key(job, topology))
            if payload is not None:
                # Results shadow failure records, not the reverse.
                payloads.append(payload)
                continue
            if not self.retry_failed:
                failure = store.get(
                    job_key(
                        failure_descriptor(
                            qualified_descriptor(job, topology)
                        )
                    )
                )
                if failure is not None:
                    record = FailureRecord.from_payload(failure)
                    self.metrics.quarantined += 1
                    return error_response(
                        "quarantined",
                        f"job is quarantined: {record.describe()}; "
                        "restart the service with --retry-failed to retry",
                    )
            return None
        # TMM-carrying requests still need their dynamic run priced; let
        # the execution path do it (the engine caches that job too).
        if request.tmm is not None:
            return None
        grid = api.GridMeasurement.from_cells(
            request.grid_spec(),
            request.threads,
            cfs,
            ucfs,
            api.GridMeasurement.payload_cells(payloads),
        )
        self.metrics.cached_hits += 1
        return ok_response(
            grid.answer(request), meta={"cached": True, "coalesced": 0}
        )

    # ------------------------------------------------------------------
    async def _enqueue(self, request: api.TuningRequest) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        entry = _Inflight(future=loop.create_future())
        self._inflight[request] = entry
        key = self.batcher.key_for(request)
        _, started, fire = self.batcher.admit(request)
        if fire:
            self._fire(key)
        elif started:
            timer = loop.create_task(self._fire_later(key))
            self._window_timers.add(timer)
            timer.add_done_callback(self._window_timers.discard)
        return await asyncio.shield(entry.future)

    async def _fire_later(self, key: tuple) -> None:
        await asyncio.sleep(self.batcher.max_wait_s)
        self._fire(key)

    def _fire(self, key: tuple) -> None:
        group = self.batcher.pop(key)
        if group is None:
            return  # already fired (max_batch or drain beat the timer)
        self._launch(group)

    def _launch(self, group: batching.PendingGroup) -> None:
        """Start one fired group's execution task(s).

        With a pool, a fleet-coalesced group is first split by grid key
        (``batching.split_group``) so distinct measurements execute
        concurrently across workers instead of serialising the whole
        queue onto one; requests sharing a grid stay together, so no
        measurement is duplicated.  Serially, the group runs whole.
        """
        loop = asyncio.get_running_loop()
        parts = (
            batching.split_group(group, self.workers)
            if self._pool is not None
            else [group]
        )
        for part in parts:
            task = loop.create_task(self._execute_group(part))
            self._group_tasks.add(task)
            task.add_done_callback(self._group_tasks.discard)

    async def _dispatch_group(
        self,
        requests: list[api.TuningRequest],
        dispatch: pooling.GroupDispatch,
    ) -> tuple:
        """Execute one group; returns a worker-style outcome tuple."""
        if self._pool is not None:
            return await self._pool.run_group(requests, dispatch)
        future = self._executor.submit(
            batching.answer_group, list(requests), self.options
        )
        dispatch.future = future
        self._serial_inflight += 1
        try:
            answers = await asyncio.wrap_future(future)
        finally:
            self._serial_inflight -= 1
            # Failed groups were executed too; only a group the drain
            # deadline cancelled before it started was not.
            if not dispatch.cancelled:
                self._serial_groups += 1
        return ("ok", [answer.payload() for answer in answers], None)

    async def _execute_group(self, group: batching.PendingGroup) -> None:
        dispatch = pooling.GroupDispatch()
        self._dispatches.add(dispatch)
        coalesced = len(group.requests) - 1
        try:
            try:
                outcome = await self._dispatch_group(
                    group.requests, dispatch
                )
            except asyncio.CancelledError:
                if not dispatch.cancelled:
                    raise
                # Drain deadline: this group never started executing.
                self.metrics.drain_cancelled += len(group.requests)
                response = error_response(
                    "draining",
                    "the drain deadline expired before this queued "
                    "group started; resubmit against another instance",
                )
                for request in group.requests:
                    self._resolve(request, dict(response))
                return
            except ReproError as exc:
                outcome = ("error", pooling.failure_envelope(exc), None)
            except Exception as exc:  # pool broken beyond its respawn budget
                outcome = (
                    "error",
                    error_response(
                        "internal",
                        f"worker pool failed executing this group: {exc}",
                    ),
                    None,
                )
        finally:
            self._dispatches.discard(dispatch)
        if outcome[0] == "error":
            envelope = outcome[1]
            if envelope["error"]["code"] == "quarantined":
                self.metrics.quarantined += len(group.requests)
            for request in group.requests:
                self._resolve(request, dict(envelope))
            return
        for request, payload in zip(group.requests, outcome[1]):
            self._resolve(
                request,
                ok_response(
                    payload, meta={"cached": False, "coalesced": coalesced}
                ),
            )

    def _resolve(self, request: api.TuningRequest, response: dict) -> None:
        entry = self._inflight.pop(request, None)
        if entry is not None and not entry.future.done():
            entry.future.set_result(response)

    # ------------------------------------------------------------------
    async def drain(self, deadline_s: float | None = _UNSET) -> None:
        """Stop admitting, flush pending groups, await in-flight work.

        Bounded: after ``deadline_s`` (defaulting to the service's
        ``drain_deadline_s``; ``None`` waits forever) any group that
        has not *started* executing is cancelled and its waiters get a
        structured ``draining`` error.  Groups already running always
        finish and answer normally — cancellation succeeds only on
        queued executor futures, so no in-progress work is interrupted.
        """
        self._draining = True
        if deadline_s is _UNSET:
            deadline_s = self.drain_deadline_s
        for group in self.batcher.drain():
            self._launch(group)
        # Every pending group is flushed: the window timers have nothing
        # left to fire.
        for timer in list(self._window_timers):
            timer.cancel()
        while self._group_tasks:
            done, pending = await asyncio.wait(
                set(self._group_tasks), timeout=deadline_s
            )
            if pending:
                for dispatch in list(self._dispatches):
                    dispatch.cancel()
                # Cancelled groups resolve immediately with `draining`;
                # running ones keep going — wait them out unbounded.
                deadline_s = None
        futures = [e.future for e in self._inflight.values()]
        if futures:
            await asyncio.gather(*futures, return_exceptions=True)

    async def aclose(self) -> None:
        """Drain, then release the execution backends and the store."""
        await self.drain()
        self._executor.shutdown(wait=True)
        if self._pool is not None:
            self._pool.close()
        if self.engine is not None and self.engine.store is not None:
            self.engine.store.flush()
