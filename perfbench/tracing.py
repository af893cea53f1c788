"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public functions and methods of the system where
their callers resolve them (module attributes, class attributes, and
every ``repro`` module that bound the same function object at import).
Each wrapped call records a :class:`Span` in memory: name, start, end,
the span that caused it and a few attributes.  Spans of one served
request carry its request id.  Nothing is recorded while the wrappers
are not installed, so untraced passes run the unmodified program.

Work done inside forked campaign pool workers is not seen: those
processes inherit the wrappers but their spans never reach the parent,
so the pool's work shows only at the parent's ``CampaignEngine.run``
boundary.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from perfbench.common import median, tail

#: Benchmarks whose design-time analysis is timed per benchmark.
PTF_BENCHMARKS = ("Amg2013", "Lulesh", "Mcb", "miniMD", "BEM4I")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass(frozen=True)
class Site:
    """One wrapped entry point.

    ``owner`` is a module name (a module-level function) or a
    ``"module:Class"`` path (a method).  ``before`` runs at entry and
    returns state handed to ``after``, which returns span attributes.
    """

    owner: str
    attr: str
    span: str
    before: Callable[..., Any] | None = None
    after: Callable[..., dict[str, Any]] | None = None


def _members(args, kwargs, result, state):
    members = args[0] if args else kwargs.get("members", ())
    return {"members": len(members)}


def _grids(args, kwargs, result, state):
    specs = args[0] if args else kwargs.get("specs", ())
    return {"grids": len(specs)}


def _engine_before(args, kwargs):
    engine = args[0]
    return engine.total_executed, engine.total_cached


def _engine_after(args, kwargs, result, state):
    engine = args[0]
    return {
        "executed": engine.total_executed - state[0],
        "cached": engine.total_cached - state[1],
    }


def _hit(args, kwargs, result, state):
    return {"hit": result is not None}


def _benchmark(args, kwargs, result, state):
    app = args[1] if len(args) > 1 else kwargs.get("app_or_name")
    return {"benchmark": app if isinstance(app, str) else app.name}


SITES: tuple[Site, ...] = (
    Site("repro.execution.fleet_replay", "fleet_run",
         "execution.fleet_run", after=_members),
    Site("repro.execution.sweep_replay", "sweep_run", "execution.sweep_run"),
    Site("repro.execution.controlled_replay", "replay_controlled_run",
         "execution.replay_controlled_run"),
    Site("repro.execution.simulator:ExecutionSimulator", "run",
         "execution.simulator_run"),
    Site("repro.api", "sweep_grids", "api.sweep_grids", after=_grids),
    Site("repro.campaign.engine:CampaignEngine", "run", "campaign.run",
         before=_engine_before, after=_engine_after),
    Site("repro.campaign.store:ResultStore", "get", "store.get", after=_hit),
    Site("repro.campaign.store:ResultStore", "put", "store.put"),
    Site("repro.campaign.store:ResultStore", "put_many", "store.put_many"),
    Site("repro.modeling.dataset", "build_dataset", "modeling.build_dataset"),
    Site("repro.modeling.training", "train_network",
         "modeling.train_network"),
    Site("repro.ptf.framework:PeriscopeTuningFramework", "tune", "ptf.tune",
         after=_benchmark),
    Site("repro.analysis.variability", "variability_study",
         "analysis.variability_study"),
    Site("repro.analysis.savings", "compare_static_dynamic_many",
         "analysis.compare_static_dynamic_many"),
)

#: Every per-layer metric: (name, unit, better).  A layer a workload
#: does not exercise reports 0 (and ratios over an empty base 0).
_CALL_LAYERS = (
    "execution.fleet_run", "execution.sweep_run",
    "execution.replay_controlled_run", "execution.simulator_run",
    "api.sweep_grids", "campaign.run", "store.get", "store.put",
    "store.put_many", "modeling.train_network",
)
#: Layers whose spans can contain other traced spans (self time differs).
_NESTING_LAYERS = (
    "execution.simulator_run", "api.sweep_grids", "campaign.run",
    "modeling.build_dataset", "ptf.tune", "analysis.variability_study",
    "analysis.compare_static_dynamic_many", "serve.answer_group",
)


def _layer_metric_specs() -> list[tuple[str, str, str]]:
    specs: list[tuple[str, str, str]] = []
    for layer in _CALL_LAYERS:
        specs.append((f"{layer}.calls", "count/op", "lower"))
        specs.append((f"{layer}.ms", "ms/op", "lower"))
    specs += [
        ("modeling.build_dataset.ms", "ms/op", "lower"),
        ("ptf.tune.ms", "ms/op", "lower"),
        *((f"ptf.tune.{b}.ms", "ms/op", "lower") for b in PTF_BENCHMARKS),
        ("analysis.variability_study.ms", "ms/op", "lower"),
        ("analysis.compare_static_dynamic_many.ms", "ms/op", "lower"),
        ("serve.answer_group.ms", "ms/op", "lower"),
    ]
    specs += [(f"{layer}.self_ms", "ms/op", "lower")
              for layer in _NESTING_LAYERS]
    specs += [
        ("execution.fleet_run.members", "count/call", "higher"),
        ("api.sweep_grids.grids_per_call", "count/call", "higher"),
        ("campaign.jobs_executed", "count/op", "lower"),
        ("campaign.cache_hit_frac", "ratio", "higher"),
        ("store.get.hit_frac", "ratio", "higher"),
        ("serve.queue_wait_ms", "ms", "lower"),
        ("serve.queue_wait_tail_ms", "ms", "lower"),
        ("serve.group_size", "count/group", "higher"),
        ("serve.groups", "count/op", "lower"),
        ("serve.exec_busy_frac", "ratio", "lower"),
        ("serve.store_hit_frac", "ratio", "higher"),
        ("serve.inflight_join_frac", "ratio", "higher"),
        ("serve.coalesced_frac", "ratio", "higher"),
        ("serve.generator_late_ms.max", "ms", "lower"),
        ("serve.generator_late_ms.tail", "ms", "lower"),
        ("serve.poison_collateral_frac", "ratio", "lower"),
        ("trace.spans", "count/op", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return specs


LAYER_METRICS: tuple[tuple[str, str, str], ...] = tuple(_layer_metric_specs())


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self time in ms: its duration minus the part of its
    interval that its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = (span.end - span.start - covered) * 1e3
    return out


class Tracer:
    """Installs span-recording wrappers and aggregates their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._patches: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        self._rids = itertools.count(1)
        #: Resolved request -> [(request id, handle entry time)] of
        #: requests waiting to reach an ``answer_group`` call.
        self._waiting: dict[Any, list[tuple[int, float]]] = defaultdict(list)

    # -- recording ------------------------------------------------------
    def _record(self, sid, name, start, end, parent, attrs) -> None:
        self.spans.append(Span(sid, name, start, end, parent, attrs))

    def _wrap(self, site: Site, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = site.before(args, kwargs) if site.before else None
            sid = next(tracer._ids)
            parent = tracer._current.get()
            token = tracer._current.set(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._current.reset(token)
                attrs = (
                    site.after(args, kwargs, result, state)
                    if site.after else {}
                )
                tracer._record(sid, site.span, start, end, parent, attrs)

        return wrapper

    def _wrap_handle(self, fn):
        """``TuningService.handle``: one span per request, tagged with a
        request id; remembers when each request entered so the
        ``answer_group`` wrapper can time its queue wait."""
        tracer = self
        from repro.errors import ReproError
        from repro.serve.schema import parse_request

        @functools.wraps(fn)
        async def wrapper(service, payload):
            rid = next(tracer._rids)
            sid = next(tracer._ids)
            token = tracer._current.set(sid)
            start = time.perf_counter()
            try:
                key = parse_request(payload).resolved()
            except ReproError:  # invalid requests never reach a group
                key = None
            if key is not None:
                with tracer._lock:
                    tracer._waiting[key].append((rid, start))
            try:
                return await fn(service, payload)
            finally:
                end = time.perf_counter()
                tracer._current.reset(token)
                if key is not None:
                    with tracer._lock:
                        entries = tracer._waiting.get(key, [])
                        entries[:] = [e for e in entries if e[0] != rid]
                        if not entries:
                            tracer._waiting.pop(key, None)
                tracer._record(sid, "serve.handle", start, end, None,
                               {"rid": rid})

        return wrapper

    def _wrap_answer_group(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(requests, *args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer._current.get()
            token = tracer._current.set(sid)
            start = time.perf_counter()
            rids, waits = [], []
            with tracer._lock:
                for request in requests:
                    for rid, entered in tracer._waiting.pop(request, ()):
                        rids.append(rid)
                        waits.append((start - entered) * 1e3)
            try:
                return fn(requests, *args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._current.reset(token)
                tracer._record(
                    sid, "serve.answer_group", start, end, parent,
                    {"size": len(requests), "rids": rids, "waits": waits},
                )

        return wrapper

    # -- installation ---------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapped) -> None:
        """Replace a module-level function wherever a caller resolves
        it: the defining module and every repro module that imported it."""
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every site (idempotent per install/uninstall pair)."""
        if self._patches:
            return
        for site in SITES:
            module_name, _, cls_name = site.owner.partition(":")
            module = importlib.import_module(module_name)
            if cls_name:
                cls = getattr(module, cls_name)
                self._set(cls, site.attr, self._wrap(site, getattr(cls, site.attr)))
            else:
                original = getattr(module, site.attr)
                self._rebind(original, self._wrap(site, original))
        from repro.serve import batcher
        from repro.serve.service import TuningService

        self._set(TuningService, "handle",
                  self._wrap_handle(TuningService.handle))
        self._rebind(batcher.answer_group,
                     self._wrap_answer_group(batcher.answer_group))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        with self._lock:
            self._waiting.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ---------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every span, with its self time, as JSON lines."""
        selfs = self_times(self.spans)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end,
                    "self_ms": selfs[s.sid], **s.attrs,
                }) + "\n")


@dataclass
class ServeCounters:
    """What the serving workload measured outside the spans."""

    requests: int = 0
    cached_hits: int = 0
    inflight_joins: int = 0
    admitted: int = 0
    coalesced: int = 0
    serving_s: float = 0.0
    #: Share of the poison-pill probe's valid requests not answered ok.
    poison_collateral: float = 0.0
    generator_late_ms: list[float] = field(default_factory=list)

    def add_service(self, payload: dict[str, Any]) -> None:
        self.requests += payload["requests"]
        self.cached_hits += payload["cached_hits"]
        self.inflight_joins += payload["inflight_joins"]
        self.admitted += payload["admitted"]
        self.coalesced += payload["coalesced"]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span],
    ops: int,
    *,
    serve: ServeCounters | None = None,
    overhead_pct: float = 0.0,
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value, normalised per operation."""
    ops = max(ops, 1)
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(name: str) -> float:
        return sum(s.ms for s in by_name.get(name, ()))

    out: dict[str, float] = {}
    for layer in _CALL_LAYERS:
        out[f"{layer}.calls"] = len(by_name.get(layer, ())) / ops
        out[f"{layer}.ms"] = total(layer) / ops
    for layer in ("modeling.build_dataset", "ptf.tune",
                  "analysis.variability_study",
                  "analysis.compare_static_dynamic_many",
                  "serve.answer_group"):
        out[f"{layer}.ms"] = total(layer) / ops
    for bench in PTF_BENCHMARKS:
        out[f"ptf.tune.{bench}.ms"] = sum(
            s.ms for s in by_name.get("ptf.tune", ())
            if s.attrs.get("benchmark") == bench
        ) / ops
    for layer in _NESTING_LAYERS:
        out[f"{layer}.self_ms"] = sum(
            selfs[s.sid] for s in by_name.get(layer, ())
        ) / ops

    fleet = by_name.get("execution.fleet_run", [])
    out["execution.fleet_run.members"] = _frac(
        sum(s.attrs["members"] for s in fleet), len(fleet))
    grids = by_name.get("api.sweep_grids", [])
    out["api.sweep_grids.grids_per_call"] = _frac(
        sum(s.attrs["grids"] for s in grids), len(grids))
    runs = by_name.get("campaign.run", [])
    executed = sum(s.attrs["executed"] for s in runs)
    cached = sum(s.attrs["cached"] for s in runs)
    out["campaign.jobs_executed"] = executed / ops
    out["campaign.cache_hit_frac"] = _frac(cached, executed + cached)
    gets = by_name.get("store.get", [])
    out["store.get.hit_frac"] = _frac(
        sum(1 for s in gets if s.attrs["hit"]), len(gets))

    groups = by_name.get("serve.answer_group", [])
    waits = [w for g in groups for w in g.attrs["waits"]]
    out["serve.queue_wait_ms"] = median(waits) if waits else 0.0
    out["serve.queue_wait_tail_ms"] = tail(waits).value if waits else 0.0
    out["serve.group_size"] = _frac(
        sum(g.attrs["size"] for g in groups), len(groups))
    out["serve.groups"] = len(groups) / ops
    serve = serve or ServeCounters()
    out["serve.exec_busy_frac"] = _frac(
        total("serve.answer_group") / 1e3, serve.serving_s)
    out["serve.store_hit_frac"] = _frac(serve.cached_hits, serve.requests)
    out["serve.inflight_join_frac"] = _frac(
        serve.inflight_joins, serve.requests)
    out["serve.coalesced_frac"] = _frac(serve.coalesced, serve.admitted)
    late = serve.generator_late_ms
    out["serve.generator_late_ms.max"] = max(late) if late else 0.0
    out["serve.generator_late_ms.tail"] = tail(late).value if late else 0.0
    out["serve.poison_collateral_frac"] = serve.poison_collateral
    out["trace.spans"] = len(spans) / ops
    out["trace.overhead_pct"] = overhead_pct
    return {name: out[name] for name, _, _ in LAYER_METRICS}


#: Rows of the printed per-layer table: (layer, ratio metric, its base).
_TABLE_ROWS = (
    ("analysis.variability_study", None, None),
    ("analysis.compare_static_dynamic_many", None, None),
    ("api.sweep_grids", "api.sweep_grids.grids_per_call", "grids/call"),
    ("execution.fleet_run", "execution.fleet_run.members", "members/call"),
    ("execution.sweep_run", None, None),
    ("execution.simulator_run", None, None),
    ("execution.replay_controlled_run", None, None),
    ("campaign.run", "campaign.cache_hit_frac", "cached/(cached+executed)"),
    ("store.get", "store.get.hit_frac", "hits/gets"),
    ("store.put", None, None),
    ("store.put_many", None, None),
    ("modeling.build_dataset", None, None),
    ("modeling.train_network", None, None),
    ("ptf.tune", None, None),
    ("serve.answer_group", "serve.group_size", "requests/group"),
)


def table(spans: list[Span], ops: int, op_name: str) -> list[str]:
    """The per-layer table: calls, total and self time per operation."""
    traced, ops = ops, max(ops, 1)
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    metrics = layer_metrics(spans, ops)
    lines = [
        f"per-layer breakdown, per {op_name} ({traced} traced):",
        f"  {'layer':38s} {'calls':>9s} {'total ms':>10s} {'self ms':>10s}"
        "  ratio (base)",
    ]
    for layer, ratio, base in _TABLE_ROWS:
        spans_of = by_name.get(layer, ())
        calls = len(spans_of) / ops
        total_ms = sum(s.ms for s in spans_of) / ops
        self_ms = sum(selfs[s.sid] for s in spans_of) / ops
        extra = ""
        if ratio is not None:
            extra = f"  {ratio.split('.')[-1]}={metrics[ratio]:.3f} ({base}, n={len(spans_of)})"
        lines.append(
            f"  {layer:38s} {calls:9.2f} {total_ms:10.2f} {self_ms:10.2f}{extra}"
        )
    return lines
