"""Request-lifecycle tests: dedup, coalescing, quarantine, drain.

The service is asyncio-native; each test spins its own loop via
``asyncio.run`` (no pytest-asyncio in the container) and drives
:meth:`TuningService.handle` directly — transport-free, exactly like
the throughput benchmark.
"""

import asyncio
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.campaign.engine import qualified_descriptor, topology_job_key
from repro.campaign.resilience import FailureRecord, failure_descriptor
from repro.campaign.store import ResultStore, job_key
from repro.errors import SchemaError
from repro.execution.simulator import OperatingPoint
from repro.readex.tuning_model import TuningModel
from repro.serve.schema import WIRE_VERSION
from repro.serve.service import TuningService

EP = {"version": WIRE_VERSION, "benchmark": "EP", "stride": 7}


def run(coro):
    return asyncio.run(coro)


def failure_record_for(service, request, *, message="boom"):
    """A persisted FailureRecord for the first grid row of ``request``."""
    jobs, _, _ = service._grid_jobs(request.resolved())
    topology = service.engine.topology
    descriptor = failure_descriptor(qualified_descriptor(jobs[0], topology))
    record = FailureRecord(
        job_store_key=topology_job_key(jobs[0], topology),
        app=request.benchmark,
        mode="grid",
        error_type="InjectedFault",
        error_message=message,
        kind="deterministic",
        attempts=1,
    )
    service.engine.store.put(job_key(descriptor), descriptor, record.payload())


class TestLifecycle:
    def test_coalesced_responses_bit_identical_to_offline(self):
        async def scenario():
            service = TuningService(max_batch=8, max_wait_s=0.05)
            payloads = [
                dict(EP, objective=objective)
                for objective in ("energy", "edp", "ed2p")
            ]
            responses = await asyncio.gather(
                *(service.handle(p) for p in payloads)
            )
            await service.aclose()
            return service, payloads, responses

        service, payloads, responses = run(scenario())
        assert service.batcher.coalesced == 2
        assert service.batcher.groups_fired == 1
        for payload, response in zip(payloads, responses):
            assert response["status"] == "ok"
            assert response["meta"] == {"cached": False, "coalesced": 2}
            offline = api.tune(
                api.TuningRequest(
                    "EP", stride=7, objective=payload["objective"]
                )
            )
            assert response["result"] == offline.payload()

    def test_cross_benchmark_requests_coalesce_into_one_group(self):
        """The service's default fleet coalescing merges requests for
        *different* benchmarks into one group — one fleet-kernel pass —
        with responses bit-identical to their offline answers."""
        async def scenario():
            service = TuningService(max_batch=8, max_wait_s=0.05)
            payloads = [
                dict(EP),
                {"version": WIRE_VERSION, "benchmark": "FT", "stride": 7},
            ]
            responses = await asyncio.gather(
                *(service.handle(p) for p in payloads)
            )
            await service.aclose()
            return service, responses

        service, responses = run(scenario())
        assert service.batcher.coalesced == 1
        assert service.batcher.groups_fired == 1
        for benchmark, response in zip(("EP", "FT"), responses):
            assert response["status"] == "ok"
            offline = api.tune(api.TuningRequest(benchmark, stride=7))
            assert response["result"] == offline.payload()

    def test_responses_are_json_serialisable(self):
        async def scenario():
            service = TuningService(max_wait_s=0.0)
            response = await service.handle(dict(EP))
            await service.aclose()
            return response

        response = run(scenario())
        assert json.loads(json.dumps(response)) == response

    def test_exact_duplicates_join_inflight_future(self):
        async def scenario():
            service = TuningService(max_batch=1, max_wait_s=0.0)
            responses = await asyncio.gather(
                *(service.handle(dict(EP)) for _ in range(3))
            )
            await service.aclose()
            return service, responses

        service, responses = run(scenario())
        assert responses[0] == responses[1] == responses[2]
        assert service.metrics.inflight_joins == 2
        # one sweep total: duplicates joined, they were not re-admitted
        assert service.batcher.admitted == 1

    def test_unbatched_admission_never_coalesces(self):
        async def scenario():
            service = TuningService(admission="unbatched")
            payloads = [
                dict(EP, objective=o) for o in ("energy", "edp", "ed2p")
            ]
            responses = await asyncio.gather(
                *(service.handle(p) for p in payloads)
            )
            await service.aclose()
            return service, responses

        service, responses = run(scenario())
        assert all(r["status"] == "ok" for r in responses)
        assert service.batcher.coalesced == 0
        assert service.batcher.groups_fired == 3

    @pytest.mark.parametrize(
        "payload, code",
        [
            ({"benchmark": "EP"}, "bad-request"),
            ({"version": WIRE_VERSION, "benchmark": "NoSuch"}, "bad-value"),
            (dict(EP, node_id=7), "bad-value"),
            (dict(EP, node_id=-1), "bad-value"),
            (dict(EP, tmm="{not json"), "bad-value"),
            (dict(EP, tmm='{"scenarios": []}'), "bad-value"),
            (dict(EP, threads=25), "bad-value"),
            (dict(EP, threads=999), "bad-value"),
        ],
        ids=[
            "no-version",
            "benchmark",
            "node-id-past-cluster",
            "node-id-negative",
            "tmm-not-json",
            "tmm-missing-fields",
            "threads-past-cores",
            "threads-far-past-cores",
        ],
    )
    def test_schema_and_value_errors_map_to_codes(self, payload, code):
        async def scenario():
            service = TuningService(max_wait_s=0.0)
            response = await service.handle(payload)
            await service.aclose()
            return service, response

        service, response = run(scenario())
        assert response["error"]["code"] == code
        assert service.batcher.admitted == 0  # refused before coalescing

    def test_bad_node_id_never_fails_its_window_mates(self):
        async def scenario():
            service = TuningService(max_batch=8, max_wait_s=0.05)
            payloads = [dict(EP), dict(EP, node_id=7), dict(EP, objective="edp")]
            responses = await asyncio.gather(
                *(service.handle(p) for p in payloads)
            )
            await service.aclose()
            return responses

        good, poison, edp = run(scenario())
        assert poison["error"]["code"] == "bad-value"
        assert good["result"] == api.tune(api.TuningRequest("EP", stride=7)).payload()
        assert edp["result"] == api.tune(
            api.TuningRequest("EP", stride=7, objective="edp")
        ).payload()

    def test_bad_thread_count_never_fails_its_window_mates(self):
        """Regression: a thread count above the node's 24 cores used to
        join the group and fail it at execution with a 500.  An MPI-only
        code ignores ``threads``, so the same count is admitted there,
        as :func:`api.tune` accepts it."""

        async def scenario():
            service = TuningService(max_batch=8, max_wait_s=0.05)
            payloads = [
                dict(EP, threads=25),
                dict(EP, benchmark="Mcb"),
                dict(EP, benchmark="Kripke", threads=25),
                dict(EP, threads=999),
            ]
            responses = await asyncio.gather(
                *(service.handle(p) for p in payloads)
            )
            await service.aclose()
            return responses

        poison, mcb, kripke, far = run(scenario())
        assert poison["error"]["code"] == far["error"]["code"] == "bad-value"
        assert mcb["result"] == api.tune(api.TuningRequest("Mcb", stride=7)).payload()
        assert kripke["result"] == api.tune(
            api.TuningRequest("Kripke", threads=25, stride=7)
        ).payload()

    def test_unknown_admission_mode_rejected(self):
        with pytest.raises(SchemaError, match="admission"):
            TuningService(admission="sometimes")


class TestStoreDedup:
    def test_second_request_is_a_cached_hit(self):
        async def scenario():
            service = TuningService(store=ResultStore(), max_wait_s=0.0)
            first = await service.handle(dict(EP))
            executed = service.engine.total_executed
            second = await service.handle(dict(EP))
            await service.aclose()
            return service, first, executed, second

        service, first, executed, second = run(scenario())
        assert first["meta"]["cached"] is False
        assert second["meta"]["cached"] is True
        assert second["result"] == first["result"]
        assert service.metrics.cached_hits == 1
        # the cached path never touched the engine
        assert service.engine.total_executed == executed

    def test_results_shadow_stale_failure_records(self):
        """Regression: a FailureRecord left over from a run that later
        succeeded must not quarantine a request whose full answer is in
        the store — result lookups win, as in CampaignEngine.run."""

        async def scenario():
            service = TuningService(store=ResultStore(), max_wait_s=0.0)
            first = await service.handle(dict(EP))
            failure_record_for(service, api.TuningRequest("EP", stride=7))
            stale = await service.handle(dict(EP))
            await service.aclose()
            return first, stale

        first, stale = run(scenario())
        assert first["status"] == "ok"
        assert stale["status"] == "ok", stale
        assert stale["meta"]["cached"] is True
        assert stale["result"] == first["result"]

    def test_failure_record_without_result_quarantines(self):
        async def scenario():
            service = TuningService(store=ResultStore(), max_wait_s=0.0)
            failure_record_for(service, api.TuningRequest("EP", stride=7))
            executed_before = service.engine.total_executed
            response = await service.handle(dict(EP))
            await service.aclose()
            return service, executed_before, response

        service, executed_before, response = run(scenario())
        assert response["status"] == "error"
        assert response["error"]["code"] == "quarantined"
        assert "boom" in response["error"]["message"]
        assert service.engine.total_executed == executed_before
        assert service.metrics.quarantined == 1

    def test_retry_failed_service_executes_quarantined_jobs(self):
        async def scenario():
            store = ResultStore()
            refusing = TuningService(store=store, max_wait_s=0.0)
            failure_record_for(refusing, api.TuningRequest("EP", stride=7))
            refused = await refusing.handle(dict(EP))
            await refusing.aclose()
            retrying = TuningService(
                store=store, retry_failed=True, max_wait_s=0.0
            )
            answered = await retrying.handle(dict(EP))
            await retrying.aclose()
            return refused, answered

        refused, answered = run(scenario())
        assert refused["error"]["code"] == "quarantined"
        assert answered["status"] == "ok"
        offline = api.tune(api.TuningRequest("EP", stride=7))
        assert answered["result"] == offline.payload()


class TestFaultsAndDrain:
    def test_injected_fault_surfaces_as_quarantined_and_persists(
        self, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            json.dumps(
                [
                    {
                        "action": "raise",
                        "mode": "grid",
                        "app": "CG",
                        "attempts": "all",
                    }
                ]
            ),
        )

        async def scenario():
            service = TuningService(store=ResultStore(), max_wait_s=0.0)
            payload = {"version": WIRE_VERSION, "benchmark": "CG", "stride": 7}
            first = await service.handle(payload)
            executed = service.engine.total_executed
            second = await service.handle(payload)
            await service.aclose()
            return service, first, executed, second

        service, first, executed, second = run(scenario())
        assert first["error"]["code"] == "quarantined"
        assert second["error"]["code"] == "quarantined"
        # the persisted FailureRecord answered the duplicate; no re-run
        assert service.engine.total_executed == executed
        assert service.metrics.quarantined == 2

    def test_failed_groups_count_as_executed(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            json.dumps(
                [{"action": "raise", "mode": "grid", "app": "CG", "attempts": "all"}]
            ),
        )

        async def scenario():
            service = TuningService(store=ResultStore(), max_wait_s=0.0)
            payload = {"version": WIRE_VERSION, "benchmark": "CG", "stride": 7}
            first = await service.handle(payload)
            second = await service.handle(dict(payload, seed=43))
            metrics = service.metrics_payload()
            await service.aclose()
            return first, second, metrics

        first, second, metrics = run(scenario())
        assert first["status"] == second["status"] == "error"
        assert metrics["groups_fired"] == 2
        assert metrics["worker_pool"]["groups_executed"] == 2

    def test_drain_does_not_wait_out_the_window(self):
        async def scenario():
            service = TuningService(max_batch=100, max_wait_s=60.0)
            pending = asyncio.create_task(service.handle(dict(EP)))
            await asyncio.sleep(0.02)
            start = time.monotonic()
            await service.drain()
            elapsed = time.monotonic() - start
            answered = await pending
            timers = len(service._window_timers)
            await service.aclose()
            return answered, elapsed, timers

        answered, elapsed, timers = run(scenario())
        assert answered["status"] == "ok"
        assert elapsed < 10.0  # execution time, not the 60 s window
        assert timers == 0

    def test_drain_answers_pending_and_refuses_new(self):
        async def scenario():
            # a window so long only drain can flush the group
            service = TuningService(max_batch=100, max_wait_s=60.0)
            pending = asyncio.create_task(service.handle(dict(EP)))
            await asyncio.sleep(0.02)
            await service.drain()
            answered = await pending
            refused = await service.handle(dict(EP))
            await service.aclose()
            return answered, refused

        answered, refused = run(scenario())
        assert answered["status"] == "ok"
        offline = api.tune(api.TuningRequest("EP", stride=7))
        assert answered["result"] == offline.payload()
        assert refused["error"]["code"] == "draining"


# ---------------------------------------------------------------------------
# Admission property: any mix of valid and invalid requests in one window
# ---------------------------------------------------------------------------

#: A field the generated payload leaves out.
OMIT = object()

#: A well-formed tuning model (phase-level only, so it prices on any
#: benchmark).
TMM = TuningModel.from_best_configs(
    "Mcb", "phase", {"phase": OperatingPoint(2.4, 2.0, 24)}
).to_json()

#: Client-controlled wire values per field: (valid, invalid) choices.
#: ``threads: 25`` is valid for the MPI-only Kripke only.  Strides stay
#: coarse so every generated window executes in milliseconds.
WIRE_VALUES = {
    "version": ((WIRE_VERSION,), (99, OMIT)),
    "benchmark": (("EP", "Mcb", "Kripke"), ("NoSuch", 7)),
    "threads": ((OMIT, None, 1, 12, 24, 25), (999, 0, -3, "24", True)),
    "objective": ((OMIT, "energy", "edp", "ed2p"), ("warp",)),
    "stride": ((7, 9), (0, "7")),
    "node_id": ((OMIT, 0, 1), (2, -1)),
    "tmm": ((OMIT, None, TMM), ("{not json", '{"scenarios": []}')),
    "bogus": ((OMIT,), (1,)),
}

#: Error codes a client's input may earn (HTTP 400); every other code
#: maps to a 5xx or a server-side condition.
CLIENT_ERROR_CODES = {"bad-request", "bad-value"}


@st.composite
def wire_payloads(draw):
    """Mostly-valid payloads: each field is corrupted one time in six."""
    payload = {}
    for field, (valid, invalid) in WIRE_VALUES.items():
        corrupt = draw(st.integers(0, 5)) == 5
        value = draw(st.sampled_from(invalid if corrupt else valid))
        if value is not OMIT:
            payload[field] = value
    return payload


_SOLO: dict[str, object] = {}


def solo_answer(payload):
    """The offline answer for one payload: its api.tune payload as JSON
    bytes, or ``None`` when parsing or tuning refuses it."""
    from repro.errors import ReproError
    from repro.serve.schema import parse_request

    key = json.dumps(payload, sort_keys=True)
    if key not in _SOLO:
        try:
            answer = api.tune(parse_request(payload))
            _SOLO[key] = json.dumps(answer.payload(), sort_keys=True)
        except ReproError:
            _SOLO[key] = None
    return _SOLO[key]


class TestAdmissionProperty:
    @settings(max_examples=30, deadline=None)
    @given(payloads=st.lists(wire_payloads(), min_size=1, max_size=6))
    def test_window_answers_match_solo_and_never_5xx(self, payloads):
        async def scenario():
            service = TuningService(max_batch=16, max_wait_s=0.02)
            responses = await asyncio.gather(
                *(service.handle(p) for p in payloads)
            )
            await service.aclose()
            return responses

        for payload, response in zip(payloads, run(scenario())):
            expected = solo_answer(payload)
            if expected is None:
                assert response["status"] == "error", payload
                assert response["error"]["code"] in CLIENT_ERROR_CODES, (
                    payload, response,
                )
            else:
                assert response["status"] == "ok", (payload, response)
                assert json.dumps(response["result"], sort_keys=True) == expected
