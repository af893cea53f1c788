"""Coalescing-queue invariants and the bit-equality property.

The property that makes the serving layer trustworthy: however
requests are interleaved into the batcher and however the windows
land, every request's coalesced answer equals its solo
:func:`repro.api.tune` answer to the bit.  Hypothesis drives the
admission orders; the solo answers are computed once per request
identity and memoised.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.errors import CampaignError
from repro.execution import sweep_replay
from repro.serve.batcher import FLEET_KEY, CoalescingBatcher, answer_group

#: The request universe for the property: small grids (stride 7 keeps
#: 3 x 3 cells), two seeds, every objective.  Identities are distinct
#: but several share a grid key — exactly the coalescing case.
UNIVERSE = [
    api.TuningRequest("EP", stride=7, seed=seed, objective=objective)
    for seed in (0, 7)
    for objective in ("energy", "edp", "ed2p")
]

_SOLO_CACHE: dict[api.TuningRequest, dict] = {}


def solo_payload(request: api.TuningRequest) -> dict:
    if request not in _SOLO_CACHE:
        _SOLO_CACHE[request] = api.tune(request).payload()
    return _SOLO_CACHE[request]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCoalescingBatcher:
    def test_same_grid_key_coalesces(self):
        batcher = CoalescingBatcher(max_batch=4)
        a = api.TuningRequest("EP", stride=7, objective="energy").resolved()
        b = api.TuningRequest("EP", stride=7, objective="edp").resolved()
        _, started_a, fire_a = batcher.admit(a)
        _, started_b, fire_b = batcher.admit(b)
        assert started_a and not started_b
        assert not fire_a and not fire_b
        assert batcher.coalesced == 1
        group = batcher.pop(a.grid_key())
        assert group.requests == [a, b]
        assert group.tickets == [0, 1]

    def test_distinct_grid_keys_do_not_coalesce(self):
        batcher = CoalescingBatcher(max_batch=4)
        batcher.admit(api.TuningRequest("EP", stride=7, seed=0).resolved())
        batcher.admit(api.TuningRequest("EP", stride=7, seed=1).resolved())
        assert batcher.coalesced == 0
        assert len(batcher.due(now=float("inf"))) == 2

    def test_max_batch_fires_immediately(self):
        batcher = CoalescingBatcher(max_batch=2)
        a = api.TuningRequest("EP", stride=7, objective="energy").resolved()
        b = api.TuningRequest("EP", stride=7, objective="edp").resolved()
        assert batcher.admit(a)[2] is False
        assert batcher.admit(b)[2] is True

    def test_window_expiry_via_injected_clock(self):
        clock = FakeClock()
        batcher = CoalescingBatcher(max_batch=8, max_wait_s=0.5, clock=clock)
        request = api.TuningRequest("EP", stride=7).resolved()
        batcher.admit(request)
        assert batcher.due() == []
        assert batcher.next_deadline() == pytest.approx(0.5)
        clock.now = 0.6
        assert batcher.due() == [request.grid_key()]

    def test_pop_is_idempotent(self):
        batcher = CoalescingBatcher()
        request = api.TuningRequest("EP", stride=7).resolved()
        batcher.admit(request)
        assert batcher.pop(request.grid_key()) is not None
        assert batcher.pop(request.grid_key()) is None
        assert batcher.groups_fired == 1

    def test_drain_flushes_everything(self):
        batcher = CoalescingBatcher(max_wait_s=100.0)
        for request in UNIVERSE:
            batcher.admit(request.resolved())
        groups = batcher.drain()
        assert sum(len(g.requests) for g in groups) == len(UNIVERSE)
        assert batcher.pending == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CampaignError):
            CoalescingBatcher(max_batch=0)
        with pytest.raises(CampaignError):
            CoalescingBatcher(max_wait_s=-1.0)
        with pytest.raises(CampaignError, match="coalesce"):
            CoalescingBatcher(coalesce="per-request")


class TestFleetCoalescing:
    """``coalesce="fleet"`` merges *across* grid keys (the service
    default): different benchmarks, seeds and nodes share one pending
    group, priced by a single fleet-kernel invocation."""

    def test_distinct_grid_keys_share_one_group(self):
        batcher = CoalescingBatcher(max_batch=8, coalesce="fleet")
        requests = [
            api.TuningRequest("EP", stride=7, seed=0).resolved(),
            api.TuningRequest("EP", stride=7, seed=1).resolved(),
            api.TuningRequest("FT", stride=7).resolved(),
        ]
        for request in requests:
            assert batcher.key_for(request) == FLEET_KEY
            batcher.admit(request)
        assert batcher.coalesced == 2
        group = batcher.pop(FLEET_KEY)
        assert group is not None and group.requests == requests
        assert batcher.pending == 0

    def test_grid_mode_still_splits_by_grid_key(self):
        batcher = CoalescingBatcher(max_batch=8, coalesce="grid")
        a = api.TuningRequest("EP", stride=7, seed=0).resolved()
        b = api.TuningRequest("FT", stride=7).resolved()
        assert batcher.key_for(a) == a.grid_key()
        batcher.admit(a)
        batcher.admit(b)
        assert batcher.coalesced == 0
        assert len(batcher.due(now=float("inf"))) == 2

    def test_two_apps_one_fleet_invocation_bit_identical(self, monkeypatch):
        """The regression the fleet key exists for: two requests with
        different benchmarks are measured by exactly one
        ``sweep_grids`` call (one config-axis sweep per grid), and each
        answer is bit-identical to its solo answer."""
        grid_calls = []
        sweep_cells = []
        real_sweep_grids = api.sweep_grids
        real_sweep_run = sweep_replay.sweep_run

        def counting_sweep_grids(specs, **kwargs):
            grid_calls.append(len(specs))
            return real_sweep_grids(specs, **kwargs)

        def counting_sweep_run(app, points, **kwargs):
            sweep_cells.append(len(points))
            return real_sweep_run(app, points, **kwargs)

        monkeypatch.setattr(api, "sweep_grids", counting_sweep_grids)
        monkeypatch.setattr(sweep_replay, "sweep_run", counting_sweep_run)
        requests = [
            api.TuningRequest("EP", stride=7).resolved(),
            api.TuningRequest("FT", stride=7).resolved(),
        ]
        answers = answer_group(list(requests))
        assert grid_calls == [2]
        # every cell of both benchmarks' grids was priced, one sweep each
        cfs, ucfs = api.grid_axes(7)
        assert sweep_cells == [len(cfs) * len(ucfs)] * 2
        monkeypatch.undo()
        for request, answer in zip(requests, answers):
            assert answer.payload() == api.tune(request).payload()


class TestAnswerGroup:
    def test_empty_group(self):
        assert answer_group([]) == []

    def test_mixed_grid_keys_answered_bit_identically(self):
        """A group spanning grid keys (the fleet-coalesced case) gets
        each member the same answer as its solo ``tune``."""
        requests = [
            api.TuningRequest("EP", stride=7, seed=0).resolved(),
            api.TuningRequest("EP", stride=7, seed=1).resolved(),
        ]
        answers = answer_group(list(requests))
        for request, answer in zip(requests, answers):
            assert answer.payload() == solo_payload(request)

    @given(
        order=st.permutations(range(len(UNIVERSE))),
        max_batch=st.integers(min_value=1, max_value=len(UNIVERSE)),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_admission_order_is_bit_identical_to_solo(
        self, order, max_batch
    ):
        """The tentpole invariant: coalesced == solo, always."""
        batcher = CoalescingBatcher(max_batch=max_batch, max_wait_s=100.0)
        fired: list = []
        for index in order:
            request = UNIVERSE[index].resolved()
            _, _, fire = batcher.admit(request)
            if fire:
                fired.append(batcher.pop(request.grid_key()))
        fired.extend(batcher.drain())
        answered = 0
        for group in fired:
            answers = answer_group(group.requests)
            for request, answer in zip(group.requests, answers):
                assert answer.payload() == solo_payload(request)
                answered += 1
        assert answered == len(UNIVERSE)
