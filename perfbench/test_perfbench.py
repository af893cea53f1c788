"""Self-tests of the benchmark itself (not of the system it measures).

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from functools import partial

import pytest

from perfbench.common import NAME_RE, ROOT, Outcome, tail

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import serve_mixed as sm  # noqa: E402
from perfbench.tracing import LAYER_METRICS, layer_metrics  # noqa: E402

BENCHMARKS = tuple(f"B{i}" for i in range(19))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tmm(bench: str) -> str:
    return f"tmm-of-{bench}"


def _schedule(seed: int, rung: int = 0, rate: float = 20.0,
              seconds: float = 10.0, pool: int = 0):
    return sm.make_schedule(seed, rung, rate, seconds, BENCHMARKS, _tmm, pool)


class TestSchedule:
    def test_same_seed_same_schedule_and_mix(self):
        assert _schedule(7) == _schedule(7)
        assert _schedule(7, rung=1) == _schedule(7, rung=1)

    def test_other_seed_other_requests(self):
        a = [r.payload for r in _schedule(7)]
        b = [r.payload for r in _schedule(8)]
        assert a != b

    def test_pools_share_the_shape_not_the_seeds(self):
        first, second = _schedule(7, pool=0), _schedule(7, pool=1)
        assert [r.offset_s for r in first] == [r.offset_s for r in second]
        assert [r.valid for r in first] == [r.valid for r in second]
        strip = [{k: v for k, v in r.payload.items() if k != "seed"}
                 for r in first]
        assert strip == [{k: v for k, v in r.payload.items() if k != "seed"}
                         for r in second]
        assert not ({r.payload["seed"] for r in first}
                    & {r.payload["seed"] for r in second})

    def test_arrivals_are_open_loop_within_the_rung(self):
        schedule = _schedule(3, rate=12.0, seconds=5.0)
        offsets = [r.offset_s for r in schedule]
        assert len(schedule) == 60
        assert offsets == sorted(offsets)
        assert 0.0 <= offsets[0] and offsets[-1] < 5.0

    def test_mix_shares_hold(self):
        schedule = _schedule(11, rate=100.0, seconds=50.0)
        n = len(schedule)
        invalid = [r for r in schedule if not r.valid]
        assert abs(len(invalid) / n - sm.INVALID_FRAC) < 0.005
        broken = Counter(
            next(name for name, value in sm.INVALID_FIELDS
                 if r.payload.get(name) == value)
            for r in invalid
        )
        assert set(broken) == {name for name, _ in sm.INVALID_FIELDS}
        assert all(r.payload["node_id"] in range(sm.VALID_NODES)
                   for r in schedule)
        assert all(r.payload["benchmark"] in BENCHMARKS
                   and r.payload["objective"] in sm.OBJECTIVES
                   and "stride" not in r.payload
                   for r in schedule if r.valid)
        with_tmm = sum(r.payload["tmm"] is not None for r in schedule)
        assert abs(with_tmm / n - sm.TMM_FRAC) < 0.01
        seeds = Counter(r.payload["seed"] for r in schedule)
        assert set(seeds) == set(sm.seed_pool(11))
        # Uniform over six: each share within 4 standard errors.
        sd = (1 / 6 * 5 / 6 / n) ** 0.5
        assert all(abs(c / n - 1 / 6) < 4 * sd for c in seeds.values())
        objectives = Counter(r.payload["objective"] for r in schedule if r.valid)
        assert set(objectives) == set(sm.OBJECTIVES)
        # An invalid request may have replaced its quota's benchmark.
        benches = Counter(r.payload["benchmark"] for r in schedule)
        weights = sm.zipf_weights(len(BENCHMARKS))
        for i, bench in enumerate(BENCHMARKS):
            assert abs(benches[bench] - weights[i] * n) <= 1 + broken["benchmark"]

    def test_quota_sums_to_count(self):
        for count in (1, 17, 100, 333):
            counts = sm.quota(sm.zipf_weights(19), count)
            assert counts.sum() == count and (counts >= 0).all()


class TestNames:
    def test_spec_names_are_valid_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        assert all(NAME_RE.match(n) for n in names)
        assert len(names) == len(set(names))

    def test_per_layer_spec_matches_the_tracer(self):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
            == list(LAYER_METRICS)

    def test_every_emitted_layer_metric_is_declared(self):
        emitted = layer_metrics([], 1)
        assert list(emitted) == [n for n, _, _ in LAYER_METRICS]
        assert all(NAME_RE.match(n) for n in emitted)

    def test_outcome_refuses_bad_names(self):
        with pytest.raises(ValueError):
            Outcome().metric("latency p50", 1.0, "ms")


class TestCalibration:
    def test_scale_uses_the_samples_during_the_span(self):
        from perfbench import calibrate

        host = calibrate.Sampler()
        host.samples = [(0.0, 40.0), (1.0, 20.0), (1.2, 20.0), (1.4, 5.0),
                        (9.0, 40.0)]
        # Samples within one interval of [1.0, 1.3]: 20, 20 and 5.
        assert host.scale(1.0, 1.3) == calibrate.REFERENCE_MS / 20.0
        assert calibrate.scaled(30.0, 5.0, 15.0) == 30.0

    def test_sampler_child_samples_and_stops(self):
        import time

        from perfbench import calibrate

        with calibrate.Sampler() as host:
            t0 = time.perf_counter()
            time.sleep(3 * calibrate.SAMPLE_INTERVAL_S)
            t1 = time.perf_counter()
            proc = host._proc
        assert proc.returncode is not None
        assert len(host.samples) >= 2
        assert host.scale(t0, t1) > 0


def test_tail_is_highest_percentile_with_ten_beyond():
    t = tail(range(100))
    assert t.value == 89 and t.percentile == 90.0 and t.samples == 100
    assert tail([3.0, 1.0, 2.0]).value == 3.0
    small = tail(range(19))
    assert small.value == 18 and small.percentile == 100.0


class TestReferenceChecks:
    def _rung(self, answered):
        return sm.RungResult(
            answered=answered, wall_s=1.0, service_metrics={}, rate=1.0,
            duration_s=1.0, late_ms=[0.0],
        )

    def test_serve_check_flags_a_corrupted_answer(self):
        from repro import api

        request = sm.Request(0.0, {"version": 1, "benchmark": "EP",
                                   "node_id": 0, "seed": 5}, True)
        good = api.tune(api.TuningRequest("EP", seed=5)).payload()
        bad = dict(good, best_energy_j=good["best_energy_j"] * (1 + 1e-12))
        invalid = sm.Request(0.0, {"version": 1, "benchmark": "EP",
                                   "stride": 0, "seed": 5}, False)
        refused = {"status": "error",
                   "error": {"code": "bad-value", "message": "node"}}
        workload = sm.ServeMixed(0)

        ok = self._rung([sm.Answered(request, 1.0, {"status": "ok", "result": good}),
                         sm.Answered(invalid, 1.0, refused)])
        attempted, failed, correct, _ = workload.check([ok])
        assert (attempted, failed, correct) == (2, 0, True)

        corrupted = self._rung([sm.Answered(request, 1.0, {"status": "ok", "result": bad})])
        attempted, failed, correct, _ = workload.check([corrupted])
        assert (attempted, failed, correct) == (1, 1, False)

        accepted = self._rung([sm.Answered(invalid, 1.0, {"status": "ok", "result": good})])
        _, failed, correct, _ = workload.check([accepted])
        assert failed == 1 and not correct

        collateral = self._rung([sm.Answered(request, 1.0, {
            "status": "error",
            "error": {"code": "execution-error", "message": "x"}})])
        _, failed, correct, _ = workload.check([collateral])
        assert failed == 1 and correct
        assert collateral.valid_tail_ms() == float("inf")

    def test_unloaded_scaling_leaves_the_admission_window_alone(self):
        request = sm.Request(0.0, {"version": 1, "benchmark": "EP"}, True)
        invalid = sm.Request(0.0, {"version": 1, "benchmark": "EP",
                                   "stride": 0}, False)

        def answered(cached):
            return sm.Answered(request, 0.0, {"status": "ok", "result": {},
                                              "meta": {"cached": cached}})

        step = sm.Unloaded(
            answered=[answered(False), answered(True),
                      sm.Answered(invalid, 0.0, {"status": "error"}),
                      answered(False)],
            wall_s=1.0, service_metrics={}, scales=[0.5, 0.5, 0.5, 2.0],
            window_s=0.02,
        )
        step.slot_ms = [60.0, 10.0, None, float("inf")]
        # Computing time scales; the 20 ms window of a request that
        # started a group does not; a store hit waited no window.
        assert step.scaled_ms() == [20.0 + 40.0 * 0.5, 5.0]

    def test_regen_check_flags_a_corrupted_artifact(self):
        from perfbench.regen import PaperRegen

        workload = PaperRegen(3)
        workload.setup()
        token = partial(workload.regenerate, nodes=(0, 1), stride=7, runs=1)
        workload.regenerate = token
        passes = [(3, token(3)), (4, token(4))]
        checked, differing, _ = workload.check(passes)
        assert checked == 2 * 6 and differing == 0
        passes[1][1]["table6_savings"] = "0" * 64
        checked, differing, notes = workload.check(passes)
        assert differing == 1
        assert any("table6_savings" in n for n in notes)

    def test_design_check_flags_a_corrupted_output(self, tmp_path):
        from perfbench.design import DesignTime

        workload = DesignTime(2)
        token = partial(workload.dta, benchmarks=("EP", "CG"),
                        training=("EP",), tuned=("EP",), epochs=1)
        workload.dta = token
        outputs = token(2, store_dir=tmp_path)
        checked, differing, _ = workload.check([outputs])
        assert (checked, differing) == (3, 0)
        outputs["weights"] = "f" * 64
        _, differing, _ = workload.check([outputs])
        assert differing == 1
