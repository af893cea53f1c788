"""Tests for the :mod:`repro.api` facade."""

import dataclasses
import importlib
import inspect
import json

import numpy as np
import pytest

from repro import api, config
from repro.campaign.engine import CampaignEngine
from repro.campaign.store import ResultStore
from repro.errors import CampaignError, TuningError


class TestExecutionOptions:
    def test_defaults(self):
        options = api.ExecutionOptions()
        assert options.engine == "auto"
        assert options.campaign is None
        assert options.cluster is None
        assert options.on_failure == "raise"
        assert options.retry_failed is False
        assert [f.name for f in dataclasses.fields(options)] == [
            "engine", "campaign", "cluster", "on_failure", "retry_failed"
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": "warp"},
            {"on_failure": "explode"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(CampaignError, match="unknown"):
            api.ExecutionOptions(**kwargs)

    def test_retired_measurement_field_rejected(self):
        with pytest.raises(TypeError, match="measurement"):
            api.ExecutionOptions(measurement="grid")
        assert not hasattr(api, "MEASUREMENTS")

    def test_grid_engine_mapping(self):
        assert api.ExecutionOptions().grid_engine() == "sweep"
        assert api.ExecutionOptions(engine="sweep").grid_engine() == "sweep"
        assert api.ExecutionOptions(engine="loop").grid_engine() == "loop"
        with pytest.raises(CampaignError):
            api.ExecutionOptions(engine="replay").grid_engine()

    def test_resolve_cluster_prefers_explicit(self):
        from repro.hardware.cluster import Cluster

        cluster = Cluster(4, seed=3)
        assert api.ExecutionOptions(cluster=cluster).resolve_cluster(9) is cluster
        default = api.ExecutionOptions().resolve_cluster(9)
        assert default.seed == 9


class TestTuningRequest:
    def test_validation(self):
        with pytest.raises(TuningError):
            api.TuningRequest("NoSuch").validate()
        with pytest.raises(TuningError):
            api.TuningRequest("EP", objective="nope").validate()
        with pytest.raises(TuningError):
            api.TuningRequest("EP", stride=0).validate()
        with pytest.raises(TuningError):
            api.TuningRequest("EP", threads=0).validate()

    def test_resolved_fills_default_threads(self):
        from repro.workloads import registry

        resolved = api.TuningRequest("EP").resolved()
        assert resolved.threads == registry.build("EP").default_threads

    def test_grid_key_excludes_objective_and_tmm(self):
        base = api.TuningRequest("EP", stride=7).resolved()
        twin = api.TuningRequest(
            "EP", stride=7, objective="edp", tmm='{"x": 1}'
        ).resolved()
        assert base.grid_key() == twin.grid_key()
        assert base.grid_key() != api.TuningRequest(
            "EP", stride=7, seed=1
        ).resolved().grid_key()


class TestGridAxes:
    def test_stride_one_is_full_grid(self):
        cfs, ucfs = api.grid_axes(1)
        assert cfs == config.CORE_FREQUENCIES_GHZ
        assert ucfs == config.UNCORE_FREQUENCIES_GHZ

    def test_thinned_axes_keep_defaults(self):
        cfs, ucfs = api.grid_axes(5)
        assert config.DEFAULT_CORE_FREQ_GHZ in cfs
        assert config.DEFAULT_UNCORE_FREQ_GHZ in ucfs
        assert len(cfs) < len(config.CORE_FREQUENCIES_GHZ)

    def test_bad_stride_rejected(self):
        with pytest.raises(TuningError):
            api.grid_axes(0)


class TestTune:
    def test_answer_is_grid_argmin(self):
        request = api.TuningRequest("EP", stride=7, objective="energy")
        answer = api.tune(request)
        grid = api.sweep_grid("EP", stride=7)
        i, j = np.unravel_index(
            np.argmin(grid.node_energy_j), grid.node_energy_j.shape
        )
        assert answer.best.core_freq_ghz == grid.core_frequencies[i]
        assert answer.best.uncore_freq_ghz == grid.uncore_frequencies[j]
        assert answer.best_energy_j == grid.node_energy_j[i, j]
        assert answer.cells == grid.node_energy_j.size

    def test_loop_engine_bit_identical_to_sweep(self):
        request = api.TuningRequest("EP", stride=7)
        sweep = api.tune(request)
        loop = api.tune(request, api.ExecutionOptions(engine="loop"))
        assert loop.payload() == sweep.payload()

    def test_campaign_backed_tune_matches_direct(self):
        engine = CampaignEngine(store=ResultStore(), max_workers=0)
        request = api.TuningRequest("EP", stride=7)
        direct = api.tune(request)
        campaign = api.tune(request, api.ExecutionOptions(campaign=engine))
        assert campaign.payload() == direct.payload()
        executed = engine.total_executed
        assert executed > 0
        again = api.tune(request, api.ExecutionOptions(campaign=engine))
        assert again.payload() == direct.payload()
        assert engine.total_executed == executed  # warm cache

    def test_payload_json_round_trips(self):
        answer = api.tune(api.TuningRequest("EP", stride=7))
        assert json.loads(json.dumps(answer.payload())) == answer.payload()

    def test_energy_saving_sign(self):
        answer = api.tune(api.TuningRequest("EP", stride=7))
        expected = 1.0 - answer.best_energy_j / answer.default_energy_j
        assert answer.energy_saving == pytest.approx(expected)


class TestOptionsCallSites:
    @pytest.mark.parametrize(
        "module, name",
        [
            ("repro.analysis.heatmap", "energy_heatmap"),
            ("repro.analysis.savings", "compare_static_dynamic"),
            ("repro.analysis.savings", "compare_static_dynamic_many"),
            ("repro.analysis.tradeoffs", "energy_time_tradeoff"),
            ("repro.ptf.static_tuning", "exhaustive_static_search"),
        ],
    )
    def test_options_is_the_only_execution_keyword(self, module, name):
        function = getattr(importlib.import_module(module), name)
        parameters = inspect.signature(function).parameters
        assert "options" in parameters
        for legacy in ("engine", "campaign", "measurement"):
            assert legacy not in parameters

    def test_static_tuning_accepts_options(self):
        from repro.hardware.cluster import Cluster
        from repro.ptf.static_tuning import exhaustive_static_search

        engine = CampaignEngine(store=ResultStore(), max_workers=0)
        cluster = Cluster(2)
        app = __import__(
            "repro.workloads", fromlist=["registry"]
        ).registry.build("EP")
        direct = exhaustive_static_search(
            app, cluster, stride=7, thread_counts=(24,)
        )
        campaign = exhaustive_static_search(
            app,
            cluster,
            stride=7,
            thread_counts=(24,),
            options=api.ExecutionOptions(campaign=engine),
        )
        assert campaign.best == direct.best
        assert campaign.best_energy_j == direct.best_energy_j
