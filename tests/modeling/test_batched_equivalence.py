"""Batched-vs-pointwise model-evaluation equivalence (bit-exact).

The load-bearing property of the batched engine: every consumer-visible
number — grid predictions, LOOCV MAPE, static-configuration and counter
selections — is *bit-identical* between the stacked fast path and the
historical pointwise loops, across applications, regions and seeds.
"""

import numpy as np
import pytest

from repro.campaign.engine import CampaignEngine
from repro.campaign.store import ResultStore
from repro.errors import ModelError
from repro.modeling.batched import (
    BatchedModelEvaluator,
    forward_batch,
    frequency_grid,
    predict_energy_grid,
    stack_grid_features,
    validate_engine,
)
from repro.modeling.crossval import leave_one_out_mape, network_loocv_mape
from repro.modeling.dataset import build_dataset
from repro.modeling.model_cache import (
    dataset_digest,
    model_from_payload,
    model_to_payload,
    train_network_cached,
    training_descriptor,
)
from repro.modeling.network import EnergyNetwork
from repro.modeling.selection import select_counters
from repro.modeling.training import TrainingConfig, train_network
from repro.ptf.region_model import RegionModelTuner
from repro.ptf.static_tuning import select_static_configurations
from repro.util.rng import rng_for
from repro.workloads import registry


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(
        ("EP", "Mcb", "Lulesh", "CG", "FT", "XSBench"), thread_counts=(16, 24)
    )


@pytest.fixture(scope="module")
def model(dataset):
    return train_network(
        dataset.features, dataset.targets, config=TrainingConfig(epochs=6)
    )


class TestForwardBackward:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("rows", [2, 5, 64, 513])
    def test_forward_batch_matches_network_forward(self, seed, rows):
        net = EnergyNetwork(seed=seed)
        x = rng_for("batched-test", rows, seed=seed).normal(size=(rows, 9))
        assert np.array_equal(forward_batch(net.parameters, x), net.forward(x))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_batched_stack_matches_chunked_evaluation(self, seed):
        """Stacking rows does not change a single output bit (the
        property the whole engine rests on)."""
        net = EnergyNetwork(seed=seed)
        x = rng_for("batched-chunk", seed=seed).normal(size=(612, 9))
        full = forward_batch(net.parameters, x)
        for chunk in (2, 9, 102):
            parts = [
                forward_batch(net.parameters, x[i : i + chunk])
                for i in range(0, x.shape[0], chunk)
            ]
            assert np.array_equal(np.vstack(parts), full)

    def test_malformed_weights_rejected(self):
        with pytest.raises(ModelError):
            forward_batch([np.ones((9, 5))], np.ones((2, 9)))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ModelError):
            validate_engine("vectorised")


class TestGridAssembly:
    def test_stacked_features_match_pointwise_rows(self):
        rates = rng_for("grid-rates").normal(size=(3, 7)) ** 2
        points, grid = frequency_grid()
        stacked = stack_grid_features(rates, grid)
        assert stacked.shape == (3 * len(points), 9)
        row = 0
        for vec in rates:
            for cf, ucf in points:
                assert np.array_equal(stacked[row], np.concatenate([vec, [cf, ucf]]))
                row += 1

    def test_single_vector_promoted(self):
        points, grid = frequency_grid()
        stacked = stack_grid_features(np.ones(7), grid)
        assert stacked.shape == (len(points), 9)


class TestGridPredictionEquivalence:
    @pytest.mark.parametrize("rows", [1, 2, 6])
    def test_engines_bit_identical(self, model, dataset, rows):
        rates = np.asarray(list(dataset.counter_rates.values())[:rows])
        batched = predict_energy_grid(model, rates, engine="batched")
        pointwise = predict_energy_grid(model, rates, engine="pointwise")
        assert batched.points == pointwise.points
        assert np.array_equal(batched.energies, pointwise.energies)
        assert batched.best() == pointwise.best()

    def test_evaluator_matches_trained_model_predict(self, model, dataset):
        features = dataset.features[:100]
        assert np.array_equal(
            BatchedModelEvaluator(model).predict(features),
            model.predict(features),
        )

    def test_grid_dict_matches_historical_plugin_loop(self, model, dataset):
        from repro import config

        rates = dataset.counter_rates[("Mcb", 24)]
        rows = []
        for cf in config.CORE_FREQUENCIES_GHZ:
            for ucf in config.UNCORE_FREQUENCIES_GHZ:
                rows.append(np.concatenate([rates, [cf, ucf]]))
        reference = model.predict(np.asarray(rows))
        grid = predict_energy_grid(model, rates, labels=("x",)).as_dict("x")
        assert np.array_equal(np.asarray(list(grid.values())), reference)


class TestLOOCVEquivalence:
    def test_loocv_mape_bit_identical_across_engines(self, dataset):
        config = TrainingConfig(epochs=3)
        pointwise = network_loocv_mape(dataset, config=config, engine="pointwise")
        batched = network_loocv_mape(dataset, config=config, engine="batched")
        assert pointwise == batched  # dict equality: same keys, same bits

    def test_matches_generic_loocv_harness(self, dataset):
        config = TrainingConfig(epochs=3)

        def fit_predict(tx, ty, ex):
            return train_network(tx, ty, config=config).predict(ex)

        expected = leave_one_out_mape(dataset, fit_predict)
        assert network_loocv_mape(dataset, config=config) == expected

    def test_parallel_campaign_dispatch_bit_identical(self, dataset):
        config = TrainingConfig(epochs=3)
        serial = network_loocv_mape(dataset, config=config, engine="batched")
        parallel = network_loocv_mape(
            dataset,
            config=config,
            engine="batched",
            campaign=CampaignEngine(max_workers=2),
        )
        assert serial == parallel

    def test_warm_model_store_skips_training_and_is_identical(
        self, tmp_path, dataset
    ):
        config = TrainingConfig(epochs=3)
        store = ResultStore(tmp_path / "store.jsonl")
        campaign = CampaignEngine(store=store, max_workers=1)
        cold = network_loocv_mape(dataset, config=config, campaign=campaign)
        assert len(store) == len(dataset.benchmarks)
        store.close()
        warm_campaign = CampaignEngine(
            store=ResultStore(tmp_path / "store.jsonl"), max_workers=1
        )
        warm = network_loocv_mape(dataset, config=config, campaign=warm_campaign)
        assert cold == warm
        assert len(warm_campaign.store) == len(dataset.benchmarks)  # no retrain


class TestModelCache:
    def test_cached_model_bit_identical(self, dataset):
        config = TrainingConfig(epochs=2)
        store = ResultStore(None)
        first = train_network_cached(
            dataset.features, dataset.targets, config=config, store=store
        )
        second = train_network_cached(
            dataset.features, dataset.targets, config=config, store=store
        )
        for a, b in zip(first.network.get_weights(), second.network.get_weights()):
            assert np.array_equal(a, b)
        assert first.losses == second.losses
        assert np.array_equal(
            first.predict(dataset.features[:10]),
            second.predict(dataset.features[:10]),
        )

    def test_digest_sensitive_to_data_and_config(self, dataset):
        d1 = dataset_digest(dataset.features, dataset.targets)
        d2 = dataset_digest(dataset.features[:-1], dataset.targets[:-1])
        assert d1 != d2
        k1 = training_descriptor(d1, TrainingConfig(epochs=2))
        k2 = training_descriptor(d1, TrainingConfig(epochs=3))
        assert k1 != k2

    def test_stale_model_payload_surfaces_clear_error(self):
        with pytest.raises(ModelError, match="older store schema"):
            model_from_payload({"weights": []})

    def test_payload_round_trip(self, model, dataset):
        rebuilt = model_from_payload(model_to_payload(model))
        assert np.array_equal(
            rebuilt.predict(dataset.features[:50]),
            model.predict(dataset.features[:50]),
        )


class TestSelectionEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_engines_select_identical_counters_synthetic(self, seed):
        rng = rng_for("selection-equiv", seed=seed)
        n, j = 240, 12
        rates = rng.normal(size=(n, j))
        freqs = rng.normal(size=(n, 2))
        coef = np.zeros(j)
        coef[rng.choice(j, size=4, replace=False)] = rng.normal(size=4) * 2
        targets = rates @ coef + freqs @ [0.5, -0.3] + rng.normal(size=n) * 0.1
        names = [f"C{i}" for i in range(j)]
        batched = select_counters(rates, names, freqs, targets, engine="batched")
        pointwise = select_counters(rates, names, freqs, targets, engine="pointwise")
        assert batched.counters == pointwise.counters
        assert batched.vifs == pointwise.vifs
        assert np.isclose(batched.adjusted_r2, pointwise.adjusted_r2)

    def test_engines_agree_on_real_dataset(self, dataset):
        freqs = dataset.features[:, -2:]
        rates = dataset.features[:, :-2]
        names = list(dataset.feature_names[:-2])
        batched = select_counters(rates, names, freqs, dataset.targets)
        pointwise = select_counters(
            rates, names, freqs, dataset.targets, engine="pointwise"
        )
        assert batched.counters == pointwise.counters

    def test_unknown_engine_rejected(self, dataset):
        with pytest.raises(ModelError):
            select_counters(
                np.ones((10, 3)),
                ["a", "b", "c"],
                np.ones((10, 2)),
                np.ones(10),
                engine="nope",
            )


class TestStaticSelectionEquivalence:
    def test_selected_configurations_bit_identical(self, model, dataset):
        batched = select_static_configurations(model, dataset.counter_rates)
        pointwise = select_static_configurations(
            model, dataset.counter_rates, engine="pointwise"
        )
        assert set(batched) == set(dataset.counter_rates)
        assert batched == pointwise  # OperatingPoint + energy, bit-equal

    def test_empty_series_ok(self, model):
        assert select_static_configurations(model, {}) == {}


class TestRegionTunerEquivalence:
    @pytest.mark.parametrize("app_name", ["Lulesh", "Mcb"])
    def test_tuner_engines_bit_identical(self, model, app_name):
        from repro.hardware.cluster import Cluster

        app = registry.build(app_name)
        regions = tuple(r.name for r in app.candidate_regions if r.has_work)[:3]
        cluster = Cluster(2)
        batched_tuner = RegionModelTuner(model, cluster, engine="batched")
        pointwise_tuner = RegionModelTuner(model, cluster, engine="pointwise")
        batched = batched_tuner.tune(app, regions)
        pointwise = pointwise_tuner.tune(app, regions)
        assert (
            batched.phase_prediction.best_frequencies
            == pointwise.phase_prediction.best_frequencies
        )
        assert (
            batched.phase_prediction.predicted_energy
            == pointwise.phase_prediction.predicted_energy
        )
        for name in regions:
            b = batched.region_predictions[name]
            p = pointwise.region_predictions[name]
            assert b.best_frequencies == p.best_frequencies
            assert b.predicted_energy == p.predicted_energy
        assert batched.outliers() == pointwise.outliers()
