"""The training-step kernel against the textbook layer-by-layer loop.

``train_network`` trains through one buffered kernel over a flat
parameter vector.  Its contract is bit identity with the loop it
replaced: per-layer forward, ReLU as ``np.where``, ``mse`` /
``mse_gradient``, a per-layer backward and ADAM updating each array on
its own.  That loop is written out here as the reference oracle, and the
kernel's trained payload (weights, scaler, losses, signs of zero
included) must equal the oracle's byte for byte.
"""

import json

import numpy as np
import pytest

from repro.errors import ModelError
from repro.modeling import training
from repro.modeling.loss import mse, mse_gradient
from repro.modeling.model_cache import model_to_payload
from repro.modeling.network import EnergyNetwork
from repro.modeling.scaler import StandardScaler
from repro.modeling.training import TrainedModel, TrainingConfig, train_network
from repro.util.rng import rng_for


def reference_gradients(weights, x, y):
    """Loss and gradients of one batch, one layer at a time."""
    n_dense = len(weights) // 2
    inputs, masks = [], []
    out = x
    for i in range(n_dense):
        inputs.append(out)
        out = out @ weights[2 * i] + weights[2 * i + 1]
        if i != n_dense - 1:
            mask = out > 0
            masks.append(mask)
            out = np.where(mask, out, 0.0)
    loss = mse(out, y)
    grad = mse_gradient(out, y)
    grads = [None] * len(weights)
    for i in reversed(range(n_dense)):
        grads[2 * i] = inputs[i].T @ grad
        grads[2 * i + 1] = np.sum(grad, axis=0)
        grad = grad @ weights[2 * i].T
        if i > 0:
            grad = grad * masks[i - 1]
    return loss, grads


def reference_train(features, targets, config):
    """The textbook loop: shuffled batches, per-layer backward and ADAM
    over each parameter array on its own."""
    scaler = StandardScaler()
    x = scaler.fit_transform(np.asarray(features, dtype=float))
    y = np.asarray(targets, dtype=float)[:, None]
    net = EnergyNetwork(n_inputs=x.shape[1], seed=config.seed)
    params = [p.copy() for p in net.parameters]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    lr, b1, b2, eps = config.learning_rate, 0.9, 0.999, 1e-8
    rng = rng_for("training-shuffle", seed=config.seed)
    n, t, losses = x.shape[0], 0, []
    for _epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss, batches = 0.0, 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grads = reference_gradients(params, x[idx], y[idx])
            epoch_loss += loss
            batches += 1
            t += 1
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= b1
                mi += (1 - b1) * g
                vi *= b2
                vi += (1 - b2) * g * g
                m_hat = mi / (1 - b1**t)
                v_hat = vi / (1 - b2**t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        losses.append(epoch_loss / batches)
    net.set_weights(params)
    return TrainedModel(network=net, scaler=scaler, losses=losses)


def payload_json(model):
    return json.dumps(model_to_payload(model), sort_keys=True)


def regression_data(seed, rows=100):
    """A smooth target over nine features; 100 rows leave ragged tails
    for batch sizes 3 and 64."""
    rng = rng_for("kernel-test-data", rows, seed=seed)
    x = rng.uniform(-1.0, 1.0, size=(rows, 9))
    y = 1.0 + 0.3 * x[:, 0] - 0.2 * x[:, 1] ** 2 + 0.1 * x[:, 7]
    return x, y


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_kernel_matches_reference_loop(self, seed, batch_size):
        x, y = regression_data(seed)
        config = TrainingConfig(epochs=4, batch_size=batch_size, seed=seed)
        got = train_network(x, y, config=config)
        want = reference_train(x, y, config)
        assert payload_json(got) == payload_json(want)
        assert got.losses == want.losses

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_nan_pre_activation_stays_inactive(self, batch_size):
        """ReLU is ``np.where(z > 0, z, 0.0)``: a NaN feature column
        makes every first-layer pre-activation NaN, which the ReLU
        zeroes, so the losses stay finite (``np.maximum`` would
        propagate the NaN into every prediction)."""
        x, y = regression_data(1, rows=40)
        x[:, 4] = np.nan
        config = TrainingConfig(epochs=2, batch_size=batch_size, seed=1)
        got = train_network(x, y, config=config)
        want = reference_train(x, y, config)
        assert payload_json(got) == payload_json(want)
        assert np.all(np.isfinite(got.losses))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("rows", [1, 2, 7, 64])
    def test_batch_gradients_match_reference(self, rows, seed):
        """Loss and every gradient byte for byte, signs of zero
        included."""
        net = EnergyNetwork(seed=seed)
        rng = rng_for("kernel-test-batch", rows, seed=seed)
        x = rng.standard_normal((rows, 9))
        y = rng.standard_normal((rows, 1))
        loss, grads = training.batch_gradients(net.parameters, x, y)
        want_loss, want_grads = reference_gradients(net.parameters, x, y)
        assert loss == want_loss
        for got, want in zip(grads, want_grads):
            assert got.tobytes() == want.tobytes()

    def test_network_argument_receives_the_trained_weights(self):
        x, y = regression_data(2, rows=30)
        net = EnergyNetwork(seed=9)
        first_layer = net.layers[0].weights
        before = [p.copy() for p in net.parameters]
        model = train_network(x, y, config=TrainingConfig(epochs=2), network=net)
        assert model.network is net
        assert net.layers[0].weights is first_layer
        assert not np.array_equal(first_layer, before[0])


class TestChecksBeforeAnyStep:
    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        kernel = training._BatchKernel.__call__

        def counting(self, x, y):
            calls.append(x.shape)
            return kernel(self, x, y)

        monkeypatch.setattr(training._BatchKernel, "__call__", counting)
        return calls

    @pytest.mark.parametrize(
        "features, targets",
        [
            (np.ones((4, 9)), np.ones(5)),
            (np.ones(9), np.ones(9)),
            (np.ones((4, 9)), np.ones((4, 1))),
        ],
    )
    def test_shape_mismatch_rejected(self, steps, features, targets):
        with pytest.raises(ModelError):
            train_network(features, targets)
        assert steps == []

    def test_input_width_mismatch_rejected(self, steps):
        x, y = regression_data(0, rows=10)
        with pytest.raises(ModelError):
            train_network(x, y, network=EnergyNetwork(n_inputs=7))
        assert steps == []

    def test_steps_run_on_valid_input(self, steps):
        x, y = regression_data(0, rows=10)
        train_network(x, y, config=TrainingConfig(epochs=1, batch_size=4))
        assert steps == [(4, 9), (4, 9), (2, 9)]
