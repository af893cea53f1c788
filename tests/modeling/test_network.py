"""Tests for the from-scratch neural network (Figure 4 architecture)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.modeling.adam import Adam
from repro.modeling.layers import Dense, ReLU
from repro.modeling.loss import mse, mse_gradient
from repro.modeling.network import EnergyNetwork
from repro.modeling.training import TrainingConfig, batch_gradients, train_network


class TestLayers:
    def test_dense_forward_shape(self):
        layer = Dense(9, 5)
        out = layer.forward(np.ones((7, 9)))
        assert out.shape == (7, 5)

    def test_dense_he_initialisation_statistics(self):
        layer = Dense(1000, 500)
        assert abs(float(layer.weights.mean())) < 0.01
        assert float(layer.weights.std()) == pytest.approx(
            np.sqrt(2.0 / 1000), rel=0.05
        )
        assert np.all(layer.bias == 0.0)

    def test_dense_gradient_check(self):
        """The training kernel's backprop gradients match numerical
        finite differences of its own loss, for every parameter."""
        rng = np.random.default_rng(0)
        net = EnergyNetwork(n_inputs=4, seed=0)
        weights = net.parameters
        # Non-zero biases keep every pre-activation off the ReLU kink
        # (a unit whose inputs are all dead would sit exactly at zero).
        for bias in weights[1::2]:
            bias[...] = rng.uniform(0.2, 0.5, size=bias.shape)
        x = rng.standard_normal((5, 4))
        target = rng.standard_normal((5, 1))
        _, grads = batch_gradients(weights, x, target)
        eps = 1e-6
        for param, analytic in zip(weights, grads):
            for cell in np.ndindex(param.shape):
                param[cell] += eps
                up, _ = batch_gradients(weights, x, target)
                param[cell] -= 2 * eps
                down, _ = batch_gradients(weights, x, target)
                param[cell] += eps
                numeric = (up - down) / (2 * eps)
                assert analytic[cell] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    def test_relu_masks_negatives(self):
        """Forward zeroes non-positive pre-activations; the kernel's
        backward passes gradient only where the pre-activation was
        positive.  Identity hidden layers expose both: the last layer's
        weight gradient is the ReLU output, the first layer's bias
        gradient the masked upstream gradient."""
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 0.0, 2.0]]))
        assert out.tolist() == [[0.0, 0.0, 2.0]]
        eye = np.eye(3)
        weights = [eye, np.zeros(3), eye, np.zeros(3), np.ones((3, 1)), np.zeros(1)]
        x = np.array([[-1.0, 0.0, 2.0]])
        # prediction 2.0, target 1.5: d(loss)/d(prediction) = 1.0
        loss, grads = batch_gradients(weights, x, np.array([[1.5]]))
        assert loss == 0.25
        assert grads[4].tolist() == [[0.0], [0.0], [2.0]]
        assert grads[1].tolist() == [0.0, 0.0, 1.0]


class TestNetworkArchitecture:
    def test_paper_architecture(self):
        """Fig. 4: 9 inputs, two hidden layers of 5 neurons, 1 output."""
        net = EnergyNetwork()
        dense = [layer for layer in net.layers if isinstance(layer, Dense)]
        relu = [layer for layer in net.layers if isinstance(layer, ReLU)]
        assert [(d.weights.shape) for d in dense] == [(9, 5), (5, 5), (5, 1)]
        assert len(relu) == 2

    def test_parameter_count(self):
        net = EnergyNetwork()
        n_params = sum(p.size for p in net.parameters)
        assert n_params == 9 * 5 + 5 + 5 * 5 + 5 + 5 * 1 + 1  # 91

    def test_predict_shape(self):
        net = EnergyNetwork()
        assert net.predict(np.ones((4, 9))).shape == (4,)

    def test_wrong_input_width_rejected(self):
        net = EnergyNetwork()
        with pytest.raises(ModelError):
            net.forward(np.ones((2, 7)))

    def test_weight_roundtrip(self):
        net = EnergyNetwork(seed=1)
        clone = EnergyNetwork.from_dict(net.to_dict())
        x = np.random.default_rng(0).standard_normal((3, 9))
        assert np.allclose(net.predict(x), clone.predict(x))

    def test_weight_shape_mismatch_rejected(self):
        net = EnergyNetwork()
        bad = [np.zeros((2, 2))] * len(net.parameters)
        with pytest.raises(ModelError):
            net.set_weights(bad)


class TestAdam:
    def test_minimises_quadratic(self):
        w = np.array([5.0, -3.0])
        opt = Adam([w], learning_rate=0.1)
        for _ in range(500):
            opt.step([2 * w])  # d/dw ||w||^2
        assert np.all(np.abs(w) < 1e-2)

    def test_invalid_learning_rate_rejected(self):
        with pytest.raises(ModelError):
            Adam([np.zeros(1)], learning_rate=0)

    def test_gradient_count_mismatch_rejected(self):
        opt = Adam([np.zeros(2)])
        with pytest.raises(ModelError):
            opt.step([np.zeros(2), np.zeros(2)])

    def test_gradient_shape_mismatch_rejected(self):
        opt = Adam([np.zeros(2), np.zeros((2, 2))])
        with pytest.raises(ModelError):
            opt.step([np.zeros(2), np.zeros(4)])

    def test_flat_update_matches_per_array_update(self):
        """One flat moment vector updates every parameter to the same
        bits as the textbook loop over the arrays one by one."""
        net = EnergyNetwork(seed=3)
        params = [p.copy() for p in net.parameters]
        reference = [p.copy() for p in net.parameters]
        m = [np.zeros_like(p) for p in reference]
        v = [np.zeros_like(p) for p in reference]
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        opt = Adam(params, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        rng = np.random.default_rng(11)
        for t in range(1, 301):
            grads = [rng.standard_normal(p.shape) for p in params]
            opt.step(grads)
            for p, g, mi, vi in zip(reference, grads, m, v):
                mi *= b1
                mi += (1 - b1) * g
                vi *= b2
                vi += (1 - b2) * g * g
                m_hat = mi / (1 - b1**t)
                v_hat = vi / (1 - b2**t)
                p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            for got, expected in zip(params, reference):
                assert np.array_equal(got, expected)
        assert opt.steps_taken == 300


class TestAllocationFreeUpdates:
    """The bound-gradient path (the training kernel's flat gradient
    vector + bound Adam) must be numerically identical to per-step list
    passing."""

    @staticmethod
    def _data():
        rng = np.random.default_rng(42)
        x = rng.standard_normal((40, 9))
        y = rng.standard_normal(40)
        return x, y

    def test_bound_optimizer_matches_explicit_gradients(self):
        """Same data, same seeds: bound-gradient stepping produces the
        exact per-epoch losses and final weights of explicit stepping."""
        x, y = self._data()
        bound = train_network(x, y, config=TrainingConfig(epochs=3, seed=0))

        # Reference loop: per-layer forward and backward on the network's
        # own arrays and a fresh gradient list passed every update, so
        # no flat vector or buffer identity is exploited.
        from repro.modeling.scaler import StandardScaler
        from repro.util.rng import rng_for

        def backprop(xb, yb):
            dense = net.layers[::2]
            inputs, masks, out = [], [], xb
            for i, layer in enumerate(dense):
                inputs.append(out)
                out = layer.forward(out)
                if i < len(dense) - 1:
                    masks.append(out > 0)
                    out = net.layers[2 * i + 1].forward(out)
            grad, grads = mse_gradient(out, yb), []
            for i in reversed(range(len(dense))):
                grads[:0] = [inputs[i].T @ grad, np.sum(grad, axis=0)]
                grad = grad @ dense[i].weights.T
                if i:
                    grad = grad * masks[i - 1]
            return mse(out, yb), grads

        scaler = StandardScaler()
        xs = scaler.fit_transform(x)
        ys = y[:, None]
        net = EnergyNetwork(n_inputs=9, seed=0)
        optimizer = Adam(net.parameters, learning_rate=1e-3)
        rng = rng_for("training-shuffle", seed=0)
        losses = []
        for _epoch in range(3):
            order = rng.permutation(40)
            epoch_loss, batches = 0.0, 0
            for start in range(0, 40, 1):
                idx = order[start : start + 1]
                loss, grads = backprop(xs[idx], ys[idx])
                epoch_loss += loss
                batches += 1
                optimizer.step(grads)
            losses.append(epoch_loss / batches)

        assert bound.losses == losses
        for got, expected in zip(bound.network.get_weights(), net.get_weights()):
            assert np.array_equal(got, expected)

    def test_step_without_bound_gradients_rejected(self):
        optimizer = Adam([np.zeros(2)])
        with pytest.raises(ModelError):
            optimizer.step()

    def test_bound_gradient_count_mismatch_rejected(self):
        with pytest.raises(ModelError):
            Adam([np.zeros(2)], gradients=[np.zeros(2), np.zeros(2)])


class TestTraining:
    def test_learns_smooth_function(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(600, 9))
        y = 1.0 + 0.3 * x[:, 0] - 0.2 * x[:, 1] ** 2 + 0.1 * x[:, 7]
        model = train_network(x, y, config=TrainingConfig(epochs=25, seed=2))
        pred = model.predict(x)
        rel = np.mean(np.abs(pred - y) / np.abs(y))
        assert rel < 0.08

    def test_loss_decreases(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(400, 9))
        y = 1.0 + 0.5 * x[:, 0]
        model = train_network(x, y, config=TrainingConfig(epochs=5))
        assert model.losses[-1] < model.losses[0]

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, size=(100, 9))
        y = x[:, 0]
        a = train_network(x, y, config=TrainingConfig(epochs=2, seed=7))
        b = train_network(x, y, config=TrainingConfig(epochs=2, seed=7))
        assert np.allclose(a.predict(x), b.predict(x))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            train_network(np.ones((4, 9)), np.ones(5))

    def test_bad_config_rejected(self):
        with pytest.raises(ModelError):
            TrainingConfig(epochs=0)
        with pytest.raises(ModelError):
            TrainingConfig(learning_rate=-1)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=100))
    def test_prediction_finite_for_any_seed(self, seed):
        net = EnergyNetwork(seed=seed)
        x = np.random.default_rng(seed).standard_normal((5, 9))
        assert np.all(np.isfinite(net.predict(x)))
