"""Training loop for the energy network.

Section V-B: stochastic optimisation with ADAM, default parameters,
learning rate 1e-3; five epochs for the LOOCV study, ten for the final
deployed model (more epochs over-fit).

Training runs one step kernel, the only backward pass in the package.
At entry the network's parameters are copied into one flat float64
vector with per-layer views into it, next to one flat gradient vector
of the same layout; :class:`~repro.modeling.adam.Adam` updates the
vector as a single array.  Each step runs forward, MSE and backward
over preallocated buffers (one set per batch row count: the full batch
and the ragged tail) with ``out=`` ufuncs.  At the end the vector is
written back into the network's arrays.

Bit-identity contract: every operation is the one the textbook
layer-by-layer loop runs, in the same order and on the same shapes —
``x @ W + b``, ReLU as ``np.where(z > 0, z, 0.0)``, the MSE and its
gradient ``2 (pred - y) / n``, ``grad * mask`` through a ReLU, and
``np.add.reduce`` (what ``np.sum`` / ``np.mean`` run) for bias
gradients and the loss.  Trained weights, losses and payloads therefore
equal that loop's to the last bit, signs of zero included (pinned by
``tests/modeling/test_training_kernel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.modeling.adam import Adam, flat_views
from repro.modeling.network import EnergyNetwork
from repro.modeling.scaler import StandardScaler
from repro.util.rng import rng_for


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters (paper defaults)."""

    epochs: int = 5
    learning_rate: float = 1e-3
    batch_size: int = 1  # stochastic updates
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ModelError("epochs and batch size must be positive")
        if self.learning_rate <= 0:
            raise ModelError("learning rate must be positive")


@dataclass
class TrainedModel:
    """Network plus the scaler fitted on its training set."""

    network: EnergyNetwork
    scaler: StandardScaler
    losses: list[float]

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.network.predict(self.scaler.transform(np.atleast_2d(features)))


class _BatchKernel:
    """Forward, MSE and backward of one batch row count.

    ``weights`` and ``gradients`` are aligned ``[W1, b1, W2, b2, ...]``
    lists; ReLU sits between dense layers, not after the last.  Calling
    the kernel writes every parameter gradient in place and returns the
    batch's MSE.
    """

    def __init__(
        self, weights: list[np.ndarray], gradients: list[np.ndarray], rows: int
    ):
        widths = [w.shape[1] for w in weights[::2]]
        self._weights = weights
        self._gradients = gradients
        # Row-vector views of the biases: adding a (1, w) operand is the
        # same arithmetic as broadcasting a (w,) one, at half the call
        # cost for a one-row batch.
        self._biases = [b.reshape(1, -1) for b in weights[1::2]]
        # Pre-activations (the last one is the prediction), activations,
        # ReLU masks and the loss gradient w.r.t. each pre-activation.
        self._z = [np.empty((rows, w)) for w in widths]
        self._a = [np.empty((rows, w)) for w in widths[:-1]]
        self._masks = [np.empty((rows, w), dtype=bool) for w in widths[:-1]]
        self._dz = [np.empty((rows, w)) for w in widths]
        self._diff = np.empty((rows, widths[-1]))
        self._square = np.empty((rows, widths[-1]))
        self._size = rows * widths[-1]
        # Constant operands as arrays of the operand's shape: at these
        # sizes an array-array ufunc call costs about half a
        # scalar-operand one, and the arithmetic is the same.
        self._zeros = [np.zeros((rows, w)) for w in widths[:-1]]
        self._two = np.full((rows, widths[-1]), 2.0)
        self._sizes = np.full((rows, widths[-1]), float(self._size))

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        # Outputs are passed positionally: at 5-wide layers the per-call
        # keyword parsing of ``out=`` costs as much as the arithmetic.
        weights, gradients, biases = self._weights, self._gradients, self._biases
        zs, activations, masks, dzs = self._z, self._a, self._masks, self._dz
        last = len(zs) - 1
        inputs = x
        for i, z in enumerate(zs):
            np.matmul(inputs, weights[2 * i], z)
            np.add(z, biases[i], z)
            if i < last:
                mask, inputs = masks[i], activations[i]
                np.greater(z, self._zeros[i], mask)
                inputs.fill(0.0)
                np.copyto(inputs, z, where=mask)
        diff, square = self._diff, self._square
        np.subtract(zs[last], y, diff)
        np.multiply(diff, diff, square)
        loss = float(np.add.reduce(square, None) / self._size)
        dz = dzs[last]
        np.multiply(self._two, diff, dz)
        np.true_divide(dz, self._sizes, dz)
        for i in range(last, -1, -1):
            inputs = activations[i - 1] if i else x
            np.matmul(inputs.T, dz, gradients[2 * i])
            np.add.reduce(dz, 0, None, gradients[2 * i + 1])
            if i:
                below = dzs[i - 1]
                np.matmul(dz, weights[2 * i].T, below)
                np.multiply(below, masks[i - 1], below)
                dz = below
        return loss


def batch_gradients(
    weights: list[np.ndarray], x: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """MSE and parameter gradients of one batch, through the kernel that
    :func:`train_network` steps with.

    ``weights`` is the ``[W1, b1, W2, b2, ...]`` list of
    :attr:`EnergyNetwork.parameters`, ``x`` a ``(rows, inputs)`` batch
    and ``y`` its ``(rows, outputs)`` targets.
    """
    gradients = [np.empty_like(w) for w in weights]
    loss = _BatchKernel(weights, gradients, x.shape[0])(x, y)
    return loss, gradients


def train_network(
    features: np.ndarray,
    targets: np.ndarray,
    *,
    config: TrainingConfig = TrainingConfig(),
    network: EnergyNetwork | None = None,
) -> TrainedModel:
    """Standardise features, then fit the network with ADAM on MSE.

    Returns the trained model with its scaler and the per-epoch loss
    trajectory (useful for over-fitting analysis).
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or targets.shape != features.shape[:1]:
        raise ModelError(
            f"inconsistent training shapes: {features.shape} vs {targets.shape}"
        )
    scaler = StandardScaler()
    x = scaler.fit_transform(features)
    y = targets[:, None]
    net = network or EnergyNetwork(n_inputs=x.shape[1], seed=config.seed)
    if x.shape[1] != net.n_inputs:
        raise ModelError(f"network expects {net.n_inputs} features, got {x.shape[1]}")
    params = net.parameters
    theta = np.concatenate([p.ravel() for p in params])
    grad = np.empty_like(theta)
    weights = flat_views(theta, params)
    gradients = flat_views(grad, params)
    optimizer = Adam([theta], gradients=[grad], learning_rate=config.learning_rate)
    kernels: dict[int, _BatchKernel] = {}
    rng = rng_for("training-shuffle", seed=config.seed)
    n, batch = x.shape[0], config.batch_size
    losses: list[float] = []
    for _epoch in range(config.epochs):
        order = rng.permutation(n)
        xs, ys = x[order], y[order]
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, batch):
            stop = min(start + batch, n)
            kernel = kernels.get(stop - start)
            if kernel is None:
                kernel = kernels[stop - start] = _BatchKernel(
                    weights, gradients, stop - start
                )
            epoch_loss += kernel(xs[start:stop], ys[start:stop])
            batches += 1
            optimizer.step()
        losses.append(epoch_loss / batches)
    for p, w in zip(params, weights):
        p[...] = w
    return TrainedModel(network=net, scaler=scaler, losses=losses)
