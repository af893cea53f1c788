"""ADAM optimiser [Kingma & Ba 2014] with the paper's defaults.

Section V-B: "we use the default parameters of ADAM and a learning rate
of 1e-3".
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


def flat_views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Views into ``flat``, one per array of ``like`` and shaped like it,
    laid out back to back."""
    views, start = [], 0
    for p in like:
        views.append(flat[start : start + p.size].reshape(p.shape))
        start += p.size
    return views


class Adam:
    """Adaptive moment estimation over a flat list of parameter arrays.

    ``gradients`` may be bound once at construction when the gradient
    arrays have stable identity; :meth:`step` then needs no arguments.
    Training binds one flat gradient vector to one flat parameter
    vector (``Adam([theta], gradients=[grad])``), so a step gathers and
    scatters a single array.

    The moments live in one flat float64 vector each: a step gathers the
    gradients into a flat buffer, runs the update expressions once over
    it and subtracts each parameter's slice back in place.  The
    operations are elementwise, so the result is bit-identical to
    updating every array on its own — only the per-array call overhead
    is gone.  The hyper-parameters are fixed at construction.
    """

    def __init__(
        self,
        parameters: list[np.ndarray],
        *,
        gradients: list[np.ndarray] | None = None,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if learning_rate <= 0:
            raise ModelError("learning rate must be positive")
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ModelError("betas must lie in [0, 1)")
        if gradients is not None and len(gradients) != len(parameters):
            raise ModelError(
                f"expected {len(parameters)} gradients, got {len(gradients)}"
            )
        self._params = parameters
        self._gradients = gradients
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        size = sum(p.size for p in parameters)
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._g = np.empty(size)
        self._update = np.empty(size)
        self._m_hat = np.empty(size)
        self._temp = np.empty(size)
        # The scalar factors as full-size vectors (fixed at construction):
        # on a vector this small an array-array ufunc call costs a third
        # of a scalar-operand one, and the arithmetic is the same.
        self._beta1, self._beta2 = np.full(size, beta1), np.full(size, beta2)
        self._one_minus = np.full(size, 1 - beta1), np.full(size, 1 - beta2)
        self._learning_rate = np.full(size, learning_rate)
        self._epsilon = np.full(size, epsilon)
        self._correction = np.empty(size)
        self._g_parts = flat_views(self._g, parameters)
        self._update_parts = flat_views(self._update, parameters)
        self._t = 0

    def step(self, gradients: list[np.ndarray] | None = None) -> None:
        """Apply one update; gradients default to the bound buffers."""
        if gradients is None:
            gradients = self._gradients
            if gradients is None:
                raise ModelError("no gradients passed and none bound")
        elif len(gradients) != len(self._params):
            raise ModelError(
                f"expected {len(self._params)} gradients, got {len(gradients)}"
            )
        for p, g, part in zip(self._params, gradients, self._g_parts):
            if g.shape != p.shape:
                raise ModelError(f"gradient shape {g.shape} != param {p.shape}")
            part[...] = g
        self._t += 1
        # Every expression runs into a preallocated buffer (outputs passed
        # positionally), in the textbook order of operations, so the
        # bits equal ``m = b1 m + (1 - b1) g`` ... evaluated with
        # temporaries.
        g, m, v = self._g, self._m, self._v
        temp, m_hat, update = self._temp, self._m_hat, self._update
        correction = self._correction
        np.multiply(m, self._beta1, m)
        np.add(m, np.multiply(self._one_minus[0], g, temp), m)
        np.multiply(v, self._beta2, v)
        np.multiply(np.multiply(self._one_minus[1], g, temp), g, temp)
        np.add(v, temp, v)
        correction.fill(1 - self.beta1**self._t)
        np.true_divide(m, correction, m_hat)
        correction.fill(1 - self.beta2**self._t)
        np.true_divide(v, correction, temp)  # v_hat
        np.multiply(self._learning_rate, m_hat, update)
        np.add(np.sqrt(temp, temp), self._epsilon, temp)
        np.true_divide(update, temp, update)
        for p, part in zip(self._params, self._update_parts):
            p -= part

    @property
    def steps_taken(self) -> int:
        return self._t
