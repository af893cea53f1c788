"""ADAM optimiser [Kingma & Ba 2014] with the paper's defaults.

Section V-B: "we use the default parameters of ADAM and a learning rate
of 1e-3".
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


class Adam:
    """Adaptive moment estimation over a flat list of parameter arrays.

    ``gradients`` may be bound once at construction when the gradient
    arrays have stable identity (layers write into preallocated
    buffers); :meth:`step` then needs no arguments and the per-update
    list rebuild disappears from the training loop.

    The moments live in one flat float64 vector each: a step gathers the
    gradients into a flat buffer, runs the update expressions once over
    it and subtracts each parameter's slice back in place.  The
    operations are elementwise, so the result is bit-identical to
    updating every array on its own — only the per-array call overhead
    is gone.
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
        self._g_parts = self._views(self._g)
        self._update_parts = self._views(self._update)
        self._t = 0

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views into a flat buffer, shaped like the
        parameters."""
        views, start = [], 0
        for p in self._params:
            views.append(flat[start:start + p.size].reshape(p.shape))
            start += p.size
        return views

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
        b1, b2 = self.beta1, self.beta2
        g, m, v = self._g, self._m, self._v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1**self._t)
        v_hat = v / (1 - b2**self._t)
        update = np.multiply(self.learning_rate, m_hat, out=self._update)
        update /= np.sqrt(v_hat) + self.epsilon
        for p, part in zip(self._params, self._update_parts):
            p -= part

    @property
    def steps_taken(self) -> int:
        return self._t
