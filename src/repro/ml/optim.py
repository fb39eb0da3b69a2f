"""Optimizers for the NumPy mini deep-learning substrate.

Optimizers operate on parameter dictionaries (name -> ndarray), the same
representation the simulated parameter servers shard across server nodes.
They also expose ``state_dict``, a copy of the optimizer's slots (Adagrad's
accumulators), the way a real training stack checkpoints them.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["Optimizer", "Adagrad", "scale_learning_rate"]

Params = Dict[str, np.ndarray]
Grads = Dict[str, np.ndarray]


class Optimizer:
    """Base class: holds the parameters and a (mutable) learning rate."""

    def __init__(self, params: Params, lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.lr = float(lr)
        self.steps = 0

    def step(self, grads: Grads) -> None:
        """Apply one update from a gradient dictionary."""
        raise NotImplementedError

    def _check(self, grads: Grads) -> None:
        for name in grads:
            if name not in self.params:
                raise KeyError(f"gradient for unknown parameter {name!r}")

    def state_dict(self) -> Dict[str, object]:
        """Serializable optimizer state (learning rate, step count, slots)."""
        return {"lr": self.lr, "steps": self.steps}


class Adagrad(Optimizer):
    """Adagrad: per-coordinate adaptive learning rates, common for sparse CTR models."""

    def __init__(self, params: Params, lr: float = 0.05, eps: float = 1e-10) -> None:
        super().__init__(params, lr)
        self.eps = eps
        self._accum: Dict[str, np.ndarray] = {}

    def step(self, grads: Grads) -> None:
        self._check(grads)
        for name, grad in grads.items():
            param = self.params[name]
            accum = self._accum.get(name)
            if accum is None:
                accum = np.zeros_like(param)
            accum = accum + grad * grad
            self._accum[name] = accum
            param -= self.lr * grad / (np.sqrt(accum) + self.eps)
        self.steps += 1

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state["accum"] = {name: value.copy() for name, value in self._accum.items()}
        return state


def scale_learning_rate(optimizer: Optimizer, factor: float) -> float:
    """Scale an optimizer's learning rate in place (the ADJUST_LR action).

    Returns the new learning rate.  Factors below one penalize a lagging
    worker; factors above one boost a leader.
    """
    if factor <= 0:
        raise ValueError("learning-rate factor must be positive")
    optimizer.lr *= factor
    return optimizer.lr
