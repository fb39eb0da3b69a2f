"""A stack of fully-connected layers with ReLU activations: the DNN tower
inside the XDeepFM-lite model."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import Gradients

__all__ = ["DenseStack"]


class DenseStack:
    """A reusable stack of dense layers operating on raw arrays.

    This helper owns no parameters itself; it reads and writes them through a
    prefix in a shared parameter dictionary, so a composite model (XDeepFM)
    can expose a single flat parameter dict for the parameter servers.
    """

    def __init__(self, params: Dict[str, np.ndarray], prefix: str, input_dim: int,
                 hidden_dims: Sequence[int], output_dim: int, seed: int = 0) -> None:
        if input_dim <= 0 or output_dim <= 0:
            raise ValueError("input_dim and output_dim must be positive")
        rng = np.random.default_rng(seed)
        self.prefix = prefix
        self.params = params
        self.dims: List[int] = [input_dim, *list(hidden_dims), output_dim]
        for layer in range(len(self.dims) - 1):
            fan_in, fan_out = self.dims[layer], self.dims[layer + 1]
            scale = np.sqrt(2.0 / fan_in)
            params[f"{prefix}.w{layer}"] = rng.normal(0.0, scale, size=(fan_in, fan_out))
            params[f"{prefix}.b{layer}"] = np.zeros(fan_out)
        self._activations: Optional[List[np.ndarray]] = None

    @property
    def num_layers(self) -> int:
        """Number of dense layers in the stack."""
        return len(self.dims) - 1

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Forward pass; caches layer activations for backward."""
        activations = [np.asarray(inputs, dtype=np.float64)]
        hidden = activations[0]
        for layer in range(self.num_layers):
            w = self.params[f"{self.prefix}.w{layer}"]
            b = self.params[f"{self.prefix}.b{layer}"]
            hidden = hidden @ w + b
            if layer < self.num_layers - 1:
                hidden = np.maximum(hidden, 0.0)
            activations.append(hidden)
        self._activations = activations
        return hidden

    def backward(self, grad_output: np.ndarray) -> Tuple[Gradients, np.ndarray]:
        """Backward pass from the gradient of the stack output.

        Returns the parameter gradients (keyed with the stack prefix) and the
        gradient with respect to the stack input.
        """
        if self._activations is None:
            raise RuntimeError("backward called before forward")
        grads: Gradients = {}
        grad = np.asarray(grad_output, dtype=np.float64)
        for layer in reversed(range(self.num_layers)):
            inputs = self._activations[layer]
            outputs = self._activations[layer + 1]
            if layer < self.num_layers - 1:
                grad = grad * (outputs > 0.0)
            grads[f"{self.prefix}.w{layer}"] = inputs.T @ grad
            grads[f"{self.prefix}.b{layer}"] = grad.sum(axis=0)
            grad = grad @ self.params[f"{self.prefix}.w{layer}"].T
        return grads, grad
