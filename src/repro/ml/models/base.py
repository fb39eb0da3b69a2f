"""Base class for the NumPy models used by the reproduction.

Models expose their parameters as a flat dictionary (name -> ndarray), which
is the representation that gets sharded across the simulated parameter
servers, averaged by the AllReduce simulator, and saved by the checkpoint
subsystem.  The training contract is ``forward`` -> cached activations ->
``backward`` from the logit gradient, plus a convenience
:meth:`Model.loss_and_gradients` wrapper used by workers.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from ..losses import bce_with_logits, sigmoid
from ..data.dataset import Batch

__all__ = ["Model", "Gradients"]

Gradients = Dict[str, np.ndarray]


class Model:
    """Base class: parameter bookkeeping, state dict, loss helper."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}

    # -- parameters ---------------------------------------------------------
    def parameters(self) -> Dict[str, np.ndarray]:
        """The live parameter dictionary (mutated in place by optimizers)."""
        return self.params

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.size for p in self.params.values()))

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Deep copy of all parameters (for checkpoints)."""
        return {name: value.copy() for name, value in self.params.items()}

    # -- compute -------------------------------------------------------------
    def forward(self, batch: Batch) -> np.ndarray:
        """Compute logits for a batch; caches activations for backward."""
        raise NotImplementedError

    def backward(self, batch: Batch, grad_logits: np.ndarray) -> Gradients:
        """Gradients of the loss w.r.t. every parameter, given d(loss)/d(logits)."""
        raise NotImplementedError

    def loss_and_gradients(
        self,
        batch: Batch,
        loss_fn: Callable[[np.ndarray, np.ndarray], Tuple[float, np.ndarray]] = bce_with_logits,
    ) -> Tuple[float, Gradients]:
        """Forward + loss + backward in one call (what a worker does per batch)."""
        logits = self.forward(batch)
        loss, grad_logits = loss_fn(logits, batch.labels)
        grads = self.backward(batch, grad_logits)
        return loss, grads

    def predict_proba(self, batch: Batch) -> np.ndarray:
        """Predicted probability of the positive class."""
        return sigmoid(self.forward(batch))
