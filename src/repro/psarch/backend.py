"""The compute backend: what actually happens when a worker "trains" a batch.

A job without a backend trains nothing: all timing comes from the device cost
models, which is exactly what the JCT experiments need and keeps even the
1000-worker runs cheap.  With a :class:`NumpyPSBackend` attached a real NumPy
model is trained: the worker computes gradients on the actual rows named by
its DDS sample range and the (logical) servers apply them with the configured
optimizer, and the run reports the model's AUC.  Used by the AUC /
data-integrity experiments (paper §VII-D).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.shard import SampleRange
from ..core.shuffler import ShardShuffler
from ..ml.data.dataset import TabularDataset
from ..ml.losses import bce_with_logits
from ..ml.metrics import auc
from ..ml.models.base import Model
from ..ml.optim import Optimizer

__all__ = ["NumpyPSBackend"]


class NumpyPSBackend:
    """Backend that really trains a NumPy model.

    The model parameters conceptually live on the servers; the simulation's
    server nodes only add timing, while this backend holds the single logical
    copy of the parameters (which is what a sharded PS amounts to
    functionally).
    """

    def __init__(self, model: Model, optimizer: Optimizer, dataset: TabularDataset,
                 shuffler: Optional[ShardShuffler] = None,
                 test_dataset: Optional[TabularDataset] = None) -> None:
        self.model = model
        self.optimizer = optimizer
        self.dataset = dataset
        self.test_dataset = test_dataset
        self.shuffler = shuffler if shuffler is not None else ShardShuffler(seed=0)
        self._lr_factors: Dict[str, float] = {}

    def compute_gradient(self, worker: str, sample_range: SampleRange) -> object:
        """Produce the worker-side gradient payload for one batch."""
        indices = self.shuffler.sample_indices(sample_range) % len(self.dataset)
        batch = self.dataset.read_indices(indices)
        _, grads = self.model.loss_and_gradients(batch, bce_with_logits)
        return grads

    def apply_gradient(self, worker: str, payload: object, weight: float) -> None:
        """Server-side: fold an accepted payload into the global model."""
        factor = self._lr_factors.get(worker, 1.0)
        scaled = {name: grad * (weight * factor) for name, grad in payload.items()}
        self.optimizer.step(scaled)

    def scale_learning_rate(self, worker: str, factor: float) -> None:
        """Apply the ADJUST_LR action for one worker."""
        self._lr_factors[worker] = self._lr_factors.get(worker, 1.0) * factor

    def evaluate(self) -> float:
        """AUC on the held-out dataset (or the training data if none given)."""
        dataset = self.test_dataset if self.test_dataset is not None else self.dataset
        scores = []
        labels = []
        for batch in dataset.iter_batches(batch_size=4096):
            scores.append(self.model.predict_proba(batch))
            labels.append(batch.labels)
        return auc(np.concatenate(labels), np.concatenate(scores))
