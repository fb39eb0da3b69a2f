"""Loss functions for the NumPy mini deep-learning substrate.

Each loss returns both the scalar loss value and the gradient with respect to
the model's logits, so models only need to implement a backward pass from the
logit gradient.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["sigmoid", "bce_with_logits"]


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def bce_with_logits(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Binary cross-entropy on logits.

    Returns the mean loss and ``d(loss)/d(logits)`` (already divided by the
    batch size, so gradients from different batch sizes are comparable).
    """
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if logits.shape != labels.shape:
        raise ValueError(f"shape mismatch: logits {logits.shape} vs labels {labels.shape}")
    n = logits.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    # log(1 + exp(-|x|)) + max(x, 0) - x*y is the stable form.
    loss = np.mean(np.maximum(logits, 0) - logits * labels + np.log1p(np.exp(-np.abs(logits))))
    probs = sigmoid(logits)
    grad = (probs - labels) / n
    return float(loss), grad
