"""Statistical evaluation metrics.

The paper assesses statistical performance with AUC (area under the ROC
curve); the data-integrity experiments check that the AUC of a run with
failovers matches the AUC of a clean run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["auc"]


def auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-statistic formulation.

    Equivalent to the probability that a random positive sample scores higher
    than a random negative one.  Ties receive half credit.
    """
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same shape")
    positives = labels > 0.5
    n_pos = int(positives.sum())
    n_neg = int(labels.shape[0] - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires at least one positive and one negative sample")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty_like(order, dtype=np.float64)
    # Average ranks over ties.
    sorted_scores = scores[order]
    i = 0
    n = len(sorted_scores)
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_rank_sum = ranks[positives].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
