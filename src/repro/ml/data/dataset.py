"""In-memory tabular datasets and batches.

The Stateful DDS assigns work as *(offset, length)* ranges over a sample
store; workers map those ranges back to actual rows.  :class:`TabularDataset`
plays the role of the distributed storage in the paper's Fig. 5: it holds the
dense features, categorical features and labels for the synthetic Criteo-like
and production-like workloads and can materialise any contiguous range of
rows as a :class:`Batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

__all__ = ["Batch", "TabularDataset"]


@dataclass
class Batch:
    """One mini-batch of samples.

    Attributes
    ----------
    dense:
        Dense (numeric) features of shape ``(n, num_dense)``.
    categorical:
        Integer categorical features of shape ``(n, num_fields)`` or ``None``
        for purely dense models.
    labels:
        Binary labels of shape ``(n,)``.
    indices:
        Global sample indices of the rows in this batch, used by the data
        integrity machinery to verify at-least-once semantics.
    """

    dense: np.ndarray
    labels: np.ndarray
    categorical: Optional[np.ndarray] = None
    indices: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.dense = np.asarray(self.dense, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64).reshape(-1)
        if self.dense.ndim != 2:
            raise ValueError("dense features must be 2-D")
        if self.dense.shape[0] != self.labels.shape[0]:
            raise ValueError("dense features and labels disagree on batch size")
        if self.categorical is not None:
            self.categorical = np.asarray(self.categorical, dtype=np.int64)
            if self.categorical.shape[0] != self.labels.shape[0]:
                raise ValueError("categorical features and labels disagree on batch size")
        if self.indices is not None:
            self.indices = np.asarray(self.indices, dtype=np.int64).reshape(-1)
            if self.indices.shape[0] != self.labels.shape[0]:
                raise ValueError("indices and labels disagree on batch size")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def size(self) -> int:
        """Number of samples in the batch."""
        return len(self)


class TabularDataset:
    """An indexable store of tabular samples.

    Parameters
    ----------
    dense:
        ``(N, num_dense)`` numeric features.
    labels:
        ``(N,)`` binary labels.
    categorical:
        Optional ``(N, num_fields)`` integer categorical features.
    field_cardinalities:
        Vocabulary size of each categorical field (needed by embedding models).
    name:
        Dataset name used in reports.
    """

    def __init__(
        self,
        dense: np.ndarray,
        labels: np.ndarray,
        categorical: Optional[np.ndarray] = None,
        field_cardinalities: Optional[Sequence[int]] = None,
        name: str = "dataset",
    ) -> None:
        self.dense = np.asarray(dense, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64).reshape(-1)
        self.categorical = None if categorical is None else np.asarray(categorical, dtype=np.int64)
        self.name = name
        if self.dense.ndim != 2:
            raise ValueError("dense features must be 2-D")
        if self.dense.shape[0] != self.labels.shape[0]:
            raise ValueError("dense features and labels disagree on the number of samples")
        if self.categorical is not None and self.categorical.shape[0] != self.labels.shape[0]:
            raise ValueError("categorical features and labels disagree on the number of samples")
        if field_cardinalities is not None:
            self.field_cardinalities: Optional[List[int]] = [int(c) for c in field_cardinalities]
        elif self.categorical is not None:
            self.field_cardinalities = [int(self.categorical[:, j].max()) + 1
                                        for j in range(self.categorical.shape[1])]
        else:
            self.field_cardinalities = None

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_samples(self) -> int:
        """Total number of samples."""
        return len(self)

    @property
    def num_dense(self) -> int:
        """Number of dense features."""
        return int(self.dense.shape[1])

    @property
    def num_fields(self) -> int:
        """Number of categorical fields (0 for purely dense datasets)."""
        return 0 if self.categorical is None else int(self.categorical.shape[1])

    def read_indices(self, indices: np.ndarray) -> Batch:
        """Materialise an arbitrary set of rows (used after shuffling)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self)):
            raise ValueError("indices out of range")
        categorical = None if self.categorical is None else self.categorical[indices]
        return Batch(
            dense=self.dense[indices],
            labels=self.labels[indices],
            categorical=categorical,
            indices=indices,
        )

    def iter_batches(self, batch_size: int, shuffle: bool = False,
                     rng: Optional[np.random.Generator] = None) -> Iterator[Batch]:
        """Iterate over the dataset in order (or shuffled) with a fixed batch size."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        order = np.arange(len(self), dtype=np.int64)
        if shuffle:
            generator = rng if rng is not None else np.random.default_rng(0)
            generator.shuffle(order)
        for start in range(0, len(self), batch_size):
            yield self.read_indices(order[start : start + batch_size])

    def split(self, train_fraction: float, rng: Optional[np.random.Generator] = None
              ) -> "tuple[TabularDataset, TabularDataset]":
        """Split into train/test datasets."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must lie strictly between 0 and 1")
        generator = rng if rng is not None else np.random.default_rng(0)
        order = np.arange(len(self), dtype=np.int64)
        generator.shuffle(order)
        cut = int(round(train_fraction * len(self)))
        cut = min(max(cut, 1), len(self) - 1)
        first, second = order[:cut], order[cut:]
        return self._subset(first, f"{self.name}-train"), self._subset(second, f"{self.name}-test")

    def _subset(self, indices: np.ndarray, name: str) -> "TabularDataset":
        categorical = None if self.categorical is None else self.categorical[indices]
        return TabularDataset(
            dense=self.dense[indices],
            labels=self.labels[indices],
            categorical=categorical,
            field_cardinalities=self.field_cardinalities,
            name=name,
        )
