"""Synthetic datasets and workload descriptors."""

from .criteo import CriteoConfig, make_criteo_like
from .dataset import Batch, TabularDataset
from .imagenet import ImageWorkload, imagenet_epoch, mini_imagenet_epoch

__all__ = [
    "Batch",
    "CriteoConfig",
    "ImageWorkload",
    "TabularDataset",
    "imagenet_epoch",
    "make_criteo_like",
    "mini_imagenet_epoch",
]
