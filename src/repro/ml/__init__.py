"""NumPy mini deep-learning substrate.

Provides what the simulated training architectures and the data-integrity
experiments need from an ML stack: the XDeepFM-lite model with explicit
gradients, the Adagrad optimizer with checkpointable state, the binary
cross-entropy loss, the AUC metric, synthetic datasets matching the paper's
workloads, and FLOP-level cost profiles for the vision models used in the GPU
experiments.
"""

from .data import (
    Batch,
    CriteoConfig,
    ImageWorkload,
    TabularDataset,
    imagenet_epoch,
    make_criteo_like,
    mini_imagenet_epoch,
)
from .losses import bce_with_logits, sigmoid
from .metrics import auc
from .models import (
    INHOUSE_RANKING,
    MOBILENET_V1,
    MODEL_COSTS,
    RESNET101,
    XDEEPFM_CRITEO,
    DenseStack,
    Gradients,
    Model,
    ModelCostProfile,
    XDeepFMLite,
)
from .optim import Adagrad, Optimizer, scale_learning_rate

__all__ = [
    "Adagrad",
    "Batch",
    "CriteoConfig",
    "DenseStack",
    "Gradients",
    "INHOUSE_RANKING",
    "ImageWorkload",
    "MOBILENET_V1",
    "MODEL_COSTS",
    "Model",
    "ModelCostProfile",
    "Optimizer",
    "RESNET101",
    "TabularDataset",
    "XDEEPFM_CRITEO",
    "XDeepFMLite",
    "auc",
    "bce_with_logits",
    "imagenet_epoch",
    "make_criteo_like",
    "mini_imagenet_epoch",
    "scale_learning_rate",
    "sigmoid",
]
