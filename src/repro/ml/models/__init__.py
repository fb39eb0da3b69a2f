"""NumPy models and model cost profiles."""

from .base import Gradients, Model
from .cost_models import (
    INHOUSE_RANKING,
    MOBILENET_V1,
    MODEL_COSTS,
    RESNET101,
    XDEEPFM_CRITEO,
    ModelCostProfile,
)
from .mlp import DenseStack
from .xdeepfm import XDeepFMLite

__all__ = [
    "DenseStack",
    "Gradients",
    "INHOUSE_RANKING",
    "MOBILENET_V1",
    "MODEL_COSTS",
    "Model",
    "ModelCostProfile",
    "RESNET101",
    "XDEEPFM_CRITEO",
    "XDeepFMLite",
]
