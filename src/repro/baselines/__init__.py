"""Baseline straggler-mitigation methods and the PS method registry."""

from .registry import PS_METHODS, PSMethod, asp_methods, bsp_methods, get_method
from .solutions import AdjustLRSolution, LBBSPSolution

__all__ = [
    "AdjustLRSolution",
    "LBBSPSolution",
    "PSMethod",
    "PS_METHODS",
    "asp_methods",
    "bsp_methods",
    "get_method",
]
