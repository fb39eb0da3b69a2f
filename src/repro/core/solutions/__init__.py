"""Straggler-mitigation solutions built on the AntDT framework."""

from .antdt_nd import AntDTND
from .base import Solution

__all__ = ["AntDTND", "Solution"]
