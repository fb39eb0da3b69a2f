"""AllReduce (DDP) training architecture for dedicated GPU clusters."""

from .job import AllReduceJob, AllReduceResult
from .strategies import (
    DeviceAssignment,
    GPUWorkerGroup,
    antdt_dd_assignment,
    even_assignment,
    groups_to_solver_groups,
    lb_bsp_assignment,
)

__all__ = [
    "AllReduceJob",
    "AllReduceResult",
    "DeviceAssignment",
    "GPUWorkerGroup",
    "antdt_dd_assignment",
    "even_assignment",
    "groups_to_solver_groups",
    "lb_bsp_assignment",
]
