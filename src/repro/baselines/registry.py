"""Registry of the Parameter-Server training methods compared in the paper.

Every method is a declarative recipe: which consistency model it runs under,
which data allocator it uses, which (if any) mitigation solution drives the
Controller, and how many backup workers it tolerates.
:func:`repro.scenarios.build_scenario_job` turns a recipe plus a
cluster/workload into a runnable :class:`~repro.psarch.job.PSTrainingJob`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.config import ConsistencyModel
from ..core.solutions import AntDTND, Solution
from .solutions import LBBSPSolution

__all__ = ["PSMethod", "PS_METHODS", "bsp_methods", "asp_methods", "get_method"]


@dataclass(frozen=True)
class PSMethod:
    """A named training method (baseline or AntDT solution)."""

    name: str
    consistency: ConsistencyModel
    allocator: str  # "dds" or "static"
    solution_factory: Optional[Callable[[], Solution]] = None
    backup_workers: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if self.allocator not in ("dds", "static"):
            raise ValueError("allocator must be 'dds' or 'static'")
        if self.backup_workers < 0:
            raise ValueError("backup_workers must be non-negative")

    def make_solution(self) -> Optional[Solution]:
        """Instantiate a fresh solution object (or None for native training)."""
        if self.solution_factory is None:
            return None
        return self.solution_factory()


def _antdt_nd() -> Solution:
    return AntDTND()


def _antdt_nd_asp() -> Solution:
    # In ASP training AntDT-ND only takes KILL_RESTART (paper §VII-A.3).
    return AntDTND(enable_adjust_bs=False)


PS_METHODS: Dict[str, PSMethod] = {
    "bsp": PSMethod(
        name="bsp",
        consistency=ConsistencyModel.BSP,
        allocator="dds",
        solution_factory=None,
        description="Native BSP training (TensorFlow PS baseline).",
    ),
    "backup-workers": PSMethod(
        name="backup-workers",
        consistency=ConsistencyModel.BSP,
        allocator="dds",
        solution_factory=None,
        backup_workers=1,
        description="Sync-OPT backup workers: drop the slowest gradient each iteration.",
    ),
    "lb-bsp": PSMethod(
        name="lb-bsp",
        consistency=ConsistencyModel.BSP,
        allocator="dds",
        solution_factory=LBBSPSolution,
        description="LB-BSP batch-size rebalancing (load-balancing baseline).",
    ),
    "antdt-nd": PSMethod(
        name="antdt-nd",
        consistency=ConsistencyModel.BSP,
        allocator="dds",
        solution_factory=_antdt_nd,
        description="AntDT-ND: ADJUST_BS for transient and KILL_RESTART for persistent stragglers.",
    ),
    "asp": PSMethod(
        name="asp",
        consistency=ConsistencyModel.ASP,
        allocator="static",
        solution_factory=None,
        description="Native ASP training with an even data partition.",
    ),
    "asp-dds": PSMethod(
        name="asp-dds",
        consistency=ConsistencyModel.ASP,
        allocator="dds",
        solution_factory=None,
        description="ASP with the Stateful DDS as data allocation.",
    ),
    "antdt-nd-asp": PSMethod(
        name="antdt-nd-asp",
        consistency=ConsistencyModel.ASP,
        allocator="dds",
        solution_factory=_antdt_nd_asp,
        description="AntDT-ND in ASP mode (KILL_RESTART only, on top of the DDS).",
    ),
}


def bsp_methods() -> List[PSMethod]:
    """The BSP-family methods compared in Fig. 10 / Fig. 19."""
    return [PS_METHODS[name] for name in ("antdt-nd", "bsp", "lb-bsp", "backup-workers")]


def asp_methods() -> List[PSMethod]:
    """The ASP-family methods compared in Fig. 11 / Fig. 19."""
    return [PS_METHODS[name] for name in ("antdt-nd-asp", "asp-dds", "asp")]


def get_method(name: str) -> PSMethod:
    """Look up a method recipe by name."""
    try:
        return PS_METHODS[name]
    except KeyError:
        raise KeyError(
            f"unknown method {name!r}; available: {sorted(PS_METHODS)}"
        ) from None
