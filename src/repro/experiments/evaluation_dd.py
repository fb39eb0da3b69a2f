"""AntDT-DD evaluation: paper Fig. 15 (heterogeneous GPU cluster).

Every strategy is a per-group assignment from
:mod:`repro.allreduce.strategies` (AntDT-DD's is
:func:`~repro.allreduce.strategies.antdt_dd_assignment`), and the JCT numbers
come from the closed-form AllReduce simulator.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..allreduce import (
    AllReduceJob,
    AllReduceResult,
    antdt_dd_assignment,
    even_assignment,
    lb_bsp_assignment,
)
from ..allreduce.strategies import GPUWorkerGroup
from ..ml.data.imagenet import ImageWorkload, imagenet_epoch
from ..ml.models.cost_models import MODEL_COSTS, ModelCostProfile
from .workloads import make_gpu_groups

__all__ = ["fig15_gpu_jct", "run_gpu_strategy", "gpu_strategy_results"]

_STRATEGIES = ("ddp", "lb-bsp", "antdt-dd")


def run_gpu_strategy(strategy: str, model: ModelCostProfile,
                     workload: Optional[ImageWorkload] = None,
                     groups: Optional[Sequence[GPUWorkerGroup]] = None,
                     global_batch_size: int = 768,
                     max_accumulation: int = 5) -> AllReduceResult:
    """Run one AllReduce strategy on the Cluster-B analogue."""
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {_STRATEGIES}")
    groups = list(groups) if groups is not None else make_gpu_groups()
    workload = workload if workload is not None else imagenet_epoch()
    job = AllReduceJob(groups, model, workload, global_batch_size=global_batch_size)
    if strategy == "ddp":
        assignment = even_assignment(groups, global_batch_size)
    elif strategy == "lb-bsp":
        assignment = lb_bsp_assignment(groups, global_batch_size, model.compute_cost)
    else:
        assignment = antdt_dd_assignment(groups, global_batch_size, model.compute_cost,
                                         max_accumulation=max_accumulation)
    return job.run(assignment, strategy=strategy)


def gpu_strategy_results(model: ModelCostProfile,
                         workload: Optional[ImageWorkload] = None,
                         global_batch_size: int = 768) -> Dict[str, AllReduceResult]:
    """All three strategies on one model (full result objects)."""
    return {
        strategy: run_gpu_strategy(strategy, model, workload=workload,
                                   global_batch_size=global_batch_size)
        for strategy in _STRATEGIES
    }


def fig15_gpu_jct(models: Sequence[str] = ("resnet101", "mobilenet_v1"),
                  workload: Optional[ImageWorkload] = None,
                  global_batch_size: int = 768) -> Dict[str, Dict[str, float]]:
    """Fig. 15: JCT of DDP / LB-BSP / AntDT-DD on ResNet-101 and MobileNets."""
    results: Dict[str, Dict[str, float]] = {}
    for model_name in models:
        model = MODEL_COSTS[model_name]
        runs = gpu_strategy_results(model, workload=workload,
                                    global_batch_size=global_batch_size)
        results[model_name] = {strategy: run.jct for strategy, run in runs.items()}
    return results
