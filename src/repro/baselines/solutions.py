"""Baseline mitigation policies expressed as AntDT solutions.

Expressing the baselines through the same :class:`~repro.core.solutions.base.Solution`
interface demonstrates the extensibility claim of the paper (any mitigation
method can be plugged into the framework, reusing the DDS and the fault
tolerance machinery) and keeps job assembly uniform across methods.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.actions import Action, AdjustBatchSize, AdjustLearningRate, NoneAction
from ..core.controller import ControlContext
from ..core.detection import detect_stragglers
from ..core.solutions.base import Solution
from ..core.solvers import solve_batch_sizes

__all__ = ["LBBSPSolution", "AdjustLRSolution"]


class LBBSPSolution(Solution):
    """LB-BSP: continuously rebalance batch sizes proportional to throughput.

    This is the batch-size updating algorithm of LB-BSP (Chen et al., SoCC'20)
    restated on top of the AntDT framework: every control interval the
    per-worker batch sizes are recomputed from the short-window throughputs.
    It never takes KILL_RESTART, which is exactly why it cannot help against
    persistent or server-side stragglers.
    """

    name = "lb-bsp"

    def __init__(self, rebalance_threshold: float = 0.05) -> None:
        if rebalance_threshold < 0:
            raise ValueError("rebalance_threshold must be non-negative")
        self.rebalance_threshold = rebalance_threshold
        self._last: Optional[Dict[str, int]] = None

    def decide(self, context: ControlContext) -> List[Action]:
        throughputs = {w: v for w, v in context.worker_throughputs.items()
                       if w in context.active_workers and v > 0}
        if not throughputs or len(throughputs) < len(context.active_workers):
            return [NoneAction()]
        sizes = solve_batch_sizes(throughputs, global_batch=context.global_batch_size,
                                  min_batch=context.config.min_batch_size)
        if self._last is not None:
            max_change = max(
                abs(sizes[w] - self._last.get(w, sizes[w])) / max(1, self._last.get(w, sizes[w]))
                for w in sizes
            )
            if max_change < self.rebalance_threshold:
                return [NoneAction()]
        self._last = dict(sizes)
        return [AdjustBatchSize(batch_sizes=sizes)]


class AdjustLRSolution(Solution):  # detlint: ignore[USE001]
    """ADJUST_LR: penalise stragglers' learning rates (optimisation baseline).

    The paper excludes this method from the timing comparison because it acts
    on statistical efficiency rather than wall-clock time, so no registered
    method runs it.  It is kept as the only producer of Table II's
    ``ADJUST_LR`` action, which the unit tests drive directly.
    """

    name = "adjust-lr"

    def __init__(self, penalty: float = 0.5) -> None:
        if not 0 < penalty <= 1.0:
            raise ValueError("penalty must lie in (0, 1]")
        self.penalty = penalty
        self._penalised: Dict[str, int] = {}

    def decide(self, context: ControlContext) -> List[Action]:
        bpts = {w: bpt for w, bpt in context.worker_short_bpts.items()
                if w in context.active_workers}
        if not bpts:
            return [NoneAction()]
        report = detect_stragglers(bpts, context.config.slowness_ratio)
        new = [w for w in report.stragglers if w not in self._penalised]
        if not new:
            return [NoneAction()]
        for worker in new:
            self._penalised[worker] = self._penalised.get(worker, 0) + 1
        return [AdjustLearningRate(factors={worker: self.penalty for worker in new})]
