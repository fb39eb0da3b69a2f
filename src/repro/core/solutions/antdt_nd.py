"""AntDT-ND: the straggler-mitigation solution for non-dedicated clusters.

The policy follows Section VI-A of the paper:

Workers
    * Transient stragglers (short-window BPT ≥ λ · mean) are handled with the
      lightweight ``ADJUST_BS`` action: per-worker batch sizes are recomputed
      from the short-window throughputs via the Eq. 3 min-max solver.
    * Persistent stragglers (long-window BPT ≥ λ · mean) are handled with the
      heavyweight ``KILL_RESTART`` action — but only when the cluster is not
      busy (job pending time acceptable), the node has not exceeded its
      relaunch budget, and the node is not inside its post-restart cooldown.

Servers
    * Persistent server stragglers are handled with ``KILL_RESTART`` (a slow
      server inflates every worker's ``T_s`` and ``T_m``; no amount of batch
      rebalancing helps).

In ASP mode the solution only takes KILL_RESTART actions (there is no global
iteration to rebalance; the DDS already levels the data consumption).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..actions import Action, AdjustBatchSize, KillRestart, NoneAction
from ..config import ConsistencyModel
from ..controller import ControlContext
from ..detection import classify_stragglers, detect_stragglers
from ..solvers import solve_batch_sizes
from .base import Solution

__all__ = ["AntDTND"]


class AntDTND(Solution):
    """The non-dedicated-cluster solution (paper §VI-A)."""

    name = "antdt-nd"

    def __init__(self, enable_adjust_bs: bool = True, enable_kill_restart: bool = True,
                 max_restarts_per_interval: int = 1) -> None:
        if max_restarts_per_interval < 0:
            raise ValueError("max_restarts_per_interval must be non-negative")
        self.enable_adjust_bs = enable_adjust_bs
        self.enable_kill_restart = enable_kill_restart
        self.max_restarts_per_interval = max_restarts_per_interval
        self._last_batch_sizes: Optional[Dict[str, int]] = None

    def reset(self) -> None:
        self._last_batch_sizes = None

    # -- helpers -------------------------------------------------------------------
    def _eligible_for_restart(self, node: str, context: ControlContext) -> bool:
        config = context.config
        if context.restarts_of(node) >= config.max_kill_restarts_per_node:
            return False
        if context.seconds_since_restart(node) < config.kill_restart_cooldown_s:
            return False
        return True

    def _worker_actions(self, context: ControlContext) -> List[Action]:
        config = context.config
        short = {w: bpt for w, bpt in context.worker_short_bpts.items()
                 if w in context.active_workers}
        long = {w: bpt for w, bpt in context.worker_long_bpts.items()
                if w in context.active_workers}
        if not short and not long:
            return []
        groups = classify_stragglers(short, long, config.slowness_ratio)
        # Re-detect transient stragglers with the persistent ones excluded:
        # a single severe persistent straggler would otherwise inflate the
        # fleet-average BPT so much that the (milder) transient stragglers
        # never cross the λ threshold and ADJUST_BS never fires.
        if groups["persistent"]:
            filtered_short = {w: bpt for w, bpt in short.items()
                              if w not in groups["persistent"]}
            refined = detect_stragglers(filtered_short, config.slowness_ratio)
            groups["transient"] = [w for w in refined.stragglers
                                   if w not in groups["persistent"]]
        actions: List[Action] = []

        # Persistent worker stragglers -> KILL_RESTART (gated on cluster load).
        if self.enable_kill_restart and not context.cluster_busy:
            restarted = 0
            for worker in groups["persistent"]:
                if restarted >= self.max_restarts_per_interval:
                    break
                if self._eligible_for_restart(worker, context):
                    actions.append(KillRestart(node_name=worker,
                                               reason="persistent worker straggler"))
                    restarted += 1

        # Transient worker stragglers -> ADJUST_BS (BSP only).
        if (self.enable_adjust_bs
                and context.consistency is ConsistencyModel.BSP
                and groups["transient"]):
            throughputs = {w: v for w, v in context.worker_throughputs.items()
                           if w in context.active_workers and v > 0}
            if len(throughputs) == len(context.active_workers) and throughputs:
                batch_sizes = solve_batch_sizes(
                    throughputs,
                    global_batch=context.global_batch_size,
                    min_batch=config.min_batch_size,
                )
                if batch_sizes != self._last_batch_sizes:
                    self._last_batch_sizes = dict(batch_sizes)
                    actions.append(AdjustBatchSize(batch_sizes=batch_sizes))
        return actions

    def _server_actions(self, context: ControlContext) -> List[Action]:
        if not self.enable_kill_restart or context.cluster_busy:
            return []
        servers = {s: bpt for s, bpt in context.server_long_bpts.items()
                   if s in context.active_servers}
        if not servers:
            return []
        report = detect_stragglers(servers, context.config.slowness_ratio)
        actions: List[Action] = []
        restarted = 0
        for server in report.stragglers:
            if restarted >= self.max_restarts_per_interval:
                break
            if self._eligible_for_restart(server, context):
                actions.append(KillRestart(node_name=server,
                                           reason="persistent server straggler"))
                restarted += 1
        return actions

    # -- policy ----------------------------------------------------------------------
    def decide(self, context: ControlContext) -> List[Action]:
        actions: List[Action] = []
        if context.consistency is ConsistencyModel.BSP:
            actions.extend(self._worker_actions(context))
        else:
            # ASP: the DDS already balances data; only remove persistent
            # stragglers (paper: "In ASP training, AntDT-ND only takes the
            # KILL_RESTART action").
            saved = self.enable_adjust_bs
            self.enable_adjust_bs = False
            try:
                actions.extend(self._worker_actions(context))
            finally:
                self.enable_adjust_bs = saved
        actions.extend(self._server_actions(context))
        if not actions:
            return [NoneAction()]
        return actions
