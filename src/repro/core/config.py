"""Configuration objects for the AntDT framework — and the one sanctioned
``os.environ`` surface of the whole tree.

The hyper-parameters follow Section VII-A.5 of the paper: shard granularity
``M = 100`` batches, slowness ratio ``λ = 1.5``, sliding windows ``L_trans = 5``
minutes and ``L_per = 10`` minutes, agent reports every 10 iterations and the
controller acting every 5 minutes.

Environment variables are hidden inputs to a run: every read anywhere else
in ``src/repro`` is a potential determinism escape hatch that no spec hash
or golden trace can see.  The DET004 lint rule therefore whitelists exactly
this module; every knob gets a named accessor here (and nothing else may
touch ``os.environ``), so the complete set of environmental inputs is
auditable in one screenful.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "ConsistencyModel", "AntDTConfig",
    "NO_COALESCE_ENV", "PROFILE_ENV", "JOBS_ENV", "CACHE_DIR_ENV",
    "env_text", "coalesce_default", "profiling_env_enabled",
    "jobs_env_override", "cache_dir_override",
]

# ---------------------------------------------------------------------------
# Environment knobs (the single whitelisted os.environ surface — DET004)
# ---------------------------------------------------------------------------

#: Disable the engine's cohort event coalescing (debug / equivalence runs).
NO_COALESCE_ENV = "REPRO_NO_COALESCE"
#: Run drivers under cProfile ("" and "0" mean off).
PROFILE_ENV = "REPRO_PROFILE"
#: Default parallel worker count for orchestrated sweeps.
JOBS_ENV = "REPRO_JOBS"
#: Directory the content-addressed result store lives in.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def env_text(name: str) -> Optional[str]:
    """Raw environment read — the one place ``os.environ`` is consulted."""
    return os.environ.get(name)


def coalesce_default() -> bool:
    """Engine coalescing default: on unless ``REPRO_NO_COALESCE`` is set."""
    return not env_text(NO_COALESCE_ENV)


def profiling_env_enabled() -> bool:
    """True when ``REPRO_PROFILE`` requests cProfile ("" / "0" mean off)."""
    return (env_text(PROFILE_ENV) or "") not in ("", "0")


def jobs_env_override() -> Optional[int]:
    """``REPRO_JOBS`` as an integer, or None when unset/blank."""
    raw = (env_text(JOBS_ENV) or "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{JOBS_ENV} must be an integer, got {raw!r}") from None


def cache_dir_override() -> Optional[str]:
    """``REPRO_CACHE_DIR``, or None when unset/empty."""
    return env_text(CACHE_DIR_ENV) or None


class ConsistencyModel(enum.Enum):
    """Synchronisation mode of the data-parallel job."""

    BSP = "bsp"
    ASP = "asp"


@dataclass
class AntDTConfig:
    """All knobs of the AntDT framework and its two reference solutions.

    Attributes
    ----------
    batches_per_shard:
        Shard granularity ``M``: how many (global) batches one shard holds.
    slowness_ratio:
        ``λ``: a node is a straggler when its window BPT exceeds ``λ`` times
        the average over all nodes.  The paper uses 1.5 in the evaluation.
    transient_window_s / persistent_window_s:
        ``L_trans`` and ``L_per`` sliding windows in seconds.
    report_interval_iters:
        The Agent reports application state every this many iterations.
    control_interval_s:
        The Controller aggregates and takes actions every this many seconds.
    min_batch_size:
        Lower bound for any per-worker batch size produced by ADJUST_BS.
    dds_op_overhead_s:
        Wall-clock cost of one DDS round trip (shard acquire or state report).
    agent_sync_overhead_s:
        Wall-clock cost of one agent report / local barrier synchronisation.
    kill_restart_cooldown_s:
        Minimum time between two KILL_RESTART actions on the same node, so
        the controller does not thrash a node that is still recovering.
    max_kill_restarts_per_node:
        Safety bound on relaunches of a single node.
    """

    batches_per_shard: int = 100
    slowness_ratio: float = 1.5
    transient_window_s: float = 300.0
    persistent_window_s: float = 600.0
    report_interval_iters: int = 10
    control_interval_s: float = 300.0
    min_batch_size: int = 1
    dds_op_overhead_s: float = 0.005
    agent_sync_overhead_s: float = 0.002
    kill_restart_cooldown_s: float = 1200.0
    max_kill_restarts_per_node: int = 2

    def __post_init__(self) -> None:
        if self.batches_per_shard <= 0:
            raise ValueError("batches_per_shard must be positive")
        if self.slowness_ratio <= 1.0:
            raise ValueError("slowness_ratio must be greater than 1.0")
        if self.transient_window_s <= 0 or self.persistent_window_s <= 0:
            raise ValueError("sliding windows must be positive")
        if self.transient_window_s > self.persistent_window_s:
            raise ValueError("the transient window must not exceed the persistent window")
        if self.report_interval_iters <= 0:
            raise ValueError("report_interval_iters must be positive")
        if self.control_interval_s <= 0:
            raise ValueError("control_interval_s must be positive")
        if self.min_batch_size <= 0:
            raise ValueError("min_batch_size must be positive")
        if self.dds_op_overhead_s < 0 or self.agent_sync_overhead_s < 0:
            raise ValueError("overheads must be non-negative")
