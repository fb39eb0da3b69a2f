"""Straggler detection rules.

The paper's detection rule is deliberately simple: a node is a straggler when
its sliding-window batch processing time exceeds ``λ`` times the average over
all nodes.  Applying the rule to the short window ``L_trans`` yields transient
stragglers, to the long window ``L_per`` persistent stragglers; in dedicated
heterogeneous clusters the same rule on throughput identifies deterministic
stragglers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

__all__ = ["StragglerReport", "detect_stragglers", "classify_stragglers"]


@dataclass(frozen=True)
class StragglerReport:
    """Result of one detection pass over a set of nodes."""

    stragglers: List[str]


def detect_stragglers(bpts: Mapping[str, float], slowness_ratio: float) -> StragglerReport:
    """Flag every node whose BPT is at least ``slowness_ratio`` times the mean.

    Parameters
    ----------
    bpts:
        Sliding-window mean BPT per node, as produced by
        :meth:`~repro.core.monitor.Monitor.worker_bpt_means` /
        ``server_bpt_means`` (half-open ``(now - window, now]`` windows; the
        first window of a run is widened to include observations recorded
        exactly at t=0 — see ``Monitor._window_start``).  Nodes without data
        should simply be omitted from the mapping.
    slowness_ratio:
        The λ factor (must be > 1).
    """
    if slowness_ratio <= 1.0:
        raise ValueError("slowness_ratio must be greater than 1.0")
    clean = {node: float(bpt) for node, bpt in bpts.items() if bpt is not None}
    if not clean:
        return StragglerReport(stragglers=[])
    mean_bpt = sum(clean.values()) / len(clean)
    stragglers = sorted(
        node for node, bpt in clean.items() if mean_bpt > 0 and bpt >= slowness_ratio * mean_bpt
    )
    return StragglerReport(stragglers=stragglers)


def classify_stragglers(
    short_window_bpts: Mapping[str, float],
    long_window_bpts: Mapping[str, float],
    slowness_ratio: float,
) -> Dict[str, List[str]]:
    """Split stragglers into transient and persistent sets.

    A node flagged on the long window is a *persistent* straggler (handled by
    KILL_RESTART); a node flagged only on the short window is a *transient*
    straggler (handled by ADJUST_BS).  Persistent stragglers are removed from
    the transient list so a node never receives both treatments at once.
    """
    short_report = detect_stragglers(short_window_bpts, slowness_ratio)
    long_report = detect_stragglers(long_window_bpts, slowness_ratio)
    persistent = list(long_report.stragglers)
    transient = [node for node in short_report.stragglers if node not in persistent]
    return {"transient": transient, "persistent": persistent}
