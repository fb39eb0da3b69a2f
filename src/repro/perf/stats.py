"""Engine instrumentation: events scheduled/processed per run.

:class:`EngineStats` reads the lightweight counters the optimised
:class:`~repro.sim.engine.Environment` maintains natively
(``scheduled_count`` / ``processed_count``) and turns them into the
events-per-second figures the JSON reporter records.  It also works against
environments without native counters (e.g. the frozen seed engine snapshot)
by deriving the totals from the event-id counter and the residual heap.

With cohort coalescing the engine distinguishes two notions of "event":

* **logical events** — what the uncoalesced simulation would have processed:
  every per-worker ack, every deferred pull.  This is the BENCH-comparable
  number (identical whether coalescing is on or off) and what
  :attr:`processed` reports.
* **physical events** — actual heap pops.  With coalescing on this is much
  smaller; the logical/physical ratio is the coalescing win.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["EngineStats"]


class EngineStats:
    """Per-run event statistics for one simulation environment.

    Attach the hook before running, read the deltas after:

    >>> from repro.sim.engine import Environment
    >>> env = Environment()
    >>> stats = EngineStats(env)
    >>> _ = env.timeout(1.0); env.run()
    >>> stats.processed
    1
    """

    __slots__ = ("env", "_base_scheduled", "_base_processed",
                 "_base_coalesced")

    def __init__(self, env: Any) -> None:
        self.env = env
        self._base_scheduled = self._read_scheduled()
        self._base_processed = self._read_processed()
        self._base_coalesced = self._read_coalesced()

    @classmethod
    def absolute(cls, env: Any) -> "EngineStats":
        """Stats over the environment's whole lifetime (zero baselines)."""
        stats = cls(env)
        stats._base_scheduled = 0
        stats._base_processed = 0
        stats._base_coalesced = 0
        return stats

    # -- raw reads -----------------------------------------------------------
    def _read_scheduled(self) -> int:
        count = getattr(self.env, "scheduled_count", None)
        if count is not None:
            return int(count)
        # Seed-engine fallback: every heap entry consumed one event id, so the
        # id counter doubles as a zero-overhead scheduled-events counter.
        # Peeking copies the counter via __reduce__ rather than consuming it.
        counter = getattr(self.env, "_eid")
        return int(counter.__reduce__()[1][0])

    def _read_processed(self) -> int:
        count = getattr(self.env, "processed_count", None)
        if count is not None:
            return int(count)
        # Seed-engine fallback: scheduled minus whatever is still in the heap.
        return self._read_scheduled() - len(getattr(self.env, "_queue"))

    def _read_coalesced(self) -> int:
        # Engines without coalescing (seed snapshot) never fold events.
        return int(getattr(self.env, "coalesced_count", 0))

    # -- deltas ----------------------------------------------------------------
    @property
    def scheduled(self) -> int:
        """Events that entered the heap since construction."""
        return self._read_scheduled() - self._base_scheduled

    @property
    def physical(self) -> int:
        """Heap pops since construction."""
        return self._read_processed() - self._base_processed

    @property
    def logical(self) -> int:
        """Per-worker-semantics events: physical pops plus coalesced folds."""
        return self.physical + self._read_coalesced() - self._base_coalesced

    @property
    def processed(self) -> int:
        """Logical events since construction (BENCH-comparable across modes)."""
        return self.logical

    @property
    def coalesced_commits(self) -> int:
        """Logical events absorbed into cohort-coalesced commits."""
        return self.logical - self.physical

    def snapshot(self, wall_seconds: Optional[float] = None) -> Dict[str, float]:
        """Stats as a JSON-ready dict (adds events/sec when given wall time)."""
        result: Dict[str, float] = {
            "events_scheduled": float(self.scheduled),
            "events_processed": float(self.processed),
            "logical_events": float(self.logical),
            "physical_events": float(self.physical),
            "coalesced_commits": float(self.coalesced_commits),
            "sim_time": float(getattr(self.env, "now", 0.0)),
        }
        if wall_seconds is not None and wall_seconds > 0:
            result["wall_s"] = float(wall_seconds)
            result["events_per_sec"] = self.processed / wall_seconds
        return result

    def __repr__(self) -> str:
        return f"EngineStats(scheduled={self.scheduled}, processed={self.processed})"
