"""Wall-clock timing primitives for the perf subsystem.

:class:`Stopwatch` measures wall time around a block of work (context manager
or explicit ``start``/``stop``).  :class:`Counter` is a grouped integer/float
counter, used for event tallies that are not tied to an
:class:`~repro.sim.engine.Environment`.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

__all__ = ["Stopwatch", "Counter"]


class Stopwatch:
    """A restartable wall-clock stopwatch based on ``time.perf_counter``.

    Example
    -------
    >>> watch = Stopwatch()
    >>> with watch:
    ...     do_work()            # doctest: +SKIP
    >>> watch.elapsed            # doctest: +SKIP
    0.123
    """

    __slots__ = ("_started_at", "_elapsed")

    def __init__(self) -> None:
        self._started_at: Optional[float] = None
        self._elapsed = 0.0

    # -- core ---------------------------------------------------------------
    def start(self) -> "Stopwatch":
        """Start (or resume) the stopwatch."""
        if self._started_at is not None:
            raise RuntimeError("stopwatch is already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop the stopwatch and return the total elapsed seconds."""
        if self._started_at is None:
            raise RuntimeError("stopwatch is not running")
        self._elapsed += time.perf_counter() - self._started_at
        self._started_at = None
        return self._elapsed

    @property
    def running(self) -> bool:
        """True while the stopwatch is started."""
        return self._started_at is not None

    @property
    def elapsed(self) -> float:
        """Total elapsed seconds (includes the in-flight interval if running)."""
        total = self._elapsed
        if self._started_at is not None:
            total += time.perf_counter() - self._started_at
        return total

    # -- context manager ------------------------------------------------------
    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"Stopwatch({state}, elapsed={self.elapsed:.6f}s)"


class Counter:
    """A named group of additive counters.

    >>> counter = Counter()
    >>> counter.add("events", 3)
    >>> counter.add("events")
    >>> counter["events"]
    4.0
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    def add(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (created at zero on first use)."""
        self._counts[name] = self._counts.get(name, 0.0) + amount

    def update(self, amounts: Dict[str, float]) -> None:
        """Add every (name, amount) pair — merging a sub-report's counters in."""
        for name, amount in amounts.items():
            self.add(name, float(amount))

    def __getitem__(self, name: str) -> float:
        return self._counts.get(name, 0.0)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of every counter."""
        return dict(self._counts)

    def __repr__(self) -> str:
        return f"Counter({self._counts!r})"
