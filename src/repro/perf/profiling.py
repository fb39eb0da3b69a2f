"""Shared cProfile plumbing for the CLI (``REPRO_PROFILE`` / ``--profile``).

One profiling convention across ``repro sweep`` and ``repro trace``: set
``REPRO_PROFILE=1`` (or pass the command's ``--profile`` flag) and the run
executes under :mod:`cProfile`, printing the top cumulative entries to stderr
so stdout stays machine-parseable.

Profiling is in-process only: with a multi-process sweep the children's
simulation time hides inside pool-wait frames, so
:func:`warn_multiprocess_profile` tells the user to re-run with one job.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional, TextIO, TypeVar

from ..core.config import PROFILE_ENV, profiling_env_enabled

__all__ = ["PROFILE_ENV", "profiling_requested", "run_profiled",
           "warn_multiprocess_profile"]

_T = TypeVar("_T")


def profiling_requested(flag: bool = False) -> bool:
    """True when ``flag`` (a driver's ``--profile``) or the env var asks."""
    if flag:
        return True
    return profiling_env_enabled()


def run_profiled(work: Callable[[], _T], top: int = 20,
                 stream: Optional[TextIO] = None) -> _T:
    """Run ``work`` under cProfile; print the top cumulative entries.

    The table goes to ``stream`` (default stderr) so drivers with JSON
    stdout stay machine-parseable.  The work's return value passes through.
    """
    import cProfile
    import pstats

    stream = stream if stream is not None else sys.stderr
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return work()
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative")
        print(f"\n--- profile (top {top} by cumulative time) ---", file=stream)
        stats.print_stats(top)


def warn_multiprocess_profile(jobs: int,
                              stream: Optional[TextIO] = None) -> None:
    """Warn that profiling a multi-process run measures only the parent."""
    if jobs > 1:
        print(f"warning: profiling with --jobs {jobs}: child processes' "
              "simulation time hides in pool-wait frames; re-run with "
              "--jobs 1 for actionable numbers", file=stream or sys.stderr)
