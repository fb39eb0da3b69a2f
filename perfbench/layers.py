"""Per-layer split of a traced run: self-time shares by layer, plus exact counts.

The benchmark's traced mode runs a workload's timed section under cProfile
and hands the profile to :func:`split`.  Each profiled function belongs to
the layer of its module (:data:`LAYERS`).  Functions outside ``repro`` -- C
builtins, the standard library, NumPy -- are charged to the layers that
called them, in proportion to the time each caller spent in them.

Self time is reported as a share of the profiled section.  A machine's speed
drifts between runs, and cProfile inflates every Python call.  A share
cancels both, so it compares across runs in a way seconds under the
profiler would not.

Counts come from cProfile's call counts, where a generator resume counts as a
call, and from the wrappers :func:`install_counters` adds for the counts that
depend on a return value.  The wrappers are installed at run time in the
traced process only; nothing under ``src/`` is edited.
"""

import functools
import os
import pstats
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src") + os.sep

#: Layer -> module paths under ``src/`` (a trailing ``/`` takes a package).
LAYERS = {
    "engine": ("repro/sim/engine.py",),
    "worker": ("repro/psarch/worker.py", "repro/psarch/barrier.py",
               "repro/psarch/backend.py"),
    "dds": ("repro/core/sharding.py", "repro/core/shard.py", "repro/core/shuffler.py"),
    "fanout": ("repro/psarch/job.py",),
    "server": ("repro/psarch/server.py",),
    "serving": ("repro/serving/",),
    "control": ("repro/core/agent.py", "repro/core/monitor.py", "repro/core/controller.py",
                "repro/core/detection.py", "repro/core/solvers.py", "repro/core/solutions/",
                "repro/core/actions.py", "repro/elastic/"),
    "metrics": ("repro/sim/metrics.py",),
    "fingerprint": ("repro/scenarios/fingerprint.py",),
    "setup": ("repro/scenarios/matrix.py", "repro/scenarios/spec.py",
              "repro/scenarios/registry.py", "repro/experiments/"),
    "orchestrator": ("repro/orchestrator/",),
}

#: Count -> (module path, function name) whose cProfile call count it is.
CALLS = {
    "engine.resumes": ("repro/sim/engine.py", "_resume"),
    "worker.resumes": ("repro/psarch/worker.py", "run"),
    "dds.mark_done_calls": ("repro/core/sharding.py", "mark_done"),
    "dds.return_range_calls": ("repro/core/sharding.py", "return_range"),
    "server.submits": ("repro/psarch/server.py", "submit"),
    "server.cohort_changes": ("repro/psarch/server.py", "on_cohort_change"),
    "control.agent_polls": ("repro/core/agent.py", "poll"),
    "control.controller_steps": ("repro/core/controller.py", "control_step"),
    "control.autoscaler_rounds": ("repro/elastic/autoscaler.py", "control_step"),
    "metrics.appends": ("repro/sim/metrics.py", "append"),
    "fingerprint.calls": ("repro/scenarios/fingerprint.py", "fingerprint"),
}

#: Share -> (module path, function name) whose cumulative time it is.
CUMULATIVE = {
    "orchestrator.store_put_share": ("repro/orchestrator/store.py", "put"),
    "orchestrator.store_get_share": ("repro/orchestrator/store.py", "get"),
}


def install_counters():
    """Wrap the allocators' ``next_range`` and the job's ``push_fanout``.

    Returns the dict the wrappers count into.  Call before the job is built:
    workers look ``push_fanout`` up once, when their loop starts.
    """
    from repro.core.sharding import StatefulDDS, StaticPartition
    from repro.psarch.job import PSTrainingJob

    counts = defaultdict(int)

    def count_next_range(next_range):
        def counted(self, worker, max_samples):
            sample_range = next_range(self, worker, max_samples)
            counts["next_range"] += 1
            counts["next_range_empty"] += sample_range is None
            return sample_range
        return counted

    for allocator in (StatefulDDS, StaticPartition):
        allocator.next_range = count_next_range(allocator.next_range)

    push_fanout = PSTrainingJob.push_fanout

    def counted_push_fanout(self, worker, nbytes, targets, latch):
        committed = push_fanout(self, worker, nbytes, targets, latch)
        counts["push_fanout"] += 1
        counts["push_fanout_committed"] += committed
        return committed

    PSTrainingJob.push_fanout = counted_push_fanout
    return counts


@functools.lru_cache(maxsize=None)
def _layer_of(filename):
    """The layer a function's file belongs to; None when its callers pay for it."""
    path = _module_path(filename)
    if path is not None:
        for layer, prefixes in LAYERS.items():
            if path.startswith(prefixes):
                return layer
        return "other"
    if filename.startswith("~") or filename.startswith("<"):
        return None
    resolved = Path(filename).resolve()
    if resolved == Path(__file__).resolve():
        return "trace"
    if resolved.parent == HERE:
        return "other"  # the benchmark's own checks
    return None


def _module_path(filename):
    return filename[len(SRC):].replace(os.sep, "/") if filename.startswith(SRC) else None


def _ratio(part, whole):
    return part / whole if whole else 0.0


def split(profiler, counts):
    """Self-time shares, call counts and ratios from one traced timed section."""
    stats = pstats.Stats(profiler).stats
    owners = {}

    def owner_shares(key, active):
        """Layer -> share of ``key``'s self time that layer is charged."""
        if key in owners:
            return owners[key]
        layer = _layer_of(key[0])
        if layer is not None:
            shares = {layer: 1.0}
        elif key in active or key not in stats:
            shares = {"other": 1.0}
        else:
            callers = stats[key][4]
            total = sum(edge[3] for edge in callers.values())
            if total <= 0:
                shares = {"other": 1.0}
            else:
                active.add(key)
                shares = defaultdict(float)
                for caller, edge in callers.items():
                    for owner, share in owner_shares(caller, active).items():
                        shares[owner] += share * edge[3] / total
                active.discard(key)
        owners[key] = shares
        return shares

    self_time = defaultdict(float)
    calls = defaultdict(int)
    cumulative = defaultdict(float)
    for key, (_, nc, tt, ct, _) in stats.items():
        for owner, share in owner_shares(key, set()).items():
            self_time[owner] += tt * share
        site = (_module_path(key[0]), key[2])
        calls[site] += nc
        cumulative[site] += ct
    profiled = sum(self_time.values()) - self_time["trace"]

    result = {f"{layer}.self_share": _ratio(self_time[layer], profiled)
              for layer in (*LAYERS, "other")}
    result.update({name: calls[site] for name, site in CALLS.items()})
    result.update({name: _ratio(cumulative[site], profiled)
                   for name, site in CUMULATIVE.items()})
    result.update({
        "dds.next_range_calls": counts["next_range"],
        "dds.empty_share": _ratio(counts["next_range_empty"], counts["next_range"]),
        "fanout.calls": counts["push_fanout"],
        "fanout.commit_share": _ratio(counts["push_fanout_committed"], counts["push_fanout"]),
    })
    return result
