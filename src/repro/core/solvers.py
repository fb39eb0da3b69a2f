"""Batch-size optimisation solver (paper Eq. 3).

``ADJUST_BS`` for CPU workers reduces to the min-max problem of Eq. 2/3:
minimise the slowest worker's compute time subject to a fixed global batch.
Because CPU compute time is linear in batch size, the continuous optimum is
simply proportional allocation ``B_i ∝ v_i``; :func:`solve_batch_sizes` adds
integer rounding and lower bounds while keeping the global batch exact.

AntDT-DD's Eq. 4 (per-device batch sizes plus gradient-accumulation counts
for heterogeneous GPU groups) is not solved here:
:func:`repro.allreduce.strategies.antdt_dd_assignment` picks both directly,
anchoring the synchronisation period on the slowest device series.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

__all__ = ["solve_batch_sizes"]


def solve_batch_sizes(
    throughputs: Mapping[str, float],
    global_batch: int,
    min_batch: int = 1,
    max_batch: Optional[Mapping[str, int]] = None,
) -> Dict[str, int]:
    """Solve Eq. 3: integer batch sizes proportional to worker throughput.

    Parameters
    ----------
    throughputs:
        Estimated samples/second ``v_i`` per worker over the short window.
    global_batch:
        The fixed global batch size ``B``.
    min_batch:
        Lower bound on any per-worker batch size.
    max_batch:
        Optional per-worker upper bounds (e.g. GPU memory limits).

    Returns
    -------
    dict
        Per-worker batch sizes that sum exactly to ``global_batch``.
    """
    if global_batch <= 0:
        raise ValueError("global_batch must be positive")
    if min_batch <= 0:
        raise ValueError("min_batch must be positive")
    workers = sorted(throughputs)
    if not workers:
        raise ValueError("at least one worker is required")
    if any(throughputs[w] <= 0 for w in workers):
        raise ValueError("all throughputs must be positive")
    if min_batch * len(workers) > global_batch:
        raise ValueError(
            f"infeasible: {len(workers)} workers x min_batch {min_batch} exceeds "
            f"global batch {global_batch}"
        )

    total_speed = sum(throughputs[w] for w in workers)
    ideal = {w: global_batch * throughputs[w] / total_speed for w in workers}

    # Clamp to bounds, floor to integers.
    sizes: Dict[str, int] = {}
    for worker in workers:
        upper = max_batch.get(worker, global_batch) if max_batch else global_batch
        sizes[worker] = int(min(max(min_batch, int(ideal[worker])), upper))

    # Repair the sum so it is exactly the global batch.
    def _upper(worker: str) -> int:
        return max_batch.get(worker, global_batch) if max_batch else global_batch

    deficit = global_batch - sum(sizes.values())
    # Distribute surplus to the fastest workers first, remove from the slowest.
    by_speed = sorted(workers, key=lambda w: throughputs[w], reverse=True)
    guard = 0
    while deficit != 0:
        guard += 1
        if guard > 10 * global_batch + 100:
            raise RuntimeError("batch-size repair did not converge")
        progressed = False
        if deficit > 0:
            for worker in by_speed:
                if deficit == 0:
                    break
                if sizes[worker] < _upper(worker):
                    sizes[worker] += 1
                    deficit -= 1
                    progressed = True
        else:
            for worker in reversed(by_speed):
                if deficit == 0:
                    break
                if sizes[worker] > min_batch:
                    sizes[worker] -= 1
                    deficit += 1
                    progressed = True
        if not progressed:
            raise ValueError("bounds make the global batch size infeasible")
    return sizes
