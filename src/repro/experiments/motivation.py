"""Motivation experiments: paper Figs. 1, 2, 3, 7 and 8.

These regenerate the observations that motivate AntDT: per-node BPT traces in
a non-dedicated cluster (Fig. 1), the JCT gap between dedicated and
non-dedicated clusters under BSP and ASP (Fig. 2), the uneven data consumption
of ASP workers (Fig. 3), and the BPT-vs-batch-size curves that justify the
linear CPU model (Fig. 7) and the GPU saturation model (Fig. 8).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.hardware import CPU_WORKER_16C, GPU_P100, GPU_V100, DeviceProfile
from .stragglers import trace_scenario, worker_scenario
from .workloads import SMALL, ExperimentScale

__all__ = [
    "fig1_bpt_traces",
    "fig2_dedicated_vs_nondedicated",
    "fig3_data_consumption",
    "fig7_cpu_batch_curve",
    "fig8_gpu_batch_curve",
]


# The generators import repro.scenarios/repro.orchestrator lazily; see the
# note in framework.py.


def _trace_pattern_spec(method: str, scale: ExperimentScale, seed: int):
    """The mixed Fig. 1 straggler pattern on a non-dedicated cluster."""
    from ..scenarios import ScenarioSpec, TopologySpec

    return ScenarioSpec.for_scale(scale, name=f"fig1-trace-{method}", method=method,
                                  topology=TopologySpec(dedicated=False),
                                  stragglers=trace_scenario(), seed=seed)


def fig1_bpt_traces(scale: ExperimentScale = SMALL, seed: int = 0) -> Dict[str, Dict[str, List[Tuple[float, float]]]]:
    """Fig. 1: BPT traces of workers (1a) and servers (1b) in a non-dedicated cluster."""
    from ..orchestrator import simulate_spec

    result = simulate_spec(_trace_pattern_spec("bsp", scale, seed)).run
    workers: Dict[str, List[Tuple[float, float]]] = {}
    for worker in result.metrics.tags("bpt"):
        series = result.metrics.series("bpt", worker)
        workers[worker] = list(zip(series.times(), series.values()))
    servers: Dict[str, List[Tuple[float, float]]] = {}
    for server in result.metrics.tags("server_bpt"):
        series = result.metrics.series("server_bpt", server)
        servers[server] = list(zip(series.times(), series.values()))
    return {"workers": workers, "servers": servers, "jct": {"value": [(0.0, result.jct)]}}


def fig2_dedicated_vs_nondedicated(scale: ExperimentScale = SMALL, seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Fig. 2: JCT of BSP and ASP in dedicated vs. non-dedicated CPU clusters."""
    from ..orchestrator import simulate_spec
    from ..scenarios import ScenarioSpec

    results: Dict[str, Dict[str, float]] = {}
    for mode, method in (("BSP", "bsp"), ("ASP", "asp")):
        dedicated = simulate_spec(ScenarioSpec.for_scale(
            scale, name=f"fig2-dedicated-{method}", method=method, seed=seed)).run
        contended = simulate_spec(_trace_pattern_spec(method, scale, seed)).run
        results[mode] = {
            "dedicated_jct_s": dedicated.jct,
            "non_dedicated_jct_s": contended.jct,
            "slowdown": contended.jct / dedicated.jct if dedicated.jct > 0 else float("inf"),
        }
    return results


def fig3_data_consumption(scale: ExperimentScale = SMALL, seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Fig. 3: per-worker sample consumption and throughput under ASP with the DDS."""
    from ..orchestrator import simulate_spec
    from ..scenarios import ScenarioSpec

    result = simulate_spec(ScenarioSpec.for_scale(
        scale, name="fig3-consumption", method="asp-dds",
        stragglers=worker_scenario(0.8), seed=seed)).run
    throughput: Dict[str, float] = {}
    for worker, samples in result.consumed_per_worker.items():
        throughput[worker] = samples / result.jct if result.jct > 0 else 0.0
    return {
        "samples": {w: float(v) for w, v in result.consumed_per_worker.items()},
        "throughput": throughput,
    }


def fig7_cpu_batch_curve(batch_sizes: Sequence[int] = (1024, 2048, 4096, 6144, 8192),
                         device: DeviceProfile = CPU_WORKER_16C) -> Dict[int, float]:
    """Fig. 7: BPT vs. batch size on a CPU worker (linear)."""
    return {int(b): device.batch_time(int(b)) for b in batch_sizes}


def fig8_gpu_batch_curve(batch_sizes: Optional[Sequence[int]] = None) -> Dict[str, Dict[int, Optional[float]]]:
    """Fig. 8: BPT vs. batch size for V100 and P100 (saturation point, memory limit).

    Batch sizes past a device's memory limit map to ``None`` (OOM).
    """
    if batch_sizes is None:
        batch_sizes = [4, 8, 16, 32, 48, 64, 96, 128, 160, 192, 224]
    curves: Dict[str, Dict[int, Optional[float]]] = {}
    for device in (GPU_V100, GPU_P100):
        curve: Dict[int, Optional[float]] = {}
        for batch in batch_sizes:
            try:
                curve[int(batch)] = device.batch_time(int(batch))
            except ValueError:
                curve[int(batch)] = None
        curves[device.name] = curve
    return curves
