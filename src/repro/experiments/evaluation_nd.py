"""AntDT-ND evaluation: paper Figs. 10-14 and Table III.

Every function returns plain dictionaries / row lists so the benchmarks can
print the same rows/series the paper reports and the tests can assert the
qualitative shape (method ordering, approximate speedups, recovery events).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.registry import asp_methods, bsp_methods
from .stragglers import server_scenario, worker_scenario
from .workloads import SMALL, ExperimentScale

__all__ = [
    "fig10_bsp_jct",
    "fig11_asp_jct",
    "fig12_batch_size_trajectory",
    "fig13_bpt_trajectory",
    "fig14_server_recovery",
    "table3_intensity_sweep",
]


# The generators import repro.scenarios/repro.orchestrator lazily; see the
# note in framework.py.


def _jct_matrix(methods, scale: ExperimentScale, intensity: float, seed: int
                ) -> Dict[str, Dict[str, float]]:
    from ..orchestrator import simulate_spec
    from ..scenarios import ScenarioSpec

    results: Dict[str, Dict[str, float]] = {}
    scenarios = {
        "worker": worker_scenario(intensity),
        "server": server_scenario(intensity),
    }
    for method in methods:
        results[method.name] = {}
        for side, scenario in scenarios.items():
            spec = ScenarioSpec.for_scale(scale, name=f"jct-{method.name}-{side}",
                                          method=method.name, stragglers=scenario, seed=seed)
            results[method.name][side] = simulate_spec(spec).run.jct
    return results


def fig10_bsp_jct(scale: ExperimentScale = SMALL, intensity: float = 0.8,
                  seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Fig. 10: JCT of AntDT-ND / BSP / LB-BSP / Backup Workers in BSP training."""
    return _jct_matrix(bsp_methods(), scale, intensity, seed)


def fig11_asp_jct(scale: ExperimentScale = SMALL, intensity: float = 0.8,
                  seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Fig. 11: JCT of AntDT-ND / ASP-DDS / ASP in ASP training."""
    return _jct_matrix(asp_methods(), scale, intensity, seed)


def _antdt_worker_run(scale: ExperimentScale, intensity: float, seed: int):
    from ..orchestrator import simulate_spec
    from ..scenarios import ScenarioSpec

    return simulate_spec(ScenarioSpec.for_scale(
        scale, name="antdt-nd-worker-stragglers", method="antdt-nd",
        stragglers=worker_scenario(intensity), seed=seed)).run


def fig12_batch_size_trajectory(scale: ExperimentScale = SMALL, intensity: float = 0.8,
                                seed: int = 0) -> Dict[str, List[Tuple[float, float]]]:
    """Fig. 12: per-worker batch size over time under AntDT-ND (BSP)."""
    result = _antdt_worker_run(scale, intensity, seed)
    trajectories: Dict[str, List[Tuple[float, float]]] = {}
    for worker in result.metrics.tags("batch_size"):
        series = result.metrics.series("batch_size", worker)
        trajectories[worker] = list(zip(series.times(), series.values()))
    return trajectories


def fig13_bpt_trajectory(scale: ExperimentScale = SMALL, intensity: float = 0.8,
                         seed: int = 0) -> Dict[str, object]:
    """Fig. 13: per-worker BPT over time under AntDT-ND, with KILL_RESTART events."""
    result = _antdt_worker_run(scale, intensity, seed)
    trajectories: Dict[str, List[Tuple[float, float]]] = {}
    for worker in result.metrics.tags("bpt"):
        series = result.metrics.series("bpt", worker)
        trajectories[worker] = list(zip(series.times(), series.values()))
    kills = [(time, tag) for time, kind, tag, _ in result.metrics.events("kill_restart")]
    return {"bpt": trajectories, "kill_restart_events": kills, "jct": result.jct}


def fig14_server_recovery(scale: ExperimentScale = SMALL, intensity: float = 0.8,
                          seed: int = 0, throughput_window_s: float = 20.0) -> Dict[str, object]:
    """Fig. 14: slow-server BPT and global throughput around its KILL_RESTART."""
    from ..orchestrator import simulate_spec
    from ..scenarios import ScenarioSpec

    result = simulate_spec(ScenarioSpec.for_scale(
        scale, name="fig14-server-recovery", method="antdt-nd",
        stragglers=server_scenario(intensity), seed=seed)).run
    # The injected straggler is the last server; its per-request handling time
    # is the Fig. 14 BPT curve.
    servers = result.metrics.tags("server_bpt")
    straggler = sorted(servers)[-1] if servers else ""
    bpt_series = result.metrics.series("server_bpt", straggler)
    # Global throughput: windowed derivative of the cumulative samples curve.
    samples = result.metrics.series("samples_done")
    times = samples.times()
    values = samples.values()
    throughput: List[Tuple[float, float]] = []
    window_start_index = 0
    for index in range(len(times)):
        while times[index] - times[window_start_index] > throughput_window_s:
            window_start_index += 1
        dt = times[index] - times[window_start_index]
        dv = values[index] - values[window_start_index]
        if dt > 0:
            throughput.append((times[index], dv / dt))
    kills = [(time, tag) for time, kind, tag, _ in result.metrics.events("kill_restart")]
    return {
        "straggler_server": straggler,
        "server_bpt": list(zip(bpt_series.times(), bpt_series.values())),
        "global_throughput": throughput,
        "kill_restart_events": kills,
        "jct": result.jct,
    }


def table3_intensity_sweep(scale: ExperimentScale = SMALL,
                           intensities: Sequence[float] = (0.1, 0.3, 0.5, 0.8),
                           seed: int = 0) -> List[Dict[str, float]]:
    """Table III: JCT of BSP vs AntDT-ND sweeping straggler intensity on each side."""
    from ..orchestrator import simulate_spec
    from ..scenarios import ScenarioSpec

    rows: List[Dict[str, float]] = []
    for side, scenario_factory in (("worker", worker_scenario), ("server", server_scenario)):
        for intensity in intensities:
            bsp, antdt = (
                simulate_spec(ScenarioSpec.for_scale(
                    scale, name=f"table3-{method}-{side}-{intensity}", method=method,
                    stragglers=scenario_factory(intensity), seed=seed)).run
                for method in ("bsp", "antdt-nd"))
            rows.append(
                {
                    "side": side,
                    "intensity": intensity,
                    "bsp_jct_s": bsp.jct,
                    "antdt_nd_jct_s": antdt.jct,
                    "speedup_percent": 100.0 * (bsp.jct - antdt.jct) / antdt.jct,
                }
            )
    return rows
