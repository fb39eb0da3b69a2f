"""Experiment harness: workloads, straggler scenarios, and figure generators."""

from .evaluation_dd import fig15_gpu_jct, gpu_strategy_results, run_gpu_strategy
from .evaluation_nd import (
    fig10_bsp_jct,
    fig11_asp_jct,
    fig12_batch_size_trajectory,
    fig13_bpt_trajectory,
    fig14_server_recovery,
    table3_intensity_sweep,
)
from .framework import fig16_shard_agility, fig17_failover_delay, fig18_overhead, integrity_report
from .motivation import (
    fig1_bpt_traces,
    fig2_dedicated_vs_nondedicated,
    fig3_data_consumption,
    fig7_cpu_batch_curve,
    fig8_gpu_batch_curve,
)
from .production import JobMixEntry, fig19_production_ab, make_job_mix
from .reporting import format_table, percent_faster, speedup
from .stragglers import (
    NO_STRAGGLERS,
    StragglerScenario,
    apply_scenario,
    apply_trace_pattern,
    server_scenario,
    trace_scenario,
    worker_scenario,
)
from .workloads import (
    LARGE,
    MEDIUM,
    SCALES,
    SMALL,
    ExperimentScale,
    antdt_config,
    make_cpu_cluster,
    make_gpu_groups,
    pending_model,
    ps_job_config,
)

__all__ = [
    "ExperimentScale",
    "JobMixEntry",
    "LARGE",
    "MEDIUM",
    "NO_STRAGGLERS",
    "SCALES",
    "SMALL",
    "StragglerScenario",
    "antdt_config",
    "apply_scenario",
    "apply_trace_pattern",
    "fig10_bsp_jct",
    "fig11_asp_jct",
    "fig12_batch_size_trajectory",
    "fig13_bpt_trajectory",
    "fig14_server_recovery",
    "fig15_gpu_jct",
    "fig16_shard_agility",
    "fig17_failover_delay",
    "fig18_overhead",
    "fig19_production_ab",
    "fig1_bpt_traces",
    "fig2_dedicated_vs_nondedicated",
    "fig3_data_consumption",
    "fig7_cpu_batch_curve",
    "fig8_gpu_batch_curve",
    "format_table",
    "gpu_strategy_results",
    "integrity_report",
    "make_cpu_cluster",
    "make_gpu_groups",
    "make_job_mix",
    "pending_model",
    "percent_faster",
    "ps_job_config",
    "run_gpu_strategy",
    "server_scenario",
    "speedup",
    "table3_intensity_sweep",
    "trace_scenario",
    "worker_scenario",
]
