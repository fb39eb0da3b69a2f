"""Framework-level experiments: paper Figs. 16, 17, 18 and the data-integrity
checks of §VII-D (agility of data assignment, failover time, overhead).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..checkpoint import FailoverModel
from ..core.sharding import StatefulDDS
from ..core.shuffler import ShardShuffler
from ..ml.data.criteo import CriteoConfig, make_criteo_like
from ..ml.models.xdeepfm import XDeepFMLite
from ..ml.optim import Adagrad
from ..psarch.backend import NumpyPSBackend
from .stragglers import NO_STRAGGLERS, StragglerScenario, worker_scenario
from .workloads import SMALL, ExperimentScale

__all__ = [
    "fig16_shard_agility",
    "fig17_failover_delay",
    "fig18_overhead",
    "integrity_report",
]


# The scenario/orchestrator subsystems build *on top of* the experiments
# package (specs embed StragglerScenario, build_scenario_job assembles jobs
# from the workload presets), so every figure generator that runs a spec
# imports them lazily.  A module-level import would cycle through
# ``repro.scenarios`` -> scenarios.spec -> ``repro.experiments.__init__`` ->
# framework -> ``repro.scenarios``, and would load the orchestrator on every
# import of ``repro.experiments``.


def fig16_shard_agility(scale: ExperimentScale = SMALL, intensity: float = 0.8,
                        seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Fig. 16: shards consumed per worker against the worker's throughput (ASP-DDS)."""
    from ..orchestrator import simulate_spec
    from ..scenarios import ScenarioSpec

    spec = ScenarioSpec.for_scale(
        scale,
        name="fig16-shard-agility",
        method="asp-dds",
        stragglers=worker_scenario(intensity),
        seed=seed,
    )
    sim = simulate_spec(spec)
    job, result = sim.job, sim.run
    allocator = job.allocator
    shards = allocator.shards_taken() if isinstance(allocator, StatefulDDS) else {}
    throughput = {
        worker: samples / result.jct if result.jct > 0 else 0.0
        for worker, samples in result.consumed_per_worker.items()
    }
    return {"shards": {w: float(v) for w, v in shards.items()}, "throughput": throughput}


def fig17_failover_delay(scale: ExperimentScale = SMALL,
                         checkpoint_intervals_s: Sequence[float] = (
                             300.0, 600.0, 1200.0, 1800.0, 2400.0, 3600.0),
                         ) -> Dict[float, Dict[str, float]]:
    """Fig. 17: worker-failover delay of checkpoint-based vs DDS-based recovery.

    The DDS-based protocol only recomputes the crashed worker's in-flight
    shard; the checkpoint-based protocol rolls every worker back to the last
    checkpoint, so its delay grows with the save interval.
    """
    # Time to reprocess one shard on a healthy worker.
    from ..sim.hardware import CPU_WORKER_16C

    shard_samples = scale.per_worker_batch * 2
    shard_time = CPU_WORKER_16C.batch_time(shard_samples)
    model = FailoverModel(shard_processing_time_s=shard_time,
                          dds_sync_time_s=scale.idle_pending_time_s)
    return model.sweep_checkpoint_intervals(
        list(checkpoint_intervals_s),
        save_cost_s=scale.checkpoint_save_cost_s,
        restore_cost_s=scale.worker_recovery_s + scale.node_init_time_s,
    )


def fig18_overhead(worker_counts: Sequence[int] = (6, 12, 18), scale: ExperimentScale = SMALL,
                   intensity: float = 0.8, seed: int = 0) -> List[Dict[str, float]]:
    """Fig. 18: AntDT framework overhead (DDS + agent sync) as a fraction of JCT."""
    from ..orchestrator import simulate_spec
    from ..scenarios import ScenarioSpec, TopologySpec

    rows: List[Dict[str, float]] = []
    for count in worker_counts:
        spec = ScenarioSpec.for_scale(
            scale,
            name=f"fig18-overhead-{count}w",
            method="antdt-nd",
            topology=TopologySpec(num_workers=count),
            stragglers=worker_scenario(intensity),
            seed=seed,
        )
        sim = simulate_spec(spec)
        job, result = sim.job, sim.run
        dds_overhead = job.allocator.total_overhead_s
        sync_overhead = job.agent_group.total_overhead_s
        total = dds_overhead + sync_overhead
        rows.append(
            {
                "num_workers": float(count),
                "jct_s": result.jct,
                "dds_overhead_s": dds_overhead,
                "sync_overhead_s": sync_overhead,
                "overhead_percent": 100.0 * total / result.jct if result.jct > 0 else 0.0,
            }
        )
    return rows


#: The scaled-down workload the §VII-D integrity runs use.
INTEGRITY_SCALE = ExperimentScale(
    name="integrity",
    num_workers=4,
    num_servers=2,
    per_worker_batch=256,
    iterations=16,
    control_interval_s=5.0,
    transient_window_s=5.0,
    persistent_window_s=10.0,
    kill_restart_cooldown_s=10.0,
    idle_pending_time_s=1.0,
    node_init_time_s=2.0,
    worker_recovery_s=1.0,
    server_recovery_s=2.0,
)

#: Persistent-only worker straggler of the integrity failover run: one severe
#: constant-delay straggler (2 s on every iteration) and no transient bursts,
#: so AntDT-ND deterministically kill-restarts exactly that node.
INTEGRITY_STRAGGLER = StragglerScenario(
    name="integrity-persistent-straggler",
    side="worker",
    intensity=1.0,
    persistent_delay_s=2.0,
    transient_fraction=0.0,
)


def integrity_report(num_samples: int = 12_288, epochs: int = 1, seed: int = 7,
                     with_failover: bool = True) -> Dict[str, object]:
    """§VII-D data integrity: shard accounting and AUC with and without failovers.

    Trains the NumPy XDeepFM-lite on a synthetic Criteo-like dataset through
    the simulated BSP Parameter Server.  With ``with_failover=True`` a
    persistent worker straggler triggers a KILL_RESTART mid-run; the report
    checks that every shard still reaches DONE (at-least-once) and returns the
    test AUC for comparison against the clean run.

    The run itself is scenario-driven: a :class:`~repro.scenarios.ScenarioSpec`
    on the integrity scale, executed through the orchestrator's simulation
    front door with the real NumPy backend and per-sample coverage accounting
    layered on as overrides.
    """
    from ..orchestrator import simulate_spec
    from ..scenarios import ScenarioSpec

    dataset = make_criteo_like(CriteoConfig(num_samples=num_samples, seed=seed))
    train, test = dataset.split(0.8, rng=np.random.default_rng(seed))

    model = XDeepFMLite(
        field_cardinalities=train.field_cardinalities,
        num_dense=train.num_dense,
        embedding_dim=4,
        cin_maps=4,
        dnn_hidden=(16,),
        seed=seed,
    )
    backend = NumpyPSBackend(model=model, optimizer=Adagrad(model.parameters(), lr=0.05),
                             dataset=train, test_dataset=test,
                             shuffler=ShardShuffler(seed=seed))
    spec = ScenarioSpec.for_scale(
        INTEGRITY_SCALE,
        name="integrity-failover" if with_failover else "integrity-clean",
        method="antdt-nd" if with_failover else "bsp",
        stragglers=INTEGRITY_STRAGGLER if with_failover else NO_STRAGGLERS,
        seed=seed,
        epochs=epochs,
    )
    sim = simulate_spec(
        spec,
        backend=backend,
        evaluate_after_run=True,
        num_samples=len(train),
        track_coverage=True,
    )
    allocator = sim.job.allocator
    result = sim.run
    coverage = allocator.coverage()
    return {
        "completed": result.completed,
        "done_shards": allocator.done_shards,
        "total_shards": allocator.total_shards,
        "expected_shards": allocator.shards_per_epoch * epochs,
        "min_sample_coverage": int(coverage.min()) if coverage is not None else None,
        "duplicated_samples": int((coverage > 1).sum()) if coverage is not None else None,
        "restarts": sum(result.restarts_per_node.values()),
        "auc": result.auc,
        "jct_s": result.jct,
    }
