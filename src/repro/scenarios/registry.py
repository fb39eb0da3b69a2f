"""Named registry of built-in (and user-defined) scenarios.

Every operating condition the evaluation cares about is registered here once,
declaratively, instead of being hand-wired inside individual experiment
modules.  The built-in catalogue spans the paper's full matrix: dedicated and
non-dedicated clusters, transient / persistent / server-side / mixed-trace
stragglers, scheduler congestion, eviction storms, checkpoint-free failover,
heterogeneous hardware, and a 120-worker scale point.  Each registered
scenario is pinned to a golden trace under ``tests/golden/traces/``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..elastic.spec import ElasticSpec, ScaleEvent, ServerElasticSpec
from ..serving.spec import SERVING_PRESETS, ServingSpec, TenantSpec
from ..experiments.stragglers import (
    NO_STRAGGLERS,
    StragglerScenario,
    server_scenario,
    trace_scenario,
    worker_scenario,
)
from ..sim.failures import ErrorCode
from .spec import FailureEvent, FailureTraceSpec, ScenarioSpec, TopologySpec

__all__ = ["SCENARIOS", "register_scenario", "get_scenario", "all_scenarios",
           "has_tags", "scenario_names"]

SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, overwrite: bool = False) -> ScenarioSpec:
    """Register a scenario under its name; returns the spec for chaining."""
    if not overwrite and spec.name in SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}") from None


def has_tags(spec: ScenarioSpec, tags: Optional[Sequence[str]],
             exclude_tags: Optional[Sequence[str]]) -> bool:
    """Whether ``spec`` carries any of ``tags`` and none of ``exclude_tags``;
    ``None`` leaves that side unconstrained."""
    carried = set(spec.tags)
    if tags is not None and not carried.intersection(tags):
        return False
    return exclude_tags is None or not carried.intersection(exclude_tags)


def all_scenarios(tags: Optional[Sequence[str]] = None,
                  exclude_tags: Optional[Sequence[str]] = None) -> List[ScenarioSpec]:
    """Every registered scenario selected by :func:`has_tags`, by name.

    ``all_scenarios(tags=("non-dedicated",), exclude_tags=("slow",))`` is
    the fast non-dedicated grid.
    """
    return [SCENARIOS[name] for name in sorted(SCENARIOS)
            if has_tags(SCENARIOS[name], tags, exclude_tags)]


def scenario_names() -> List[str]:
    """Sorted names of every registered scenario."""
    return sorted(SCENARIOS)


# ---------------------------------------------------------------------------
# Built-in catalogue.  Seeds are fixed per scenario so the golden traces are
# stable; every spec must stay cheap enough for the tier-1 golden suite
# (the whole catalogue runs in a few seconds).
# ---------------------------------------------------------------------------

# -- dedicated clusters (Cluster-A analogue) --------------------------------
register_scenario(ScenarioSpec(
    name="dedicated-baseline",
    method="bsp",
    seed=1,
    description="Native BSP on a dedicated leader cluster: the clean reference run.",
    tags=("dedicated", "clean", "bsp"),
))

register_scenario(ScenarioSpec(
    name="dedicated-antdt-nd",
    method="antdt-nd",
    seed=1,
    description="AntDT-ND on a dedicated cluster: mitigation must not hurt a clean run.",
    tags=("dedicated", "clean"),
))

# -- non-dedicated clusters (Cluster-C analogue): straggler patterns --------
register_scenario(ScenarioSpec(
    name="nd-transient-mild",
    method="antdt-nd",
    seed=2,
    topology=TopologySpec(dedicated=False),
    stragglers=worker_scenario(0.3, include_persistent=False),
    description="Mild transient bursts on ~30% of the workers (no persistent straggler).",
    tags=("non-dedicated", "transient"),
))

register_scenario(ScenarioSpec(
    name="nd-transient-heavy-bsp",
    method="bsp",
    seed=2,
    topology=TopologySpec(dedicated=False),
    stragglers=worker_scenario(0.8, include_persistent=False),
    description="Heavy transient bursts under native BSP: the un-mitigated baseline.",
    tags=("non-dedicated", "transient", "bsp"),
))

register_scenario(ScenarioSpec(
    name="nd-transient-heavy-antdt",
    method="antdt-nd",
    seed=2,
    topology=TopologySpec(dedicated=False),
    stragglers=worker_scenario(0.8, include_persistent=False),
    description="Heavy transient bursts under AntDT-ND (ADJUST_BS rebalancing).",
    tags=("non-dedicated", "transient"),
))

register_scenario(ScenarioSpec(
    name="nd-persistent-worker",
    method="antdt-nd",
    seed=3,
    topology=TopologySpec(dedicated=False),
    stragglers=worker_scenario(0.8),
    description="Transient bursts plus one severe persistent worker (KILL_RESTART path).",
    tags=("non-dedicated", "persistent"),
))

register_scenario(ScenarioSpec(
    name="nd-persistent-only",
    method="antdt-nd",
    seed=3,
    topology=TopologySpec(dedicated=False),
    stragglers=StragglerScenario(
        name="persistent-only",
        side="worker",
        intensity=1.0,
        persistent_delay_s=3.0,
        transient_fraction=0.0,
    ),
    description="A single severe persistent straggler and nothing else.",
    tags=("non-dedicated", "persistent"),
))

register_scenario(ScenarioSpec(
    name="nd-server-straggler",
    method="antdt-nd",
    seed=4,
    topology=TopologySpec(dedicated=False),
    stragglers=server_scenario(0.8),
    description="One contended parameter server throttling the whole job.",
    tags=("non-dedicated", "server"),
))

register_scenario(ScenarioSpec(
    name="nd-mixed-trace",
    method="bsp",
    seed=5,
    topology=TopologySpec(dedicated=False),
    stragglers=trace_scenario(),
    description="The mixed Fig. 1 pattern: transient, persistent and deterministic "
                "workers, a slow server, background noise everywhere.",
    tags=("non-dedicated", "trace", "bsp"),
))

# -- ASP family -------------------------------------------------------------
register_scenario(ScenarioSpec(
    name="asp-uneven-consumption",
    method="asp-dds",
    seed=6,
    topology=TopologySpec(dedicated=False),
    stragglers=worker_scenario(0.8),
    description="ASP with the Stateful DDS: stragglers consume fewer samples (Fig. 3).",
    tags=("non-dedicated", "asp"),
))

register_scenario(ScenarioSpec(
    name="asp-antdt",
    method="antdt-nd-asp",
    seed=6,
    topology=TopologySpec(dedicated=False),
    stragglers=worker_scenario(0.8),
    description="AntDT-ND in ASP mode (KILL_RESTART only, on top of the DDS).",
    tags=("non-dedicated", "asp"),
))

# -- scheduler congestion ---------------------------------------------------
register_scenario(ScenarioSpec(
    name="busy-cluster-gate",
    method="antdt-nd",
    seed=7,
    topology=TopologySpec(dedicated=False, cluster_busy=True),
    stragglers=worker_scenario(0.8),
    description="Peak-hour scheduling queue: the pending-time gate must veto "
                "KILL_RESTART and fall back to ADJUST_BS.",
    tags=("non-dedicated", "busy"),
))

# -- failure traces ---------------------------------------------------------
register_scenario(ScenarioSpec(
    name="eviction-storm",
    method="antdt-nd",
    seed=8,
    topology=TopologySpec(dedicated=False),
    stragglers=worker_scenario(0.5, include_persistent=False),
    failures=FailureTraceSpec(
        events=FailureTraceSpec.storm(
            ("worker-1", "worker-2", "worker-3"), start_s=30.0, interval_s=15.0,
            code=ErrorCode.JOB_EVICTION,
        ).events + (
            FailureEvent(time_s=90.0, node="worker-0",
                         code=ErrorCode.MACHINE_FAILURE.value),
        ),
    ),
    description="The cluster scheduler reclaims capacity: three evictions in a row "
                "plus a machine fault, all mid-epoch; the DDS must requeue every "
                "in-flight shard.",
    tags=("non-dedicated", "failures", "eviction"),
))

register_scenario(ScenarioSpec(
    name="checkpoint-failover",
    method="bsp",
    seed=9,
    failures=FailureTraceSpec(events=(
        FailureEvent(time_s=60.0, node="worker-2",
                     code=ErrorCode.MACHINE_FAILURE.value),
    )),
    description="A single machine fault mid-epoch on an otherwise clean run: the "
                "DDS-based failover recomputes only the crashed worker's shard "
                "(Fig. 17's protocol comparison).",
    tags=("dedicated", "failures", "checkpoint"),
))

register_scenario(ScenarioSpec(
    name="server-eviction",
    method="antdt-nd",
    seed=10,
    failures=FailureTraceSpec(events=(
        FailureEvent(time_s=50.0, node="server-1",
                     code=ErrorCode.JOB_EVICTION.value),
    )),
    description="A parameter server is evicted mid-run; its queue must drain to "
                "the relaunched pod without losing a push.",
    tags=("dedicated", "failures", "server"),
))

# -- heterogeneous hardware -------------------------------------------------
register_scenario(ScenarioSpec(
    name="hetero-static-partition",
    method="asp",
    seed=11,
    topology=TopologySpec(slow_worker_fraction=1.0 / 3.0, slow_factor=2.5),
    stragglers=NO_STRAGGLERS,
    description="A third of the workers on an older machine series under a static "
                "even partition: deterministic stragglers dominate the tail.",
    tags=("hetero", "asp"),
))

# -- elastic membership -----------------------------------------------------
register_scenario(ScenarioSpec(
    name="elastic-scale-out",
    method="bsp",
    seed=13,
    elastic=ElasticSpec(events=(
        ScaleEvent(time_s=30.0, action="out", count=2),
    )),
    description="Two extra workers requested mid-epoch on an idle dedicated "
                "cluster: they ride the pending queue, join the barrier, and "
                "the DDS feeds them without losing or duplicating a sample.",
    tags=("dedicated", "elastic", "bsp"),
))

register_scenario(ScenarioSpec(
    name="elastic-scale-out-busy",
    method="antdt-nd",
    seed=14,
    topology=TopologySpec(dedicated=False, cluster_busy=True),
    stragglers=worker_scenario(0.5, include_persistent=False),
    elastic=ElasticSpec(events=(
        ScaleEvent(time_s=30.0, action="out", count=2),
    )),
    description="Scale-out requested at peak hour: the scheduler's pending "
                "time exceeds the job's remaining runtime, so the capacity "
                "never arrives (the busy-cluster gate, elastically).",
    tags=("non-dedicated", "elastic", "busy"),
))

register_scenario(ScenarioSpec(
    name="elastic-scale-in-straggler",
    method="bsp",
    seed=15,
    topology=TopologySpec(dedicated=False),
    stragglers=StragglerScenario(
        name="persistent-only",
        side="worker",
        intensity=1.0,
        persistent_delay_s=3.0,
        transient_fraction=0.0,
    ),
    elastic=ElasticSpec(policy="straggler-pressure", interval_s=25.0,
                        cooldown_s=50.0, min_workers=4),
    description="The straggler-pressure autoscaler retires a persistent "
                "straggler instead of dragging it: the DDS requeues its "
                "in-flight shard and the healthy fleet absorbs the data.",
    tags=("non-dedicated", "elastic", "persistent"),
))

register_scenario(ScenarioSpec(
    name="elastic-churn-storm",
    method="antdt-nd",
    seed=16,
    topology=TopologySpec(dedicated=False),
    stragglers=worker_scenario(0.5, include_persistent=False),
    elastic=ElasticSpec(events=(
        ScaleEvent(time_s=25.0, action="out", count=2),
        ScaleEvent(time_s=45.0, action="out", count=1),
        ScaleEvent(time_s=70.0, action="in", count=2),
        ScaleEvent(time_s=95.0, action="out", count=1),
    )),
    description="Repeated membership churn mid-epoch — joins and graceful "
                "retirements interleaved with transient stragglers — while "
                "shard accounting must stay balanced throughout.",
    tags=("non-dedicated", "elastic", "churn"),
))

register_scenario(ScenarioSpec(
    name="elastic-checkpoint-failover",
    method="bsp",
    seed=17,
    failures=FailureTraceSpec(events=(
        FailureEvent(time_s=60.0, node="worker-2",
                     code=ErrorCode.MACHINE_FAILURE.value),
    )),
    elastic=ElasticSpec(events=(
        ScaleEvent(time_s=25.0, action="out", count=1),
    )),
    description="Elastic join plus a machine fault on an original worker: "
                "the failover requeue and the elastic re-sharding compose "
                "without losing a sample.",
    tags=("dedicated", "elastic", "failures", "checkpoint"),
))

register_scenario(ScenarioSpec(
    name="elastic-scheduled-capacity",
    method="asp-dds",
    seed=18,
    elastic=ElasticSpec(policy="scheduled-capacity",
                        policy_params=(("schedule", [[0.0, 6], [30.0, 9],
                                                     [70.0, 6]]),),
                        interval_s=15.0, max_workers=10),
    description="A deterministic capacity plan (grow to 9 workers at t=30, "
                "shrink back at t=70) driven by the scheduled-capacity "
                "autoscaler under ASP training.",
    tags=("dedicated", "elastic", "asp", "schedule"),
))

register_scenario(ScenarioSpec(
    name="elastic-autoscale-utilization",
    method="asp-dds",
    seed=19,
    topology=TopologySpec(dedicated=False),
    stragglers=worker_scenario(0.3, include_persistent=False),
    elastic=ElasticSpec(policy="utilization",
                        policy_params=(("scale_out_horizon_s", 60.0),
                                       ("scale_in_horizon_s", 10.0)),
                        interval_s=20.0, max_workers=9),
    description="The utilization autoscaler grows the fleet while the "
                "estimated time-to-finish exceeds its horizon and retires "
                "the newest workers as the backlog drains.",
    tags=("non-dedicated", "elastic", "asp"),
))

# -- elastic server membership ----------------------------------------------
register_scenario(ScenarioSpec(
    name="elastic-server-scale-out",
    method="antdt-nd",
    seed=20,
    topology=TopologySpec(dedicated=False),
    stragglers=server_scenario(0.8),
    elastic=ElasticSpec(servers=ServerElasticSpec(events=(
        ScaleEvent(time_s=30.0, action="out", count=1),
    ))),
    description="One extra parameter server requested while a contended "
                "server throttles the job: the newcomer receives its slice "
                "of the rendezvous shard map and workers spread subsequent "
                "pushes over the grown tier.",
    tags=("non-dedicated", "elastic", "elastic-server", "server"),
))

register_scenario(ScenarioSpec(
    name="elastic-server-retire-replace",
    method="antdt-nd",
    seed=21,
    topology=TopologySpec(dedicated=False),
    stragglers=server_scenario(0.8),
    elastic=ElasticSpec(
        interval_s=25.0, cooldown_s=50.0,
        servers=ServerElasticSpec(policy="contended-server",
                                  policy_params=(("replace", True),),
                                  max_servers=5)),
    description="The contended-server autoscaler retires the persistently "
                "contended server — the one fault class where only "
                "KILL_RESTART used to help — and requests a healthy "
                "replacement while the pending-time forecast allows it.",
    tags=("non-dedicated", "elastic", "elastic-server", "server"),
))

register_scenario(ScenarioSpec(
    name="elastic-server-churn",
    method="bsp",
    seed=22,
    topology=TopologySpec(dedicated=False),
    stragglers=worker_scenario(0.5, include_persistent=False),
    elastic=ElasticSpec(
        events=(ScaleEvent(time_s=20.0, action="out", count=2),
                ScaleEvent(time_s=70.0, action="in", count=2)),
        servers=ServerElasticSpec(events=(
            ScaleEvent(time_s=35.0, action="out", count=1),
            ScaleEvent(time_s=90.0, action="in", count=1),
        ))),
    description="Worker churn and server churn combined mid-epoch: the DDS "
                "requeue, the barrier membership and the parameter shard map "
                "all re-partition while shard accounting stays balanced.",
    tags=("non-dedicated", "elastic", "elastic-server", "churn"),
))

register_scenario(ScenarioSpec(
    name="elastic-server-busy-gate",
    method="antdt-nd",
    seed=23,
    topology=TopologySpec(dedicated=False, cluster_busy=True),
    stragglers=server_scenario(0.8),
    elastic=ElasticSpec(servers=ServerElasticSpec(events=(
        ScaleEvent(time_s=30.0, action="out", count=1),
    ))),
    description="Server capacity requested at peak hour: the scheduler's "
                "pending time exceeds the job's remaining runtime, so the "
                "serving tier never actually grows (the busy-cluster gate "
                "applied to the PS tier).",
    tags=("non-dedicated", "elastic", "elastic-server", "busy"),
))

register_scenario(ScenarioSpec(
    name="elastic-server-queue-autoscale",
    method="asp-dds",
    seed=24,
    topology=TopologySpec(dedicated=False),
    stragglers=server_scenario(0.8),
    elastic=ElasticSpec(
        interval_s=20.0, cooldown_s=40.0,
        servers=ServerElasticSpec(policy="server-queue-depth",
                                  policy_params=(("scale_out_depth", 2.0),
                                                 ("scale_in_depth", 0.25)),
                                  max_servers=5)),
    description="The server-queue-depth autoscaler grows the serving tier "
                "while push queues back up behind a contended server and "
                "shrinks it once the backlog drains, under ASP training.",
    tags=("non-dedicated", "elastic", "elastic-server", "asp"),
))

# -- warm-standby replication and hot-key weighting -------------------------
#: The shards server-2 owns under the default 3-server rendezvous split (a
#: pure function of the member/shard names), weighted as the hot keys: the
#: contended server of ``server_scenario`` is ``servers[-1]``, so the skew
#: lands exactly on the server whose modest raw backlog the unweighted
#: count-based policy under-reads.
HOT_SHARDS = tuple(
    (shard, 6.0) for shard in (1, 6, 7, 10, 12, 13, 14, 20, 30, 36, 39,
                               42, 45, 46, 51, 55, 59, 60))
register_scenario(ScenarioSpec(
    name="replicated-server-kill-promotion",
    method="antdt-nd",
    seed=25,
    failures=FailureTraceSpec(events=(
        FailureEvent(time_s=50.0, node="server-1",
                     code=ErrorCode.JOB_EVICTION.value),
    )),
    elastic=ElasticSpec(servers=ServerElasticSpec(replicas=1)),
    description="The server-eviction scenario with one warm standby per "
                "shard: the evicted primary's shards are *promoted* to their "
                "standbys (cheap coordination cost, no queue stall behind the "
                "recovering pod) and the pod rejoins the rotation as a "
                "standby after its relaunch.",
    tags=("dedicated", "failures", "server", "replication"),
))

register_scenario(ScenarioSpec(
    name="hot-key-queue-autoscale",
    method="asp-dds",
    seed=26,
    topology=TopologySpec(dedicated=False),
    stragglers=server_scenario(0.8),
    elastic=ElasticSpec(
        interval_s=20.0, cooldown_s=40.0,
        servers=ServerElasticSpec(policy="server-queue-depth",
                                  policy_params=(("scale_out_depth", 4.0),
                                                 ("scale_in_depth", 0.25)),
                                  max_servers=5,
                                  hot_shards=HOT_SHARDS)),
    description="Hot-key skew concentrated on the contended server's shards: "
                "the weighted server-queue-depth policy reads its modest raw "
                "backlog as the dominant share of pending work and scales "
                "the tier out where the unweighted count-based policy "
                "(scale_out_depth above every raw depth) never triggers.",
    tags=("non-dedicated", "elastic", "elastic-server", "asp", "replication"),
))

# -- scale ------------------------------------------------------------------
register_scenario(ScenarioSpec(
    name="scale-120w",
    method="antdt-nd",
    scale="auto",
    seed=12,
    topology=TopologySpec(num_workers=120, dedicated=False),
    stragglers=worker_scenario(0.8),
    description="The 120-worker scale point of the perf sweep under heavy worker "
                "stragglers.",
    tags=("non-dedicated", "scale", "slow"),
))

# -- training + serving colocation ------------------------------------------
# Open-loop request traffic against the PS tier while the job trains.  The
# serving window, rates and admission depths are sized for the small scale's
# 3-server tier (~100 req/s per server before training contention), so every
# scenario stays cheap enough for the tier-1 golden suite.
register_scenario(ScenarioSpec(
    name="serving-steady-diurnal",
    method="antdt-nd",
    seed=27,
    serving=SERVING_PRESETS["steady"],
    description="Two tenants (a diurnal web class and a token-bucketed batch "
                "class) serve reads against the training job's PS tier: the "
                "baseline colocation point, with p50/p99 latency, goodput "
                "and shed counts pinned in the fingerprint.",
    tags=("dedicated", "serving", "colocation"),
))

register_scenario(ScenarioSpec(
    name="serving-overload-shed",
    method="antdt-nd",
    seed=28,
    serving=SERVING_PRESETS["bursty"],
    description="A spiky tenant offers ~3x the tier's effective capacity in "
                "bursts: the token bucket throttles it at the edge and the "
                "bounded admission queues shed the rest as overload — "
                "graceful degradation with bounded latency, never an "
                "unbounded queue (the serve-smoke scenario).",
    tags=("dedicated", "serving", "colocation", "overload"),
))

register_scenario(ScenarioSpec(
    name="serving-slo-autoscale",
    method="antdt-nd",
    seed=29,
    elastic=ElasticSpec(
        interval_s=10.0, cooldown_s=20.0,
        servers=ServerElasticSpec(policy="serving-slo",
                                  policy_params=(("target_p99_s", 0.3),
                                                 ("max_shed_rate", 0.02),
                                                 ("scale_in_fraction", 0.2)),
                                  max_servers=6)),
    serving=SERVING_PRESETS["flash"],
    description="A flash crowd ramps to 8x the baseline rate mid-window: the "
                "serving-slo policy watches the windowed shed rate and p99 "
                "and grows the server tier through the spike — the elastic "
                "PS tier scaled by the thing it exists for, with every "
                "verdict in the autoscaler decision log.",
    tags=("dedicated", "serving", "colocation", "elastic", "elastic-server"),
))

register_scenario(ScenarioSpec(
    name="serving-hot-key-fanout",
    method="antdt-nd",
    seed=30,
    elastic=ElasticSpec(servers=ServerElasticSpec(replicas=1,
                                                  hot_shards=HOT_SHARDS)),
    serving=ServingSpec(
        tenants=(TenantSpec(name="web", rate_rps=90.0, shape="diurnal"),
                 TenantSpec(name="mobile", rate_rps=50.0, shape="uniform",
                            rate_limit_rps=60.0)),
        start_s=5.0, duration_s=40.0, zipf_s=1.2, queue_capacity=24),
    description="Zipf key popularity concentrated on the weighted hot shards, "
                "with one warm standby per shard: reads fan out to the "
                "least-loaded live chain member, so the replicas built for "
                "failover finally carry traffic and level the hot server's "
                "load.",
    tags=("dedicated", "serving", "colocation", "replication"),
))

register_scenario(ScenarioSpec(
    name="serving-promotion-burst",
    method="antdt-nd",
    seed=31,
    failures=FailureTraceSpec(events=(
        FailureEvent(time_s=26.0, node="server-1",
                     code=ErrorCode.JOB_EVICTION.value),
    )),
    elastic=ElasticSpec(servers=ServerElasticSpec(
        replicas=1, staleness_catchup_s=0.75)),
    serving=ServingSpec(
        tenants=(TenantSpec(name="web", rate_rps=70.0, shape="uniform"),
                 TenantSpec(name="spiky", rate_rps=150.0, shape="bursty",
                            rate_limit_rps=110.0, burst_s=0.5)),
        start_s=5.0, duration_s=40.0, queue_capacity=12),
    description="A primary is evicted in the middle of a request burst: warm "
                "standbys are promoted (paying the staleness catch-up on top "
                "of the coordination cost), in-flight serving requests are "
                "re-delivered to the heirs, and the exactly-once audit still "
                "balances.",
    tags=("dedicated", "serving", "colocation", "replication", "failures"),
))
