"""AntDT reproduction: a self-adaptive distributed training framework.

This package reproduces "AntDT: A Self-Adaptive Distributed Training Framework
for Leader and Straggler Nodes" (ICDE 2024) in pure Python:

* :mod:`repro.core` — the AntDT framework itself (Stateful Dynamic Data
  Sharding, Monitor, Controller, Agent, action set, AntDT-ND / AntDT-DD).
* :mod:`repro.sim` — a discrete-event cluster simulator standing in for the
  Ant Group production clusters (devices, contention, scheduler, failures).
* :mod:`repro.psarch` / :mod:`repro.allreduce` — the Parameter Server and
  AllReduce training architectures built on the simulator.
* :mod:`repro.ml` — a NumPy mini deep-learning substrate (models, optimizers,
  synthetic datasets) for the statistical/data-integrity experiments.
* :mod:`repro.elastic` — elastic scaling: runtime worker add/remove,
  autoscaler policies, and shard-accounting data-integrity audits.
* :mod:`repro.baselines` — BSP, ASP, ASP-DDS, LB-BSP, Backup Workers, DDP.
* :mod:`repro.experiments` — per-figure/table experiment generators.
* :mod:`repro.scenarios` — declarative scenario specs, registry, and
  golden-trace fingerprints.
* :mod:`repro.codec` — the one dict codec every declarative spec class
  serializes through.
* :mod:`repro.orchestrator` — parallel sweep execution with a
  content-addressed result store, exposed as the ``python -m repro`` CLI.
* :mod:`repro.perf` — engine performance measurement (timers, engine
  counters, the seed-engine speedup workload).

The scenario/orchestrator/perf layers build on the experiment stack and are
imported on demand rather than eagerly here.
"""

from . import allreduce, baselines, checkpoint, core, elastic, ml, psarch, sim

__version__ = "1.0.0"

__all__ = [
    "allreduce",
    "baselines",
    "checkpoint",
    "core",
    "elastic",
    "ml",
    "psarch",
    "sim",
    "__version__",
]
