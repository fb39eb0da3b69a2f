"""Production A/B experiment: paper Fig. 19 and the industrial deployment story.

The paper reports the mean JCT over three days of production training jobs —
a mix of normal jobs and straggling jobs — for the BSP family and the ASP
family of methods.  We regenerate a synthetic job mix (some jobs unaffected,
some with worker stragglers of varying intensity, some with a server
straggler) and compare every method on exactly the same mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..baselines.registry import asp_methods, bsp_methods
from .stragglers import NO_STRAGGLERS, StragglerScenario, server_scenario, worker_scenario
from .workloads import SMALL, ExperimentScale

__all__ = ["JobMixEntry", "make_job_mix", "fig19_production_ab"]

# fig19_production_ab imports repro.scenarios/repro.orchestrator lazily; see
# the note in framework.py.


@dataclass(frozen=True)
class JobMixEntry:
    """One job in the production mix."""

    job_id: int
    scenario: StragglerScenario
    seed: int


def make_job_mix(num_jobs: int = 6, seed: int = 0, normal_fraction: float = 0.4,
                 server_fraction: float = 0.2) -> List[JobMixEntry]:
    """Generate a reproducible mix of normal and straggling jobs."""
    if num_jobs <= 0:
        raise ValueError("num_jobs must be positive")
    if normal_fraction < 0 or server_fraction < 0 or normal_fraction + server_fraction > 1:
        raise ValueError("fractions must be non-negative and sum to at most 1")
    rng = np.random.default_rng(seed)
    mix: List[JobMixEntry] = []
    for job_id in range(num_jobs):
        draw = rng.random()
        if draw < normal_fraction:
            scenario = NO_STRAGGLERS
        elif draw < normal_fraction + server_fraction:
            scenario = server_scenario(float(rng.uniform(0.4, 0.8)))
        else:
            scenario = worker_scenario(float(rng.uniform(0.3, 0.8)))
        mix.append(JobMixEntry(job_id=job_id, scenario=scenario, seed=seed + 101 * job_id))
    return mix


def fig19_production_ab(num_jobs: int = 6, scale: ExperimentScale = SMALL,
                        seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Fig. 19: mean JCT per method over the production job mix.

    Returns ``{"bsp_family": {method: mean_jct}, "asp_family": {...}}``.
    """
    from ..orchestrator import simulate_spec
    from ..scenarios import ScenarioSpec

    mix = make_job_mix(num_jobs=num_jobs, seed=seed)
    results: Dict[str, Dict[str, float]] = {"bsp_family": {}, "asp_family": {}}
    for family, methods in (("bsp_family", bsp_methods()), ("asp_family", asp_methods())):
        for method in methods:
            jcts = [
                simulate_spec(ScenarioSpec.for_scale(
                    scale, name=f"fig19-{method.name}-job{entry.job_id}", method=method.name,
                    stragglers=entry.scenario, seed=entry.seed)).run.jct
                for entry in mix
            ]
            results[family][method.name] = float(np.mean(jcts))
    return results
