"""Ablation: slowness ratio λ — detection sensitivity vs mitigation churn."""

from conftest import BENCH_SCALE, run_once

from repro.core.actions import ActionType
from repro.experiments import worker_scenario
from repro.scenarios import ScenarioSpec, build_scenario_job


def _run_with_lambda(slowness_ratio: float):
    job, _ = build_scenario_job(ScenarioSpec.for_scale(
        BENCH_SCALE, name=f"ablation-lambda-{slowness_ratio}", method="antdt-nd",
        stragglers=worker_scenario(0.8), seed=1))
    job.antdt_config.slowness_ratio = slowness_ratio
    if job.controller is not None:
        job.controller.config.slowness_ratio = slowness_ratio
    result = job.run()
    kills = len([a for a in result.action_log if a.action_type is ActionType.KILL_RESTART])
    adjusts = len([a for a in result.action_log if a.action_type is ActionType.ADJUST_BS])
    return {"lambda": slowness_ratio, "jct_s": result.jct, "kill_restarts": kills,
            "adjust_bs": adjusts}


def _sweep():
    return [_run_with_lambda(ratio) for ratio in (1.2, 1.5, 2.5)]


def test_ablation_slowness_ratio(benchmark):
    rows = run_once(benchmark, _sweep)
    print("\nAblation — slowness ratio λ:")
    print(f"  {'lambda':>7} {'JCT (s)':>9} {'KILL_RESTART':>13} {'ADJUST_BS':>10}")
    for row in rows:
        print(f"  {row['lambda']:>7.1f} {row['jct_s']:>9.1f} {row['kill_restarts']:>13d} "
              f"{row['adjust_bs']:>10d}")
    # A lower threshold never detects fewer stragglers than a higher one.
    assert rows[0]["kill_restarts"] + rows[0]["adjust_bs"] >= \
        rows[-1]["kill_restarts"] + rows[-1]["adjust_bs"]
