"""Pure-engine benchmark workload (seed vs. optimised comparisons).

The scenario below reproduces the event mix of one Parameter-Server training
iteration using only engine primitives — per worker: a compute timeout, one
push (``Store.put``) per server, a pending ack event per push, an ``AllOf``
barrier over the acks and a pull timeout; per server: a ``get`` loop that
spends a handling timeout per request and succeeds the ack.  Because it calls
nothing outside the engine module it is handed, the same function measures the
live :mod:`repro.sim.engine` and the frozen seed snapshot
(:mod:`repro.perf.seed_engine`) on identical terms, which is how the
seed-vs-optimised speedup the perf smoke test asserts is obtained.
"""

from __future__ import annotations

from types import ModuleType
from typing import Any, Dict

from ..sim import engine as live_engine
from . import seed_engine
from .stats import EngineStats
from .timing import Stopwatch

__all__ = ["run_engine_scenario", "measure_engine", "measure_seed_speedup"]

#: Scaled-down per-event durations (values only shift the simulated clock).
_COMPUTE_S = 0.010
_HANDLING_S = 0.001
_PULL_S = 0.002


def run_engine_scenario(engine: ModuleType, num_workers: int = 6, num_servers: int = 3,
                        iterations: int = 60) -> Any:
    """Run the PS-shaped event workload on ``engine`` and return its Environment.

    ``engine`` must expose the SimPy-like surface of :mod:`repro.sim.engine`
    (Environment, Store, AllOf); both the live module and the seed snapshot do.
    """
    env = engine.Environment()
    queues = [engine.Store(env) for _ in range(num_servers)]

    def server(queue):
        while True:
            request = yield queue.get()
            yield env.timeout(_HANDLING_S)
            ack = request[1]
            if not ack.triggered:
                ack.succeed(env.now)

    def worker():
        for iteration in range(iterations):
            yield env.timeout(_COMPUTE_S)
            acks = []
            for queue in queues:
                ack = engine.Event(env)
                queue.put((iteration, ack))
                acks.append(ack)
            yield engine.AllOf(env, acks)
            yield env.timeout(_PULL_S)

    for _ in range(num_servers):
        env.process(server(queues[_]))
    workers = [env.process(worker()) for _ in range(num_workers)]
    env.run(until=engine.AllOf(env, workers))
    return env


def measure_engine(engine: ModuleType, num_workers: int = 6, num_servers: int = 3,
                   iterations: int = 60) -> Dict[str, float]:
    """Time one scenario run on ``engine`` and return wall/event statistics."""
    watch = Stopwatch()
    with watch:
        env = run_engine_scenario(engine, num_workers=num_workers,
                                  num_servers=num_servers, iterations=iterations)
    wall = watch.elapsed
    stats = EngineStats.absolute(env)
    result: Dict[str, float] = {
        "num_workers": float(num_workers),
        "num_servers": float(num_servers),
        "iterations": float(iterations),
        "wall_s": wall,
        "sim_time": float(env.now),
        "events_scheduled": float(stats.scheduled),
        "events_processed": float(stats.processed),
    }
    if wall > 0:
        result["events_per_sec"] = result["events_processed"] / wall
    return result


def measure_seed_speedup(num_workers: int = 6, num_servers: int = 3,
                         iterations: int = 60, repeats: int = 3) -> Dict[str, Any]:
    """Best-of-``repeats`` wall-time comparison: seed engine vs. optimised engine.

    Both engines replay the identical deterministic scenario; taking the best
    of a few repeats filters scheduler noise without hiding real costs.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    kwargs = dict(num_workers=num_workers, num_servers=num_servers, iterations=iterations)
    seed_runs = [measure_engine(seed_engine, **kwargs) for _ in range(repeats)]
    live_runs = [measure_engine(live_engine, **kwargs) for _ in range(repeats)]
    seed_best = min(seed_runs, key=lambda run: run["wall_s"])
    live_best = min(live_runs, key=lambda run: run["wall_s"])
    speedup = (seed_best["wall_s"] / live_best["wall_s"]
               if live_best["wall_s"] > 0 else float("inf"))
    return {
        "seed": seed_best,
        "optimized": live_best,
        "speedup_vs_seed": speedup,
    }
