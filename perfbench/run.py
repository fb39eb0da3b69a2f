"""The repository's benchmark: three simulator workloads, checked and timed.

    python3 perfbench/run.py --workload nd_1000w --seed 0 --seconds 30 --trace 0

Each repetition is a fresh single process (``perfbench/workload.py``) that
simulates one spec at a time.  Repetitions run back to back -- a closed loop
with one client -- until ``--seconds`` have passed and at least
``MIN_REPETITIONS`` have run.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count simulations and their
output checks, and ``metrics`` holds every end-to-end metric of
``BENCHMARK.json`` (``--trace 0``) or every per-layer one (``--trace 1``).

Wall time and heap pops are divided by the simulated seconds the workload
covered.  How long a 1000-worker job runs in simulated time depends on its
straggler draw.  So across seeds the raw figures move with the input, while
the figures per simulated second move with the simulator.  At any one seed,
heap pops repeat exactly.

Wall time is also divided by the time a fixed pure-Python loop takes in the
same process, sampled every tenth of a second all through the timed section
(``workload.Sampler``).  A shared VM's speed can swing by up to half within
minutes.  The swing reaches the loop and the simulator alike, so their ratio
holds still where seconds do not.  Set-up time is divided by the loop's time
right after set-up (``workload.reference_s``), and reported in seconds of a
machine on which the loop takes ``REFERENCE_NOMINAL_S``.

With ``--trace 1`` the run makes one untraced and one traced repetition
(see ``perfbench/layers.py``) and reports the per-layer split.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Every run takes at least this many timed repetitions ...
MIN_REPETITIONS = 3
#: ... and at least this many set-up samples (set-up-only processes make up the rest).
MIN_SETUPS = 15
#: No repetition may take longer than this; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 150.0
#: ``setup_s`` is in seconds of a machine on which the reference loop takes this long.
REFERENCE_NOMINAL_S = 0.13


def _child(workload, seed, mode):
    """Run one workload process and return its JSON record."""
    env = dict(os.environ)
    env.setdefault("PYTHONHASHSEED", "0")
    for threads in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[threads] = "1"
    command = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    completed = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} ({mode}) exited with {completed.returncode}")
    return json.loads(lines[-1])


def _tally(records):
    """Simulations attempted and failed, and what failed, over one run's records."""
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    failures = [failure for record in records for failure in record["failures"]]
    if len({(record.get("digest"), record.get("heap_pops")) for record in records}) > 1:
        failures.append("repetitions of one seed disagree on fingerprints or heap pops")
        failed = max(failed, 1)
    return attempted, failed, failures


def _report(values, declared):
    """Every declared metric, by name, with its unit."""
    return {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared}


def measure(workload, seed, seconds, declared):
    """End-to-end metrics: medians over the repetitions of one run."""
    _child(workload, seed, "setup")  # warm the page cache; not counted
    records = []
    started = time.perf_counter()
    while len(records) < MIN_REPETITIONS or time.perf_counter() - started < seconds:
        records.append(_child(workload, seed, "plain"))
    setups = list(records)
    while len(setups) < MIN_SETUPS:
        setups.append(_child(workload, seed, "setup"))
    simulated = [record for record in records if record.get("sim_s")]
    if not simulated:
        raise RuntimeError(f"{workload}: no repetition simulated anything")
    first = simulated[0]
    values = {
        "wall_ref_per_sim_s": statistics.median(
            record["wall_s"] / record["sample_s"] / record["sim_s"] for record in simulated),
        "setup_s": REFERENCE_NOMINAL_S * statistics.median(
            record["setup_s"] / record["reference_s"] for record in setups),
        "peak_rss_mb": statistics.median(record["rss_mb"] for record in records),
        "heap_pops_per_sim_s": first["heap_pops"] / first["sim_s"],
    }
    print(f"{workload} seed {seed}: {len(records)} repetitions, median wall "
          f"{statistics.median(record['wall_s'] for record in records):.3f} s for "
          f"{first['sim_s']:.1f} simulated s, {first['heap_pops']} heap pops, median set-up "
          f"{statistics.median(record['setup_s'] for record in setups):.3f} s", file=sys.stderr)
    return records, _report(values, declared)


def trace(workload, seed, declared):
    """Per-layer metrics: one untraced and one traced repetition."""
    _child(workload, seed, "setup")
    plain = _child(workload, seed, "plain")
    traced = _child(workload, seed, "profile")
    records = [plain, traced]
    serving = traced.get("serving", {})
    pops = traced.get("heap_pops", 0)
    logical = traced.get("logical_events", 0)
    iterations = traced.get("iterations", 0)
    layers = traced["layers"]
    values = dict(layers)
    values.update({
        "engine.logical_events": logical,
        "engine.coalesced_share": 1.0 - pops / logical if logical else 0.0,
        "engine.pops_per_iteration": pops / iterations if iterations else 0.0,
        "worker.iterations": iterations,
        "worker.useful_share": (iterations / layers["worker.resumes"]
                                if layers["worker.resumes"] else 0.0),
        "serving.arrivals": serving.get("arrivals", 0),
        "serving.admit_share": (serving["admitted"] / serving["arrivals"]
                                if serving.get("arrivals") else 0.0),
        "serving.shed": serving.get("shed", 0),
        "setup.import_s": plain["import_s"],
        "setup.build_s": plain["build_s"],
        "setup.builds": plain["builds"],
        "orchestrator.overhead_share": plain.get("orchestrator_s", 0.0) / plain["wall_s"],
        "orchestrator.cache_hits": plain.get("cache_hits", 0),
        "orchestrator.cache_misses": plain.get("cache_misses", 0),
        "trace.overhead": ((traced["wall_s"] / traced["reference_s"])
                           / (plain["wall_s"] / plain["reference_s"])),
    })
    return records, _report(values, declared)


def main(argv=None):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {package}", file=sys.stderr)
        return 2
    # Compile once, outside every timed section: a fresh checkout would
    # otherwise pay bytecode compilation inside the first run's set-up.
    if not (compileall.compile_dir(package, quiet=1) and compileall.compile_dir(HERE, quiet=1)):
        print("perfbench: compiling the sources failed", file=sys.stderr)
        return 1
    try:
        if args.trace:
            records, metrics = trace(args.workload, args.seed, declared["per_layer"])
        else:
            records, metrics = measure(args.workload, args.seed, args.seconds,
                                       declared["end_to_end"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, failures = _tally(records)
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
