"""Self-test of the benchmark: its exact metrics repeat exactly.

    python3 perfbench/selftest.py

For each workload, runs the benchmark twice untraced and twice traced, the
second run of each pair under another ``PYTHONHASHSEED``.  Asserts that every
run's checks pass, that the heap pops per simulated second and the failure
count are identical across the untraced pair, and that every per-layer
metric not derived from a clock is identical across the traced pair.  Then
checks that the benchmark exits non-zero, printing no result, from a
directory holding only ``BENCHMARK.json`` and the benchmark's own files.

Takes about six minutes; it is not part of the tier-1 suite.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-tmp"
#: Per-layer metrics read off a clock; every other one must repeat exactly.
TIMED = {"trace.overhead", "orchestrator.overhead_share", "orchestrator.store_put_share",
         "orchestrator.store_get_share"}


def run(workload, trace, hash_seed, cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, text=True, timeout=600)


def result(workload, trace, hash_seed):
    completed = run(workload, trace, hash_seed)
    assert completed.returncode == 0, f"{workload}: exit code {completed.returncode}"
    outcome = json.loads(completed.stdout.strip().splitlines()[-1])
    assert outcome["correct"] and outcome["failed"] == 0, f"{workload}: checks failed"
    return outcome


def exact(outcome, declared):
    timed = {metric["name"] for metric in declared if metric["unit"] == "s"} | TIMED
    return {name: metric["value"] for name, metric in outcome["metrics"].items()
            if name not in timed and not name.endswith(".self_share")}


def check_workload(workload, benchmark):
    plain = [result(workload, 0, hash_seed) for hash_seed in (0, 1)]
    pops = [outcome["metrics"]["heap_pops_per_sim_s"]["value"] for outcome in plain]
    assert pops[0] == pops[1], f"{workload}: heap pops differ: {pops}"
    traced = [exact(result(workload, 1, hash_seed), benchmark["per_layer"])
              for hash_seed in (0, 1)]
    differing = sorted(name for name in traced[0] if traced[0][name] != traced[1][name])
    assert not differing, f"{workload}: per-layer counts differ: {differing}"
    print(f"{workload}: exact metrics repeat ({len(traced[0])} per-layer)", flush=True)


def check_refuses_without_source():
    WORK_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run("registry_sweep", 0, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0 and not completed.stdout.strip(), \
        "the benchmark ran without the simulator's source"
    print("without the simulator's source the benchmark refuses to run", flush=True)


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_refuses_without_source()
    for workload in benchmark["workloads"]:
        check_workload(workload["name"], benchmark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
