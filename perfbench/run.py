"""Benchmark launcher for glse: one workload, one fresh worker process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds 35 --trace 0|1

Workloads: mc_sweep, rs_quadrature, rsb_bpsk (see perfbench/README.md).
The seed feeds the Monte Carlo seed of mc_sweep; the other two workloads
are fixed deterministic specs and ignore it.

The launcher pins BLAS to one thread, runs the workload in a fresh worker
process (worker.py), and, with --trace 0, first starts set-up-only workers
so that set-up time is a median of several process starts. It prints the
environment as one JSON line, then, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. It exits 1 when any
operation or output check failed and 2 when the checkout has no glse
sources; every worker is waited for, and killed at the time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc_sweep", "rs_quadrature", "rsb_bpsk")
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1",
              "PYTHONHASHSEED": "0"}


class WorkerFailed(Exception):
    pass


def run_worker(args, extra, deadline):
    """Run one worker; return (spawn time, its parsed result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **PINNED_ENV)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd + extra, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out: {' '.join(cmd + extra)}") \
            from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}")
    return spawned, json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description="glse benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "glse", "__init__.py")):
        print(f"no glse sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    setups, results = [], []
    try:
        probes = 0 if args.trace else SETUP_PROBES
        for _ in range(probes):
            spawned, res = run_worker(args, ["--setup-only"], deadline)
            setups.append(res["ready"] - spawned)
            results.append(res)
        spawned, main_res = run_worker(args, [], deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(main_res["ready"] - spawned)
    results.append(main_res)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in main_res["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": main_res["env"], "workload": args.workload,
                      "seed": args.seed, "setup_samples_s": setups,
                      "pass_wall_s": main_res["pass_s"]}))
    print(json.dumps({"correct": not failures and bool(metrics),
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
