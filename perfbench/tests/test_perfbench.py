"""Self-tests of the benchmark: tracing is transparent and attributes work
to the layers the workloads are meant to exercise or bypass.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

The workloads run here on reduced inputs (fewer Monte Carlo channels, one
quadrature spec, a narrower mu interval), which exercise the same layers.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)

import worker  # noqa: E402
from tracer import SITES, Tracer, layer_metrics  # noqa: E402

worker.import_glse()

with open(os.path.join(os.path.dirname(PERFBENCH), "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

REDUCED = {
    "mc_sweep": dict(n_channels=8),
    "rs_quadrature": dict(specs=worker.RsQuadrature.SPECS[:1]),
    "rsb_bpsk": dict(mu_bracket=(5.0, 8.0)),
}

# the workload named to exercise each call count ...
EXERCISED_ON = {
    "harness.run_trial.calls": ("mc_sweep",),
    "rmt.sample_channel.calls": ("mc_sweep",),
    "finite.glse_convex.calls": ("mc_sweep",),
    "penalties.prox.calls": ("mc_sweep",),
    "replica.tune.calls": ("mc_sweep", "rsb_bpsk"),
    "penalties.decouple.calls": ("rs_quadrature",),
    "replica.generic_moments.calls": ("rs_quadrature",),
    # mc_sweep reaches it only through solution_at's default argument
    "replica.scenario_moments.calls": ("mc_sweep", "rsb_bpsk"),
    "replica.solve_rs_scenario.calls": ("rsb_bpsk",),
    "rsb.binary_moments.calls": ("rsb_bpsk",),
    "rsb.inner_fixed_point.calls": ("rsb_bpsk",),
}
# ... and the workloads predicted to bypass it
BYPASSED_ON = {
    "penalties.decouple.calls": ("mc_sweep", "rsb_bpsk"),
    "finite.glse_convex.calls": ("rs_quadrature", "rsb_bpsk"),
    "rsb.binary_moments.calls": ("mc_sweep", "rs_quadrature"),
}


@pytest.fixture(scope="module", params=sorted(REDUCED))
def traced_run(request, tmp_path_factory):
    """One untraced and one traced pass of a reduced workload."""
    name = request.param
    checks = worker.Checks()
    workload = worker.WORKLOADS[name](
        5, str(tmp_path_factory.mktemp(name)), checks, **REDUCED[name])
    workload.setup()
    plain = workload.run_pass()
    with Tracer() as tracer:
        traced = workload.run_pass()
    return name, checks, plain, traced, layer_metrics(tracer.stats, 1)


def test_traced_outputs_equal_untraced(traced_run):
    name, checks, plain, traced, _ = traced_run
    assert checks.failures == []
    assert traced == plain


def test_call_counts_follow_the_layer_map(traced_run):
    name, _, _, _, metrics = traced_run
    for metric, workloads in EXERCISED_ON.items():
        if name in workloads:
            assert metrics[metric][0] > 0, metric
    for metric, workloads in BYPASSED_ON.items():
        if name in workloads:
            assert metrics[metric][0] == 0, metric


def test_every_call_count_has_an_exercising_workload():
    calls = {m["name"] for m in BENCHMARK["per_layer"]
             if m["name"].endswith(".calls")}
    assert calls == set(EXERCISED_ON)


def test_metric_names_match_benchmark_json():
    with Tracer() as tracer:
        pass
    names = set(layer_metrics(tracer.stats, 1)) | {"trace.overhead_frac"}
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s"}


def test_uninstall_restores_every_binding():
    from glse import harness, replica, rsb
    before = (harness.run_trial, replica.decouple, rsb._binary_moments,
              replica.solution_at.__defaults__)
    with Tracer():
        assert harness.run_trial is not before[0]
        assert replica.solution_at.__defaults__ != before[3]
    assert (harness.run_trial, replica.decouple, rsb._binary_moments,
            replica.solution_at.__defaults__) == before


def test_missing_function_gives_absent_metric():
    sites = tuple(site for site in SITES if site[0] != "rsb.binary_moments")
    sites += (("rsb.binary_moments", ("glse.rsb:_no_such_function",), True),
              ("gone.module", ("glse.no_such_module:f",), False))
    with Tracer(sites) as tracer:
        pass
    metrics = layer_metrics(tracer.stats, 1)
    assert not any(m.startswith("rsb.binary_moments.") for m in metrics)
    assert "rsb.inner_fixed_point.calls" in metrics


def test_exits_nonzero_without_sources(tmp_path):
    root = os.path.dirname(PERFBENCH)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
