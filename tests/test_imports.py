"""Import budget: a process loads only the layers it runs.

`import glse` loads no submodule but `glse.errors`: each public name is
resolved on first use. A replica-only process loads no config parser,
Gauss-Legendre rule, finite-N solver, harness or RSB solver; a full-plane
sweep loads no RSB solver and no Gauss-Legendre rule; and `glse tune` and
`glse bound` load no yaml.

Importing glse and glse.cli fills no cache of the binary RSB kernel, and
running a full-plane sweep loads no scipy module, nor does a `glse
simulate` on raw l1 weights (the proximal-gradient path), a disk tune or
a disk `glse replica`; a constellation tune then loads scipy.special,
but not scipy.optimize, and a BPSK one-step broken solve loads neither
scipy.optimize nor a process pool.
Each check runs in a fresh interpreter, since this test process has
already imported whatever the other tests needed.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import glse

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

SCRIPT = """
import contextlib, io, sys
import glse, glse.cli
from glse.cli import main
from glse import rsb

assert rsb._panel_layout.cache_info().currsize == 0

config, output = sys.argv[1:3]
assert main(["--strict", "sweep", "--config", config,
             "--output", output]) == 0
loaded = [name for name in sys.modules
          if name.startswith("scipy") or name == "concurrent.futures.process"]
assert not loaded, f"loaded by a full-plane sweep: {loaded}"

with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["simulate", "--alpha-inv", "2", "--n", "8", "--trials", "2",
               "--lambda2", "0.1", "--lambda1", "0.2"])
assert rc == 0, rc
loaded = [name for name in sys.modules if name.startswith("scipy")]
assert not loaded, f"loaded by an APG simulate: {loaded}"

for command in (["tune", "--kind", "disk", "--peak-power", "1.5",
                 "--alpha-inv", "2", "--power", "0.5", "--eta", "0.7"],
                ["replica", "--kind", "disk", "--peak-power", "1.5",
                 "--alpha-inv", "2", "--lambda2", "0.5", "--lambda1", "0.2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["--strict"] + command)
    assert rc == 0, (command, rc)
    loaded = [name for name in sys.modules if name.startswith("scipy")]
    assert not loaded, f"loaded by {command[:3]}: {loaded}"

with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["--strict", "tune", "--kind", "mpsk_zero", "--order", "2",
               "--peak-power", "2.5", "--alpha-inv", "2", "--power", "1",
               "--eta", "0.4"])
assert rc == 0, rc
assert "scipy.special" in sys.modules and "scipy.optimize" not in sys.modules

from glse.penalties import PenaltySpec, SupportSpec
from glse.replica import ScenarioSpec, tune
bpsk = SupportSpec.mpsk_zero(2, 2.5)
pen, _ = tune(ScenarioSpec(PenaltySpec(), bpsk, 0.4, 1.0), 1.0, 0.4)
rsb.solve_rsb1(ScenarioSpec(pen, bpsk, 0.4, 1.0), mu_bracket=(4.0, 10.0))
loaded = [name for name in sys.modules
          if name == "scipy.optimize" or name == "concurrent.futures.process"]
assert not loaded, f"loaded by a BPSK broken solve: {loaded}"
"""


def _run(code, *argv):
    """Run code in a fresh interpreter that imports glse from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _write_sweep(tmp_path):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "spec_version: '1'\n"
        "scenario: {kind: full, sparsity: l1}\n"
        "grid:\n"
        "  - {alpha_inv: 2.0, eta: 0.7, power: 0.5}\n"
        "mc: {n: 8, n_channels: 4, seed: 1}\n")
    return cfg


def test_full_plane_sweep_loads_no_optimizer_or_pool(tmp_path):
    cfg = _write_sweep(tmp_path)
    _run(SCRIPT, str(cfg), str(tmp_path / "out.csv"))
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 2


# the code run before sys.modules is read, with the modules it must not load
_CLI = ("import contextlib, io, sys\n"
        "from glse.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n")
_LAYERS = {
    "import_glse": ("import glse", (), ()),
    "replica": ("from glse import replica", (),
                ("yaml", "numpy.polynomial", "glse.finite", "glse.harness",
                 "glse.rsb")),
    "sweep": (_CLI, ("--strict", "sweep", "--config", "{cfg}", "--output",
                     "{out}"), ("glse.rsb", "numpy.polynomial")),
    "tune": (_CLI, ("--strict", "tune", "--kind", "mpsk_zero", "--order",
                    "2", "--peak-power", "2.5", "--alpha-inv", "2",
                    "--power", "1", "--eta", "0.4"), ("yaml",)),
    "bound": (_CLI, ("bound", "--alpha-inv", "2", "--eta", "0.4",
                     "--peak-power", "2.5"), ("yaml",)),
}


@pytest.mark.parametrize("case", sorted(_LAYERS))
def test_process_loads_only_the_layers_it_runs(tmp_path, case):
    code, argv, absent = _LAYERS[case]
    paths = {"cfg": _write_sweep(tmp_path), "out": tmp_path / "out.csv"}
    loaded = set(json.loads(_run(
        code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))",
        *(arg.format(**paths) for arg in argv))))
    assert "glse" in loaded
    assert not loaded.intersection(absent), sorted(loaded.intersection(absent))
    if case == "import_glse":
        assert sorted(m for m in loaded if m.startswith("glse.")) == [
            "glse.errors"]


# every name glse exports, by the submodule that defines it
_EXPORTS = {
    "errors": ("ConfigurationError", "ConvergenceError", "DomainError"),
    "finite": ("PrecodeOutput", "glse_convex", "glse_convex_stack",
               "glse_exhaustive_discrete", "glse_exhaustive_l0",
               "glse_stationary", "rzf", "tas_random", "tas_strongest"),
    "harness": ("ExperimentRecord", "GridPoint", "SweepConfig", "emit_csv",
                "fit_equivalent_eta", "load_sweep_config", "run_sweep",
                "run_trial", "run_trials"),
    "penalties": ("PenaltySpec", "SupportSpec", "decouple", "decouple_grid",
                  "prox", "scalar_objective"),
    "replica": ("RsSolution", "ScenarioSpec", "lemma2_bound",
                "random_tas_asymptote", "rate_lower_bound",
                "solve_rs_generic", "solve_rs_scenario", "tune"),
    "rmt": ("ChannelSpec", "empirical_stieltjes", "limiting_stieltjes",
            "r_transform", "sample_channel"),
    "rsb": ("RsbSolution", "solve_rsb1"),
}


def test_public_names_resolve_to_their_submodules():
    assert sorted(glse.__all__) == sorted(
        name for names in _EXPORTS.values() for name in names)
    listed = dir(glse)
    for module, names in _EXPORTS.items():
        for name in names:
            assert getattr(glse, name) is getattr(
                importlib.import_module(f"glse.{module}"), name), name
            assert name in listed
    assert glse.tune is glse.replica.tune
    with pytest.raises(AttributeError, match="no_such_name"):
        glse.no_such_name  # noqa: B018
