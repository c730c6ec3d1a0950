"""Import budget: a full-plane sweep runs without scipy or a process pool.

Importing glse and glse.cli fills no cache of the binary RSB kernel, and
running a full-plane sweep loads no scipy module, nor does a `glse
simulate` on raw l1 weights (the proximal-gradient path), a disk tune or
a disk `glse replica`; a constellation tune then loads scipy.special,
but not scipy.optimize, and a BPSK one-step broken solve loads neither
scipy.optimize nor a process pool.
The check runs in a fresh interpreter, since this test process has
already imported whatever the other tests needed.
"""

import os
import subprocess
import sys

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


def test_full_plane_sweep_loads_no_optimizer_or_pool(tmp_path):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "spec_version: '1'\n"
        "scenario: {kind: full, sparsity: l1}\n"
        "grid:\n"
        "  - {alpha_inv: 2.0, eta: 0.7, power: 0.5}\n"
        "mc: {n: 8, n_channels: 4, seed: 1}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cfg), str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 2
