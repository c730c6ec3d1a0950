"""One benchmark workload in one fresh process: set up, time, check, trace.

Started by run.py, which pins BLAS to one thread and passes the workload,
seed and run length. Prints one JSON object as its last line of output:
the perf_counter reading when set-up finished, the operation and failure
counts, the metrics, and the failed checks.

Set-up imports glse from the checkout's src/, builds the inputs and runs a
short warm-up. The timed phase repeats the workload's pass while another
pass should end within the run length (at least once); the pass outputs,
and any check that needs a solve of its own, are checked after the timed
phase. With --trace 1 the untraced phase takes half the run length and the
same number of passes then runs under the tracer; the traced outputs must
equal the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 1234


def import_glse():
    """Import glse from <checkout>/src, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import glse
    if not os.path.abspath(glse.__file__).startswith(src + os.sep):
        raise ImportError(f"glse imported from {glse.__file__}, not {src}")
    return glse


def _read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class Checks:
    """Output checks; every failure counts toward the failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


class McSweep:
    """`glse --strict sweep` of the full/l1 scenario with a Monte Carlo
    batch of 50 channels at two operating points (the finite-N validation
    users run, in a pass short enough to repeat many times per run)."""

    GRID = ({"alpha_inv": 2.0, "eta": 0.7, "power": 0.5},
            {"alpha_inv": 4.0, "eta": 0.5, "power": 0.5})
    N = 64
    CHANNELS = 50
    WARMUP_CHANNELS = 8
    # a Monte Carlo mean over n channels must lie within Z * CV / sqrt(n)
    # of its target, relative; CV bounds the per-channel coefficient of
    # variation at these points (measured over 400 channels: power 0.24 and
    # 0.29, activity 0.07 and 0.09, distortion 0.20 and 0.18)
    CV = {"mc_power": 0.3, "mc_eta": 0.1, "mc_D_mean": 0.2}
    Z = 5.0

    def __init__(self, seed, workdir, checks, n_channels=CHANNELS):
        self.seed, self.workdir, self.checks = seed, workdir, checks
        self.n_channels = n_channels
        self.ops_per_pass = len(self.GRID)

    def _config(self, tag, n_channels, seed):
        path = os.path.join(self.workdir, f"{tag}.yaml")
        config = {"spec_version": "1",
                  "scenario": {"kind": "full", "sparsity": "l1"},
                  "grid": list(self.GRID),
                  "mc": {"n": self.N, "n_channels": n_channels,
                         "seed": seed}}
        with open(path, "w") as fh:
            json.dump(config, fh)  # JSON is valid YAML
        return path, os.path.join(self.workdir, f"{tag}.csv")

    def _sweep(self, config, output):
        rc = self.cli.main(["--strict", "sweep", "--config", config,
                            "--output", output])
        return rc, _read(output, "rb") if rc == 0 else b""

    def setup(self):
        from glse import cli
        self.cli = cli
        self.header = _read(os.path.join(
            REFERENCE, f"mc_sweep_seed{DEFAULT_SEED}.csv")).splitlines()[0]
        self.config, self.output = self._config(
            "sweep", self.n_channels, self.seed)
        warm = self._config("warmup", self.WARMUP_CHANNELS, DEFAULT_SEED)
        rc, data = self._sweep(*warm)
        ref = os.path.join(REFERENCE,
                           f"mc_sweep_warmup_n{self.WARMUP_CHANNELS}.csv")
        self.checks.expect("mc_sweep warm-up CSV bytes",
                           rc == 0 and data == _read(ref, "rb"),
                           f"exit {rc}, differs from {ref}")

    def run_pass(self):
        return self._sweep(self.config, self.output)

    def check_pass(self, out):
        expect = self.checks.expect
        rc, data = out
        if not expect("mc_sweep exit code", rc == 0, f"exit {rc}"):
            return
        lines = data.decode().splitlines()
        header = self.header
        expect("mc_sweep header", lines[0] == header
               and len(header.split(",")) == 24, lines[0])
        rows = [dict(zip(header.split(","), line.split(",")))
                for line in lines[1:]]
        expect("mc_sweep rows", len(rows) == len(self.GRID),
               f"{len(rows)} rows")
        for point, row in zip(self.GRID, rows):
            tag = f"mc_sweep alpha_inv={point['alpha_inv']}"
            try:
                d_rs, mc_d = float(row["D_rs"]), float(row["mc_D_mean"])
                power, eta = float(row["mc_power"]), float(row["mc_eta"])
                trials, seed = int(row["n_trials"]), int(row["seed"])
            except (KeyError, ValueError) as exc:
                expect(f"{tag} fields", False, repr(exc))
                continue
            expect(f"{tag} trials", (trials, seed) ==
                   (self.n_channels, self.seed), f"{trials} at {seed}")
            for name, value, target in (("mc_power", power, point["power"]),
                                        ("mc_eta", eta, point["eta"]),
                                        ("mc_D_mean", mc_d, d_rs)):
                tol = self.Z * self.CV[name] / math.sqrt(self.n_channels)
                expect(f"{tag} {name}", _rel(value, target) <= tol,
                       f"{value} vs {target}, tolerance {tol:.3f}")
        if self.seed == DEFAULT_SEED and self.n_channels == self.CHANNELS:
            ref = os.path.join(REFERENCE, f"mc_sweep_seed{self.seed}.csv")
            expect("mc_sweep CSV bytes", data == _read(ref, "rb"),
                   f"differs from {ref}")


class RsQuadrature:
    """`solve_rs_generic` (quadrature over the scalar precoder) on two
    tuned specs from one starting point, the first of the solver's
    defaults, checked against the analytic `solve_rs_scenario` from the
    same start."""

    SPECS = (("full_l1", None), ("disk_l1", 0.5 * 10 ** 0.3))
    ALPHA_INV, POWER, ETA = 2.0, 0.5, 0.7
    INITS = ((0.1, 0.1),)
    REL_TOL = 1e-8

    def __init__(self, seed, workdir, checks, specs=SPECS):
        self.checks = checks
        self.spec_names = specs
        self.ops_per_pass = len(specs)

    def setup(self):
        from glse import replica
        from glse.penalties import PenaltySpec, SupportSpec
        self.replica = replica
        self.specs, self.refs = [], []
        for _, peak in self.spec_names:
            support = (SupportSpec.full_complex() if peak is None
                       else SupportSpec.disk(peak))
            base = replica.ScenarioSpec(PenaltySpec(), support,
                                        1.0 / self.ALPHA_INV, 1.0)
            pen, _ = replica.tune(base, self.POWER, self.ETA, sparsity="l1")
            spec = replica.ScenarioSpec(pen, support, base.load, 1.0)
            self.specs.append(spec)
            self.refs.append(replica.solve_rs_scenario(spec,
                                                       inits=self.INITS))
        spec, ref = self.specs[0], self.refs[0]
        warm = replica.generic_moments(spec.penalty, spec.support, ref.xi,
                                       ref.rho_rs)
        exact = replica.scenario_moments(spec.penalty, spec.support, ref.xi,
                                         ref.rho_rs)
        self.checks.expect(
            "rs_quadrature warm-up moments",
            all(_rel(a, b) <= self.REL_TOL for a, b in zip(warm, exact)),
            f"{warm} vs {exact}")

    def run_pass(self):
        sols = [self.replica.solve_rs_generic(spec, inits=self.INITS)
                for spec in self.specs]
        return tuple((s.distortion, s.eta) for s in sols)

    def check_pass(self, out):
        for (name, _), (d, eta), ref in zip(self.spec_names, out, self.refs):
            self.checks.expect(
                f"rs_quadrature {name} distortion",
                _rel(d, ref.distortion) <= self.REL_TOL,
                f"{d!r} vs {ref.distortion!r}")
            self.checks.expect(f"rs_quadrature {name} eta",
                               _rel(eta, ref.eta) <= self.REL_TOL,
                               f"{eta!r} vs {ref.eta!r}")


class RsbBpsk:
    """One-step RSB solve of the BPSK scenario at a point where symmetry
    breaks: what a sweep row does there (tune, lemma2_bound, solve_rsb1),
    with the mu search interval narrowed around the root."""

    ALPHA_INV, ETA, PEAK, POWER = 2.5, 0.4, 2.5, 1.0
    MU_BRACKET = (4.0, 10.0)
    FORCED_REL = 1e-6

    def __init__(self, seed, workdir, checks, mu_bracket=MU_BRACKET):
        self.checks = checks
        self.mu_bracket = mu_bracket
        self.ops_per_pass = 1

    def setup(self):
        from glse import replica, rsb
        from glse.penalties import PenaltySpec, SupportSpec
        self.replica, self.rsb = replica, rsb
        self.support = SupportSpec.mpsk_zero(2, self.PEAK)
        self.base = replica.ScenarioSpec(PenaltySpec(), self.support,
                                         1.0 / self.ALPHA_INV, 1.0)
        self.reference = None
        if self.mu_bracket == self.MU_BRACKET:
            self.reference = json.loads(_read(
                os.path.join(REFERENCE, "rsb_bpsk.json")))
        self.replica.tune(self.base, self.POWER, self.ETA)  # warm-up

    def verify(self):
        """The degenerate c = 0 solve must reproduce the symmetric one."""
        pen, sol = self.replica.tune(self.base, self.POWER, self.ETA)
        forced = self.rsb.solve_rsb1(self._spec(pen), force_c_zero=True)
        self.checks.expect(
            "rsb_bpsk forced c=0 vs D_rs",
            _rel(forced.distortion, sol.distortion) <= self.FORCED_REL,
            f"{forced.distortion!r} vs {sol.distortion!r}")

    def _spec(self, penalty):
        return self.replica.ScenarioSpec(penalty, self.support,
                                         self.base.load, 1.0)

    def run_pass(self):
        pen, sol = self.replica.tune(self.base, self.POWER, self.ETA)
        bound = self.replica.lemma2_bound(self.base.load, 1.0, self.ETA,
                                          self.PEAK, 2)
        broken = self.rsb.solve_rsb1(self._spec(pen),
                                     mu_bracket=self.mu_bracket)
        return {key: format(float(value), ".12g") for key, value in (
            ("lambda", pen.lambda2), ("chi", sol.chi), ("p", sol.p),
            ("D_rs", sol.distortion), ("D_rsb", broken.distortion),
            ("D_lemma2", bound))}

    def check_pass(self, out):
        d_rsb = float(out["D_rsb"])
        self.checks.expect("rsb_bpsk D_rsb > D_rs",
                           d_rsb > float(out["D_rs"]), str(out))
        self.checks.expect("rsb_bpsk D_rsb > D_lemma2",
                           d_rsb > float(out["D_lemma2"]), str(out))
        if self.reference is not None:
            self.checks.expect("rsb_bpsk row", out == self.reference,
                               f"{out} vs {self.reference}")


WORKLOADS = {"mc_sweep": McSweep, "rs_quadrature": RsQuadrature,
             "rsb_bpsk": RsbBpsk}


def run_passes(workload, seconds, checks, min_passes=1):
    """Run `min_passes` passes, then more while one more is expected to end
    within `seconds` of the start, taking as long as the fastest so far.

    Returns per-pass wall times, per-pass CPU times and outputs. A pass
    that raises counts as a failed operation and ends the phase.
    """
    walls, cpus, outputs = [], [], []
    start = time.perf_counter()
    while len(walls) < min_passes or (
            time.perf_counter() - start + min(walls) <= seconds):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        checks.attempted += workload.ops_per_pass
        try:
            out = workload.run_pass()
        except Exception:
            traceback.print_exc()
            checks.failures.append("pass raised: "
                                   + traceback.format_exc(limit=1).strip())
            break
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        outputs.append(out)
    return walls, cpus, outputs


def check_outputs(workload, outputs, checks, label):
    for out in outputs:
        workload.check_pass(out)
    checks.expect(f"{label} passes identical",
                  all(out == outputs[0] for out in outputs[1:]),
                  "outputs differ between passes")


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_glse()
    workdir = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    checks = Checks()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, checks)
        workload.setup()
        result = {"ready": time.perf_counter(), "env": environment(),
                  "metrics": {}, "pass_s": []}
        if not args.setup_only:
            result["metrics"], result["pass_s"] = measure(
                workload, args, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(attempted=checks.attempted, failed=len(checks.failures),
                  failures=checks.failures)
    print(json.dumps(result))
    return 0


def measure(workload, args, checks):
    """Time the passes, check them; return (metrics, pass wall times)."""
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    walls, cpus, outputs = run_passes(workload, seconds, checks)
    if not walls:
        return {}, walls
    check_outputs(workload, outputs, checks, args.workload)
    if hasattr(workload, "verify"):
        workload.verify()
    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"wall_s": (statistics.median(walls), "s"),
                "cpu_s": (statistics.median(cpus), "s"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB")}, walls

    from tracer import Tracer, layer_metrics
    with Tracer() as tracer:
        traced, _, traced_out = run_passes(
            workload, 0.0, checks, min_passes=len(walls))
    check_outputs(workload, traced_out, checks, f"{args.workload} traced")
    checks.expect("traced outputs equal untraced",
                  traced_out == outputs[:len(traced_out)],
                  "tracing changed the outputs")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(
        OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    metrics = layer_metrics(tracer.stats, max(len(traced), 1))
    if traced:
        overhead = statistics.median(traced) / statistics.median(walls) - 1
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, walls


if __name__ == "__main__":
    sys.exit(main())
