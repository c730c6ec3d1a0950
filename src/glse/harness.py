"""Experiment orchestration: sweeps, Monte Carlo validation, curve fits.

A sweep config describes one scenario family and a grid of operating
points (inverse load, activity and power targets, power control). For
each point the penalty weights are tuned, the asymptotic predictions are
solved, and optionally a batch of finite-dimension trials is run. Trials
are deterministic: trial i uses seed base_seed + i, and the reduction is
ordered, so results are identical across parallelism levels. The
proximal-gradient trials of a batch are solved in stacks (pool workers
take whole stacks), and a trial's result does not depend on the stack it
is solved in, bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigurationError, ConvergenceError, DomainError
from .finite import (glse_convex_stack, glse_exhaustive_discrete,
                     glse_exhaustive_l0, glse_stationary)
from .penalties import DISK, FULL, MPSK_ZERO, PenaltySpec, SupportSpec
from .replica import (ScenarioSpec, lemma2_bound, random_tas_asymptote,
                      rate_lower_bound, tune)
from .rmt import ChannelSpec, sample_channel
from .rsb import solve_rsb1

SPEC_VERSION = "1"

# memory bound of one stack of APG trials (see _stack_size)
_GRAM_STACK_BYTES = 1 << 20

_ETA_FIT_BOUNDS = (0.05, 0.999)  # activity interval of fit_equivalent_eta

_SCENARIO_KEYS = {"kind", "sparsity", "peak_power", "order", "rsb"}

CSV_COLUMNS = ("alpha_inv", "eta_target", "power_target", "rho", "scenario",
               "lambda", "lambda0", "lambda1", "P", "M", "chi", "p", "D_rs",
               "D_rs_dB", "D_rsb", "eta_replica", "rate_lb", "D_lemma2",
               "mc_D_mean", "mc_D_stderr", "mc_power", "mc_eta", "n_trials",
               "seed")


def to_db(x):
    """10 log10 of a positive linear quantity."""
    return 10.0 * np.log10(x)


def users_for(n, alpha_inv):
    """K = N/alpha_inv as an int; ConfigurationError unless within 1e-9."""
    k = n / alpha_inv
    if abs(k - round(k)) > 1e-9:
        raise ConfigurationError(
            f"K = N/alpha_inv = {k} not integral at alpha_inv = {alpha_inv}")
    return int(round(k))


@dataclass(frozen=True)
class GridPoint:
    """One operating point of a sweep."""

    alpha_inv: float
    eta: float
    power: float
    rho: float = 1.0
    papr_db: float | None = None
    sigma2: float | None = None

    def __post_init__(self):
        optional = () if self.sigma2 is None else ("sigma2",)
        for name in ("alpha_inv", "power", "rho") + optional:
            value = getattr(self, name)
            if not 0 < value < np.inf:  # a NaN fails too
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value}")
        if not (0 < self.eta <= 1):
            raise ConfigurationError("eta must lie in (0, 1]")
        if self.papr_db is not None and not -np.inf < self.papr_db < np.inf:
            raise ConfigurationError(
                f"papr_db must be finite, got {self.papr_db}")


def make_support(kind, peak_power, order):
    """The SupportSpec of a scenario kind, peak power and (for mpsk_zero)
    order; the full plane ignores both."""
    if kind == FULL:
        return SupportSpec.full_complex()
    if peak_power is None:
        raise ConfigurationError(f"kind {kind} needs a peak power")
    if kind == DISK:
        return SupportSpec.disk(peak_power)
    return SupportSpec.mpsk_zero(order, peak_power)


def _config_int(value, name):
    """An integer config entry as an int; ConfigurationError otherwise."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc
    if isinstance(value, float) and number != value:
        raise ConfigurationError(f"{name} must be an integer, got {value}")
    return number


@dataclass(frozen=True)
class SweepConfig:
    """Scenario family, operating grid and Monte Carlo settings."""

    scenario: dict
    grid: tuple
    mc: dict | None = None
    output: str | None = None
    spec_version: str = SPEC_VERSION

    def __post_init__(self):
        if self.spec_version != SPEC_VERSION:
            raise ConfigurationError(
                f"config spec_version {self.spec_version!r} not supported "
                f"(expected {SPEC_VERSION!r})")
        if len(self.grid) == 0:
            raise ConfigurationError("grid must be nonempty")
        if not isinstance(self.scenario, dict):
            raise ConfigurationError("scenario must be a mapping")
        if not _SCENARIO_KEYS.issuperset(self.scenario):
            raise ConfigurationError(
                f"scenario keys must be among {sorted(_SCENARIO_KEYS)}")
        kind = self.scenario.get("kind")
        if kind not in (FULL, DISK, MPSK_ZERO):
            raise ConfigurationError(f"unknown scenario kind {kind!r}")
        if self.scenario.get("sparsity", "l0") not in ("l0", "l1"):
            raise ConfigurationError("scenario.sparsity must be l0 or l1")
        if not isinstance(self.scenario.get("rsb", True), bool):
            raise ConfigurationError("scenario.rsb must be true or false")
        if kind == MPSK_ZERO:  # SupportSpec truncates a fractional order
            _config_int(self.scenario.get("order", 0), "scenario.order")
        for point in self.grid:
            try:
                _support_for(self.scenario, point)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigurationError(f"scenario: {exc}") from exc
        if self.mc is not None:
            if not isinstance(self.mc, dict):
                raise ConfigurationError("mc must be a mapping")
            n, n_channels, seed = (
                _config_int(self.mc.get(key, 0), f"mc.{key}")
                for key in ("n", "n_channels", "seed"))
            if n <= 0:
                raise ConfigurationError("mc.n must be a positive integer")
            if n_channels <= 0:
                raise ConfigurationError("mc.n_channels must be positive")
            if seed < 0:  # numpy seeds are nonnegative
                raise ConfigurationError("mc.seed must be nonnegative")
            for point in self.grid:
                users_for(n, point.alpha_inv)


def load_sweep_config(path) -> SweepConfig:
    """Parse a YAML sweep config file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} is not a mapping")
    try:
        grid = tuple(GridPoint(**point) for point in raw.get("grid", []))
        return SweepConfig(
            scenario=raw.get("scenario", {}),
            grid=grid,
            mc=raw.get("mc"),
            output=raw.get("output"),
            spec_version=str(raw.get("spec_version", "")),
        )
    except TypeError as exc:
        raise ConfigurationError(f"bad config {path}: {exc}") from exc


@dataclass
class ExperimentRecord:
    """One sweep row: inputs echoed, replica and Monte Carlo outputs."""

    alpha_inv: float
    eta_target: float
    power_target: float
    rho: float
    scenario: str
    lambda2: float | None = None
    lambda0: float | None = None
    lambda1: float | None = None
    peak_power: float | None = None
    order: int | None = None
    chi: float | None = None
    p: float | None = None
    d_rs: float | None = None
    d_rsb: float | None = None
    eta_replica: float | None = None
    rate_lb: float | None = None
    d_lemma2: float | None = None
    mc_d_mean: float | None = None
    mc_d_stderr: float | None = None
    mc_power: float | None = None
    mc_eta: float | None = None
    n_trials: int | None = None
    seed: int | None = None
    error: str | None = None


def _support_for(scenario, point):
    """The support of a grid point; a given papr_db sets the peak power to
    the point's power times 10^(papr_db/10)."""
    peak = scenario.get("peak_power")
    if point.papr_db is not None:
        peak = point.power * 10.0 ** (point.papr_db / 10.0)
    return make_support(scenario["kind"], peak, scenario.get("order", 0))


def _scenario_label(scenario, support):
    if support.kind == MPSK_ZERO:
        return f"mpsk{support.order}"
    sparsity = scenario.get("sparsity", "l0")
    return f"{support.kind}_{sparsity}"


def _program(penalty, support, state):
    """(solver, power_cap) of the finite program whose trials check state.

    The one rule from a replica state (the RsSolution of the weights, or
    None for raw weights) to its finite program:

    - constellation supports: "discrete" (glse_exhaustive_discrete);
    - lambda0 != 0: "l0" (glse_exhaustive_l0, which refuses the negative
      weights of the l0 branch with xi < 0);
    - full plane with a negative weight (unbounded below): with
      state.xi > 0, the minimiser under the budget state.p ("apg",
      state.p); past the Lagrangian boundary (xi < 0) or for raw weights,
      "stationary" (glse_stationary, a saddle; rzf when lambda1 = 0);
    - otherwise "apg", the stacked proximal-gradient minimiser, uncapped.
    """
    if support.kind == MPSK_ZERO:
        return "discrete", None
    if penalty.lambda0 != 0:
        return "l0", None
    if support.kind == FULL and min(penalty.lambda2, penalty.lambda1) < 0:
        if state is not None and state.xi > 0:
            return "apg", state.p
        return "stationary", None
    return "apg", None


def _stack_size(n):
    """APG instances per stack: the (B, N, N) Gram stack stays near
    _GRAM_STACK_BYTES (16 instances at N = 64)."""
    return max(1, _GRAM_STACK_BYTES // (16 * n * n))


def _sample_trial(n, k, seed):
    """The (H, s) instance of trial seed."""
    h = sample_channel(ChannelSpec(n_tx=n, n_users=k, rng_seed=seed))
    rng = np.random.default_rng([seed, 0x5EED])
    s = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    return h, s


def _solve_one(n, k, rho, penalty, support, solver, seed):
    """One trial on a per-trial solver of _program."""
    h, s = _sample_trial(n, k, seed)
    if solver == "discrete":
        return glse_exhaustive_discrete(h, s, rho, penalty.lambda2, support)
    if solver == "l0":
        return glse_exhaustive_l0(h, s, rho, penalty)
    out = glse_stationary(h, s, rho, penalty)
    if not out.converged:
        raise ConvergenceError(
            f"stationary-point solve (seed {seed}) did not converge "
            f"after {out.iterations} Newton steps",
            {"stationarity": out.residual})
    return out


def _solve_stack(n, k, rho, penalty, support, seeds, power_cap):
    """The APG trials of seeds, as one stack."""
    h = np.empty((len(seeds), k, n), dtype=complex)
    s = np.empty((len(seeds), k), dtype=complex)
    for j, seed in enumerate(seeds):
        h[j], s[j] = _sample_trial(n, k, seed)
    outs = glse_convex_stack(h, s, rho, penalty, support,
                             power_cap=power_cap)
    capped = [seed for seed, out in zip(seeds, outs) if not out.converged]
    if capped:
        raise ConvergenceError(
            f"APG solve (seeds {capped}) hit the iteration cap of "
            f"{max(out.iterations for out in outs)}")
    return outs


def run_trials(n, k, rho, penalty, support, seeds, state=None):
    """Finite-dimension trials, one per seed: sample (H, s), precode.

    Returns (distortion, power, activity), three arrays in seed order.
    Trial seed draws the channel from sample_channel at rng_seed = seed and
    the data from default_rng([seed, 0x5EED]), so it is deterministic in
    seed. state is the RsSolution the trials are checked against (tune
    returns it with the weights), or None for raw weights; _program picks
    the finite program from it.

    APG trials are sampled and solved in stacks of up to _stack_size(n)
    (glse_convex_stack); a trial's result does not depend on the stack it
    is solved in, bit for bit. A trial whose solver does not converge
    raises ConvergenceError naming its seeds.
    """
    seeds = [int(seed) for seed in seeds]
    solver, cap = _program(penalty, support, state)
    if solver == "apg":
        size = _stack_size(n)
        outs = [out for i in range(0, len(seeds), size)
                for out in _solve_stack(n, k, rho, penalty, support,
                                        seeds[i:i + size], cap)]
    else:
        outs = [_solve_one(n, k, rho, penalty, support, solver, seed)
                for seed in seeds]
    return tuple(np.array([getattr(out, name) for out in outs])
                 for name in ("distortion", "power", "activity"))


def run_trial(n, k, rho, penalty, support, seed, state=None):
    """One trial of run_trials: (distortion, power, activity) floats."""
    return tuple(float(v[0]) for v in run_trials(
        n, k, rho, penalty, support, [seed], state))


def trial_summary(d, pw, act):
    """(mean distortion, its standard error, mean power, mean activity) of
    the arrays of run_trials; the standard error of one trial is 0."""
    stderr = float(d.std(ddof=1) / np.sqrt(len(d))) if len(d) > 1 else 0.0
    return float(d.mean()), stderr, float(pw.mean()), float(act.mean())


def _mc_batch(point, penalty, support, state, mc, n_workers):
    n = int(mc["n"])
    k = users_for(n, point.alpha_inv)
    n_channels = int(mc["n_channels"])
    base_seed = int(mc.get("seed", 0))
    solver, _ = _program(penalty, support, state)
    size = _stack_size(n) if solver == "apg" else 1
    seeds = range(base_seed, base_seed + n_channels)
    args = [(n, k, point.rho, penalty, support, seeds[i:i + size], state)
            for i in range(0, n_channels, size)]
    if n_workers > 1:
        # deferred: a serial batch never starts a pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(run_trials, *zip(*args)))
    else:
        results = [run_trials(*a) for a in args]
    summary = trial_summary(*(np.concatenate(col) for col in zip(*results)))
    return summary + (n_channels, base_seed)


def run_sweep(config: SweepConfig, n_workers=1):
    """Tune, solve and (optionally) simulate every grid point.

    Per-point solver failures are recorded in the row's error field and
    the sweep continues. Returns the list of ExperimentRecord.
    """
    records = []
    for point in config.grid:
        rec = ExperimentRecord(
            alpha_inv=point.alpha_inv, eta_target=point.eta,
            power_target=point.power, rho=point.rho,
            scenario=str(config.scenario.get("kind")))
        try:
            support = _support_for(config.scenario, point)
            rec.scenario = _scenario_label(config.scenario, support)
            rec.peak_power = (None if support.kind == FULL
                              else support.peak_power)
            rec.order = support.order if support.kind == MPSK_ZERO else None
            base = ScenarioSpec(penalty=PenaltySpec(), support=support,
                                load=1.0 / point.alpha_inv, rho=point.rho)
            pen, sol = tune(base, point.power, point.eta,
                            sparsity=config.scenario.get("sparsity"))
            rec.lambda2, rec.lambda0, rec.lambda1 = (pen.lambda2, pen.lambda0,
                                                     pen.lambda1)
            rec.chi, rec.p = sol.chi, sol.p
            rec.d_rs = sol.distortion
            rec.eta_replica = sol.eta
            if point.sigma2 is not None:
                rec.rate_lb = rate_lower_bound(sol.rho, sol.distortion,
                                               point.sigma2)
            if support.kind == MPSK_ZERO:
                rec.d_lemma2 = lemma2_bound(base.load, point.rho, point.eta,
                                            support.peak_power, support.order)
                if config.scenario.get("rsb", True):
                    spec = ScenarioSpec(penalty=pen, support=support,
                                        load=base.load, rho=point.rho)
                    rec.d_rsb = solve_rsb1(spec).distortion
            if config.mc is not None:
                (rec.mc_d_mean, rec.mc_d_stderr, rec.mc_power, rec.mc_eta,
                 rec.n_trials, rec.seed) = _mc_batch(
                     point, pen, support, sol, config.mc, n_workers)
        except (ConfigurationError, ConvergenceError, DomainError) as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    return records


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def emit_csv(records, path):
    """Write records in the fixed 24-column schema; missing fields empty."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in records:
                d_rs_db = None if r.d_rs is None else to_db(r.d_rs)
                writer.writerow([
                    _fmt(r.alpha_inv), _fmt(r.eta_target),
                    _fmt(r.power_target), _fmt(r.rho), r.scenario or "",
                    _fmt(r.lambda2), _fmt(r.lambda0), _fmt(r.lambda1),
                    _fmt(r.peak_power), _fmt(r.order), _fmt(r.chi),
                    _fmt(r.p), _fmt(r.d_rs), _fmt(d_rs_db), _fmt(r.d_rsb),
                    _fmt(r.eta_replica), _fmt(r.rate_lb), _fmt(r.d_lemma2),
                    _fmt(r.mc_d_mean), _fmt(r.mc_d_stderr), _fmt(r.mc_power),
                    _fmt(r.mc_eta), _fmt(r.n_trials), _fmt(r.seed),
                ])
    except OSError as exc:
        raise ConfigurationError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path):
    """Round-trip reader for the sweep CSV (strings; empty means missing)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_COLUMNS:
            raise ConfigurationError(f"unexpected CSV header in {path}")
        return [dict(zip(header, row)) for row in reader]


def fit_equivalent_eta(alpha_invs, distortions, target_power, rho,
                       peak_power=None):
    """Best-fit activity fraction of the random-subset baseline.

    Minimizes the mean squared dB gap between the given distortion curve
    and the random-selection baseline family over the shared inverse-load
    grid, with the activity fraction searched in _ETA_FIT_BOUNDS.

    Args:
        alpha_invs: inverse loads of the target curve.
        distortions: target distortions (linear scale), same length.
        target_power: per-antenna power of the baseline family.
        rho: power control factor.
        peak_power: optional per-antenna peak power for a peak-limited
            baseline.

    Returns:
        (eta_fit, mean_sq_db_residual).
    """
    # deferred: no sweep calls this fit, so sweeps never load scipy.optimize
    from scipy.optimize import minimize_scalar

    alpha_invs = np.asarray(alpha_invs, dtype=float)
    distortions = np.asarray(distortions, dtype=float)
    if alpha_invs.shape != distortions.shape or alpha_invs.size == 0:
        raise ConfigurationError(
            "alpha_invs and distortions must be equal-length and nonempty")
    target_db = to_db(distortions)

    def objective(eta):
        gaps = []
        for ai, t_db in zip(alpha_invs, target_db):
            sol = random_tas_asymptote(1.0 / ai, eta, target_power, rho,
                                       peak_power=peak_power)
            gaps.append(to_db(sol.distortion) - t_db)
        return float(np.mean(np.square(gaps)))

    res = minimize_scalar(objective, bounds=_ETA_FIT_BOUNDS, method="bounded",
                          options={"xatol": 1e-6})
    return float(res.x), float(res.fun)
