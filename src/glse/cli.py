"""Command-line interface: replica solves, tuning, simulation, sweeps, bounds.

Exit codes: 0 on success, 2 on configuration errors, 3 on solver
non-convergence when --strict is given (otherwise the failure is reported
in the output and the exit code stays 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .errors import ConfigurationError, ConvergenceError, DomainError
from .harness import (emit_csv, load_sweep_config, make_support, run_sweep,
                      run_trials, trial_summary, users_for)
from .penalties import DISK, FULL, MPSK_ZERO, PenaltySpec
from .replica import (ScenarioSpec, lemma2_bound, rate_lower_bound,
                      solve_rs_scenario, tune)


def _penalty_from_args(args):
    """PenaltySpec from --lambda2/--lambda0/--lambda1, which must be finite.

    Checked here rather than in PenaltySpec: tune builds penalties from exp
    of its root-loop iterates, where an overflow must fail that start only.
    """
    weights = {"lambda2": args.lambda2, "lambda0": args.lambda0,
               "lambda1": args.lambda1}
    for name, value in weights.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"--{name} must be finite, got {value}")
    return PenaltySpec(**weights)


def _spec_from_args(args, penalty):
    support = make_support(args.kind, args.peak_power, args.order)
    return ScenarioSpec(penalty=penalty, support=support,
                        load=1.0 / args.alpha_inv, rho=args.rho)


def _emit(payload):
    json.dump(payload, sys.stdout, indent=2, default=float)
    sys.stdout.write("\n")


def _cmd_replica(args):
    spec = _spec_from_args(args, _penalty_from_args(args))
    if args.rsb:
        # deferred: only --rsb loads the one-step broken solver
        from .rsb import solve_rsb1
        sol = solve_rsb1(spec)
    else:
        sol = solve_rs_scenario(spec)
    _emit(dataclasses.asdict(sol))
    return 0


def _cmd_tune(args):
    base = _spec_from_args(args, PenaltySpec())
    pen, sol = tune(base, args.power, args.eta, sparsity=args.sparsity)
    _emit({"penalty": dataclasses.asdict(pen),
           "solution": dataclasses.asdict(sol)})
    return 0


def _cmd_simulate(args):
    k = users_for(args.n, args.alpha_inv)
    penalty = _penalty_from_args(args)
    support = make_support(args.kind, args.peak_power, args.order)
    d, d_err, power, activity = trial_summary(*run_trials(
        args.n, k, args.rho, penalty, support,
        range(args.seed, args.seed + args.trials)))
    _emit({"n_trials": args.trials, "seed": args.seed,
           "distortion_mean": d, "distortion_stderr": d_err,
           "power_mean": power, "activity_mean": activity})
    return 0


def _cmd_sweep(args):
    config = load_sweep_config(args.config)
    records = run_sweep(config, n_workers=args.workers)
    out = args.output or config.output
    if out is None:
        raise ConfigurationError("no output path (config or --output)")
    emit_csv(records, out)
    failures = [r for r in records if r.error]
    for r in failures:
        print(f"alpha_inv={r.alpha_inv}: {r.error}", file=sys.stderr)
    if failures and args.strict:
        return 3
    return 0


def _cmd_bound(args):
    out = {"lemma2": lemma2_bound(1.0 / args.alpha_inv, args.rho, args.eta,
                                  args.peak_power, args.order)}
    if args.sigma2 is not None and args.distortion is not None:
        out["rate_lb"] = rate_lower_bound(args.rho, args.distortion,
                                          args.sigma2)
    _emit(out)
    return 0


def _above(cast, low):
    """argparse type for a cast(text) above low; argparse exits 2 on any
    other value, a NaN included."""
    bound = (f"an integer >= {low + 1}" if cast is int
             else f"a number > {low}")

    def parse(text):
        value = cast(text)
        if not value > low:
            raise argparse.ArgumentTypeError(
                f"expected {bound}, got {value}")
        return value

    parse.__name__ = cast.__name__
    return parse


def _add_scenario_args(sub, need_penalty=True):
    sub.add_argument("--kind", choices=[FULL, DISK, MPSK_ZERO], default=FULL)
    sub.add_argument("--alpha-inv", type=_above(float, 0), required=True)
    sub.add_argument("--rho", type=float, default=1.0)
    sub.add_argument("--peak-power", type=float, default=None)
    sub.add_argument("--order", type=int, default=4)
    if need_penalty:
        sub.add_argument("--lambda2", type=float, default=0.0)
        sub.add_argument("--lambda0", type=float, default=0.0)
        sub.add_argument("--lambda1", type=float, default=0.0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="glse",
        description="Regularized precoding: asymptotic predictions and "
                    "finite-dimension simulation")
    parser.add_argument("--strict", action="store_true",
                        help="exit 3 on solver non-convergence")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("replica", help="solve one asymptotic scenario")
    _add_scenario_args(p)
    p.add_argument("--rsb", action="store_true",
                   help="one-step broken solution instead of symmetric")
    p.set_defaults(func=_cmd_replica)

    p = subs.add_parser("tune", help="penalty weights for (power, eta)")
    _add_scenario_args(p, need_penalty=False)
    p.add_argument("--power", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--sparsity", choices=["l0", "l1"], default=None)
    p.set_defaults(func=_cmd_tune)

    p = subs.add_parser("simulate", help="one Monte Carlo batch")
    _add_scenario_args(p)
    p.add_argument("--n", type=_above(int, 0), required=True)
    p.add_argument("--trials", type=_above(int, 0), default=100)
    p.add_argument("--seed", type=_above(int, -1), default=0)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("sweep", help="full sweep config to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--workers", type=_above(int, 0), default=1)
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("bound", help="distortion lower bound and rate bound")
    p.add_argument("--alpha-inv", type=_above(float, 0), required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--peak-power", type=float, required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--sigma2", type=float, default=None)
    p.add_argument("--distortion", type=float, default=None)
    p.set_defaults(func=_cmd_bound)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, DomainError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3 if args.strict else 0


if __name__ == "__main__":
    sys.exit(main())
