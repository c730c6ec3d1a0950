"""Acceptance gate: one test per acceptance criterion.

Each test prints a single machine-readable pass/fail line of the form

    [criterion NN] <name>: PASS|FAIL <detail>

before asserting, so the full scoreboard is visible in the terminal even
under output capture.
"""

import itertools
import time

import numpy as np
import pytest

from glse.cli import main as cli_main
from glse.finite import glse_convex, rzf
from glse.harness import fit_equivalent_eta, run_trials
from glse.penalties import (PenaltySpec, SupportSpec, decouple, decouple_grid,
                            scalar_objective)
from glse.replica import (ScenarioSpec, heuristic_rate, lemma2_bound,
                          rate_lower_bound, tune)
from glse.rmt import (ChannelSpec, empirical_stieltjes, limiting_stieltjes,
                      sample_channel)
from glse.rsb import solve_rsb1

FULL = SupportSpec.full_complex()


def _report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {name}: "
              f"{'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _data(k, seed_list):
    rng = np.random.default_rng(seed_list)
    return (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2)


def test_criterion_01_rzf_equivalence(capsys):
    # convex solver with lambda1 = 0 against the closed-form regularized
    # zero-forcer on 50 random instances
    t0 = time.time()
    worst = 0.0
    for i in range(50):
        h = sample_channel(ChannelSpec(n_tx=64, n_users=32,
                                       rng_seed=500 + i))
        s = _data(32, [500 + i, 7])
        lam = float(np.random.default_rng([500 + i, 8]).uniform(0.1, 2.0))
        out = glse_convex(h, s, 1.0, PenaltySpec(lambda2=lam), FULL,
                          tol=1e-13)
        ref = rzf(h, s, 1.0, lam)
        worst = max(worst, np.linalg.norm(out.x - ref.x)
                    / np.linalg.norm(ref.x))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report(capsys, 1, "RZF equivalence", ok,
            f"(worst rel err {worst:.3g}, {elapsed:.1f}s)")


def test_criterion_02_replica_vs_monte_carlo(capsys):
    # l1 scenario, p = 0.5, eta in {0.3, 0.7}, rho = 1, N = 64, 200
    # channels per grid point; asymptotic distortion vs MC mean < 0.5 dB
    t0 = time.time()
    gaps = {}
    for eta in (0.3, 0.7):
        for ai in (1.5, 2.0, 3.0, 4.0):
            spec = ScenarioSpec(PenaltySpec(), FULL, 1.0 / ai, 1.0)
            pen, sol = tune(spec, 0.5, eta, sparsity="l1")
            # run_trials checks the tuned state against its finite program
            k = int(round(64 / ai))
            ds, _, _ = run_trials(64, k, 1.0, pen, FULL, range(1234, 1434),
                                  sol)
            gaps[(eta, ai)] = 10 * np.log10(np.mean(ds) / sol.distortion)
    elapsed = time.time() - t0
    bad = {pt: g for pt, g in gaps.items() if abs(g) >= 0.5}
    ok = not bad and elapsed < 300.0
    detail = ", ".join(f"({e},{a}): {g:+.2f} dB"
                       for (e, a), g in sorted(gaps.items()))
    _report(capsys, 2, "replica vs Monte Carlo", ok,
            f"({detail}; {elapsed:.0f}s)")


def test_criterion_03_equivalent_eta_fits(capsys):
    fits = {}
    for sparsity, grid, expect in (("l0", np.linspace(1, 4.4, 8), 0.65),
                                   ("l1", np.linspace(1, 5, 9), 0.51)):
        ds = []
        for ai in grid:
            spec = ScenarioSpec(PenaltySpec(), FULL, 1.0 / ai, 1.0)
            pen, sol = tune(spec, 0.5, 0.3, sparsity=sparsity)
            ds.append(sol.distortion)
        eta_fit, _ = fit_equivalent_eta(grid, ds, 0.5, 1.0)
        fits[sparsity] = (eta_fit, expect)
    ok = all(abs(f - e) <= 0.03 for f, e in fits.values())
    _report(capsys, 3, "equivalent-eta fits", ok,
            "(" + ", ".join(f"{k}: {f:.4f} vs {e}"
                            for k, (f, e) in fits.items()) + ")")


def test_criterion_04_papr_savings(capsys):
    # PAPR = 3 dB disk support: fitted active-antenna saving vs random TAS
    peak = 0.5 * 10 ** 0.3
    grid = np.linspace(1, 3, 7)
    savings = {}
    for sparsity, expect in (("l0", 0.25), ("l1", 0.20)):
        ds = []
        for ai in grid:
            spec = ScenarioSpec(PenaltySpec(), SupportSpec.disk(peak),
                                1.0 / ai, 1.0)
            pen, sol = tune(spec, 0.5, 0.7, sparsity=sparsity)
            ds.append(sol.distortion)
        eta_fit, _ = fit_equivalent_eta(grid, ds, 0.5, 1.0, peak_power=peak)
        savings[sparsity] = (eta_fit - 0.7, expect)
    ok = all(abs(s - e) <= 0.03 for s, e in savings.values())
    _report(capsys, 4, "PAPR antenna savings", ok,
            "(" + ", ".join(f"{k}: {s:.4f}N vs {e}N"
                            for k, (s, e) in savings.items()) + ")")


def _draw_scenario(rng):
    lam = rng.uniform(0.0, 2.0)
    p = rng.uniform(0.25, 4.0)
    scen = rng.integers(0, 5)
    if scen == 0:
        return PenaltySpec(lambda2=lam, lambda0=rng.uniform(0, 2)), FULL
    if scen == 1:
        return PenaltySpec(lambda2=lam, lambda1=rng.uniform(0, 2)), FULL
    if scen == 2:
        return (PenaltySpec(lambda2=lam, lambda0=rng.uniform(0, 2)),
                SupportSpec.disk(p))
    if scen == 3:
        return (PenaltySpec(lambda2=lam, lambda1=rng.uniform(0, 2)),
                SupportSpec.disk(p))
    return PenaltySpec(lambda2=lam), SupportSpec.mpsk_zero(
        int(rng.choice([2, 4, 8])), p)


def _grid_error_bound(s, xi, pen, support, resolution):
    # largest objective gap a grid of this resolution can fail to resolve
    if support.kind == "mpsk_zero":
        return 1e-12
    r_max = 4 * abs(s) + 4 * np.sqrt(xi * (pen.lambda0 + pen.lambda1) + 1.0)
    if support.kind == "disk":
        r_max = min(r_max, np.sqrt(support.peak_power))
    step = max(r_max / (resolution - 1), r_max * 2 * np.pi / resolution)
    lip = 2 * (r_max + abs(s)) + xi * (2 * pen.lambda2 * r_max + pen.lambda1)
    return 2 * step * lip + 1e-9


def test_criterion_05_decoupled_precoder_oracle(capsys):
    # closed-form scalar precoder against the brute-force polar-grid
    # oracle, 1000 random draws spread over the five scenarios
    rng = np.random.default_rng(20240817)
    failures = 0
    for _ in range(1000):
        pen, sup = _draw_scenario(rng)
        xi = rng.uniform(0.2, 5.0)
        s = (rng.normal() + 1j * rng.normal()) * rng.uniform(0.2, 3.0)
        closed = decouple(s, xi, pen, sup)
        grid = decouple_grid(s, xi, pen, sup, resolution=256)
        f_closed = scalar_objective(closed, s, xi, pen, sup)
        f_grid = scalar_objective(grid, s, xi, pen, sup)
        if (f_closed > f_grid + 1e-9
                or f_grid - f_closed > _grid_error_bound(s, xi, pen, sup,
                                                         256)):
            failures += 1
    _report(capsys, 5, "decoupled-precoder oracle suite", failures == 0,
            f"({failures}/1000 failures)")


def _exhaustive_min_distortion(n, k, eta, peak, seed):
    h = sample_channel(ChannelSpec(n_tx=n, n_users=k, rng_seed=seed))
    s = _data(k, [seed, 0x5EED])
    target = s  # rho = 1
    n_act = int(round(eta * n))
    root = np.sqrt(peak)
    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=n_act)))
    best = np.inf
    for sup in itertools.combinations(range(n), n_act):
        hsub = h[:, list(sup)] * root
        resid = signs @ hsub.T - target[None, :]
        best = min(best, np.min(np.sum(np.abs(resid) ** 2, axis=1)))
    return best / k


def test_criterion_06_lemma2_property(capsys):
    # (a) exhaustive finite-N search never beats the asymptotic lower
    # bound; (b) the replica-symmetric curve eventually violates the bound
    # while the one-step RSB curve's violation onset is strictly later
    rho, peak, eta = 1.0, 2.5, 0.4
    exceed = total = 0
    for n, k, trials in ((8, 5, 34), (9, 5, 33), (10, 6, 33)):
        dl = lemma2_bound(k / n, rho, eta, peak, 2)
        for t in range(trials):
            best = _exhaustive_min_distortion(n, k, eta, peak, 9000 + t)
            exceed += best > dl
            total += 1
    ok_a = total == 100 and exceed >= 99

    sup = SupportSpec.mpsk_zero(2, peak)

    def rs_at(ai):
        spec = ScenarioSpec(PenaltySpec(), sup, 1.0 / ai, rho)
        pen, sol = tune(spec, eta * peak, eta)
        return ScenarioSpec(pen, sup, spec.load, rho), sol

    dl_pre = lemma2_bound(1.0 / 4.6, rho, eta, peak, 2)
    dl_post = lemma2_bound(1.0 / 4.7, rho, eta, peak, 2)
    _, rs_pre = rs_at(4.6)
    spec_post, rs_post = rs_at(4.7)
    rsb_post = solve_rsb1(spec_post)
    ok_b = (rs_pre.distortion > dl_pre          # no violation yet
            and rs_post.distortion < dl_post    # RS crosses below the bound
            and rsb_post.distortion > dl_post   # 1-RSB onset strictly later
            and rsb_post.distortion > rs_post.distortion)
    _report(capsys, 6, "asymptotic lower bound property", ok_a and ok_b,
            f"(exhaustive {exceed}/{total}; RS {rs_pre.distortion:.4f}>"
            f"{dl_pre:.4f} then {rs_post.distortion:.4f}<{dl_post:.4f}; "
            f"RSB {rsb_post.distortion:.4f}>{dl_post:.4f})")


def test_criterion_07_rsb_degeneration(capsys):
    worst = 0.0
    for order in (2, 4):
        sup = SupportSpec.mpsk_zero(order, 2.5)
        for ai in (1.5, 2.5):
            spec = ScenarioSpec(PenaltySpec(), sup, 1.0 / ai, 1.0)
            pen, rs = tune(spec, 0.4 * 2.5, 0.4)
            tuned = ScenarioSpec(pen, sup, spec.load, 1.0)
            rsb = solve_rsb1(tuned, force_c_zero=True)
            worst = max(worst, abs(rsb.distortion - rs.distortion))
    _report(capsys, 7, "RSB degeneration to RS", worst < 1e-6,
            f"(worst distortion gap {worst:.3g})")


def test_criterion_08_spectrum_check(capsys):
    h = sample_channel(ChannelSpec(n_tx=512, n_users=256, rng_seed=17))
    pts = -np.linspace(0.3, 5.0, 10) + 0.01j
    errs = [abs(empirical_stieltjes(h, s)
                - limiting_stieltjes(0.5, [(1.0, 1.0)], s)) for s in pts]
    _report(capsys, 8, "Stieltjes transform check", max(errs) < 1e-2,
            f"(max err {max(errs):.3g} over 10 points)")


def test_criterion_09_tuning_round_trip(capsys):
    spec = ScenarioSpec(PenaltySpec(), FULL, 0.5, 1.0)
    pen, sol = tune(spec, 0.5, 0.7, sparsity="l1")
    _, powers, activities = run_trials(64, 32, 1.0, pen, FULL,
                                       range(1234, 1434), sol)
    mc_p = np.mean(powers)
    mc_eta = np.mean(activities)
    ok = abs(mc_p - 0.5) / 0.5 < 0.05 and abs(mc_eta - 0.7) / 0.7 < 0.05
    _report(capsys, 9, "tuning round-trip", ok,
            f"(MC power {mc_p:.4f} vs 0.5, activity {mc_eta:.4f} vs 0.7)")


def test_criterion_10_sweep_determinism(capsys, tmp_path):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "spec_version: '1'\n"
        "scenario: {kind: full, sparsity: l1}\n"
        "grid:\n"
        "  - {alpha_inv: 2.0, eta: 0.7, power: 0.5}\n"
        "  - {alpha_inv: 4.0, eta: 0.3, power: 0.5}\n"
        "mc: {n: 32, n_channels: 8, seed: 77}\n")
    outputs = []
    for i, workers in enumerate((1, 1, 2)):
        out = tmp_path / f"out{i}.csv"
        rc = cli_main(["sweep", "--config", str(cfg), "--output", str(out),
                       "--workers", str(workers)])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    _report(capsys, 10, "sweep determinism", ok,
            f"({len(outputs[0])} bytes, identical across reruns and "
            "parallelism)")


def test_qualitative_rate_ordering(capsys):
    # achievable-rate ordering at 0 dB SNR, maximized over the power
    # control factor: RZF above sparse variants, higher activity above
    # lower, l0 above l1 at matched activity
    sigma2 = 0.5
    rhos = np.geomspace(0.2, 6.0, 15)

    def best_rate(sparsity, eta):
        rates = []
        for rho in rhos:
            spec = ScenarioSpec(PenaltySpec(), FULL, 0.5, rho)
            pen, sol = tune(spec, 0.5, eta,
                            sparsity=sparsity if eta < 1 else None)
            rates.append(rate_lower_bound(sol.rho, sol.distortion, sigma2))
        return max(rates)

    r = {"rzf": best_rate(None, 1.0),
         "l0_07": best_rate("l0", 0.7), "l1_07": best_rate("l1", 0.7),
         "l0_03": best_rate("l0", 0.3), "l1_03": best_rate("l1", 0.3)}
    ok = (r["rzf"] > r["l0_07"] > r["l1_07"] > r["l0_03"] > r["l1_03"])
    _report(capsys, 11, "rate ordering (qualitative)", ok,
            "(" + ", ".join(f"{k}={v:.3f}" for k, v in r.items()) + ")")


def test_qualitative_heuristic_vs_bound_convergence(capsys):
    # the heuristic rate stays above the proven lower bound and the gap
    # shrinks monotonically as the inverse load grows
    ok = True
    gaps_out = []
    for eta in (0.2, 0.4):
        peak = 1.0 / eta
        sup = SupportSpec.mpsk_zero(2, peak)
        gaps = []
        for ai in (1.5, 2.0, 3.0, 4.0):
            spec = ScenarioSpec(PenaltySpec(), sup, 1.0 / ai, 1.0)
            pen, sol = tune(spec, 1.0, eta)
            gap = (heuristic_rate(1.0, 0.1, sol.distortion)
                   - rate_lower_bound(sol.rho, sol.distortion, 0.1))
            gaps.append(gap)
        ok = ok and all(g > 0 for g in gaps)
        ok = ok and all(a > b for a, b in zip(gaps, gaps[1:]))
        gaps_out.append(f"eta={eta}: " + "->".join(f"{g:.3f}" for g in gaps))
    _report(capsys, 12, "heuristic above bound, converging", ok,
            "(" + "; ".join(gaps_out) + ")")
