import dataclasses
import functools
import math

import numpy as np
import pytest

from glse import finite, harness
from glse.errors import ConfigurationError, ConvergenceError
from glse.harness import (CSV_COLUMNS, ExperimentRecord, GridPoint,
                          SweepConfig, emit_csv, fit_equivalent_eta,
                          load_sweep_config, read_csv,
                          run_sweep, run_trial, run_trials, to_db)
from glse.penalties import PenaltySpec, SupportSpec
from glse.replica import (ScenarioSpec, random_tas_asymptote,
                          rate_lower_bound, tune)


def _config(mc=None, **scenario_extra):
    scenario = {"kind": "full", "sparsity": "l1"}
    scenario.update(scenario_extra)
    grid = (GridPoint(alpha_inv=2.0, eta=0.7, power=0.5),
            GridPoint(alpha_inv=4.0, eta=0.7, power=0.5))
    return SweepConfig(scenario=scenario, grid=grid, mc=mc)


def test_grid_point_validation():
    with pytest.raises(ConfigurationError):
        GridPoint(alpha_inv=0.0, eta=0.5, power=0.5)
    with pytest.raises(ConfigurationError):
        GridPoint(alpha_inv=2.0, eta=1.5, power=0.5)
    with pytest.raises(ConfigurationError):
        GridPoint(alpha_inv=2.0, eta=0.5, power=-1.0)
    for value in (np.inf, np.nan):
        for name in ("alpha_inv", "power", "rho", "sigma2"):
            point = {"alpha_inv": 2.0, "eta": 0.5, "power": 0.5, name: value}
            with pytest.raises(ConfigurationError,
                               match=f"{name} must be finite and positive"):
                GridPoint(**point)
        with pytest.raises(ConfigurationError, match="papr_db must be finite"):
            GridPoint(alpha_inv=2.0, eta=0.5, power=0.5, papr_db=value)
    for value in (0.0, -1.0):
        with pytest.raises(ConfigurationError,
                           match="sigma2 must be finite and positive"):
            GridPoint(alpha_inv=2.0, eta=0.5, power=0.5, sigma2=value)


def test_sweep_config_validation():
    with pytest.raises(ConfigurationError):
        SweepConfig(scenario={"kind": "full"}, grid=())
    with pytest.raises(ConfigurationError):
        SweepConfig(scenario={"kind": "bogus"},
                    grid=(GridPoint(2.0, 0.5, 0.5),))
    with pytest.raises(ConfigurationError):
        SweepConfig(scenario={"kind": "full"},
                    grid=(GridPoint(2.0, 0.5, 0.5),),
                    spec_version="99")
    # K = N / alpha_inv must be integral when Monte Carlo is requested
    with pytest.raises(ConfigurationError):
        SweepConfig(scenario={"kind": "full"},
                    grid=(GridPoint(3.0, 0.5, 0.5),),
                    mc={"n": 64, "n_channels": 4})


def test_load_sweep_config_roundtrip(tmp_path):
    path = tmp_path / "sweep.yaml"
    path.write_text(
        "spec_version: '1'\n"
        "scenario: {kind: full, sparsity: l1}\n"
        "grid:\n"
        "  - {alpha_inv: 2.0, eta: 0.7, power: 0.5}\n"
        "mc: {n: 16, n_channels: 3, seed: 7}\n"
        "output: out.csv\n")
    cfg = load_sweep_config(path)
    assert cfg.scenario["sparsity"] == "l1"
    assert cfg.grid[0].alpha_inv == 2.0
    assert cfg.mc["seed"] == 7
    assert cfg.output == "out.csv"


def test_load_sweep_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigurationError):
        load_sweep_config(path)


def test_run_trial_deterministic():
    pen = PenaltySpec(lambda2=0.2, lambda1=0.1)
    a = run_trial(16, 8, 1.0, pen, SupportSpec.full_complex(), seed=3)
    b = run_trial(16, 8, 1.0, pen, SupportSpec.full_complex(), seed=3)
    assert a == b
    c = run_trial(16, 8, 1.0, pen, SupportSpec.full_complex(), seed=4)
    assert a != c


def test_run_trials_independent_of_stacking():
    # 18 trials at N = 64 make one full stack and one of 2; each must equal
    # its own one-trial solve bit for bit
    pen = PenaltySpec(lambda2=0.05, lambda1=0.3)
    full = SupportSpec.full_complex()
    assert harness._stack_size(64) == 16
    stats = run_trials(64, 32, 1.0, pen, full, range(40, 58))
    for i, seed in enumerate(range(40, 58)):
        assert run_trial(64, 32, 1.0, pen, full, seed) == tuple(
            float(col[i]) for col in stats)


def test_apg_iteration_cap_raises(monkeypatch):
    # the sweep row and --strict exit code: test_cli.py
    monkeypatch.setattr(finite, "DEFAULT_MAX_ITER", 1)
    pen = PenaltySpec(lambda2=0.2, lambda1=0.1)
    with pytest.raises(ConvergenceError, match=r"seeds \[3, 4\]"):
        run_trials(16, 8, 1.0, pen, SupportSpec.full_complex(), [3, 4])


def _continued_branch_weights():
    # alpha_inv 4, eta 0.7 (the second point of _config) tunes past the
    # Lagrangian boundary: xi < 0 and lambda1 < 0
    spec = ScenarioSpec(PenaltySpec(), SupportSpec.full_complex(), 0.25, 1.0)
    pen, sol = tune(spec, 0.5, 0.7, sparsity="l1")
    assert sol.chi < -1 and pen.lambda1 < 0
    return pen


def test_program_follows_the_replica_state():
    # full/l1 at alpha_inv 4, eta 1 tunes to lambda1 = 0 and lambda2 < 0
    # with xi < 0: the weight signs of the capped branch, past the boundary
    full = SupportSpec.full_complex()
    pen, sol = tune(ScenarioSpec(PenaltySpec(), full, 0.25, 1.0), 0.5, 1.0,
                    sparsity="l1")
    assert pen.lambda1 == 0 and pen.lambda2 < 0 and sol.xi < 0
    assert harness._program(pen, full, sol) == ("stationary", None)
    # the same weights on a state with xi > 0: the minimiser under state.p
    assert harness._program(
        pen, full, dataclasses.replace(sol, xi=1.0, p=0.4)) == ("apg", 0.4)
    # raw weights: no budget is known
    assert harness._program(pen, full, None) == ("stationary", None)
    # criterion 02's capped point (alpha_inv 2, eta 0.3) keeps its budget
    spec = ScenarioSpec(PenaltySpec(), full, 0.5, 1.0)
    capped, capped_sol = tune(spec, 0.5, 0.3, sparsity="l1")
    assert capped.lambda2 < 0 < capped.lambda1
    assert harness._program(capped, full, capped_sol) == ("apg", 0.5)
    assert harness._program(_continued_branch_weights(), full, None) == (
        "stationary", None)
    for weights, support, program in (
            (PenaltySpec(lambda2=0.1, lambda1=0.05), full, "apg"),
            (PenaltySpec(lambda2=-0.1), SupportSpec.disk(1.0), "apg"),
            (PenaltySpec(lambda2=-0.1), SupportSpec.mpsk_zero(2, 2.5),
             "discrete"),
            (PenaltySpec(lambda2=-0.1, lambda0=-0.2), full, "l0")):
        assert harness._program(weights, support, sol) == (program, None)


def test_pure_ridge_continued_branch_matches_replica():
    # the weight signs alone gave these trials the power-capped APG, 2.5 dB
    # below D_rs; the state's stationary point (rzf) is 0.02 dB above it
    grid = (GridPoint(alpha_inv=4.0, eta=1.0, power=0.5),)
    cfg = SweepConfig(scenario={"kind": "full", "sparsity": "l1"},
                      grid=grid, mc={"n": 64, "n_channels": 20, "seed": 0})
    (rec,) = run_sweep(cfg)
    assert rec.error is None and rec.lambda1 == 0 and rec.chi < -1
    assert abs(to_db(rec.mc_d_mean / rec.d_rs)) < 0.5


def test_stationary_nonconvergence_raises_and_is_recorded(monkeypatch):
    pen = _continued_branch_weights()
    monkeypatch.setattr(harness, "glse_stationary",
                        functools.partial(finite.glse_stationary, max_iter=1))
    with pytest.raises(ConvergenceError) as err:
        run_trial(16, 4, 1.0, pen, SupportSpec.full_complex(), seed=3)
    assert err.value.residuals["stationarity"] > 0
    records = run_sweep(_config(mc={"n": 16, "n_channels": 2, "seed": 5}))
    assert records[0].error is None and records[0].mc_d_mean is not None
    assert records[1].error.startswith("ConvergenceError")
    assert records[1].mc_d_mean is None


def test_run_sweep_records_and_csv_roundtrip(tmp_path):
    cfg = _config(mc={"n": 16, "n_channels": 3, "seed": 11})
    records = run_sweep(cfg)
    assert len(records) == 2
    for rec in records:
        assert rec.error is None
        assert rec.d_rs is not None and rec.d_rs > 0
        assert rec.mc_d_mean is not None and rec.n_trials == 3
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    rows = read_csv(path)
    assert len(rows) == 2
    assert float(rows[0]["D_rs"]) == pytest.approx(records[0].d_rs, rel=1e-10)
    assert rows[0]["D_rsb"] == ""  # not a constellation scenario
    assert float(rows[0]["D_rs_dB"]) == pytest.approx(to_db(records[0].d_rs),
                                                      rel=1e-9)


def test_run_sweep_identical_across_workers():
    cfg = _config(mc={"n": 16, "n_channels": 4, "seed": 2})
    serial = run_sweep(cfg, n_workers=1)
    parallel = run_sweep(cfg, n_workers=2)
    for a, b in zip(serial, parallel):
        assert a.mc_d_mean == b.mc_d_mean
        assert a.mc_power == b.mc_power
        assert a.mc_eta == b.mc_eta


def test_run_sweep_survives_per_point_failure():
    # an unreachable activity target for the disk scenario must be
    # reported in the error field without aborting the sweep
    grid = (GridPoint(alpha_inv=2.0, eta=0.7, power=0.5),)
    cfg = SweepConfig(scenario={"kind": "mpsk_zero", "order": 2,
                                "peak_power": 2.5, "rsb": False}, grid=grid)
    records = run_sweep(cfg)
    assert len(records) == 1
    assert records[0].error is not None
    assert records[0].d_rs is None


@pytest.mark.parametrize("rsb", [True, False])
def test_qpsk_sweep_row_without_broken_solve(rsb):
    # the one-step broken solve covers BPSK only: a QPSK row with the
    # default rsb records the refusal and keeps its symmetric results
    grid = (GridPoint(alpha_inv=2.5, eta=0.4, power=1.0),)
    scenario = {"kind": "mpsk_zero", "order": 4, "peak_power": 2.5}
    if not rsb:
        scenario["rsb"] = False
    (rec,) = run_sweep(SweepConfig(scenario=scenario, grid=grid))
    assert rec.d_rs > 0 and rec.d_lemma2 > 0
    assert rec.d_rsb is None
    if rsb:
        assert rec.error.startswith("ConfigurationError")
    else:
        assert rec.error is None


def test_run_sweep_records_negative_l0_weights():
    # full/l0 at alpha_inv 4, eta 0.7 tunes to the continued branch with
    # lambda0 < 0 and lambda2 < 0; its trials must fail in the row's error
    # field instead of averaging exhaustive solves of another program
    grid = (GridPoint(alpha_inv=4.0, eta=0.7, power=0.5),)
    cfg = SweepConfig(scenario={"kind": "full", "sparsity": "l0"},
                      grid=grid, mc={"n": 16, "n_channels": 2, "seed": 0})
    (rec,) = run_sweep(cfg)
    assert rec.lambda0 < 0 and rec.lambda2 < 0
    assert rec.error.startswith("ConfigurationError")
    assert rec.mc_d_mean is None


def test_l0_guard_refuses_only_points_below_full_activity():
    # past MAX_ENUM_L0 an l0 point with eta < 1 is refused at load; at
    # eta = 1 the tuned penalty is quadratic only (lambda0 = +0.0) and its
    # trials run the proximal-gradient program
    mc = {"n": 20, "n_channels": 1, "seed": 0}
    with pytest.raises(ConfigurationError, match="l0 enumeration guard"):
        SweepConfig(scenario={"kind": "full"}, mc=mc,
                    grid=(GridPoint(2.0, 1.0, 0.5), GridPoint(2.0, 0.7, 0.5)))
    SweepConfig(scenario={"kind": "full", "sparsity": "l1"}, mc=mc,
                grid=(GridPoint(2.0, 0.7, 0.5),))
    (rec,) = run_sweep(SweepConfig(scenario={"kind": "full"}, mc=mc,
                                   grid=(GridPoint(2.0, 1.0, 0.5),)))
    assert rec.error is None and rec.n_trials == 1
    assert math.copysign(1.0, rec.lambda0) == 1.0


def test_disk_row_takes_its_peak_power_from_papr_db(tmp_path):
    grid = (GridPoint(alpha_inv=2.0, eta=0.7, power=0.5, papr_db=3.0),)
    records = run_sweep(SweepConfig(
        scenario={"kind": "disk", "sparsity": "l1"}, grid=grid))
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    (row,) = read_csv(path)
    assert records[0].error is None
    assert row["scenario"] == "disk_l1"
    assert row["P"] == "0.997631157484"  # 0.5 * 10**0.3


def test_row_with_sigma2_records_the_rate_lower_bound():
    grid = (GridPoint(alpha_inv=2.0, eta=0.7, power=0.5, papr_db=3.0,
                      sigma2=0.1),)
    (rec,) = run_sweep(SweepConfig(
        scenario={"kind": "disk", "sparsity": "l1"}, grid=grid))
    assert rec.error is None
    assert rec.rate_lb == rate_lower_bound(rec.rho, rec.d_rs, 0.1)


def test_bpsk_row_monte_carlo_is_the_mean_of_its_trials():
    # a constellation row solves each trial by exhaustive search
    grid = (GridPoint(alpha_inv=2.5, eta=0.4, power=1.0),)
    bpsk = {"kind": "mpsk_zero", "order": 2, "peak_power": 2.5, "rsb": False}
    (rec,) = run_sweep(SweepConfig(scenario=bpsk, grid=grid,
                                   mc={"n": 5, "n_channels": 2, "seed": 0}))
    assert rec.error is None and rec.scenario == "mpsk2"
    pen = PenaltySpec(lambda2=rec.lambda2, lambda0=rec.lambda0,
                      lambda1=rec.lambda1)
    d, _, _ = run_trials(5, 2, 1.0, pen, SupportSpec.mpsk_zero(2, 2.5),
                         range(2))
    assert rec.n_trials == 2
    assert rec.mc_d_mean == d.mean()


def test_emit_csv_header_and_missing_fields(tmp_path):
    rec = ExperimentRecord(alpha_inv=2.0, eta_target=0.5, power_target=0.5,
                           rho=1.0, scenario="full_l1")
    path = tmp_path / "row.csv"
    emit_csv([rec], path)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(CSV_COLUMNS)
    row = text[1].split(",")
    assert row[0] == "2" and row[4] == "full_l1"
    assert row[5] == "" and row[-1] == ""


def test_fit_equivalent_eta_recovers_own_family():
    grid = np.array([1.5, 2.0, 3.0, 4.0])
    eta_true = 0.6
    ds = [random_tas_asymptote(1.0 / ai, eta_true, 0.5, 1.0).distortion
          for ai in grid]
    eta_fit, resid = fit_equivalent_eta(grid, ds, 0.5, 1.0)
    assert eta_fit == pytest.approx(eta_true, abs=1e-4)
    assert resid < 1e-10


def test_fit_equivalent_eta_validates_input():
    with pytest.raises(ConfigurationError):
        fit_equivalent_eta([1.0, 2.0], [0.1], 0.5, 1.0)
    with pytest.raises(ConfigurationError):
        fit_equivalent_eta([], [], 0.5, 1.0)
