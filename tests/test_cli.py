import json
import os

import numpy as np
import pytest

from glse import finite, harness
from glse.cli import main

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "reference")


def _full_l1_config(tmp_path, grid, mc):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "spec_version: '1'\n"
        "scenario: {kind: full, sparsity: l1}\n"
        "grid:\n" + "".join(
            f"  - {{alpha_inv: {a}, eta: {e}, power: {p}}}\n"
            for a, e, p in grid)
        + f"mc: {mc}\n")
    return cfg


def test_replica_command(capsys):
    rc = main(["replica", "--alpha-inv", "2", "--lambda2", "0.5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distortion"] > 0
    assert payload["eta"] == pytest.approx(1.0)


def test_tune_command(capsys):
    rc = main(["tune", "--alpha-inv", "2", "--power", "0.5", "--eta", "0.3",
               "--sparsity", "l1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["solution"]["eta"] == pytest.approx(0.3, abs=1e-6)
    assert payload["penalty"]["lambda1"] > 0


def test_simulate_command(capsys):
    rc = main(["simulate", "--alpha-inv", "2", "--n", "16", "--trials", "3",
               "--lambda2", "0.3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_trials"] == 3
    assert payload["distortion_mean"] > 0


def test_simulate_json_is_pinned(capsys):
    # the batch summary the sweep's Monte Carlo columns share
    assert main(["simulate", "--alpha-inv", "2", "--n", "16", "--trials",
                 "5", "--lambda2", "0.3", "--lambda1", "0.2"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "n_trials": 5, "seed": 0,
        "distortion_mean": 0.21332718056551592,
        "distortion_stderr": 0.04671529891265725,
        "power_mean": 0.1615112507865925, "activity_mean": 0.8375}


def test_simulate_accepts_sweep_integral_users(capsys):
    # 64/1.3061224489795917 = 49 up to rounding; a sweep accepts this point,
    # so simulate must too
    rc = main(["simulate", "--alpha-inv", "1.3061224489795917", "--n", "64",
               "--trials", "1", "--lambda2", "0.3"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["n_trials"] == 1


@pytest.mark.parametrize("argv", [
    ["simulate", "--alpha-inv", "2", "--n", "16", "--trials", "0"],
    ["sweep", "--config", "unused.yaml", "--workers", "0"],
    ["sweep", "--config", "unused.yaml", "--workers", "-2"],
    ["simulate", "--alpha-inv", "2", "--n", "0"],
])
def test_counts_below_one_exit_2(capsys, argv):
    # zero trials would print NaN means (not valid JSON), zero or
    # negative workers would run serially without a word, and --n 0 ended
    # in a ZeroDivisionError traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an integer >= 1" in captured.err


def test_negative_seed_exits_2(capsys):
    # numpy seeds are nonnegative; -1 ended in a ValueError traceback
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--alpha-inv", "2", "--n", "16", "--seed", "-1"])
    assert exc.value.code == 2
    assert "expected an integer >= 0" in capsys.readouterr().err


def test_simulate_negative_ridge_weight_is_rzf(capsys):
    # raw full-plane weights with lambda2 < 0 carry no power budget: the
    # trials solve for the stationary point, which is rzf at lambda1 = 0
    # (this exited 2 with "needs a power_cap")
    assert main(["simulate", "--alpha-inv", "4", "--n", "16", "--trials",
                 "2", "--lambda2", "-0.05"]) == 0
    want = np.mean([finite.rzf(*harness._sample_trial(16, 4, seed), 1.0,
                               -0.05).distortion for seed in (0, 1)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["distortion_mean"] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("rho", ["nan", "inf", "-1"])
def test_simulate_rho_not_finite_and_nonnegative_exits_2(capsys, rho):
    # nan and inf ran both APG trials to the 50,000-iteration cap (4.5 s)
    # and exited 0; the first solve now refuses them before any step
    assert main(["simulate", "--alpha-inv", "2", "--n", "16", "--trials",
                 "2", "--rho", rho]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rho must be finite and nonnegative" in captured.err


@pytest.mark.parametrize("argv", [
    ["replica", "--alpha-inv", "2", "--lambda2", "nan"],
    ["replica", "--alpha-inv", "2", "--lambda1", "nan"],
    ["replica", "--alpha-inv", "2", "--lambda2", "0.5", "--lambda0", "inf"],
    ["simulate", "--alpha-inv", "2", "--n", "4", "--trials", "1",
     "--lambda1", "inf"],
    ["simulate", "--alpha-inv", "2", "--n", "4", "--trials", "1",
     "--lambda2=-inf"],
], ids=["replica_lambda2_nan", "replica_lambda1_nan", "replica_lambda0_inf",
        "simulate_lambda1_inf", "simulate_lambda2_minus_inf"])
def test_penalty_weights_not_finite_exit_2(capsys, argv):
    # replica printed "solver failure" and exited 0 (3 under --strict);
    # simulate ran the APG to its iteration cap and exited 0
    assert main(["--strict"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize("rho", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ["replica", "--alpha-inv", "2", "--lambda2", "0.5"],
    ["tune", "--alpha-inv", "2", "--power", "0.5", "--eta", "0.3"],
], ids=["replica", "tune"])
def test_replica_and_tune_rho_not_finite_and_positive_exits_2(capsys, argv,
                                                              rho):
    # inf ran both solvers into a NaN variance: "solver failure", exit 0
    # (3 under --strict); the scenario now refuses it, as it did nan and 0
    assert main(["--strict"] + argv + ["--rho", rho]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rho must be finite and positive" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["tune", "--alpha-inv", "2", "--power", "inf", "--eta", "0.5"],
     "target_power must be finite and positive"),
    (["replica", "--kind", "disk", "--peak-power", "inf", "--alpha-inv", "2",
      "--lambda2", "0.5"], "peak_power must be finite and positive"),
], ids=["tune_power", "replica_disk_peak_power"])
def test_replica_and_tune_power_not_finite_exits_2(capsys, argv, message):
    # both ran their solvers on an infinite power and exited 3 under --strict
    assert main(["--strict"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv", [
    ["replica", "--lambda2", "0.5", "--alpha-inv", "0"],
    ["tune", "--power", "0.5", "--eta", "0.3", "--alpha-inv", "0"],
    ["simulate", "--n", "16", "--trials", "1", "--lambda2", "0.3",
     "--alpha-inv", "0"],
    ["bound", "--eta", "0.4", "--peak-power", "2.5", "--alpha-inv", "0"],
    ["replica", "--lambda2", "0.5", "--alpha-inv", "nan"],
])
def test_alpha_inv_not_positive_exits_2(capsys, argv):
    # --alpha-inv 0 used to end in a ZeroDivisionError traceback (exit 1)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected a number > 0, got {argv[-1]}" in captured.err


def test_bound_command_at_vanishing_load(capsys):
    # at alpha_inv 1e-17 the Lambert-W argument reaches its branch point:
    # r = 1 and the bound is rho + eta * P
    assert main(["bound", "--alpha-inv", "1e-17", "--eta", "0.4",
                 "--peak-power", "2.5"]) == 0
    assert json.loads(capsys.readouterr().out) == {"lemma2": 2.0}


def test_bound_command(capsys):
    rc = main(["bound", "--alpha-inv", "2", "--eta", "0.4",
               "--peak-power", "2.5", "--sigma2", "0.1",
               "--distortion", "0.05"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lemma2"] > 0
    assert "rate_lb" in payload


@pytest.mark.parametrize("sigma2,distortion", [("-0.5", "0.05"),
                                                ("0.1", "-0.2"),
                                                ("inf", "0.05"),
                                                ("0.1", "inf")])
def test_bound_command_rejects_invalid_rate_inputs(capsys, sigma2,
                                                   distortion):
    # log(rho/(sigma2 + D)) would be NaN here, or -inf printed as the
    # invalid JSON -Infinity
    rc = main(["bound", "--alpha-inv", "2", "--eta", "0.4",
               "--peak-power", "2.5", "--sigma2", sigma2,
               "--distortion", distortion])
    assert rc == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("extra", [["--peak-power", "inf"],
                                   ["--peak-power", "2.5", "--rho", "inf"]],
                         ids=["peak_power", "rho"])
def test_bound_command_rejects_infinite_lemma2_inputs(capsys, extra):
    # lemma2 was printed as Infinity, which is not valid JSON, with exit 0
    rc = main(["bound", "--alpha-inv", "2", "--eta", "0.4"] + extra)
    assert rc == 2
    assert capsys.readouterr().out == ""


def test_sweep_command(tmp_path, capsys):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "spec_version: '1'\n"
        "scenario: {kind: full, sparsity: l1}\n"
        "grid:\n"
        "  - {alpha_inv: 2.0, eta: 0.7, power: 0.5}\n"
        "mc: {n: 16, n_channels: 2, seed: 3}\n")
    out = tmp_path / "out.csv"
    rc = main(["sweep", "--config", str(cfg), "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("alpha_inv,")


def test_configuration_error_exit_code(capsys):
    rc = main(["replica", "--alpha-inv", "2", "--kind", "disk"])
    assert rc == 2


def test_broken_solve_refuses_qpsk(capsys):
    rc = main(["replica", "--kind", "mpsk_zero", "--order", "4",
               "--peak-power", "2.5", "--alpha-inv", "2", "--lambda2", "0.3",
               "--rsb"])
    assert rc == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("scenario,mc", [
    ("full", "{n: 16, n_channels: 2}"),
    ("{kind: full}", "5"),
    ("{kind: full}", "{n: abc, n_channels: 2}"),
    ("{kind: full}", "{n: 16, n_channels: 2, seed: abc}"),
    ("{kind: full}", "{n: 16.9, n_channels: 2}"),
    ("{kind: full}", "{n: 16, n_channels: 2.5}"),
    ("{kind: full}", "{n: 16, n_channels: 2, seed: 1.7}"),
    ("{kind: full}", "{n: .inf, n_channels: 2}"),
    ("{kind: full}", "{n: 16, n_channels: 2, seed: -1}"),
    ("{kind: mpsk_zero, order: 2.5, peak_power: 2.5, rsb: false}",
     "{n: 16, n_channels: 2}"),
    ("{kind: full, sparsity: l2}", "{n: 16, n_channels: 2}"),
    ("{kind: full, sparsty: l1}", "{n: 16, n_channels: 2}"),
    ("{kind: disk, sparsity: l1, peak_power: -1}", "{n: 16, n_channels: 2}"),
    ("{kind: disk, sparsity: l1, peak_power: .inf}",
     "{n: 16, n_channels: 2}"),
    ("{kind: disk, sparsity: l1, peak_power: abc}",
     "{n: 16, n_channels: 2}"),
    ("{kind: disk, sparsity: l1}", "{n: 16, n_channels: 2}"),
    ("{kind: mpsk_zero, peak_power: 2.5, rsb: false}",
     "{n: 16, n_channels: 2}"),
    ("{kind: mpsk_zero, order: 1, peak_power: 2.5, rsb: false}",
     "{n: 16, n_channels: 2}"),
    ("{kind: mpsk_zero, order: 2, peak_power: 2.5, rsb: 'no'}",
     "{n: 16, n_channels: 2}"),
    ("{kind: mpsk_zero, order: 2, peak_power: 2.5, rsb: false}",
     "{n: 40, n_channels: 2}"),
], ids=["scenario_not_mapping", "mc_not_mapping", "mc_n_not_int",
        "mc_seed_not_int", "mc_n_fractional", "mc_n_channels_fractional",
        "mc_seed_fractional", "mc_n_infinite", "mc_seed_negative",
        "order_fractional", "sparsity_l2", "unknown_key",
        "peak_power_negative", "peak_power_infinite", "peak_power_not_number",
        "peak_power_missing", "order_missing", "order_1", "rsb_not_bool",
        "mc_n_past_enumeration_guard"])
def test_malformed_sweep_config_exits_2(tmp_path, capsys, scenario, mc):
    # each of these used to end in a traceback (exit 1), for a fractional
    # count or order to be truncated to an int, for an unknown key to be
    # ignored, or for a bad support, sparsity or rsb flag, or a constellation
    # too large to enumerate, to reach the rows (exit 3 under --strict, or a
    # row written from the bad value)
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "spec_version: '1'\n"
        f"scenario: {scenario}\n"
        "grid:\n"
        "  - {alpha_inv: 2.0, eta: 0.7, power: 0.5}\n"
        f"mc: {mc}\n")
    out = tmp_path / "out.csv"
    assert main(["--strict", "sweep", "--config", str(cfg),
                 "--output", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("output, message", [
    (None, "no output path"),
    ("missing/out.csv", "cannot write CSV"),
], ids=["no_output_path", "missing_directory"])
def test_sweep_output_errors_exit_2(tmp_path, capsys, output, message):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "spec_version: '1'\n"
        "scenario: {kind: full, sparsity: l1}\n"
        "grid:\n"
        "  - {alpha_inv: 2.0, eta: 0.7, power: 0.5}\n")
    argv = ["sweep", "--config", str(cfg)]
    if output is not None:
        argv += ["--output", str(tmp_path / output)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("field", ["rho", "power"])
def test_sweep_grid_point_not_finite_exits_2(tmp_path, capsys, field):
    # the row recorded the spec's ConfigurationError and --strict exited 3
    cfg = tmp_path / "sweep.yaml"
    point = {"alpha_inv": "2.0", "eta": "0.7", "power": "0.5", field: ".inf"}
    cfg.write_text(
        "spec_version: '1'\n"
        "scenario: {kind: full, sparsity: l1}\n"
        "grid:\n"
        "  - {" + ", ".join(f"{k}: {v}" for k, v in point.items()) + "}\n")
    assert main(["--strict", "sweep", "--config", str(cfg),
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert f"{field} must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("sigma2", ["-1", "0", ".nan", ".inf"])
def test_sweep_grid_point_sigma2_exits_2(tmp_path, capsys, sigma2):
    # the row recorded rate_lower_bound's ConfigurationError and --strict
    # exited 3; .inf wrote -inf in rate_lb and exited 0
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "spec_version: '1'\n"
        "scenario: {kind: full, sparsity: l1}\n"
        "grid:\n"
        "  - {alpha_inv: 2.0, eta: 0.7, power: 0.5, sigma2: " + sigma2
        + "}\n")
    assert main(["--strict", "sweep", "--config", str(cfg),
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert "sigma2 must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("papr_db", [".inf", ".nan"])
def test_sweep_papr_db_not_finite_exits_2(tmp_path, capsys, papr_db):
    # the row recorded SupportSpec's ConfigurationError on the peak power
    # and --strict exited 3
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "spec_version: '1'\n"
        "scenario: {kind: disk, sparsity: l1}\n"
        "grid:\n"
        "  - {alpha_inv: 2.0, eta: 0.7, power: 0.5, papr_db: " + papr_db
        + "}\n")
    assert main(["--strict", "sweep", "--config", str(cfg),
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert "papr_db must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.yaml", ".", "bad.yaml"],
                         ids=["missing", "directory", "bad_yaml"])
def test_unreadable_sweep_config_exits_2(tmp_path, capsys, name):
    # a FileNotFoundError, an IsADirectoryError and a yaml parser error
    # each ended in a traceback (exit 1)
    (tmp_path / "bad.yaml").write_text("grid: [{alpha_inv: 2.0\n")
    assert main(["sweep", "--config", str(tmp_path / name),
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert "configuration error: cannot read config" in (
        capsys.readouterr().err)


def test_strict_flag_on_solver_failure(tmp_path):
    # activity target unreachable for the constellation support: the tune
    # step fails per point; strict sweep surfaces it via exit code 3
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "spec_version: '1'\n"
        "scenario: {kind: mpsk_zero, order: 2, peak_power: 2.5, rsb: false}\n"
        "grid:\n"
        "  - {alpha_inv: 2.0, eta: 0.7, power: 0.5}\n")
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg),
                 "--output", str(out)]) == 0
    assert main(["--strict", "sweep", "--config", str(cfg),
                 "--output", str(out)]) == 3


def test_sweep_matches_warmup_reference_bytes(tmp_path):
    # the benchmark's warm-up sweep; its reference CSV pins the Monte Carlo
    # arithmetic bit for bit
    cfg = _full_l1_config(tmp_path, [(2.0, 0.7, 0.5), (4.0, 0.5, 0.5)],
                          "{n: 64, n_channels: 8, seed: 1234}")
    out = tmp_path / "out.csv"
    assert main(["--strict", "sweep", "--config", str(cfg),
                 "--output", str(out)]) == 0
    with open(os.path.join(REFERENCE, "mc_sweep_warmup_n8.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_sweep_bytes_independent_of_workers_and_stacks(tmp_path):
    # 20 channels at N = 64 split into stacks of 16 and 4; pool workers
    # take whole stacks
    cfg = _full_l1_config(tmp_path, [(2.0, 0.7, 0.5)],
                          "{n: 64, n_channels: 20, seed: 9}")
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"out{workers}.csv"
        assert main(["sweep", "--config", str(cfg), "--output", str(out),
                     "--workers", str(workers)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_strict_sweep_exits_3_on_apg_iteration_cap(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(finite, "DEFAULT_MAX_ITER", 1)
    cfg = _full_l1_config(tmp_path, [(2.0, 0.7, 0.5)],
                          "{n: 16, n_channels: 3, seed: 3}")
    out = tmp_path / "out.csv"
    assert main(["--strict", "sweep", "--config", str(cfg),
                 "--output", str(out)]) == 3
    assert "ConvergenceError: APG solve (seeds [3, 4, 5])" in (
        capsys.readouterr().err)
    assert out.read_text().splitlines()[1].split(",")[18] == ""  # mc_D_mean
