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


@pytest.mark.parametrize("argv", [
    ["replica", "--lambda2", "0.5"],
    ["tune", "--power", "0.5", "--eta", "0.3"],
    ["simulate", "--n", "16", "--trials", "1", "--lambda2", "0.3"],
    ["bound", "--eta", "0.4", "--peak-power", "2.5"],
])
def test_alpha_inv_not_positive_exits_2(capsys, argv):
    # --alpha-inv 0 used to end in a ZeroDivisionError traceback (exit 1)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--alpha-inv", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a number > 0" in captured.err


def test_bound_command(capsys):
    rc = main(["bound", "--alpha-inv", "2", "--eta", "0.4",
               "--peak-power", "2.5", "--sigma2", "0.1",
               "--distortion", "0.05"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lemma2"] > 0
    assert "rate_lb" in payload


@pytest.mark.parametrize("sigma2,distortion", [("-0.5", "0.05"),
                                                ("0.1", "-0.2")])
def test_bound_command_rejects_invalid_rate_inputs(capsys, sigma2,
                                                   distortion):
    # log(rho/(sigma2 + D)) would be NaN here
    rc = main(["bound", "--alpha-inv", "2", "--eta", "0.4",
               "--peak-power", "2.5", "--sigma2", sigma2,
               "--distortion", distortion])
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
], ids=["scenario_not_mapping", "mc_not_mapping", "mc_n_not_int",
        "mc_seed_not_int", "mc_n_fractional", "mc_n_channels_fractional",
        "mc_seed_fractional", "mc_n_infinite", "mc_seed_negative",
        "order_fractional"])
def test_malformed_sweep_config_exits_2(tmp_path, capsys, scenario, mc):
    # each of these used to end in a traceback (exit 1), or for a fractional
    # count or order to be truncated to an int
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "spec_version: '1'\n"
        f"scenario: {scenario}\n"
        "grid:\n"
        "  - {alpha_inv: 2.0, eta: 0.7, power: 0.5}\n"
        f"mc: {mc}\n")
    assert main(["sweep", "--config", str(cfg),
                 "--output", str(tmp_path / "out.csv")]) == 2
    assert "configuration error" in capsys.readouterr().err


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
