import numpy as np
import pytest

from glse.errors import ConfigurationError
from glse.penalties import PenaltySpec, SupportSpec, decouple
from glse.replica import (ScenarioSpec, rs_distortion, solve_rs_scenario,
                          tune)
from glse.rsb import _grid_moments, _QuadGrid, rsb_distortion, solve_rsb1

BPSK = SupportSpec.mpsk_zero(2, 2.5)
QPSK = SupportSpec.mpsk_zero(4, 2.5)


def _tuned(support, ai, eta=0.4):
    spec = ScenarioSpec(PenaltySpec(), support, 1.0 / ai, 1.0)
    pen, sol = tune(spec, eta * support.peak_power, eta)
    return ScenarioSpec(pen, support, spec.load, spec.rho), sol


@pytest.mark.parametrize("support,ai", [(BPSK, 1.5), (BPSK, 2.5),
                                        (QPSK, 1.5), (QPSK, 2.5)])
def test_forced_c_zero_degenerates_to_rs(support, ai):
    spec, rs = _tuned(support, ai)
    rsb = solve_rsb1(spec, force_c_zero=True)
    assert rsb.c == pytest.approx(0.0, abs=1e-12)
    assert rsb.distortion == pytest.approx(rs.distortion, abs=1e-6)
    assert rsb.chi == pytest.approx(rs.chi, abs=1e-6)
    assert rsb.p == pytest.approx(rs.p, abs=1e-6)


def test_distortion_continuous_in_c():
    spec, rs = _tuned(BPSK, 2.0)
    base = rs_distortion(spec, rs.chi, rs.p)
    assert rsb_distortion(spec, rs.chi, rs.p, 0.0, 2.0) == pytest.approx(
        base, abs=1e-12)
    drift = abs(rsb_distortion(spec, rs.chi, rs.p, 1e-8, 2.0) - base)
    assert drift < 1e-6


def test_flag_validation():
    spec, _ = _tuned(BPSK, 2.0)
    with pytest.raises(ConfigurationError):
        solve_rsb1(spec, third_equation="bogus")
    with pytest.raises(ConfigurationError):
        solve_rsb1(spec, mu_exponent="cubic")
    with pytest.raises(ConfigurationError):
        solve_rsb1(spec, s1_sign=0.0)


def test_constellation_requires_quadratic_only():
    spec = ScenarioSpec(PenaltySpec(lambda2=0.3, lambda1=0.1), BPSK, 0.5, 1.0)
    with pytest.raises(ConfigurationError):
        solve_rsb1(spec)


def test_forced_c_zero_matches_rs_for_untuned_weights():
    spec = ScenarioSpec(PenaltySpec(lambda2=0.3), QPSK, 0.4, 1.0)
    rs = solve_rs_scenario(spec)
    rsb = solve_rsb1(spec, force_c_zero=True)
    assert rsb.distortion == pytest.approx(rs.distortion, abs=1e-6)
    assert rsb.eta == pytest.approx(rs.eta, abs=1e-6)


@pytest.mark.parametrize("support", [QPSK, SupportSpec.constant_envelope(2.5)])
def test_grid_moments_run_on_decouple(support):
    # the tensor grid of M >= 4 and constant-envelope supports; its
    # agreement with the analytic moments is not asserted (the grid is
    # coarse at the hard thresholds)
    grid = _QuadGrid(12, 6)
    pen, xi, rho_rs = PenaltySpec(lambda2=0.3), 1.7, 1.1
    # rho1 = 0: no tilt, a plain Gauss-Hermite average over the outer nodes
    power, cross, m1, eta, _ = _grid_moments(grid, pen, support, xi, rho_rs,
                                             0.0, 1.0, 1.0)
    s = np.sqrt(rho_rs) * grid.s0[:, :, 0, 0]
    x = decouple(s, xi, pen, support)
    w = grid.w_outer
    assert m1 == 0
    assert power == pytest.approx(np.sum(w * np.abs(x) ** 2), rel=1e-12)
    assert cross == pytest.approx(np.sum(w * np.real(x * np.conj(s))),
                                  rel=1e-12)
    assert eta == pytest.approx(np.sum(w * (x != 0)), rel=1e-12)
    # rho1 > 0: every active output sits on the peak-power ring
    power, _, _, eta, _ = _grid_moments(grid, pen, support, xi, rho_rs,
                                        0.4, 2.0, 1.0)
    assert power == pytest.approx(support.peak_power * eta, rel=1e-12)
    assert 0 < eta < 1
