import inspect
import sys

import numpy as np
import pytest
from scipy.special import ndtri

from glse.errors import ConfigurationError, ConvergenceError, DomainError
from glse.penalties import PenaltySpec, SupportSpec, decouple
from glse.replica import (_PANEL_WIDTH, ScenarioSpec, _active_segments,
                          _chord_newton, _first_root, _tune_root, _w,
                          _w_prime, _weights, generic_moments,
                          heuristic_rate, lemma2_bound, qfunc,
                          random_tas_asymptote, rate_lower_bound,
                          rs_distortion, scenario_moments, solution_at,
                          solve_rs_generic, solve_rs_scenario, tune)
from glse.rmt import r_transform, r_transform_derivative

FULL = SupportSpec.full_complex()


def _spec(penalty, support=FULL, load=0.5, rho=1.0):
    return ScenarioSpec(penalty, support, load, rho)


def test_quadratic_scenario_matches_closed_form_chi():
    # with a quadratic penalty only, the fixed point is chi = xi/(1 + xi*la)
    # with xi = (1 + chi)/alpha, i.e. a quadratic equation in chi
    la, alpha = 0.7, 0.5
    sol = solve_rs_scenario(_spec(PenaltySpec(lambda2=la), load=alpha))
    # positive root of la*chi^2 + (alpha + la - 1)*chi - 1 = 0
    b = alpha + la - 1.0
    chi_ref = (-b + np.sqrt(b * b + 4.0 * la)) / (2.0 * la)
    assert sol.chi == pytest.approx(chi_ref, rel=1e-8)
    assert sol.xi == pytest.approx((1 + sol.chi) / alpha, rel=1e-10)
    assert sol.chi == pytest.approx(sol.xi / (1 + sol.xi * la), rel=1e-8)
    assert sol.eta == pytest.approx(1.0)
    assert sol.distortion == pytest.approx(
        (sol.rho + sol.p) / (1 + sol.chi) ** 2, rel=1e-10)


def test_quadratic_power_matches_mc():
    # large-system Monte Carlo power of the regularized zero-forcer
    from glse.finite import rzf
    from glse.rmt import ChannelSpec, sample_channel
    la = 0.5
    sol = solve_rs_scenario(_spec(PenaltySpec(lambda2=la), load=0.5))
    n, k = 256, 128
    h = sample_channel(ChannelSpec(n_tx=n, n_users=k, rng_seed=9))
    rng = np.random.default_rng(10)
    s = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2)
    out = rzf(h, s, 1.0, la)
    assert out.power == pytest.approx(sol.p, rel=0.05)
    assert out.distortion == pytest.approx(sol.distortion, rel=0.1)


MOMENT_SCENARIOS = [
    (PenaltySpec(lambda2=0.3, lambda0=0.4), FULL),
    (PenaltySpec(lambda2=0.3, lambda1=0.4), FULL),
    (PenaltySpec(lambda2=0.2, lambda0=0.3), SupportSpec.disk(1.5)),
    (PenaltySpec(lambda2=0.2, lambda1=0.3), SupportSpec.disk(1.5)),
    (PenaltySpec(lambda2=0.3), SupportSpec.constant_envelope(2.5)),
    (PenaltySpec(lambda2=0.3), SupportSpec.mpsk_zero(2, 2.5)),
    (PenaltySpec(lambda2=0.3), SupportSpec.mpsk_zero(4, 2.5)),
]
MOMENT_STATES = ((1.3, 2.0), (4.0, 0.7), (1.3, 1.1))


@pytest.mark.parametrize("penalty,support", MOMENT_SCENARIOS)
def test_analytic_moments_match_quadrature(monkeypatch, penalty, support):
    # dual route: closed-form Gaussian moments against direct quadrature
    # over the scalar decoupled precoder; on the disk with l1 at xi = 4 the
    # clip point lies inside the active region, a kink of the integrand
    # that the cut at the rim takes out of every piece. Each call makes at
    # most 12 profile calls: the regime scan, the multisection rounds and
    # one for the fixed rule (49 to 73 with bisection and no rim cut)
    calls = []

    def counted(*args):
        calls.append(1)
        return decouple(*args)

    monkeypatch.setattr("glse.replica.decouple", counted)
    for xi, rho_rs in MOMENT_STATES:
        ana = scenario_moments(penalty, support, xi, rho_rs)
        calls.clear()
        num = generic_moments(penalty, support, xi, rho_rs)
        assert len(calls) <= 12
        np.testing.assert_allclose(ana, num, rtol=1e-10, atol=0)


@pytest.mark.parametrize("penalty,support,xi,rho_rs", [
    *((pen, sup, xi, rho_rs) for pen, sup in MOMENT_SCENARIOS
      for xi, rho_rs in MOMENT_STATES),
    # the continued branch (xi < 0)
    (PenaltySpec(lambda2=-0.0146, lambda1=-0.0517), FULL, -56.63, 6.0),
])
def test_quadrature_settled_at_its_panel_width(monkeypatch, penalty,
                                               support, xi, rho_rs):
    # on each piece of one regime the integrand in the radius t is a
    # polynomial times 2t e^{-t^2}, so halving the panels moves nothing
    # but rounding
    ref = generic_moments(penalty, support, xi, rho_rs)
    monkeypatch.setattr("glse.replica._PANEL_WIDTH", 0.5 * _PANEL_WIDTH)
    num = generic_moments(penalty, support, xi, rho_rs)
    np.testing.assert_allclose(num, ref, rtol=1e-14, atol=0)


# (lambda2, P, xi, rho_rs): the tuned BPSK point of the rsb_bpsk benchmark
# (alpha_inv 2.5, eta 0.4, P 2.5), where eta = 0.4, and an activity of
# 0.054, where a default-tolerance phase quadrature errs by 1.7e-8 in eta
CRAIG_POINTS = [(0.0820151136520164, 2.5, 8.3306897560951, 5.0),
                (0.9, 4.48, 1.5, 3.33)]


@pytest.mark.parametrize("lam,peak,xi,rho_rs", CRAIG_POINTS)
def test_constellation_moments_match_craig(lam, peak, xi, rho_rs):
    # BPSK is active where |Re s| > tau0: eta = 2Q(h) and cross =
    # sqrt(P) E|Re s|; QPSK where max(|Re s|, |Im s|) > tau0 (Craig 1991).
    # h is tau0 in units of the deviation sqrt(rho_rs/2) of Re s
    h = np.sqrt(2.0 / rho_rs) * np.sqrt(peak) * (1.0 + xi * lam) / 2.0
    q = qfunc(h)
    power, cross, eta = scenario_moments(
        PenaltySpec(lambda2=lam), SupportSpec.mpsk_zero(2, peak), xi, rho_rs)
    cross_ref = np.sqrt(peak * rho_rs / np.pi) * np.exp(-0.5 * h * h)
    np.testing.assert_allclose([power, cross, eta],
                               [peak * 2.0 * q, cross_ref, 2.0 * q],
                               rtol=1e-13, atol=0)
    _, _, eta4 = scenario_moments(
        PenaltySpec(lambda2=lam), SupportSpec.mpsk_zero(4, peak), xi, rho_rs)
    assert eta4 == pytest.approx(4.0 * q - 4.0 * q * q, rel=1e-13, abs=0)


@pytest.mark.parametrize("activity", [0.8, 0.975, 0.99])
def test_bpsk_quadrature_matches_craig_at_high_activity(activity):
    # the phase integrand exp(-h^2/(2 cos^2 theta)) is not analytic at
    # pi/2; h, tau0 in units of the deviation of Re s, is set by the
    # activity 2Q(h)
    peak, xi, rho_rs = 2.5, 1.5, 1.0
    h = -ndtri(0.5 * activity)
    lam = (h * np.sqrt(2.0 * rho_rs / peak) - 1.0) / xi
    num = generic_moments(PenaltySpec(lambda2=lam),
                          SupportSpec.mpsk_zero(2, peak), xi, rho_rs)
    q = qfunc(h)
    cross = np.sqrt(peak * rho_rs / np.pi) * np.exp(-0.5 * h * h)
    np.testing.assert_allclose(num, [peak * 2.0 * q, cross, 2.0 * q],
                               rtol=1e-12, atol=0)


def _phase_quadrature(lam, peak, order, xi, rho_rs):
    """(power, cross, eta) as tight adaptive integrals over [0, pi/M]."""
    from scipy.integrate import quad

    root_p = np.sqrt(peak)
    tau0 = root_p * (1.0 + xi * lam) / 2.0

    def eta_ray(theta):
        return np.exp(-(tau0 / np.cos(theta)) ** 2 / rho_rs)

    def cross_ray(theta):
        # cos(theta) sqrt(P) E[r; r > tau] for the Rayleigh law of |s|
        tau = tau0 / np.cos(theta)
        return root_p * np.cos(theta) * (
            tau * np.exp(-tau * tau / rho_rs)
            + np.sqrt(np.pi * rho_rs) * qfunc(np.sqrt(2.0 / rho_rs) * tau))

    half = np.pi / order
    eta, cross = (quad(f, 0.0, half, limit=500, epsabs=0, epsrel=1.2e-14)[0]
                  * order / np.pi for f in (eta_ray, cross_ray))
    return peak * eta, cross, eta


@pytest.mark.parametrize("order", [3, 8])
@pytest.mark.parametrize("lam,peak,xi,rho_rs", [
    (0.3, 2.5, 1.2, 0.8),
    (0.9, 4.48, 1.5, 3.33),
])
def test_mpsk_moments_match_phase_quadrature(order, lam, peak, xi, rho_rs):
    sup = SupportSpec.mpsk_zero(order, peak)
    np.testing.assert_allclose(
        scenario_moments(PenaltySpec(lambda2=lam), sup, xi, rho_rs),
        _phase_quadrature(lam, peak, order, xi, rho_rs), rtol=1e-12, atol=0)


@pytest.mark.parametrize("penalty,support,xi", [
    # 1 + xi*lambda2 = -0.5: not coercive
    (PenaltySpec(lambda2=-0.5), SupportSpec.mpsk_zero(2, 2.5), 3.0),
    (PenaltySpec(lambda2=-0.5), SupportSpec.mpsk_zero(4, 2.5), 3.0),
    (PenaltySpec(lambda2=-0.5), SupportSpec.constant_envelope(2.5), 3.0),
    (PenaltySpec(lambda2=-0.5, lambda1=0.3), FULL, 3.0),
    (PenaltySpec(lambda2=-0.5, lambda1=0.3), SupportSpec.disk(2.5), 3.0),
    (PenaltySpec(lambda2=-0.5, lambda0=0.3), FULL, 3.0),
    (PenaltySpec(lambda2=-0.5, lambda0=0.3), SupportSpec.disk(2.5), 3.0),
    # negative effective sparse weight xi*lambda
    (PenaltySpec(lambda2=0.2, lambda1=-0.3), FULL, 3.0),
    (PenaltySpec(lambda2=0.2, lambda0=-0.3), SupportSpec.disk(2.5), 3.0),
    # 1 + xi*lambda2 = -0.35 on M-PSK
    (PenaltySpec(lambda2=-0.9), SupportSpec.mpsk_zero(3, 2.5), 1.5),
    (PenaltySpec(lambda2=-0.9), SupportSpec.mpsk_zero(8, 2.5), 1.5),
    # NaN states, such as lambda2 = inf/inf from an overflowing tune iterate
    (PenaltySpec(lambda2=np.nan), SupportSpec.mpsk_zero(2, 2.5), 1.5),
    (PenaltySpec(lambda2=0.2, lambda1=0.3), FULL, np.nan),
    (PenaltySpec(lambda2=0.2, lambda1=np.nan), SupportSpec.disk(2.5), 1.5),
], ids=["bpsk", "qpsk", "const_envelope", "full_l1", "disk_l1", "full_l0",
        "disk_l0", "full_l1_negative", "disk_l0_negative", "mpsk3", "mpsk8",
        "bpsk_nan", "full_l1_nan_xi", "disk_l1_nan_weight"])
def test_moments_raise_outside_the_scalar_domain(penalty, support, xi):
    # both moment paths share the scalar minimizer's domain rule
    with pytest.raises(DomainError):
        scenario_moments(penalty, support, xi, 1.0)
    with pytest.raises(DomainError):
        generic_moments(penalty, support, xi, 1.0)


def test_package_imports_no_numerical_integration():
    # every Gaussian moment is a closed form or the package's own rule
    import os
    import subprocess
    import sys

    import glse
    src = os.path.dirname(os.path.dirname(glse.__file__))
    code = "import sys, glse; assert 'scipy.integrate' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def _bisect(profile, rho_rs, a, b, left_on):
    """(boundary, a, b): 100 bisection steps and their last bracket."""
    for _ in range(100):
        mid = 0.5 * (a + b)
        if (profile(np.sqrt(rho_rs * mid)) != 0) == left_on:
            a = mid
        else:
            b = mid
    return (a if left_on else b), a, b


def _segments_by_loop(profile, rho_rs, u_cap=80.0, scan=4001):
    """Scalar scan with one bisection per boundary (reference).

    Returns the (lo, hi) ends of the segments, each as (boundary, a, b)
    with the last bisection bracket; an end at 0 or inf is its own bracket.
    """
    us = np.linspace(0.0, u_cap, scan)
    on = [profile(np.sqrt(rho_rs * u)) != 0 for u in us]
    ends, lo = [], None
    for i, flag in enumerate(on):
        if flag and lo is None:
            lo = (3 * (us[0],) if i == 0
                  else _bisect(profile, rho_rs, us[i - 1], us[i], False))
        if lo is not None and (i + 1 == scan or not on[i + 1]):
            hi = (3 * (np.inf,) if i + 1 == scan
                  else _bisect(profile, rho_rs, us[i], us[i + 1], True))
            ends += [lo, hi]
            lo = None
    return ends


@pytest.mark.parametrize("profile", [
    lambda r: decouple(r, 1.3, PenaltySpec(0.3, lambda1=0.4), FULL).real,
    lambda r: decouple(r, 1.3, PenaltySpec(0.2, lambda0=0.3),
                       SupportSpec.disk(1.5)).real,
    lambda r: decouple(r * np.exp(0.3j), 1.3, PenaltySpec(0.2),
                       SupportSpec.mpsk_zero(4, 1.5)),
    # active at the origin, three segments, the last one unbounded
    lambda r: np.where((r < 0.5) | ((r > 1.0) & (r < 2.0)) | (r > 5.0),
                       r, 0.0),
])
def test_active_segments_match_scalar_scan(profile):
    # where bisection closes a bracket on adjacent floats, the pair is
    # unique and multisection returns the same end; the last profile is
    # zero at u = 0 only, so 100 bisection steps leave its first bracket
    # at (0, 1.6e-32), and multisection may end anywhere inside it
    ray, lo, hi = _active_segments(profile, 1.1)
    assert not ray.any()
    ref = _segments_by_loop(profile, 1.1)
    assert len(ref) == 2 * lo.size
    for end, (boundary, a, b) in zip(np.column_stack((lo, hi)).ravel(), ref):
        if np.nextafter(a, b) >= b:
            assert end == boundary
        else:
            assert a <= end <= b


@pytest.mark.parametrize("peak,pinned,rel", [
    # no rim on the full plane, and each boundary is the adjacent-float
    # pair that bisection found too: the solve is pinned bit for bit
    (None, ("0x1.6aa514efab250p-4", "0x1.6666666666667p-1",
            "0x1.8edc0834ef3f0p+1"), 0.0),
    # the rim cut moves the disk solve by 5.5e-15 relative
    (0.5 * 10 ** 0.3, ("0x1.4f92f0bafd570p-4", "0x1.6666666666664p-1",
                       "0x1.a3b2c6db3141ap+1"), 1e-13),
], ids=["full_l1", "disk_l1"])
def test_generic_solve_matches_the_bisection_scan(peak, pinned, rel):
    # the solves of the rs_quadrature benchmark: l1 weights tuned to power
    # 0.5 and eta 0.7 at alpha_inv 2, solved from (0.1, 0.1); pinned are
    # (distortion, eta, chi) with the bisection scan and no rim cut
    support = FULL if peak is None else SupportSpec.disk(peak)
    pen, _ = tune(_spec(PenaltySpec(), support), 0.5, 0.7, sparsity="l1")
    sol = solve_rs_generic(_spec(pen, support), inits=[(0.1, 0.1)])
    got = (sol.distortion, sol.eta, sol.chi)
    if rel == 0.0:
        assert tuple(float(v).hex() for v in got) == pinned
    else:
        np.testing.assert_allclose(got, [float.fromhex(v) for v in pinned],
                                   rtol=rel, atol=0)


def test_analytic_moments_continued_branch():
    # negative weights with negative xi: effective thresholds stay positive
    penalty = PenaltySpec(lambda2=-0.0146, lambda1=-0.0517)
    ana = scenario_moments(penalty, FULL, -56.63, 6.0)
    num = generic_moments(penalty, FULL, -56.63, 6.0)
    np.testing.assert_allclose(ana, num, rtol=1e-10, atol=0)
    assert 0 < ana[2] < 1


def _quick_start_spec():
    # the README quick start: the tuned lambda2 = -0.0779 is negative, and
    # some default starts reach 1 + xi*lambda2 <= 0, where decouple raises
    pen, _ = tune(_spec(PenaltySpec()), 0.5, 0.3, sparsity="l1")
    return _spec(pen)


def test_scenario_vs_generic_fixed_point():
    for spec in (_spec(PenaltySpec(lambda2=0.3, lambda1=0.5)),
                 _quick_start_spec()):
        a = solve_rs_scenario(spec)
        b = solve_rs_generic(spec)
        assert a.chi == pytest.approx(b.chi, rel=1e-10)
        assert a.distortion == pytest.approx(b.distortion, rel=1e-10)


def _bpsk_rsb_spec():
    # the benchmark's RSB point: BPSK, P 2.5, alpha_inv 2.5, eta 0.4
    bpsk = SupportSpec.mpsk_zero(2, 2.5)
    pen, _ = tune(_spec(PenaltySpec(), bpsk, load=0.4), 1.0, 0.4)
    return _spec(pen, bpsk, load=0.4)


@pytest.mark.parametrize("make_spec,inits,expected", [
    (lambda: _spec(PenaltySpec(lambda2=1.0, lambda0=2.0),
                   SupportSpec.disk(0.5), load=0.25), None, None),
    (_quick_start_spec, None, (1.40291592786, 0.5)),
    (_bpsk_rsb_spec, None, None),
    # a second root of the quick-start spec, with lower distortion (0.2021
    # against 0.2598); the default starts still return the tuned root
    (_quick_start_spec, [(3.0, 3.0)], (3.3076835423, 2.7505691493)),
], ids=["disk_l0", "quick_start", "bpsk_rsb", "quick_start_second_root"])
def test_rs_solution_is_a_certified_root(make_spec, inits, expected):
    spec = make_spec()
    sol = solve_rs_scenario(spec, inits=inits)
    check = solution_at(spec, sol.chi, sol.p)
    assert check.residuals["chi"] <= 1e-12 * abs(sol.chi)
    assert check.residuals["p"] <= 1e-12 * sol.p
    assert sol.residuals == check.residuals
    if expected is not None:
        assert (sol.chi, sol.p) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("inits", [[(0.0, 1.0)], [(1.0, 0.5), (1.0, -0.5)]])
def test_rs_starts_must_be_positive(inits):
    # the root-find runs in (log chi, log p)
    spec = _spec(PenaltySpec(lambda2=0.3, lambda1=0.5))
    for solve in (solve_rs_scenario, solve_rs_generic):
        with pytest.raises(ConfigurationError, match="starts"):
            solve(spec, inits=inits)


def test_distortion_decreases_with_inverse_load():
    ds = []
    for ai in (1.5, 2.0, 3.0, 4.0):
        spec = _spec(PenaltySpec(lambda2=0.1, lambda1=0.2), load=1.0 / ai)
        ds.append(solve_rs_scenario(spec).distortion)
    assert all(x > y for x, y in zip(ds, ds[1:]))


def test_tune_full_l1_hits_targets():
    spec = _spec(PenaltySpec(), load=0.5)
    pen, sol = tune(spec, 0.5, 0.3, sparsity="l1")
    assert sol.p == pytest.approx(0.5, abs=1e-8)
    assert sol.eta == pytest.approx(0.3, abs=1e-8)
    assert pen.lambda0 == 0 and pen.lambda1 > 0
    # solving at the tuned weights reproduces the same state
    check = solve_rs_scenario(_spec(pen, load=0.5))
    assert check.distortion == pytest.approx(sol.distortion, rel=1e-6)


def test_tune_full_l0_hits_targets():
    spec = _spec(PenaltySpec(), load=0.5)
    pen, sol = tune(spec, 0.5, 0.3, sparsity="l0")
    assert sol.p == pytest.approx(0.5, abs=1e-8)
    assert sol.eta == pytest.approx(0.3, abs=1e-8)
    assert pen.lambda1 == 0 and pen.lambda0 > 0


def test_tune_continued_branch_targets():
    # past the Lagrangian feasibility boundary the tuned weights go
    # negative but the replica state still hits the targets
    spec = _spec(PenaltySpec(), load=0.25)
    pen, sol = tune(spec, 0.5, 0.7, sparsity="l1")
    assert pen.lambda2 < 0 and pen.lambda1 < 0
    assert sol.chi < -1
    assert sol.p == pytest.approx(0.5, abs=1e-6)
    assert sol.eta == pytest.approx(0.7, abs=1e-6)
    assert 0 < sol.distortion < 0.01


def test_tune_disk_hits_targets():
    spec = _spec(PenaltySpec(), SupportSpec.disk(1.5), load=0.5)
    pen, sol = tune(spec, 0.5, 0.7, sparsity="l1")
    assert sol.p == pytest.approx(0.5, abs=1e-6)
    assert sol.eta == pytest.approx(0.7, abs=1e-6)


def test_tune_constellation_power_consistency():
    sup = SupportSpec.mpsk_zero(2, 2.5)
    spec = _spec(PenaltySpec(), sup, load=0.25)
    with pytest.raises(ConfigurationError):
        tune(spec, 0.5, 0.4)  # p != eta * P
    pen, sol = tune(spec, 0.4 * 2.5, 0.4)
    assert sol.eta == pytest.approx(0.4, abs=1e-6)
    assert sol.p == pytest.approx(1.0, abs=1e-6)
    assert pen.lambda0 == 0 and pen.lambda1 == 0


def test_tune_constellation_finds_the_coercive_root():
    # a root-find in (log(1 + lambda2), log chi) reached lambda2 = -0.3332
    # here, where 1 + xi*lambda2 = -0.70; in log(shrink) it stays in the
    # domain
    sup = SupportSpec.mpsk_zero(2, 2.5)
    spec = _spec(PenaltySpec(), sup, load=1.0 / 1.5)
    pen, sol = tune(spec, 0.7 * 2.5, 0.7)
    assert 1.0 + sol.xi * pen.lambda2 > 0
    assert sol.eta == pytest.approx(0.7, rel=1e-12)
    _, _, eta = generic_moments(pen, sup, sol.xi, sol.rho_rs)
    assert eta == pytest.approx(0.7, rel=1e-10)


def test_tune_constellation_unreachable_target_is_configuration_error():
    spec = _spec(PenaltySpec(), SupportSpec.mpsk_zero(4, 2.5),
                 load=1.0 / 4.7)
    with pytest.raises(ConfigurationError):
        tune(spec, 0.7 * 2.5, 0.7)


@pytest.mark.parametrize("support, sparsity, power, eta", [
    (FULL, "l1", 0.5, 0.7), (FULL, "l0", 0.5, 0.7),
    (SupportSpec.disk(1.5), "l1", 0.5, 0.7),
    (SupportSpec.disk(1.5), "l0", 0.5, 0.7),
    (SupportSpec.mpsk_zero(2, 2.5), None, 1.0, 0.4)],
    ids=["full_l1", "full_l0", "disk_l1", "disk_l0", "bpsk"])
def test_tune_refuses_non_unit_pathloss_atoms(support, sparsity, power, eta):
    spec = ScenarioSpec(PenaltySpec(), support, 0.5, 1.0,
                        ((0.5, 0.5), (1.5, 0.5)))
    with pytest.raises(ConfigurationError, match="unit path-loss atom"):
        tune(spec, power, eta, sparsity=sparsity)


def test_scenario_spec_validates_pathloss_atoms():
    for atoms in ([(1.0, 0.5)], [(-1.0, 1.0)], []):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(PenaltySpec(), FULL, 0.5, 1.0, atoms)
    spec = ScenarioSpec(PenaltySpec(), FULL, 0.5, 1.0, [(1, 1)])
    assert spec.pathloss_atoms == ((1.0, 1.0),)
    assert hash(spec) == hash(_spec(PenaltySpec()))


def test_tune_root_drops_a_start_outside_the_domain():
    # exp(-800) underflows shrink to 0: the first evaluation raises
    # DomainError, and the next start still finds the root
    spec = _spec(PenaltySpec(), SupportSpec.mpsk_zero(2, 2.5), load=0.4)
    rho_rs = (spec.rho + 1.0) / spec.load

    def unpack(z):
        return _weights(spec, None, *np.exp(z))

    pen, chi = _tune_root(spec, rho_rs, unpack, {"eta": 0.4},
                          ([-800.0, 0.0], [0.4, 0.0]), "no root")
    expected, sol = tune(spec, 1.0, 0.4)
    assert pen == expected and chi == sol.chi
    with pytest.raises(ConfigurationError, match="no root"):
        _tune_root(spec, rho_rs, unpack, {"eta": 0.4}, ([-800.0, 0.0],),
                   "no root")


@pytest.mark.parametrize("load", [0.5, 1.0 / 4.5],
                         ids=["xi_positive", "xi_negative"])
@pytest.mark.parametrize("sparsity", ["l0", "l1"])
def test_tune_full_eta_one_is_quadratic_only(load, sparsity):
    # eta = 1 has no sparse weight: lambda0 is +0.0, where the l0 closed
    # form's tau0^2 = -rho_rs log(1) = -0.0 used to give -0.0 for xi > 0
    pen, sol = tune(_spec(PenaltySpec(), load=load), 0.5, 1.0,
                    sparsity=sparsity)
    assert (np.copysign(1.0, pen.lambda0), pen.lambda1) == (1.0, 0.0)
    assert (sol.xi > 0) == (load == 0.5)
    assert sol.eta == 1.0 and sol.p == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("sparsity", ["l0", "l1"])
def test_tune_disk_fallback_start_reaches_the_same_root(monkeypatch,
                                                        sparsity):
    # when the full plane's closed form raises, the disk root-find starts
    # from lambda2 = 0.5, lambda0 or lambda1 = 0.1 at chi = 1 instead
    spec = _spec(PenaltySpec(), SupportSpec.disk(1.5), load=0.5)
    expected, sol = tune(spec, 0.5, 0.7, sparsity=sparsity)
    name = f"_tune_full_{sparsity}"

    def infeasible(*args):
        raise ConfigurationError("infeasible targets")

    monkeypatch.setattr(sys.modules["glse.replica"], name, infeasible)
    pen, fallback = tune(spec, 0.5, 0.7, sparsity=sparsity)
    for got, want in ((pen.lambda2, expected.lambda2),
                      (pen.lambda0, expected.lambda0),
                      (pen.lambda1, expected.lambda1),
                      (fallback.chi, sol.chi)):
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def _two_roots(z):
    # roots at z = (+-1, 0); the residual is not finite for |z0| > 10, and
    # below z0 = -5 it raises DomainError, as the moments do outside the
    # scalar problem's domain
    if z[0] < -5.0:
        raise DomainError("z0 below -5")
    return [z[0] ** 2 - 1.0, z[1]] if abs(z[0]) <= 10.0 else [np.nan, z[1]]


@pytest.mark.parametrize("start, reason", [
    ([-8.0, 0.0], "z0 below -5"),
    # the first Newton step from z0 = 0.01 lands at z0 = 50
    ([0.01, 0.0], "non-finite residual"),
], ids=["domain_error", "non_finite"])
def test_root_loop_drops_a_start_and_tries_the_next(start, reason):
    z = _first_root(_two_roots, (start, [2.0, 0.5]), ConvergenceError, "")
    np.testing.assert_allclose(z, [1.0, 0.0], rtol=0, atol=1e-15)
    with pytest.raises(ConvergenceError, match=f"no root .*{reason}"):
        _first_root(_two_roots, (start,), ConvergenceError, "no root")


def test_root_loop_without_a_root_names_the_last_residual():
    # |F| is smallest, 1, at the kink z0 = 0, where the iteration stops
    def kinked(z):
        return [abs(z[0]) + 1.0, z[1]]

    with pytest.raises(ConfigurationError,
                       match=r"^no root \(last residual \[1\. 0\.\]\)$"):
        _first_root(kinked, ([-2.0, 1.0],), ConfigurationError, "no root")


def test_chord_newton_refreshes_a_stale_jacobian_after_a_stalled_halving():
    # sin z = 1/2 from z0 = -1.95: a chord step on a kept Jacobian finds no
    # descent, so the loop refreshes the Jacobian in place and goes on to
    # the root -11 pi/6
    source, first = inspect.getsourcelines(_chord_newton)
    stalled = next(i for i, line in enumerate(source)
                   if "the halving stalled" in line)
    refresh = first + next(i for i in range(stalled, len(source))
                           if "jac = None" in source[i])
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is not _chord_newton.__code__:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        z, f = _chord_newton(lambda z: np.sin(z) - 0.5, np.array([-1.95]))
    finally:
        sys.settrace(previous)
    assert refresh in ran
    assert z[0] == pytest.approx(-11 * np.pi / 6, rel=0, abs=1e-14)
    assert abs(f[0]) < 1e-14


def test_lemma2_bound_defining_equation():
    d = lemma2_bound(0.5, 1.0, 0.4, 2.5, 2)
    r = d / (1.0 + 0.4 * 2.5)
    assert 0 < r <= 1
    assert r - np.log(r) == pytest.approx(1 + np.log(1 + 2) / 0.5, rel=1e-10)


def test_lemma2_bound_decreases_with_inverse_load():
    ds = [lemma2_bound(1.0 / ai, 1.0, 0.4, 2.5, 2) for ai in (1.5, 2, 3, 4)]
    assert all(x > y for x, y in zip(ds, ds[1:]))


def test_random_tas_equals_quadratic_at_effective_load():
    # the random-subset baseline is the quadratic scenario at load
    # alpha/eta; with eta = 1 it must coincide with plain regularized ZF
    full = random_tas_asymptote(0.5, 1.0, 0.5, 1.0)
    pen, ref = tune(_spec(PenaltySpec(), load=0.5), 0.5, 1.0)
    assert full.distortion == pytest.approx(ref.distortion, rel=1e-6)
    # each active antenna carries the target power
    sub = random_tas_asymptote(0.5, 0.5, 0.5, 1.0)
    assert sub.p == pytest.approx(0.5, abs=1e-6)
    # fewer active antennas at the same power: strictly worse distortion
    assert sub.distortion > full.distortion


def test_rate_bounds():
    spec = _spec(PenaltySpec(lambda2=0.3), load=0.5)
    sol = solve_rs_scenario(spec)
    lb = rate_lower_bound(sol.rho, sol.distortion, 0.1)
    assert lb == pytest.approx(np.log(1.0 / (0.1 + sol.distortion)))
    assert heuristic_rate(1.0, sol.p, sol.distortion) == pytest.approx(
        np.log(1 + 1.0 / (sol.p + sol.distortion)))
    with pytest.raises(ConfigurationError):
        rate_lower_bound(sol.rho, sol.distortion, 0.0)


def test_qfunc_matches_erfc():
    from scipy.special import erfc
    x = np.linspace(-3, 5, 9)
    np.testing.assert_allclose(qfunc(x), 0.5 * erfc(x / np.sqrt(2)),
                               rtol=1e-12)


def test_qfunc_matches_mpmath_to_rounding():
    # the reference takes the same rounded argument x / sqrt(2): its
    # rounding alone moves Q(20) by 4.7e-14. scipy.special.erfc is off by
    # up to 1.4e-14 here and fails this bound
    mpmath = pytest.importorskip("mpmath")
    x = np.linspace(-3, 20, 231)
    with mpmath.workdps(40):
        exact = [float(mpmath.erfc(mpmath.mpf(z)) / 2)
                 for z in x / np.sqrt(2.0)]
    q = qfunc(x)
    np.testing.assert_allclose(q, exact, rtol=1e-15, atol=0)
    assert [qfunc(v) for v in x] == list(q)


def test_rs_distortion_unit_atom_reduction():
    spec = _spec(PenaltySpec(lambda2=0.1), load=0.4)
    for chi, p in ((0.5, 0.3), (2.0, 0.8), (-15.0, 0.5)):
        assert rs_distortion(spec, chi, p) == pytest.approx(
            (spec.rho + p) / (1 + chi) ** 2, rel=1e-10)


@pytest.mark.parametrize("atoms,pole", [
    (((1.0, 1.0),), -1.0), (((0.5, 0.25), (2.0, 0.75)), -0.5)])
def test_w_on_validated_atoms_matches_the_r_transform(atoms, pole):
    # _w and _w_prime skip the atom validation the public transforms do,
    # with the same bits; a pole still raises
    spec = ScenarioSpec(PenaltySpec(lambda2=0.3), FULL, 0.7, 1.0, atoms)
    for chi in (-3.0, -0.7, 0.0, 0.4, 2.5):
        assert _w(spec, chi) == r_transform(0.7, atoms, -chi)
        assert _w_prime(spec, chi) == -r_transform_derivative(0.7, atoms,
                                                              -chi)
    for fn in (_w, _w_prime):
        with pytest.raises(DomainError, match="pole"):
            fn(spec, pole)
