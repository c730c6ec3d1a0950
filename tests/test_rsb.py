import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import logsumexp

from glse import rsb
from glse.errors import ConfigurationError, ConvergenceError, DomainError
from glse.penalties import PenaltySpec, SupportSpec, decouple
from glse.replica import (ScenarioSpec, rs_distortion, solve_rs_scenario,
                          tune)
from glse.rsb import (_binary_moments, _damped_fixed_point,
                      rsb_distortion, solve_rsb1)

BPSK = SupportSpec.mpsk_zero(2, 2.5)
QPSK = SupportSpec.mpsk_zero(4, 2.5)
CONST_ENVELOPE = SupportSpec.constant_envelope(2.5)


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


def test_constellation_requires_quadratic_only():
    spec = ScenarioSpec(PenaltySpec(lambda2=0.3, lambda1=0.1), BPSK, 0.5, 1.0)
    with pytest.raises(ConfigurationError):
        solve_rsb1(spec)


def test_binary_moments_raise_outside_the_scalar_domain():
    # 1 + xi*lambda2 = -0.5, as for the symmetric moments
    with pytest.raises(DomainError):
        _binary_moments(PenaltySpec(lambda2=-0.5), BPSK, 3.0, 1.0, 0.1, 2.0)
    with pytest.raises(DomainError):
        _binary_moments(PenaltySpec(lambda2=0.2), BPSK, np.nan, 1.0, 0.1, 2.0)


@pytest.mark.parametrize("xi,rho_rs,rho1,mu", [
    (2.0, 1.2, -0.1, 3.0), (2.0, 1.2, 0.0, 3.0), (2.0, 1.2, np.nan, 3.0),
    (2.0, 1.2, 0.4, -1.0), (2.0, 1.2, 0.4, 0.0), (2.0, 1.2, 0.4, np.nan),
    (2.0, 0.0, 0.4, 3.0), (-1.0, 1.2, 0.4, 3.0),
], ids=["rho1_negative", "rho1_zero", "rho1_nan", "mu_negative", "mu_zero",
        "mu_nan", "rho_rs_zero", "xi_negative"])
def test_binary_moments_need_a_positive_state(xi, rho_rs, rho1, mu):
    # 1 + xi*lambda2 > 0 in every case; the tilt slope 2 sqrt(P) mu/xi and
    # both variances must be positive as well (rho1 -0.1 used to give NaN
    # moments, mu -1 a NaN cross moment, rho1 0 a finite tuple)
    with pytest.raises(DomainError, match="> 0"):
        _binary_moments(PenaltySpec(lambda2=0.3), BPSK, xi, rho_rs, rho1, mu)


def test_forced_c_zero_matches_rs_for_untuned_weights():
    for support in (QPSK, CONST_ENVELOPE):
        spec = ScenarioSpec(PenaltySpec(lambda2=0.3), support, 0.4, 1.0)
        rs = solve_rs_scenario(spec)
        rsb = solve_rsb1(spec, force_c_zero=True)
        assert rsb.distortion == pytest.approx(rs.distortion, abs=1e-6)
        assert rsb.eta == pytest.approx(rs.eta, abs=1e-6)


@pytest.mark.parametrize("support", [QPSK, CONST_ENVELOPE])
def test_broken_solve_covers_binary_constellation_only(support):
    spec = ScenarioSpec(PenaltySpec(lambda2=0.3), support, 0.4, 1.0)
    with pytest.raises(ConfigurationError, match="binary constellation"):
        solve_rsb1(spec)


@pytest.mark.parametrize("bracket", [(10.0, 4.0), (0.0, 10.0), (-1.0, 5.0),
                                     (np.nan, 5.0)])
def test_mu_bracket_must_be_positive_and_ordered(bracket):
    # at the rsb_bpsk spec, (10, 4) returned mu 6.63704 with a mu residual
    # of 1.05e-3, (0, 10) raised numpy's ValueError, and (-1, 5) and
    # (nan, 5) asked to widen the bracket
    spec, _ = _tuned(BPSK, 2.5)
    with pytest.raises(ConfigurationError, match="mu_bracket"):
        solve_rsb1(spec, mu_bracket=bracket)


def test_failed_bisection_step_returns_a_solved_mu(monkeypatch):
    # the rsb_bpsk benchmark spec; every inner solve at the first bisection
    # point fails, so the search must stop at a mu it has solved, with that
    # mu's own state, and solve no mu twice
    spec, _ = _tuned(BPSK, 2.5)
    scan = set(np.geomspace(4.0, 10.0, 20))
    solved, failing, calls = {}, [], []
    best_of_starts = rsb._best_of_starts

    def flaky(spec, mu, starts, broken):
        calls.append(mu)
        if mu not in scan and (not failing or mu == failing[0]):
            failing.append(mu)
            return None, False
        out = best_of_starts(spec, mu, starts, broken)
        if out[0] is not None:
            solved[mu] = out[0]
        return out

    monkeypatch.setattr(rsb, "_best_of_starts", flaky)
    sol = solve_rsb1(spec, mu_bracket=(4.0, 10.0))
    assert failing
    assert sol.mu in solved
    state = solved[sol.mu]
    assert (sol.chi, sol.p, sol.c, sol.distortion) == (
        state[0], state[1], state[2], state[-1])
    assert len(calls) == len(set(calls))


def _recording_best_of_starts(monkeypatch):
    """Wrap rsb._best_of_starts; returns the list of mus it is called at."""
    calls, best_of_starts = [], rsb._best_of_starts

    def recorded(spec, mu, starts, broken):
        calls.append(mu)
        return best_of_starts(spec, mu, starts, broken)

    monkeypatch.setattr(rsb, "_best_of_starts", recorded)
    return calls


def test_mu_scan_stops_at_the_first_sign_change(monkeypatch):
    # the rsb_bpsk benchmark spec: the mu residual changes sign between the
    # 11th and 12th grid points (6.479 and 6.799), so no grid point above
    # them is solved; the bisection stays inside that pair
    spec, _ = _tuned(BPSK, 2.5)
    grid = np.geomspace(4.0, 10.0, 20)
    calls = _recording_best_of_starts(monkeypatch)
    sol = solve_rsb1(spec, mu_bracket=(4.0, 10.0))
    assert [mu for mu in calls if mu in set(grid)] == list(grid[:12])
    assert max(calls) == grid[11]
    assert sol.mu == pytest.approx(6.6314735457531215, rel=1e-12)
    assert sol.distortion == pytest.approx(0.20805923018753844, rel=1e-12)


def test_mu_scan_without_sign_change_lists_every_residual(monkeypatch):
    spec, _ = _tuned(BPSK, 2.5)
    grid = np.geomspace(4.0, 6.0, 20)
    calls = _recording_best_of_starts(monkeypatch)
    with pytest.raises(ConvergenceError, match="widen mu_bracket") as err:
        solve_rsb1(spec, mu_bracket=(4.0, 6.0))
    assert calls == list(grid)
    residuals = err.value.residuals["mu_residuals"]
    assert list(residuals) == [float(mu) for mu in grid]
    assert len(set(np.sign(list(residuals.values())))) == 1


def test_collapsed_scan_returns_the_degenerate_solve(monkeypatch):
    # no grid point keeps c > 0 and some start collapses to c = 0: the
    # breaking is absent and the degenerate solve is the answer
    spec, _ = _tuned(BPSK, 2.5)
    best_of_starts = rsb._best_of_starts

    def collapsing(spec, mu, starts, broken):
        if broken:
            return None, True
        return best_of_starts(spec, mu, starts, broken)

    monkeypatch.setattr(rsb, "_best_of_starts", collapsing)
    forced = solve_rsb1(spec, force_c_zero=True)
    assert solve_rsb1(spec) == forced


def _gauss_legendre(points, width):
    """16-point Gauss-Legendre panels no wider than width between points."""
    x16, w16 = leggauss(16)
    xs, ws = [], []
    for lo, hi in zip(points, points[1:]):
        count = max(int(np.ceil((hi - lo) / width)), 1)
        edges = np.linspace(lo, hi, count + 1)
        half = 0.5 * np.diff(edges)[:, None]
        xs.append((0.5 * (edges[1:] + edges[:-1]))[:, None] + half * x16)
        ws.append(half * w16)
    return np.concatenate(xs).ravel(), np.concatenate(ws).ravel()


def _tilted_by_brute_force(penalty, xi, rho_rs, rho1, mu):
    """_binary_moments from decouple on a tensor grid over Re s_rs, Re s_hat.

    For BPSK the output, the tilt and the moments depend on the real parts
    only. The inner law of t = Re s_hat given t0 = Re s_rs is N(t0, rho1/2)
    weighted by the tilt exp(-(mu/xi) * delta(t)); it is summed in log space
    on a grid split at the thresholds +-theta.
    """
    shrink = 1.0 + xi * penalty.lambda2
    root_p = np.sqrt(BPSK.peak_power)
    theta, a = root_p * shrink / 2.0, 2.0 * root_p * mu / xi
    v0, v = rho_rs / 2.0, rho1 / 2.0
    lim, sharp = 12.0 * np.sqrt(v0), min(theta + 20.0 / a, 6.0 * np.sqrt(v0))
    fine = min(np.sqrt(v0), np.sqrt(v), 4.0 / a)
    t0, w0 = np.concatenate([_gauss_legendre(pts, width) for pts, width in (
        ((-lim, -sharp), np.sqrt(v)), ((-sharp, sharp), fine),
        ((sharp, lim), np.sqrt(v)))], axis=1)
    w0 = w0 * np.exp(-0.5 * t0 * t0 / v0) / np.sqrt(2.0 * np.pi * v0)
    t_lim = lim + a * v + 14.0 * np.sqrt(v) + theta
    t, wt = _gauss_legendre((-t_lim, -theta, theta, t_lim), np.sqrt(v))
    x = decouple(t, xi, penalty, BPSK).real
    log_tilt = -(mu / xi) * (x * x * shrink - 2.0 * x * t)
    sums = np.zeros(4)
    for rows in np.array_split(np.arange(t0.size), t0.size // 256 + 1):
        d = t[None, :] - t0[rows, None]
        log_w = (np.log(wt) + log_tilt - 0.5 * d * d / v
                 - 0.5 * np.log(2.0 * np.pi * v))
        log_z = logsumexp(log_w, axis=1)
        p = np.exp(log_w - log_z[:, None])
        sums += w0[rows] @ np.stack([p @ (x != 0), t0[rows] * (p @ x),
                                     np.sum(p * x * d, axis=1), log_z], 1)
    eta, cross, cross1, log_z_mean = sums
    return (BPSK.peak_power * eta, cross, cross1, eta, log_z_mean)


@pytest.mark.parametrize("xi,rho_rs,rho1,mu", [
    (2.0, 1.2, 0.4, 3.0),
    # large tilt: exp of the tilt exponent overflows at the outer range, and
    # the tilted mass switches regions within 1/a ~ 0.01 in t0
    (8.0, 3.0, 0.05, 300.0),
])
def test_binary_moments_match_tilted_double_integral(xi, rho_rs, rho1, mu):
    penalty = PenaltySpec(lambda2=0.3)
    closed = _binary_moments(penalty, BPSK, xi, rho_rs, rho1, mu)
    brute = _tilted_by_brute_force(penalty, xi, rho_rs, rho1, mu)
    np.testing.assert_allclose(closed, brute, rtol=1e-9, atol=0)


def _recorded_layouts(monkeypatch):
    """Wrap rsb._panel_layout; returns the list of (centre, outer) panel
    counts it is called with, cached or not."""
    calls, panel_layout = [], rsb._panel_layout

    def recorded(centre, outer):
        calls.append((centre, outer))
        return panel_layout(centre, outer)

    monkeypatch.setattr(rsb, "_panel_layout", recorded)
    return calls


@pytest.mark.parametrize("xi,rho_rs,rho1,tilt,centre_odd", [
    pytest.param(3.0, 0.3, 0.6, 5.9, True, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="below _SHARP_TILT the panels at the Gaussian scale err by "
        "2.3e-5 relative here")),
    (4.0, 0.5, 0.1, 6.01, False),
    (3.0, 0.3, 0.6, 6.01, True),
    (3.0, 0.3, 0.6, 3.0, True),
], ids=["below_sharp_tilt", "above_sharp_tilt", "above_sharp_tilt_odd",
        "gentle_tilt_odd"])
def test_folded_moments_match_tilted_double_integral(
        monkeypatch, xi, rho_rs, rho1, tilt, centre_odd):
    # tilt is a * max(s0, sqrt(v)), the slope times the Gaussian scale; an
    # odd centre panel count puts one panel across t0 = 0, which keeps only
    # its positive nodes
    scale = np.sqrt(max(rho_rs, rho1) / 2.0)
    mu = tilt * xi / (2.0 * np.sqrt(BPSK.peak_power) * scale)
    layouts = _recorded_layouts(monkeypatch)
    penalty = PenaltySpec(lambda2=0.3)
    closed = _binary_moments(penalty, BPSK, xi, rho_rs, rho1, mu)
    assert [centre % 2 == 1 for centre, _ in layouts] == [centre_odd]
    brute = _tilted_by_brute_force(penalty, xi, rho_rs, rho1, mu)
    np.testing.assert_allclose(closed, brute, rtol=1e-9, atol=0)


@pytest.mark.parametrize("count", [1, 6, 7])
@pytest.mark.parametrize("centre", [True, False])
def test_half_panels_integrate_polynomials(count, centre):
    # positive nodes with doubled weights: on [-1, 1] (an odd count has one
    # panel across 0) they integrate an even function, on [0, 1] twice any
    # function; the 16-point rule is exact up to degree 31 per panel
    x, w = rsb._half_panels(count, centre)
    assert x.size == (8 if centre else 16) * count
    assert np.all((x > 0) & (x < 1) & (w > 0))
    for k in range(16):
        power = 2 * k if centre else k
        assert w @ x ** power == pytest.approx(2.0 / (power + 1), rel=1e-13)


def _random_kernel_states(count, seed):
    """Seeded (lambda2, xi, rho_rs, rho1, mu) over both panel regimes."""
    rng = np.random.default_rng(seed)
    lambda2 = rng.uniform(-0.1, 0.5, count)
    xi = rng.uniform(0.3, 8.0, count)
    rho_rs, rho1, mu = np.exp(rng.uniform(
        np.log([0.01, 0.01, 0.05]), np.log([5.0, 5.0, 300.0]), (count, 3))).T
    return list(zip(lambda2, xi, rho_rs, rho1, mu))


def _node_args(lambda2, xi, rho_rs, rho1, mu):
    """_outer_nodes' (theta, a, s0, s, v) as _binary_moments forms them."""
    root_p = np.sqrt(BPSK.peak_power)
    v = rho1 / 2.0
    return (root_p * (1.0 + xi * lambda2) / 2.0, 2.0 * root_p * mu / xi,
            np.sqrt(rho_rs / 2.0), np.sqrt(v), v)


def test_tail_cut_matches_the_full_rule(monkeypatch):
    # the kept nodes' terms are formed as over the full rule (eps = 0), so
    # only the sums' rounding moves; both panel regimes are covered
    states = _random_kernel_states(3000, 17)
    regimes = set()
    for lambda2, xi, rho_rs, rho1, mu in states:
        penalty = PenaltySpec(lambda2=lambda2)
        cut = _binary_moments(penalty, BPSK, xi, rho_rs, rho1, mu)
        with monkeypatch.context() as m:
            m.setattr(rsb, "_TAIL_EPS", 0.0)
            full = _binary_moments(penalty, BPSK, xi, rho_rs, rho1, mu)
        for got, ref in zip(cut, full):
            assert abs(got - ref) <= 1e-14 * max(abs(ref), 1e-3), (
                lambda2, xi, rho_rs, rho1, mu, cut, full)
        _, a, s0, s, _ = _node_args(lambda2, xi, rho_rs, rho1, mu)
        regimes.add(a * max(s0, s) <= rsb._SHARP_TILT)
    assert regimes == {True, False}


def test_tail_cut_keeps_the_leading_nodes(monkeypatch):
    # the cut rule is a prefix of the full one, node for node and weight for
    # weight, and every node it drops has a Gaussian factor below eps
    dropped = {True: 0, False: 0}
    for state in _random_kernel_states(400, 18):
        theta, a, s0, s, v = _node_args(*state)
        t0, wt = rsb._outer_nodes(theta, a, s0, s, v)
        with monkeypatch.context() as m:
            m.setattr(rsb, "_TAIL_EPS", 0.0)
            t_full, w_full = rsb._outer_nodes(theta, a, s0, s, v)
        assert 0 < t0.size <= t_full.size
        np.testing.assert_array_equal(t0, t_full[:t0.size])
        np.testing.assert_array_equal(wt, w_full[:t0.size])
        assert np.all(np.diff(t_full) > 0)
        gauss = np.exp(-0.5 * (t_full[t0.size:] / s0) ** 2)
        assert np.all(gauss < rsb._TAIL_EPS)
        dropped[a * max(s0, s) <= rsb._SHARP_TILT] += t_full.size - t0.size
    assert dropped[True] > 0 and dropped[False] > 0


def _concatenated_nodes(theta, a, s0, s, v):
    """_outer_nodes built as two concatenated panel runs, then cut."""
    lim = 12.0 * s0 + theta + 3.0 * (a * v + s)
    scale = max(s0, s)
    if a * scale <= rsb._SHARP_TILT:
        inner, inner_width = theta, 2.0 * scale
    else:
        inner, inner_width = theta + 20.0 / a, 1.0 / a
    span = lim - inner
    x_in, w_in = rsb._half_panels(math.ceil(2.0 * inner / inner_width), True)
    x_out, w_out = rsb._half_panels(math.ceil(span / (2.0 * scale)), False)
    t0 = np.concatenate((inner * x_in, inner + span * x_out))
    wt = np.concatenate((inner * w_in, span * w_out))
    t_cut = s0 * math.sqrt(2.0 * (-math.log(rsb._TAIL_EPS)
                                  + math.log1p(a * lim + a * a * v)))
    n = t0.searchsorted(t_cut, "right")
    return t0[:n], wt[:n]


def test_cached_layout_matches_the_concatenated_rule(monkeypatch):
    # the cached layout gives the nodes and weights of the two concatenated
    # panel runs bit for bit, whether its entry is new or cached
    layouts = _recorded_layouts(monkeypatch)
    for _ in range(2):
        for state in _random_kernel_states(400, 18):
            args = _node_args(*state)
            t0, wt = rsb._outer_nodes(*args)
            t_ref, w_ref = _concatenated_nodes(*args)
            np.testing.assert_array_equal(t0, t_ref)
            np.testing.assert_array_equal(wt, w_ref)
    assert {centre % 2 for centre, _ in layouts} == {0, 1}
    # the cached rows are shared by every call, so they are read-only
    for rows in rsb._panel_layout(*layouts[0]):
        assert not rows.flags.writeable


# (lambda2, xi, rho_rs, rho1, mu) and the float.hex outputs of the former
# per-region logaddexp kernel at them: five states of the rsb_bpsk solve
# (the last at its largest tilt), the two double-integral states, the
# three folded ones, and six of _random_kernel_states(3000, 17)
_FORMER_KERNEL = (
    # pass, a * scale 2.34
    ((0.08201511365201637, 8.330689756095097, 4.768300654054854,
      0.04882776184741047, 4.0),
     ("0x1.fcf4f87633352p-1", "0x1.5b137a17a5697p+0", "0x1.221c81146a8dfp-5",
      "0x1.972a605e8f5dbp-2", "0x1.0b380849f7505p-1")),
    # pass, a * scale 2.81
    ((0.08201511365201637, 4.532353951850684, 1.2509863379408204,
      0.40649797714182695, 5.090741516976173),
     ("0x1.fcc6d8385d798p-1", "0x1.4a2485fa841eap-1", "0x1.0da08a4862560p-1",
      "0x1.970579c6b12e0p-2", "0x1.5931056d5a0dap-1")),
    # pass, a * scale 3.58
    ((0.08201511365201637, 3.43799682796059, 0.6945657150162418,
      0.3085170590836144, 6.597147288314161),
     ("0x1.f4815e8c0d9bdp-1", "0x1.e7f4587171cbbp-2", "0x1.3c1db00a906c8p-1",
      "0x1.90677ed671497p-2", "0x1.adef41d9d0c63p-1")),
    # pass, a * scale 3.66
    ((0.08201511365201637, 3.7492862895701067, 0.8580444800333172,
      0.3118432514860775, 6.6314735457531215),
     ("0x1.f8483f957b64ep-1", "0x1.12b2158eed86bp-1", "0x1.2b6cee7be546ep-1",
      "0x1.936cffaac91d8p-2", "0x1.b8ad0bdff763cp-1")),
    # pass, a * scale 3.92
    ((0.08201511365201637, 8.330689756095097, 4.615614633426782,
      0.04803964317845617, 6.799019897321043),
     ("0x1.f8c26ec5ec266p-1", "0x1.53d795556888ap+0", "0x1.9636b868afcaap-5",
      "0x1.93cebf04bceb8p-2", "0x1.ba13955bac5e2p-1")),
    # tilted_gentle, a * scale 3.67
    ((0.3, 2.0, 1.2, 0.4, 3.0),
     ("0x1.b1dd1c2f2b2c4p-1", "0x1.2891e73223410p-1", "0x1.1b1bd14556519p-1",
      "0x1.5b1749bf55bd0p-2", "0x1.6c23abb7c0ab0p-1")),
    # tilted_sharp, a * scale 145
    ((0.3, 8.0, 3.0, 0.05, 300.0),
     ("0x1.9ff47983e89e4p-1", "0x1.e74fbecc29debp-1", "0x1.85f531ebaa156p+0",
      "0x1.4cc3946986e50p-2", "0x1.8ef51a163c17bp+4")),
    # folded_5.9, a * scale 5.9
    ((0.3, 3.0, 0.3, 0.6, 10.219099764656379),
     ("0x1.33fa616874594p+1", "0x1.e3df3c53fbdc4p-2", "0x1.3ac5cf49f3520p+2",
      "0x1.ecc3cf0d86f54p-1", "0x1.2ae016f4b8f80p+2")),
    # folded_6.01, a * scale 6.01
    ((0.3, 4.0, 0.5, 0.1, 15.204230990089567),
     ("0x1.b659878f40f04p-7", "0x1.9d0ca3c17a636p-7", "0x1.66311e353d39dp-8",
      "0x1.5eae060c33f36p-8", "0x1.46582c8bc6150p-7")),
    # folded_3, a * scale 3
    ((0.3, 3.0, 0.3, 0.6, 5.196152422706632),
     ("0x1.99a6c20884676p-2", "0x1.25c260d1997f1p-3", "0x1.c9e5e1cd33614p-2",
      "0x1.47b89b3a0385ep-3", "0x1.985a04ad9eca3p-3")),
    # random, a * scale 2.96
    ((0.05242454827558354, 3.140570259647339, 3.4591083397047813,
      0.07101183766950653, 2.231557044471217),
     ("0x1.44474042cd00bp+0", "0x1.51c48f71d94f5p+0", "0x1.5c57834d8be14p-4",
      "0x1.036c3368a4009p-1", "0x1.cf500456a0b56p-1")),
    # random, a * scale 62.2
    ((-0.0034161452985358304, 6.482671326670818, 0.4165491144786264,
      0.23777462173284913, 279.5362624909389),
     ("0x1.3fffffffffffcp+1", "0x1.26bfb084e2b9ap-1", "0x1.9a1e676de9cb3p+4",
      "0x1.ffffffffffffap-1", "0x1.0661c63b3226ap+10")),
    # random, a * scale 2.06e+03
    ((0.0688536495311027, 0.3482094598309718, 1.2509542409543115,
      0.16463528252909698, 286.53373175168537),
     ("0x1.4000000000034p+1", "0x1.fed7481986378p-1", "0x1.52afca093e594p+8",
      "0x1.000000000002ap+0", "0x1.0fb64a532142cp+18")),
    # random, a * scale 0.0651
    ((0.4070448756787409, 2.4737788506523026, 0.039939638589989564,
      0.019066284359107854, 0.36058698477579204),
     ("0x1.2d30a6fe2068bp-64", "0x1.9de0d44aebe38p-65",
      "0x1.8b27085293780p-66", "0x1.e1e771969a412p-66",
      "0x1.04e0941d7595ap-72")),
    # random, a * scale 93.9
    ((-0.019640129714394897, 0.5694684533368892, 0.09040983262911496,
      0.05334267965668249, 79.52875780427568),
     ("0x1.3ffffffffffffp+1", "0x1.12a6e2aa2e6b9p-2", "0x1.29fb45ab291cdp+4",
      "0x1.ffffffffffffep-1", "0x1.2352f28d185d6p+11")),
    # random, a * scale 0.494
    ((0.23464672841941528, 6.724277570397337, 0.023136118267145803,
      0.26179784456863964, 2.9040733533598955),
     ("0x1.8a87fb143fc58p-23", "0x1.55f8f21670cbcp-26",
      "0x1.e3b360c1fa21ep-23", "0x1.3b9ffc1033046p-24",
      "0x1.c4766feee599fp-28")),
)


def test_shared_scale_matches_the_former_kernel(monkeypatch):
    # the shared log scale changes rounding only: 1e-14 relative (floor
    # 1e-3) up to _SHARP_TILT, where every rsb_bpsk state lies, and 1e-11
    # past it, where a^2 v / 2 reaches 1e5 and its rounding moves either
    # form (3.4e-13 measured at a * scale 2,060)
    layouts = _recorded_layouts(monkeypatch)
    regimes, cut = set(), 0
    for state, hexes in _FORMER_KERNEL:
        lambda2, xi, rho_rs, rho1, mu = state
        got = _binary_moments(PenaltySpec(lambda2=lambda2), BPSK, xi, rho_rs,
                              rho1, mu)
        _, a, s0, s, _ = args = _node_args(*state)
        gentle = a * max(s0, s) <= rsb._SHARP_TILT
        rtol = 1e-14 if gentle else 1e-11
        for value, ref in zip(got, map(float.fromhex, hexes)):
            assert abs(value - ref) <= rtol * max(abs(ref), 1e-3), (
                state, got)
        regimes.add(gentle)
        kept = rsb._outer_nodes(*args)[0].size
        with monkeypatch.context() as m:
            m.setattr(rsb, "_TAIL_EPS", 0.0)
            cut += kept < rsb._outer_nodes(*args)[0].size
    # both panel regimes, odd and even centre counts, and the tail cut
    assert regimes == {True, False}
    assert {centre % 2 for centre, _ in layouts} == {0, 1}
    assert cut == len(_FORMER_KERNEL)


def test_damped_fixed_point_cases():
    # x <- max(x + (step(x) - x)/2, 0) on the contraction x -> (1 + x)/2
    # with the fixed point 1
    def halve(x):
        return ((1.0 + x[0]) / 2.0,), x[0]

    x, res, info, ok = _damped_fixed_point(halve, (0.0,), 1e-12, 200,
                                           (np.inf,))
    assert ok and res[0] < 1e-12 and x[0] == pytest.approx(1.0, abs=2e-12)
    # info is what the last step returned: the state it was given
    assert info == pytest.approx(1.0, abs=1e-11)

    def raising(x):
        raise DomainError("outside the domain")

    assert _damped_fixed_point(raising, (0.5,), 1e-12, 200, (np.inf,)) == (
        (0.5,), (np.inf,), None, False)

    # x -> 4x + 1 moves the damped iterate through 1, 3, 8, 20.5, which
    # passes the bound 10 after the third step
    def grow(x):
        return (4.0 * x[0] + 1.0,), None

    x, res, _, ok = _damped_fixed_point(grow, (1.0,), 1e-12, 200, (10.0,))
    assert not ok and x == (20.5,) and res == (25.0,)

    # the cap: the last state and the residual of its step
    x, res, info, ok = _damped_fixed_point(halve, (0.0,), 1e-12, 2,
                                           (np.inf,))
    assert not ok and x == (0.4375,) and res == (0.375,) and info == 0.25
