"""One-step replica-symmetry-breaking fixed points.

For discrete supports the replica-symmetric description can fail; the
one-step broken solution splits the decoupled input into an outer Gaussian
s_rs and an inner tilted component s1, with the tilt weight
Lambda = exp(-mu * min_v E(v | s_rs, s1)). The state is (chi, p, c, mu)
with chi_tilde = chi + mu*c; mu solves a scalar stationarity equation
nested outside the damped (chi, p, c) iteration.

Two printed forms of the system circulate with small discrepancies (the
second moment equation's left side, the sign with which s1 enters the
effective input, and the exponent of the mu-equation). All three choices
are runtime-selectable; defaults follow the saddle-point system (the form
whose scalar stationarity equation has a root where breaking occurs) with
the mu-equation right side evaluated in the Lambda form.

For the binary constellation the inner (tilted) Gaussian integrals are
evaluated in closed form: the tilt exponent is piecewise linear in the
real part of the effective input, so every inner integral reduces to erfc
expressions that stay accurate in log space even for large tilts. The
outer integral is then smooth and handled by composite Gauss-Legendre
panels, narrowed to the tilt's own scale where a large tilt makes the
inner mass switch regions within a small range of the outer value. Larger
constellations fall back to a tensor Gauss-Hermite grid, which is
correspondingly coarser near the decision thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.special import log_ndtr, ndtr

from .errors import ConfigurationError, ConvergenceError, DomainError
from .penalties import CONST_ENVELOPE, MPSK_ZERO, decouple
from .replica import (ScenarioSpec, _panel_edges, _w, _w_prime,
                      rs_distortion, scenario_moments, solve_rs_scenario)
from .rmt import _validate_atoms

DEFAULT_DAMPING = 0.5
DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 4000
_LOG_2PI = np.log(2.0 * np.pi)
# Above this tilt slope times Gaussian scale, a * max(s0, sqrt(v)), the
# binary outer panels narrow to the tilt's scale 1/a; below it the panels at
# the Gaussian scale err by about 1e-11 relative at 3 and 1e-8 at 5.
_SHARP_TILT = 6.0


@dataclass(frozen=True)
class RsbSolution:
    """Converged one-step broken state and derived quantities."""

    chi: float
    p: float
    c: float
    mu: float
    rho_rs: float
    rho_rsb1: float
    chi_tilde: float
    xi: float
    distortion: float
    eta: float
    residuals: dict
    rho: float


def _r_integral(load, atoms, chi, chi_tilde):
    """Integral of R(-omega) over omega in [chi, chi_tilde]."""
    total = 0.0
    for a, prob in _validate_atoms(atoms):
        if a > 0:
            total += prob * np.log((1.0 + a * chi_tilde) / (1.0 + a * chi))
    return load * total


def _gauss_axes(order):
    """Nodes/weights for a N(0, 1/2) component (complex std Gaussian)."""
    t, w = hermgauss(order)
    return t, w / np.sqrt(np.pi)


_GL16 = leggauss(16)


def _panel_nodes(breakpoints, scale):
    """Composite Gauss-Legendre nodes between sorted breakpoints.

    Each interval is subdivided into panels no wider than 2*scale (one
    scale, or one per interval) so the 16-point rule resolves the
    variation on that scale. The panel edges are those of np.linspace over
    each interval.
    """
    lo, hi = np.asarray(breakpoints[:-1]), np.asarray(breakpoints[1:])
    width = 2.0 * np.broadcast_to(scale, lo.shape)
    keep = hi > lo
    a, b, _ = _panel_edges(lo[keep], hi[keep], width[keep])
    half = 0.5 * (b - a)
    base_x, base_w = _GL16
    xs = 0.5 * (a + b)[:, None] + half[:, None] * base_x
    return xs.ravel(), (half[:, None] * base_w).ravel()


def _reduced_to_real(support, penalty):
    """True when the integrands depend on the real axes only (binary case)."""
    return (support.kind == MPSK_ZERO and support.order == 2
            and penalty.lambda0 == 0 and penalty.lambda1 == 0)


# ---------------------------------------------------------------------------
# closed-form inner integrals for the binary constellation
# ---------------------------------------------------------------------------

def _binary_inner(t0, theta, a, v):
    """Tilted inner integrals at outer value t0 (array-capable).

    The effective real input is t = t0 + z with z ~ N(0, v); the tilt is
    exp(a(|t| - theta)) outside the dead zone |t| <= theta and 1 inside,
    and the output is sqrt(P) sign(t) outside, 0 inside. Returns
    (log_z, e_plus, e_minus, m_plus, m_minus): the log partition value,
    the tilt-normalized probabilities of the two active regions, and the
    tilt-normalized first z-moments restricted to those regions.
    """
    t0 = np.asarray(t0, dtype=float)
    s = np.sqrt(v)
    half = 0.5 * a * a * v
    # active region t > theta, tilt exp(a(t - theta))
    x_a = (theta - t0 - a * v) / s
    l_a = a * (t0 - theta) + half + log_ndtr(-x_a)
    # active region t < -theta, tilt exp(-a(t + theta))
    x_b = (-theta - t0 + a * v) / s
    l_b = -a * (t0 + theta) + half + log_ndtr(x_b)
    # dead zone, tilt 1
    z_c = ndtr((theta - t0) / s) - ndtr((-theta - t0) / s)
    with np.errstate(divide="ignore"):
        l_c = np.log(np.maximum(z_c, 0.0))
    log_z = np.logaddexp(np.logaddexp(l_a, l_b), l_c)
    e_plus = np.exp(l_a - log_z)
    e_minus = np.exp(l_b - log_z)
    # tilted first z-moments of the active regions, assembled from positive
    # pieces in log space; the lower region's moment is negative overall
    with np.errstate(divide="ignore"):
        log_av = np.log(a * v)
    phi_a = -0.5 * x_a * x_a - 0.5 * _LOG_2PI
    m_a = (np.logaddexp(log_av + log_ndtr(-x_a), np.log(s) + phi_a)
           + a * (t0 - theta) + half)
    phi_b = -0.5 * x_b * x_b - 0.5 * _LOG_2PI
    m_b = (np.logaddexp(log_av + log_ndtr(x_b), np.log(s) + phi_b)
           - a * (t0 + theta) + half)
    m_plus = np.exp(m_a - log_z)
    m_minus = -np.exp(m_b - log_z)
    return log_z, e_plus, e_minus, m_plus, m_minus


def _binary_moments(penalty, support, xi, rho_rs, rho1, mu, s1_sign):
    """Tilted moments for the binary constellation, closed-form inner part.

    Returns (E|x|^2, E Re{x s_rs*}, E Re{x s1*}, eta, E log Z) where the
    tilted inner average is taken before the outer expectation. The sign
    convention for s1 only flips the cross moment because the inner law is
    symmetric.
    """
    shrink = 1.0 + xi * penalty.lambda2
    if shrink <= 0:
        raise DomainError("scalar problem not coercive")
    root_p = np.sqrt(support.peak_power)
    theta = root_p * shrink / 2.0
    if rho1 <= 0:
        power, cross, eta = scenario_moments(penalty, support, xi, rho_rs)
        return power, cross, 0.0, eta, 0.0
    a = 2.0 * root_p * mu / xi
    v = rho1 / 2.0
    v0 = rho_rs / 2.0
    s0 = np.sqrt(v0)
    lim = 12.0 * s0 + theta + 3.0 * (a * v + np.sqrt(v))
    scale = max(s0, np.sqrt(v))
    if a * scale <= _SHARP_TILT:
        # composite Gauss-Legendre panels at the Gaussian scale
        breaks, scales = (-lim, -theta, theta, lim), scale
    else:
        # the tilt moves the inner mass between the two active regions
        # within about 1/a of t0 = 0, and between an active region and the
        # dead zone within 1/a of a point in |t0| < theta: panels 1/a wide
        # there
        inner = min(theta + 20.0 / a, lim)
        breaks, scales = (-lim, -inner, inner, lim), (scale, 0.5 / a, scale)
    t0, wt = _panel_nodes(breaks, scales)
    log_z, e_p, e_m, m_p, m_m = _binary_inner(t0, theta, a, v)
    pdf = np.exp(-0.5 * t0 * t0 / v0) / np.sqrt(2.0 * np.pi * v0)
    w = wt * pdf
    act = e_p + e_m
    m_pc = support.peak_power * float(np.sum(w * act))
    m0 = root_p * float(np.sum(w * t0 * (e_p - e_m)))
    m1 = root_p * float(np.sum(w * (m_p - m_m)))
    eta = float(np.sum(w * act))
    log_z_mean = float(np.sum(w * log_z))
    return m_pc, m0, s1_sign * m1, eta, log_z_mean


# ---------------------------------------------------------------------------
# tensor-grid moments for larger constellations
# ---------------------------------------------------------------------------

class _QuadGrid:
    """Tensor Gauss-Hermite grid over (s_rs, s1), four real axes."""

    def __init__(self, order_outer, order_inner):
        t0, w0 = _gauss_axes(order_outer)
        t1, w1 = _gauss_axes(order_inner)
        s0 = t0[:, None] + 1j * t0[None, :]
        s1 = t1[:, None] + 1j * t1[None, :]
        self.s0 = s0[:, :, None, None]
        self.s1 = s1[None, None, :, :]
        self.w_outer = w0[:, None] * w0[None, :]
        self.w_inner = (w1[:, None] * w1[None, :])[None, None, :, :]


def _grid_moments(grid, penalty, support, xi, rho_rs, rho1, mu, s1_sign):
    """Tilted moments (E|x|^2, E Re{x s_rs*}, E Re{x s1*}, eta, E log Z)."""
    s_rs = np.sqrt(rho_rs) * grid.s0
    s1 = np.sqrt(max(rho1, 0.0)) * grid.s1
    s_hat = s_rs + s1_sign * s1
    x = decouple(s_hat, xi, penalty, support)
    # min objective minus |s_hat|^2 (0 for x = 0): the tilt exponent
    delta = (np.abs(x) ** 2 * (1.0 + xi * penalty.lambda2)
             - 2.0 * np.real(np.conj(x) * s_hat))
    log_lam = -(mu / xi) * delta
    if rho1 > 0:
        shift = np.max(log_lam, axis=(2, 3), keepdims=True)
    else:
        shift = np.zeros_like(log_lam[:, :, :1, :1])
    lam = np.exp(log_lam - shift)
    z = np.sum(grid.w_inner * lam, axis=(2, 3))

    def tilted(f):
        num = np.sum(grid.w_inner * lam * f, axis=(2, 3))
        return float(np.sum(grid.w_outer * num / z))

    m_pc = tilted(np.abs(x) ** 2)
    m0 = tilted(np.real(x * np.conj(s_rs)))
    m1 = tilted(np.real(x * np.conj(s1)))
    eta = tilted((np.abs(x) > 0).astype(float))
    log_z = float(np.sum(grid.w_outer * (np.log(z) + shift[:, :, 0, 0])))
    return m_pc, m0, m1, eta, log_z


# ---------------------------------------------------------------------------
# fixed-point drivers
# ---------------------------------------------------------------------------

def _rsb_state(spec, chi, p, mu, c):
    """(xi, rho_rs, rho1, chi_tilde) implied by the current iterate."""
    chi_tilde = chi + mu * c
    w0 = _w(spec, chi)
    w_t = _w(spec, chi_tilde)
    xi = 1.0 / w0
    sig0 = spec.rho * w_t + (spec.rho * chi_tilde - p) * _w_prime(spec, chi_tilde)
    rho_rs = xi**2 * sig0
    if not rho_rs > 0:
        raise DomainError(f"degenerate outer variance {rho_rs}")
    rho1 = xi**2 * (w0 - w_t) / mu if c > 0 else 0.0
    if rho1 < 0:
        raise DomainError(f"negative inner variance {rho1}")
    return xi, rho_rs, rho1, chi_tilde


def rsb_distortion(spec, chi, p, c, mu):
    """Asymptotic distortion of the one-step broken state.

    The printed form of the additive correction has p where continuity as
    c -> 0 requires c; the corrected term (xi*c - chi_tilde*rho1)/xi^2 is
    used so the broken solution degenerates to the symmetric one exactly.
    """
    xi, _, rho1, chi_tilde = _rsb_state(spec, chi, p, mu, c)
    base = rs_distortion(spec, chi_tilde, p)
    return base + (xi * c - chi_tilde * rho1) / (xi**2 * spec.load)


def _mu_residual(spec, chi, p, c, mu, xi, rho1, chi_tilde, log_z, mu_exponent):
    if mu_exponent == "squared":
        lead = mu**2 * p * rho1 / xi**2
    else:  # "linear": exponent printed in the saddle-point system
        lead = mu**2 * p * np.sqrt(rho1) / xi
    integral = _r_integral(spec.load, spec.pathloss_atoms, chi, chi_tilde)
    return lead + mu * c / xi - integral - log_z


def _inner_fixed_point(spec, moments_fn, mu, chi0, p0, c0, damping, tol,
                       max_iter, third_equation, s1_sign):
    chi, p, c = float(chi0), float(p0), float(c0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            if not all(np.isfinite(v) for v in (chi, p, c)) or chi > 1e9 or p > 1e9:
                return None
            try:
                xi, rho_rs, rho1, chi_tilde = _rsb_state(spec, chi, p, mu, c)
                m_pc, m0, m1, eta, log_z = moments_fn(
                    spec.penalty, spec.support, xi, rho_rs, rho1, mu, s1_sign)
            except DomainError:
                return None
            chi_tilde_new = xi * m0 / rho_rs
            if rho1 > 0:
                ratio = xi * m1 / rho1
                if third_equation == "proposition":
                    p_new = ratio - chi_tilde
                else:  # "saddle": chi_tilde + mu*p on the left side
                    p_new = (ratio - chi_tilde) / mu
            else:
                p_new = m_pc - c
            c_new = m_pc - p_new
            chi_new = chi_tilde_new - mu * c_new
            if not all(np.isfinite(v) for v in (chi_new, p_new, c_new)):
                return None
            res = {"chi": abs(chi_new - chi), "p": abs(p_new - p),
                   "c": abs(c_new - c)}
            chi = max(chi + damping * (chi_new - chi), 0.0)
            p = max(p + damping * (p_new - p), 0.0)
            c = max(c + damping * (c_new - c), 0.0)
            if max(res.values()) < tol:
                return (chi, p, c, xi, rho_rs, rho1, chi_tilde, eta,
                        log_z, res)
    return None


def _forced_rs(spec, moments_fn, damping, tol, max_iter):
    """Degenerate path c = 0, run through the broken-state machinery.

    With c = 0 the inner variance vanishes, the tilt weight is identically
    one and the update equations collapse algebraically to the symmetric
    system; the state and distortion formulas are still the broken-state
    ones, so agreement with the symmetric solver checks the degeneration.
    """
    mu = 1.0
    candidates = []
    for chi0, p0 in ((0.5, 0.5 * spec.rho), (1.0, spec.rho),
                     (2.0, 2.0 * spec.rho), (5.0, spec.rho)):
        out = _inner_fixed_point(spec, moments_fn, mu, chi0, p0, 0.0,
                                 damping, tol, max_iter, "proposition", 1.0)
        if out is None:
            continue
        chi, p, c = out[:3]
        d = rsb_distortion(spec, chi, p, c, mu)
        candidates.append(out + (d,))
    if not candidates:
        raise ConvergenceError("degenerate fixed point did not converge", {})
    best = min(candidates, key=lambda s: s[-1])
    chi, p, c, xi, rho_rs, rho1, chi_tilde, eta, log_z, res, d = best
    return RsbSolution(chi=chi, p=p, c=c, mu=mu, rho_rs=rho_rs,
                       rho_rsb1=rho1, chi_tilde=chi_tilde, xi=xi,
                       distortion=d, eta=eta, residuals=res, rho=spec.rho)


def solve_rsb1(spec: ScenarioSpec, force_c_zero=False,
               third_equation="saddle", s1_sign=1.0,
               mu_exponent="squared", mu_bracket=(0.05, 120.0),
               order_outer=24, order_inner=24,
               damping=DEFAULT_DAMPING, tol=DEFAULT_TOL,
               max_iter=DEFAULT_MAX_ITER) -> RsbSolution:
    """One-step broken fixed point for constellation supports.

    Args:
        spec: scenario; support must be the zero-extended constellation or
            its constant-envelope limit (quadratic penalty only). Other
            scenarios are covered by the symmetric solver.
        force_c_zero: solve the degenerate c = 0 system through the broken
            machinery; the result must match the symmetric solver.
        third_equation: "saddle" (default) uses chi_tilde + mu*p on the
            left of the second moment equation, the form under which the
            scalar stationarity equation has a root in practice;
            "proposition" uses p + chi_tilde as printed in the summary
            statement of the system.
        s1_sign: +1 adds the inner component to the effective input
            (proposition form); -1 subtracts it (saddle-point form).
        mu_exponent: "squared" uses mu^2 p rho1/xi^2 in the mu equation;
            "linear" uses mu^2 p sqrt(rho1)/xi as printed in the
            saddle-point system.
        mu_bracket: search interval for the scalar mu equation.
        order_outer, order_inner: Gauss-Hermite orders per real axis for
            constellations beyond the binary one (which uses closed-form
            inner integrals and adaptive outer quadrature instead).

    Returns:
        RsbSolution minimizing the broken-state distortion among converged
        candidates. If every candidate collapses to c = 0 the breaking is
        absent and the degenerate (symmetric) solution is returned.
    """
    if third_equation not in ("proposition", "saddle"):
        raise ConfigurationError("third_equation must be 'proposition' or 'saddle'")
    if mu_exponent not in ("squared", "linear"):
        raise ConfigurationError("mu_exponent must be 'squared' or 'linear'")
    if s1_sign not in (1.0, -1.0, 1, -1):
        raise ConfigurationError("s1_sign must be +1 or -1")
    s1_sign = float(s1_sign)

    if spec.support.kind not in (MPSK_ZERO, CONST_ENVELOPE):
        raise ConfigurationError(
            "one-step broken solver covers constellation supports; convex "
            "scenarios are handled by the symmetric solver")
    if spec.penalty.lambda0 != 0 or spec.penalty.lambda1 != 0:
        raise ConfigurationError(
            "constellation scenarios cover the quadratic penalty only")

    if _reduced_to_real(spec.support, spec.penalty):
        moments_fn = _binary_moments
    else:
        grid = _QuadGrid(order_outer, order_inner)

        def moments_fn(penalty, support, xi, rho_rs, rho1, mu, sign):
            if rho1 <= 0:
                # tilt weight is 1: the inner integral is trivial and the
                # remaining single-Gaussian moments have analytic forms
                power, cross, eta = scenario_moments(penalty, support, xi,
                                                     rho_rs)
                return power, cross, 0.0, eta, 0.0
            return _grid_moments(grid, penalty, support, xi, rho_rs, rho1,
                                 mu, sign)

    if force_c_zero:
        return _forced_rs(spec, moments_fn, damping, tol, max_iter)

    rs = solve_rs_scenario(spec)
    c_inits = (0.02 * max(rs.p, 0.1), 0.2 * max(rs.p, 0.1), max(rs.p, 0.1))
    saw_degenerate = False

    def converge_at(mu):
        """Best nondegenerate inner fixed point at this mu, or None."""
        nonlocal saw_degenerate
        best = None
        for c0 in c_inits:
            out = _inner_fixed_point(spec, moments_fn, mu, rs.chi, rs.p, c0,
                                     damping, tol, max_iter,
                                     third_equation, s1_sign)
            if out is None:
                continue
            chi, p, c = out[:3]
            if c <= 1e-10:
                saw_degenerate = True
                continue
            d = rsb_distortion(spec, chi, p, c, mu)
            if best is None or d < best[-1]:
                best = out + (d,)
        return best

    def mu_res(mu, state):
        chi, p, c, xi, _, rho1, chi_tilde, _, log_z, _, _ = state
        return _mu_residual(spec, chi, p, c, mu, xi, rho1, chi_tilde,
                            log_z, mu_exponent)

    lo, hi = mu_bracket
    mus = np.geomspace(lo, hi, 20)
    states, values = {}, {}
    for mu in mus:
        st = converge_at(mu)
        if st is not None:
            states[mu] = st
            values[mu] = mu_res(mu, st)
    keys = sorted(states)
    bracket = None
    for a, b in zip(keys, keys[1:]):
        if values[a] == 0.0 or np.sign(values[a]) != np.sign(values[b]):
            bracket = (a, b)
            break
    if bracket is None:
        if not states and saw_degenerate:
            return _forced_rs(spec, moments_fn, damping, tol, max_iter)
        raise ConvergenceError(
            "no root of the mu equation in the bracket; widen mu_bracket",
            {"mu_residuals": {float(k): float(values[k]) for k in keys}})

    a, b = bracket
    fa = values[a]
    st = states[b]
    for _ in range(80):
        mid = np.sqrt(a * b)
        cand = converge_at(mid)
        if cand is None:
            break
        fm = mu_res(mid, cand)
        st = cand
        if fm == 0.0 or (b - a) < 1e-6 * b:
            a = b = mid
            break
        if np.sign(fm) == np.sign(fa):
            a, fa = mid, fm
        else:
            b = mid
    mu = np.sqrt(a * b)
    final = converge_at(mu) or st
    chi, p, c, xi, rho_rs, rho1, chi_tilde, eta, log_z, res, d = final
    res = dict(res)
    res["mu"] = abs(_mu_residual(spec, chi, p, c, mu, xi, rho1, chi_tilde,
                                 log_z, mu_exponent))
    return RsbSolution(chi=chi, p=p, c=c, mu=float(mu), rho_rs=rho_rs,
                       rho_rsb1=rho1, chi_tilde=chi_tilde, xi=xi,
                       distortion=d, eta=eta, residuals=res, rho=spec.rho)
