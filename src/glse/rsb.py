"""One-step replica-symmetry-breaking fixed points.

For discrete supports the replica-symmetric description can fail; the
one-step broken solution splits the decoupled input into an outer Gaussian
s_rs and an inner tilted component s1, with the tilt weight
Lambda = exp(-mu * min_v E(v | s_rs, s1)). The state is (chi, p, c, mu)
with chi_tilde = chi + mu*c; mu solves a scalar stationarity equation
nested outside the damped (chi, p, c) iteration. Its root is bracketed by
an upward scan of a geometric mu grid that stops at the first sign change
between consecutive converged points, then refined by geometric bisection.

One form of the saddle-point system is solved: chi_tilde + mu*p on the
left of the second moment equation, s1 added to the effective input, and
mu^2 p rho1/xi^2 as the leading term of the mu equation, whose right side
is evaluated in the Lambda form. Printed variants differ in these three
places, but they are not working alternatives: at BPSK, alpha_inv 2.5,
eta 0.4 (D_rs 0.1801) with the default mu bracket, this form gives D_rsb
0.2081; the variant with the exponent mu^2 p sqrt(rho1)/xi gives 0.1855
at mu 1.64, and the six others find no root of the mu equation.

For the binary constellation the inner (tilted) Gaussian integrals are
evaluated in closed form: the tilt exponent is piecewise linear in the
real part of the effective input, so every inner integral reduces to erfc
expressions that stay accurate in log space even for large tilts. The
outer integral is then smooth and handled by composite Gauss-Legendre
panels, narrowed to the tilt's own scale where a large tilt makes the
inner mass switch regions within a small range of the outer value. The
outer law and log Z are even in the outer value, and the active region
below -theta is the mirror image of the one above theta, so the outer
integral runs over the positive half line with doubled weights, and both
regions are one stacked array evaluated as the upper one. Each node
carries one log scale, L = max(log r_0, log r_1, 0) over the two regions'
tilted masses and the dead zone's tilt 1, so one exp forms every
positive term (the masses, the dead zone's factor and the Gaussian parts
of the tilted first moments) at most 1 in size, and log Z = L + log of
their sum; the first moments are sums of two positive terms, with no
cancellation. The tests pin the outputs at 16 states to 1e-14 relative
(floor 1e-3) up to _SHARP_TILT and 1e-11 past it, where a^2 v / 2
reaches 1e5 and its rounding moves the last digits. The outer rule is
one cached layout per pair of panel counts, scaled to the centre and
outer intervals, and only its leading nodes up to t_cut = s0 sqrt(2
(ln(1/eps) + ln(1 + a lim + a^2 v))), eps = 1e-25, are evaluated. Past
t_cut the outer Gaussian factor exp(-t0^2 / (2 s0^2)) is below eps / (1
+ a lim + a^2 v), and the integrands grow no faster than that
denominator (e <= 1, log Z <= a lim + a^2 v / 2, the tilted first
moment) or than lim (t0 e), so the dropped tail is some 1e-25 relative,
far below the sums' rounding. The kept nodes keep their positions and
weights, so each kept term is the one the full rule forms and only the
sums lose their last terms; respacing the panels over [0, t_cut] would
move every node, and the outputs by the rule's own error. Larger
constellations and constant envelope have no accurate tilted moments
here, so their broken solve is refused; the degenerate c = 0 solve needs
no tilt and covers every constellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ConvergenceError, DomainError
from .penalties import CONST_ENVELOPE, MPSK_ZERO, check_covered, check_domain
from .replica import (ScenarioSpec, _gauss_rules, _w, _w_prime,
                      rs_distortion, scenario_moments, solve_rs_scenario)

_DAMPING = 0.5
_TOL = 1e-9
_MAX_ITER = 4000
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Above this tilt slope times Gaussian scale, a * max(s0, sqrt(v)), the
# binary outer panels narrow to the tilt's scale 1/a; below it the panels at
# the Gaussian scale err by about 1e-11 relative at 3 and 1e-8 at 5.
_SHARP_TILT = 6.0
# Relative size of the binary outer tail that is not evaluated (see the
# module docstring); 0 keeps every node.
_TAIL_EPS = 1e-25


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
    for a, prob in atoms:
        if a > 0:
            total += prob * np.log((1.0 + a * chi_tilde) / (1.0 + a * chi))
    return load * total


_SIGNS = np.array([[1.0], [-1.0]])


@lru_cache(maxsize=None)
def _erf_ufuncs():
    """scipy.special's (log_ndtr, ndtr), imported on the first call only.

    Deferred: test_imports.py imports rsb before its scipy-free sweep check.
    """
    from scipy.special import log_ndtr, ndtr
    return log_ndtr, ndtr


def _half_panels(count, centre):
    """Positive nodes of `count` equal 16-point panels, weights doubled.

    The panels cover [0, 1], or [-1, 1] for a centre interval, where an
    odd count puts one panel across 0. Returns (nodes, weights).
    """
    x, w = _gauss_rules()[:2]
    shift, span = (count, count) if centre else (0, 2 * count)
    nodes = (2 * np.arange(count)[:, None] + 1 - shift + x) / span
    keep = nodes > 0
    weights = np.broadcast_to(2.0 * w / span, keep.shape)[keep]
    return nodes[keep], weights


@lru_cache(maxsize=64)
def _panel_layout(centre, outer):
    """Read-only rows ((P, W1), (Q, W2)) of the binary outer rule.

    `centre` half panels on [-1, 1] and `outer` ones on [0, 1]
    (_half_panels), laid end to end: P = [x_in, 1], Q = [0, x_out],
    W1 = [w_in, 0] and W2 = [0, w_out], so inner*P + span*Q and
    inner*W1 + span*W2 are the nodes and weights on [0, inner] and
    [inner, inner + span].
    """
    x_in, w_in = _half_panels(centre, True)
    x_out, w_out = _half_panels(outer, False)
    zeros_in, zeros_out = np.zeros(x_in.size), np.zeros(x_out.size)
    pw = np.stack((np.concatenate((x_in, np.ones(x_out.size))),
                   np.concatenate((w_in, zeros_out))))
    qw = np.stack((np.concatenate((zeros_in, x_out)),
                   np.concatenate((zeros_in, w_out))))
    pw.flags.writeable = qw.flags.writeable = False
    return pw, qw


# ---------------------------------------------------------------------------
# closed-form inner integrals for the binary constellation
# ---------------------------------------------------------------------------

def _outer_nodes(theta, a, s0, s, v):
    """Ascending outer nodes t0 > 0 and weights of the binary kernel.

    Composite 16-point Gauss-Legendre panels over [0, lim], narrowed to
    width 1/a near the dead zone past _SHARP_TILT; only their leading run
    up to t_cut is returned, unchanged.
    """
    lim = 12.0 * s0 + theta + 3.0 * (a * v + s)
    scale = max(s0, s)
    if a * scale <= _SHARP_TILT:
        # composite Gauss-Legendre panels at the Gaussian scale
        inner, inner_width = theta, 2.0 * scale
    else:
        # the tilt moves the inner mass between the two active regions
        # within about 1/a of t0 = 0, and between an active region and the
        # dead zone within 1/a of a point in |t0| < theta: panels 1/a wide
        # there. 20/a < 4 scale < lim - theta, so [inner, lim] is not empty
        inner, inner_width = theta + 20.0 / a, 1.0 / a
    span = lim - inner
    pw, qw = _panel_layout(math.ceil((inner + inner) / inner_width),
                           math.ceil(span / (2.0 * scale)))
    # x + 0.0 and 1.0 * x are exact: the nodes and weights are inner * x_in,
    # inner + span * x_out, inner * w_in and span * w_out bit for bit
    t0, wt = inner * pw + span * qw
    log_inv_eps = -math.log(_TAIL_EPS) if _TAIL_EPS > 0 else math.inf
    t_cut = s0 * math.sqrt(2.0 * (log_inv_eps
                                  + math.log1p(a * lim + a * a * v)))
    n = t0.searchsorted(t_cut, "right")
    return t0[:n], wt[:n]


def _binary_moments(penalty, support, xi, rho_rs, rho1, mu):
    """Tilted moments for the binary constellation, closed-form inner part.

    Returns (E|x|^2, E Re{x s_rs*}, E Re{x s1*}, eta, E log Z) where the
    tilted inner average is taken before the outer expectation. Raises
    DomainError where the scalar problem is not well-posed, and unless xi,
    rho_rs, rho1 and mu are positive (a NaN is not).

    At the outer value t0 the effective real input is t = t0 + z with
    z ~ N(0, v); the tilt is exp(a(|t| - theta)) outside the dead zone
    |t| <= theta and 1 inside, and the output is sqrt(P) sign(t) outside,
    0 inside. The outer nodes are t0 > 0 with doubled weights; row k of
    d = theta - (t0, -t0) belongs to the active region t > theta at t0
    (k = 0) and t < -theta there (k = 1), as its mirror image t > theta
    at -t0. The tilted mass of region k is r_k = exp(g_k) Phi(-x_k) with
    g_k = a^2 v/2 - a d_k and x_k = (d_k - a v)/sqrt(v), and Z = r_0 + r_1
    + the dead zone's Gaussian mass is at least 1. With the shared scale
    L = max(log r_0, log r_1, 0) per node, one exp forms R_k = r_k e^-L,
    the dead zone's factor e^-L and the Gaussian terms e^(-d_k^2/(2v) - L),
    all at most 1; then log Z = L + log(sum R), with sum R the masses R_k
    and the dead zone's mass times its factor, and e_k = R_k / sum R. The
    tilted first z-moment of region k, (a v Phi(-x_k) + sqrt(v) phi(x_k))
    e^g_k / Z, is a v e_k + sqrt(v/(2 pi)) e^(-d_k^2/(2v)) / Z, since
    g_k - x_k^2/2 = -d_k^2/(2v): two positive terms, each summed over the
    nodes. The lower region's moment is minus its mirror's.

    The outer rule stops at t_cut (_outer_nodes), past which the Gaussian
    weight is below _TAIL_EPS / (1 + a lim + a^2 v): each integral loses
    some 1e-25 of its size (module docstring). The kept nodes are the full
    rule's, at the same positions with the same weights.
    """
    log_ndtr, ndtr = _erf_ufuncs()
    shrink = check_domain(penalty, xi)
    if not (xi > 0 and rho_rs > 0 and rho1 > 0 and mu > 0):
        raise DomainError("binary tilted moments need xi, rho_rs, rho1, mu "
                          f"> 0, got {xi}, {rho_rs}, {rho1}, {mu}")
    root_p = math.sqrt(support.peak_power)
    theta = root_p * shrink / 2.0
    a = 2.0 * root_p * mu / xi
    v, v0 = rho1 / 2.0, rho_rs / 2.0
    s0, s = math.sqrt(v0), math.sqrt(v)
    t0, wt = _outer_nodes(theta, a, s0, s, v)
    d = theta - _SIGNS * t0
    # exponents: log r_0, log r_1, 0 (dead zone), -d_0^2/(2v), -d_1^2/(2v)
    expo = np.zeros((5, t0.size))
    np.add(0.5 * a * a * v - a * d, log_ndtr((a * v - d) / s), out=expo[:2])
    np.multiply(d * d, -0.5 / v, out=expo[3:])
    log_scale = np.maximum(np.maximum(expo[0], expo[1]), 0.0)  # L
    r = np.exp(expo - log_scale)
    # dead zone: Phi((theta - t0)/s) - Phi((-theta - t0)/s), where
    # -theta - t0 = -d_1 exactly
    z_c = ndtr(_SIGNS * d / s)
    r[2] *= np.maximum(z_c[0] - z_c[1], 0.0)
    # log of sum R as log1p(sum R - 1), taking the 1 from the dead zone's
    # term: where the tilt is weak, L = 0, that term is near 1 and log Z is
    # small, and rounding sum R would cost log Z its low digits
    active = r[0] + r[1]
    total = active + r[2]
    log_z = log_scale + np.log1p(active + (r[2] - 1.0))
    # outer weights; the Gaussian normalisation scales the sums
    w = wt * np.exp(t0 * t0 * (-0.5 / v0))
    w_e = w / total
    sums = r @ w_e
    norm = 1.0 / math.sqrt(2.0 * np.pi * v0)
    eta = norm * float(sums[0] + sums[1])
    m0 = root_p * norm * float((r[0] - r[1]) @ (t0 * w_e))
    gauss = norm * float(sums[3] + sums[4])
    m1 = root_p * (a * v * eta + s / _SQRT_2PI * gauss)
    log_z_mean = norm * float(w @ log_z)
    return support.peak_power * eta, m0, m1, eta, log_z_mean


# ---------------------------------------------------------------------------
# fixed-point drivers
# ---------------------------------------------------------------------------

def _damped_fixed_point(step, x0, tol, max_iter, bound):
    """Damped Picard iteration x <- max(x + _DAMPING*(x_new - x), 0).

    step(x) maps the state tuple to (x_new, info), where info is whatever
    the caller needs from the last evaluation; a DomainError from step ends
    the iteration. The state must stay finite and each entry at most its
    bound. Converges when every residual |x_new - x| is below tol.

    Returns (x, residuals, info, converged): the last state, the residuals
    and info of the last completed step (inf and None before the first),
    and whether it converged within max_iter steps.
    """
    x = tuple(map(float, x0))
    residuals, info = (np.inf,) * len(x), None
    # whether x is finite and within its bound, checked before each step
    inside = all(math.isfinite(v) and v <= b for v, b in zip(x, bound))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            if not inside:
                return x, residuals, info, False
            try:
                x_new, info = step(x)
            except DomainError:
                return x, residuals, info, False
            res, damped = [], []
            for n, v, b in zip(x_new, x, bound):
                if not math.isfinite(n):
                    return x, residuals, info, False
                res.append(abs(n - v))
                v = max(v + _DAMPING * (n - v), 0.0)
                damped.append(v)
                inside = inside and math.isfinite(v) and v <= b
            residuals, x = tuple(res), tuple(damped)
            if max(residuals) < tol:
                return x, residuals, info, True
    return x, residuals, info, False


def _rsb_state(spec, chi, p, mu, c):
    """(xi, rho_rs, rho1, chi_tilde) implied by the current iterate."""
    chi_tilde = chi + mu * c
    w0 = _w(spec, chi)
    w_t = _w(spec, chi_tilde)
    xi = 1.0 / w0
    xi2, rho = xi**2, spec.rho
    sig0 = rho * w_t + (rho * chi_tilde - p) * _w_prime(spec, chi_tilde)
    rho_rs = xi2 * sig0
    if not rho_rs > 0:
        raise DomainError(f"degenerate outer variance {rho_rs}")
    rho1 = xi2 * (w0 - w_t) / mu if c > 0 else 0.0
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


def _mu_residual(spec, mu, state):
    """Scalar stationarity equation in mu at an inner fixed point."""
    chi, p, c, xi, _, rho1, chi_tilde, _, log_z = state[:9]
    integral = _r_integral(spec.load, spec.pathloss_atoms, chi, chi_tilde)
    return mu**2 * p * rho1 / xi**2 + mu * c / xi - integral - log_z


def _inner_fixed_point(spec, mu, chi0, p0, c0):
    """Damped (chi, p, c) iteration at fixed mu, or None if it fails.

    The tilted moments are the binary constellation's closed-form inner
    integrals; with rho1 = 0 the tilt is 1 and the analytic single-Gaussian
    moments apply.
    """
    penalty, support = spec.penalty, spec.support

    def step(x):
        chi, p, c = x
        xi, rho_rs, rho1, chi_tilde = _rsb_state(spec, chi, p, mu, c)
        if rho1 <= 0:
            m_pc, m0, eta = scenario_moments(penalty, support, xi, rho_rs)
            log_z = 0.0
            p_new = m_pc - c
        else:
            m_pc, m0, m1, eta, log_z = _binary_moments(
                penalty, support, xi, rho_rs, rho1, mu)
            p_new = (xi * m1 / rho1 - chi_tilde) / mu
        c_new = m_pc - p_new
        chi_new = xi * m0 / rho_rs - mu * c_new
        return ((chi_new, p_new, c_new),
                (xi, rho_rs, rho1, chi_tilde, eta, log_z))

    x, res, info, ok = _damped_fixed_point(
        step, (chi0, p0, c0), _TOL, _MAX_ITER, (1e9, 1e9, np.inf))
    if not ok:
        return None
    return x + info + (dict(zip(("chi", "p", "c"), res)),)


def _best_of_starts(spec, mu, starts, broken):
    """Lowest-distortion inner fixed point over the starts (chi0, p0, c0).

    With broken set, fixed points that collapse to c = 0 are skipped.
    Returns the state with its distortion appended (or None) and whether
    some start collapsed.
    """
    best, collapsed = None, False
    for chi0, p0, c0 in starts:
        out = _inner_fixed_point(spec, mu, chi0, p0, c0)
        if out is None:
            continue
        chi, p, c = out[:3]
        if broken and c <= 1e-10:
            collapsed = True
            continue
        d = rsb_distortion(spec, chi, p, c, mu)
        if best is None or d < best[-1]:
            best = out + (d,)
    return best, collapsed


def _solution(spec, mu, state, extra_residuals=None):
    chi, p, c, xi, rho_rs, rho1, chi_tilde, eta, _, res, d = state
    return RsbSolution(chi=chi, p=p, c=c, mu=float(mu), rho_rs=rho_rs,
                       rho_rsb1=rho1, chi_tilde=chi_tilde, xi=xi,
                       distortion=d, eta=eta,
                       residuals={**res, **(extra_residuals or {})},
                       rho=spec.rho)


def _forced_rs(spec):
    """Degenerate path c = 0, run through the broken-state machinery.

    With c = 0 the inner variance vanishes, the tilt weight is identically
    one and the update equations collapse algebraically to the symmetric
    system; the state and distortion formulas are still the broken-state
    ones, so agreement with the symmetric solver checks the degeneration.
    """
    starts = ((0.5, 0.5 * spec.rho, 0.0), (1.0, spec.rho, 0.0),
              (2.0, 2.0 * spec.rho, 0.0), (5.0, spec.rho, 0.0))
    best, _ = _best_of_starts(spec, 1.0, starts, broken=False)
    if best is None:
        raise ConvergenceError("degenerate fixed point did not converge", {})
    return _solution(spec, 1.0, best)


def solve_rsb1(spec: ScenarioSpec, force_c_zero=False,
               mu_bracket=(0.05, 120.0)) -> RsbSolution:
    """One-step broken fixed point for constellation supports.

    Solves the saddle-point system in the one form described in the module
    docstring. The broken solve covers the binary constellation, with
    closed-form inner integrals and fixed composite Gauss-Legendre outer
    panels, narrowed to width 1/a past _SHARP_TILT; it raises
    ConfigurationError for larger constellations and constant envelope.
    The degenerate solve (force_c_zero) covers every constellation and
    constant envelope.

    Args:
        spec: scenario; support must be the zero-extended constellation or
            its constant-envelope limit (quadratic penalty only). Other
            scenarios are covered by the symmetric solver.
        force_c_zero: solve the degenerate c = 0 system through the broken
            machinery; the result must match the symmetric solver.
        mu_bracket: search interval (lo, hi), 0 < lo < hi < inf, for the
            scalar mu equation, scanned upward on 20 geometric points up to
            the first sign change between consecutive converged points,
            which is then bisected.

    Returns:
        RsbSolution minimizing the broken-state distortion among converged
        candidates. If every candidate collapses to c = 0 the breaking is
        absent and the degenerate (symmetric) solution is returned. If the
        scan finds no sign change, ConvergenceError lists its residuals.
    """
    if spec.support.kind not in (MPSK_ZERO, CONST_ENVELOPE):
        raise ConfigurationError(
            "one-step broken solver covers constellation supports; convex "
            "scenarios are handled by the symmetric solver")
    check_covered(spec.penalty, spec.support)
    lo, hi = mu_bracket
    if not 0 < lo < hi < np.inf:  # a NaN fails too
        raise ConfigurationError(
            f"mu_bracket must satisfy 0 < lo < hi < inf, got {mu_bracket}")

    if force_c_zero:
        return _forced_rs(spec)
    if spec.support.kind != MPSK_ZERO or spec.support.order != 2:
        raise ConfigurationError(
            "one-step broken solver covers the binary constellation; larger "
            "constellations and constant envelope have only the degenerate "
            "solve (force_c_zero)")

    rs = solve_rs_scenario(spec)
    starts = tuple((rs.chi, rs.p, f * max(rs.p, 0.1))
                   for f in (0.02, 0.2, 1.0))
    # (a, fa) is the last converged grid point below mu
    residuals, saw_degenerate = {}, False
    for mu in np.geomspace(lo, hi, 20):
        st, collapsed = _best_of_starts(spec, mu, starts, broken=True)
        saw_degenerate |= collapsed
        if st is None:
            continue
        f = _mu_residual(spec, mu, st)
        if residuals and (fa == 0.0 or np.sign(fa) != np.sign(f)):
            break
        a, fa = mu, f
        residuals[float(mu)] = float(f)
    else:
        if not residuals and saw_degenerate:
            return _forced_rs(spec)
        raise ConvergenceError(
            "no root of the mu equation in the bracket; widen mu_bracket",
            {"mu_residuals": residuals})

    # geometric bisection of [a, b]; (mu, st, f) is the last mu solved
    b = mu
    for _ in range(80):
        mid = np.sqrt(a * b)
        cand, _ = _best_of_starts(spec, mid, starts, broken=True)
        if cand is None:
            break
        mu, st, f = mid, cand, _mu_residual(spec, mid, cand)
        if f == 0.0 or (b - a) < 1e-6 * b:
            break
        if np.sign(f) == np.sign(fa):
            a, fa = mid, f
        else:
            b = mid
    return _solution(spec, mu, st, {"mu": abs(f)})
