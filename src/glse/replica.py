"""Asymptotic engine: replica-symmetric fixed points, tuning, and bounds.

The large-system behavior of the regularized precoder decouples into a
scalar thresholding problem with Gaussian input of variance rho_rs and
penalty factor xi = 1/R(-chi), where R is the R-transform of the Gramian
spectrum. The fixed point couples (chi, p); the asymptotic distortion,
active fraction and transmit power follow from the converged state.

Two independent code paths compute the Gaussian moments: analytic
expressions per scenario (solve_rs_scenario) and numerical quadrature
driven by the scalar minimizer itself (solve_rs_generic). The quadrature
integrates along rays of the input plane, one ray for the phase-equivariant
supports and Gauss-Legendre panels of phases for M-PSK. Each ray is cut
into pieces of one regime (zero output, interior, or on the rim of the
support), whose boundaries multisection finds to adjacent floats, and a
fixed composite Gauss-Legendre rule in the radius integrates the smooth
pieces, calling the scalar minimizer once per multisection round and once
for the rule, on all rays at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ConvergenceError, DomainError
from .penalties import (DISK, FULL, MPSK_ZERO, PenaltySpec, SupportSpec,
                        check_covered, check_domain, decouple)
from .rmt import UNIT_ATOMS, _r_transform, _validate_atoms

CHI_INITS = (0.1, 1.0, 10.0)
P_INIT_FACTORS = (0.1, 1.0, 10.0)


def qfunc(x):
    """Gaussian tail probability Q(x) = erfc(x/sqrt 2)/2, by math.erfc.

    An array is mapped elementwise, with the same values as scalar calls.
    """
    if np.ndim(x):
        return 0.5 * np.vectorize(math.erfc, otypes=[float])(x / np.sqrt(2.0))
    return 0.5 * math.erfc(x / np.sqrt(2.0))


@dataclass(frozen=True)
class ScenarioSpec:
    """One asymptotic scenario: penalty, support, load, power control.

    pathloss_atoms is validated and stored as a tuple, as in ChannelSpec.
    """

    penalty: PenaltySpec
    support: SupportSpec
    load: float
    rho: float
    pathloss_atoms: tuple = UNIT_ATOMS

    def __post_init__(self):
        if not self.load > 0:
            raise ConfigurationError("load must be positive")
        if not 0 < self.rho < np.inf:  # a NaN fails too
            raise ConfigurationError(
                f"rho must be finite and positive, got {self.rho}")
        object.__setattr__(self, "pathloss_atoms",
                           _validate_atoms(self.pathloss_atoms))


@dataclass(frozen=True)
class RsSolution:
    """Replica-symmetric state and derived quantities.

    From solve_rs_*, the first root over the starts (_first_root); from
    tune, the tuned closed-form or root-found state. residuals holds
    |step - x| per unknown ("chi", "p") at the returned state
    (solution_at).
    """

    chi: float
    p: float
    rho_rs: float
    xi: float
    distortion: float
    eta: float
    residuals: dict
    rho: float


def _w(spec, chi):
    """R(-chi) of the Gramian spectrum, on the spec's validated atoms."""
    return _r_transform(spec.load, spec.pathloss_atoms, -chi)


def _w_prime(spec, chi):
    """d/dchi of R(-chi), on the spec's validated atoms."""
    return -_r_transform(spec.load, spec.pathloss_atoms, -chi,
                         derivative=True)


def rs_distortion(spec, chi, p):
    """Asymptotic distortion at a fixed point (chi, p).

    D = rho + (1/alpha) d/dchi[(p - rho*chi) chi R(-chi)]; for the unit
    atom this reduces to (rho + p)/(1 + chi)^2.
    """
    w = _w(spec, chi)
    wp = _w_prime(spec, chi)
    rho = spec.rho
    return rho + ((p - 2 * rho * chi) * w + (p * chi - rho * chi**2) * wp) / spec.load


def _rs_state(spec, chi, p):
    """xi and rho_rs implied by (chi, p); raises on degenerate variance."""
    w = _w(spec, chi)
    xi = 1.0 / w
    sig2 = spec.rho * w + (spec.rho * chi - p) * _w_prime(spec, chi)
    rho_rs = xi**2 * sig2
    if not rho_rs > 0:
        raise DomainError(f"degenerate decoupled-input variance {rho_rs}")
    return xi, rho_rs


# ---------------------------------------------------------------------------
# analytic per-scenario Gaussian moments
# ---------------------------------------------------------------------------
# Each returns (power, cross, eta) = (E|x|^2, E Re{conj(x) s}, P{x != 0})
# for s ~ CN(0, rho_rs) pushed through the scalar decoupled precoder.

def _trunc_sq(rho_rs, a, b=np.inf):
    """E[r^2; a < r < b] for Rayleigh r with E r^2 = rho_rs."""
    lo = (rho_rs + a * a) * np.exp(-a * a / rho_rs)
    if np.isinf(b):
        return lo
    return lo - (rho_rs + b * b) * np.exp(-b * b / rho_rs)


def _trunc_mean(rho_rs, a):
    """E[r; r > a] for the same Rayleigh law."""
    root_pi_r = np.sqrt(np.pi * rho_rs)
    return a * np.exp(-a * a / rho_rs) + root_pi_r * qfunc(np.sqrt(2.0 / rho_rs) * a)


def _moments_full_l0(lam, lam0, xi, rho_rs):
    shrink = 1.0 + xi * lam
    tau0 = np.sqrt(xi * lam0 * shrink)
    e0 = np.exp(-tau0 * tau0 / rho_rs)
    sq = _trunc_sq(rho_rs, tau0)
    return sq / shrink**2, sq / shrink, e0


def _moments_full_l1(lam, lam1, xi, rho_rs):
    shrink = 1.0 + xi * lam
    tau1 = xi * lam1 / 2.0
    e1 = np.exp(-tau1 * tau1 / rho_rs)
    q1 = qfunc(np.sqrt(2.0 / rho_rs) * tau1)
    root_pi_r = np.sqrt(np.pi * rho_rs)
    power = (rho_rs * e1 - 2 * tau1 * root_pi_r * q1) / shrink**2
    cross = (rho_rs * e1 - tau1 * root_pi_r * q1) / shrink
    return power, cross, e1


def _moments_disk_l0(lam, lam0, peak_power, xi, rho_rs):
    shrink = 1.0 + xi * lam
    root_p = np.sqrt(peak_power)
    tau0 = np.sqrt(xi * lam0 * shrink)
    tau_c = shrink * root_p
    tau_h = max(tau_c, shrink * root_p / 2.0 + xi * lam0 / (2.0 * root_p))
    tau0 = min(tau0, tau_c)  # linear band is (tau0, tau_c]
    e = lambda t: np.exp(-t * t / rho_rs)
    band_sq = _trunc_sq(rho_rs, tau0, tau_c)
    power = band_sq / shrink**2 + peak_power * e(tau_h)
    cross = band_sq / shrink + root_p * _trunc_mean(rho_rs, tau_h)
    eta = e(tau0) - e(tau_c) + e(tau_h)
    return power, cross, eta


def _moments_disk_l1(lam, lam1, peak_power, xi, rho_rs):
    shrink = 1.0 + xi * lam
    root_p = np.sqrt(peak_power)
    tau1 = xi * lam1 / 2.0
    tau_c = shrink * root_p + tau1
    e = lambda t: np.exp(-t * t / rho_rs)
    q = lambda t: qfunc(np.sqrt(2.0 / rho_rs) * t)
    root_pi_r = np.sqrt(np.pi * rho_rs)
    power = (rho_rs * (e(tau1) - e(tau_c))
             - 2 * tau1 * root_pi_r * (q(tau1) - q(tau_c))) / shrink**2
    band_cross = (rho_rs * e(tau1)
                  - (rho_rs + tau_c * (tau_c - tau1)) * e(tau_c)
                  - tau1 * root_pi_r * (q(tau1) - q(tau_c)))
    cross = band_cross / shrink + root_p * _trunc_mean(rho_rs, tau_c)
    return power, cross, e(tau1)


def _moments_mpsk(lam, peak_power, order, xi, rho_rs):
    # deferred: the full-plane and disk moments need no scipy.special
    from scipy.special import ndtr, owens_t

    # Owen's T form of the phase integrals over [0, pi/M], with T(h, a) =
    # P{X > h, 0 < Y < aX} for independent standard normals X, Y; at M = 2,
    # tan(pi/2) is a large finite float and eta reduces to Craig's 2Q(h)
    root_p = np.sqrt(peak_power)
    tau0 = root_p * (1.0 + xi * lam) / 2.0
    h = np.sqrt(2.0 / rho_rs) * tau0
    half = np.pi / order
    a = np.tan(half)
    t = owens_t(h, a)
    eta = 2.0 * order * t
    tail = (np.sin(half) * qfunc(h / np.cos(half))
            + np.exp(-0.5 * h * h) * (ndtr(h * a) - 0.5)
            - np.sqrt(2.0 * np.pi) * h * t)
    cross = root_p * (tau0 * eta + order * np.sqrt(rho_rs / np.pi) * tail)
    return float(peak_power * eta), float(cross), float(eta)


def _moments_ce(lam, peak_power, xi, rho_rs):
    shrink = 1.0 + xi * lam
    root_p = np.sqrt(peak_power)
    tau = root_p * shrink / 2.0
    eta = np.exp(-tau * tau / rho_rs)
    cross = root_p * _trunc_mean(rho_rs, tau)
    return peak_power * eta, cross, eta


def scenario_moments(penalty, support, xi, rho_rs):
    """Analytic (power, cross, eta) for the covered scenarios.

    Raises DomainError where the scalar problem is not well-posed
    (penalties.check_domain), as the scalar minimizer does.
    """
    check_covered(penalty, support)
    check_domain(penalty, xi)
    lam, lam0, lam1 = penalty.lambda2, penalty.lambda0, penalty.lambda1
    if support.kind == FULL:
        if lam1 != 0:
            return _moments_full_l1(lam, lam1, xi, rho_rs)
        return _moments_full_l0(lam, lam0, xi, rho_rs)
    if support.kind == DISK:
        if lam1 != 0:
            return _moments_disk_l1(lam, lam1, support.peak_power, xi, rho_rs)
        return _moments_disk_l0(lam, lam0, support.peak_power, xi, rho_rs)
    if support.kind == MPSK_ZERO:
        return _moments_mpsk(lam, support.peak_power, support.order, xi, rho_rs)
    return _moments_ce(lam, support.peak_power, xi, rho_rs)


# ---------------------------------------------------------------------------
# quadrature-driven moments (independent path used by solve_rs_generic)
# ---------------------------------------------------------------------------
# Along a ray s = r e^{j theta} with u = r^2/rho_rs, u is Exp(1) under
# s ~ CN(0, rho_rs), so each moment is an integral against e^{-u} du over
# the activity segments of the ray.

@lru_cache(maxsize=None)
def _gauss_rules():
    """Read-only (nodes, weights, phase_nodes, phase_weights).

    nodes and weights are the 16-point Gauss-Legendre rule on [-1, 1].
    The phase rule places M-PSK phases as fractions of [0, pi/M] on
    16-point panels halving toward pi/M down to 2^-10 of the interval,
    since the BPSK ray integrand exp(-h^2/(2 cos^2 theta)) is not analytic
    at theta = pi/2; its weights sum to 1.
    """
    # deferred: numpy.polynomial loads only when something integrates
    from numpy.polynomial.legendre import leggauss
    nodes, weights = leggauss(16)
    edges = np.append(1.0 - 0.5 ** np.arange(11), 1.0)
    half = 0.5 * np.diff(edges)[:, None]
    rules = (nodes, weights,
             (0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes).ravel(),
             (half * weights).ravel())
    for rule in rules:
        rule.flags.writeable = False
    return rules


_PANEL_WIDTH = 1.0  # widest panel in t = sqrt(u)
_U_TAIL = 80.0  # an unbounded segment is cut at lo + 80 (e^-80 ~ 2e-35)
_U_SCAN, _SCAN_POINTS = 80.0, 4001  # regime scan grid in u


def _active_segments(profile, rho_rs, phases=(1.0,), rim=np.inf):
    """Active pieces of s -> profile(s) along rays s = r * phase.

    Each ray is cut into pieces of one regime of the output x: zero,
    interior, or on the rim |x| >= rim (1 - 1e-12), the margin because a
    saturated output rim s/|s| misses the radius by a few ulps (rim = inf
    has no rim). Returns arrays (ray, lo, hi) of the pieces where x is
    nonzero: ray indexes phases, and (lo, hi) are intervals in
    u = r^2/rho_rs, ordered by ray and then by u (hi = inf for the piece
    open at the end of the scan, _SCAN_POINTS points on [0, _U_SCAN]).
    profile takes an array of inputs. The scan points of every ray are
    evaluated in one call, and every boundary between scan points of two
    regimes is refined by multisection, all boundaries at once: a round
    evaluates 63 equally spaced interior points of every open bracket in
    one call, and the bracket keeps the last point of its left end's
    regime and the first point that is not. A bracket closes once it holds
    adjacent floats, and the rounds stop when all are closed, or after 100
    rounds (only a boundary below u ~ 1e-166 can need them all). A piece
    starts at the first point of its regime, and an active piece followed
    by zero output ends at its last point.
    """
    phases = np.asarray(phases)

    def regime(u, phase):
        mag = np.abs(profile(phase * np.sqrt(rho_rs * u)))
        return (mag != 0).astype(int) + (mag >= rim * (1.0 - 1e-12))

    us = np.linspace(0.0, _U_SCAN, _SCAN_POINTS)
    code = regime(us, phases[:, None])
    ray, edge = np.nonzero(code[:, 1:] != code[:, :-1])
    a, b = us[edge], us[edge + 1]
    left, right = code[ray, edge], code[ray, edge + 1]
    steps = np.arange(1, 64) / 64.0
    for _ in range(100):
        live = np.flatnonzero(np.nextafter(a, b) < b)
        if not live.size:
            break
        a_live, b_live = a[live, None], b[live, None]
        grid = np.hstack((a_live, a_live + (b_live - a_live) * steps, b_live))
        same = regime(grid[:, 1:-1], phases[ray[live], None])
        same = same == left[live, None]
        # grid[k + 1]: the first interior point off the left regime, else b
        k = np.where(same.all(axis=1), 63, same.argmin(axis=1))
        rows = np.arange(live.size)
        a[live], b[live] = grid[rows, k], grid[rows, k + 1]
    # the pieces of a ray start at u = 0 and at each of its boundaries
    n = phases.size
    piece_ray = np.concatenate((np.arange(n), ray))
    order = np.argsort(piece_ray, kind="stable")
    piece_ray = piece_ray[order]
    lo = np.concatenate((np.zeros(n), np.where(right == 0, a, b)))[order]
    on = np.concatenate((code[:, 0], right))[order] != 0
    last = np.append(piece_ray[1:] != piece_ray[:-1], True)
    hi = np.where(last, np.inf, np.append(lo[1:], np.inf))
    return piece_ray[on], lo[on], hi[on]


def _panel_edges(lo, hi, width):
    """Equal panels no wider than width on each interval [lo, hi].

    Returns the panel edges (a, b) and the index of each panel's interval;
    the edges are those of np.linspace over each interval.
    """
    count = np.maximum(np.ceil((hi - lo) / width), 1).astype(int)
    seg = np.repeat(np.arange(lo.size), count)
    k = np.arange(seg.size) - np.repeat(np.cumsum(count) - count, count)
    step = ((hi - lo) / count)[seg]
    a = k * step + lo[seg]
    b = np.where(k + 1 == count[seg], hi[seg], (k + 1) * step + lo[seg])
    return a, b, seg


def _ray_moments(profile, rho_rs, phases=(1.0,), rim=np.inf):
    """Per-ray (E|x|^2, E Re{conj(x) s}, P{x != 0}) of x = profile(s).

    A fixed Gauss-Legendre rule over the active pieces of all rays at once
    (_active_segments, which cuts each ray at every change of regime, the
    rim radius included). The integral runs in the radius t = sqrt(u),
    against 2t e^{-t^2} dt: on each piece the integrand of every covered
    precoder is then a low-degree polynomial in t times that entire weight,
    on which the rule converges geometrically. Each piece is cut into
    16-point panels at most _PANEL_WIDTH wide in t, all evaluated in a
    single profile call. eta sums the active pieces.
    """
    phases = np.asarray(phases)
    ray, lo, hi = _active_segments(profile, rho_rs, phases, rim)
    top = np.sqrt(np.minimum(hi, lo + _U_TAIL))
    a, b, seg = _panel_edges(np.sqrt(lo), top, _PANEL_WIDTH)
    nodes, weights = _gauss_rules()[:2]
    half = 0.5 * (b - a)[:, None]
    t = 0.5 * (a + b)[:, None] + half * nodes
    s = phases[ray[seg], None] * (np.sqrt(rho_rs) * t)
    x = profile(s)
    w = 2.0 * half * weights * t * np.exp(-t * t)
    f = np.stack((np.abs(x) ** 2, (np.conj(x) * s).real)) * w
    power, cross = (np.bincount(ray[seg], m, minlength=phases.size)
                    for m in f.sum(axis=2))
    eta = np.bincount(ray, np.exp(-lo) - np.exp(-hi), minlength=phases.size)
    return power, cross, eta


def generic_moments(penalty, support, xi, rho_rs):
    """(power, cross, eta) by quadrature over the scalar minimizer.

    The rays are cut at the rim radius sqrt(peak_power), which is inf on
    the full plane. Phase-equivariant supports need one ray; the
    zero-extended M-PSK constellation is averaged over phases in
    [0, pi/M], to which symmetry and rotation fold the phase, by 16-point
    Gauss-Legendre panels that halve toward pi/M (176 rays for every M).
    Along each ray, _ray_moments applies a fixed Gauss-Legendre rule in the
    radius to every piece of one regime.
    """
    def profile(s):
        return decouple(s, xi, penalty, support)

    if support.kind == MPSK_ZERO:
        # the weights sum to 1: the mean over the phase
        nodes, weights = _gauss_rules()[2:]
        phases = np.exp(1j * np.pi / support.order * nodes)
    else:
        phases = weights = np.ones(1)
    return tuple(float(weights @ m) for m in _ray_moments(
        profile, rho_rs, phases, np.sqrt(support.peak_power)))


# ---------------------------------------------------------------------------
# root-finder
# ---------------------------------------------------------------------------

def _residual(equations, z):
    """F(z) as a float array; DomainError when an entry is not finite."""
    f = np.asarray(equations(z), dtype=float)
    if not np.all(np.isfinite(f)):
        raise DomainError(f"non-finite residual {f} at {z}")
    return f


def _chord_newton(equations, z):
    """(z, F(z)) where damped chord-Newton steps from z stop.

    The Jacobian is a forward difference with steps sqrt(eps) max(|z_i|, 1)
    and is kept while full steps cut |F| tenfold; otherwise it is refreshed.
    Each step halves its length until |F| drops by the Armijo fraction 1e-4
    of it. The iteration stops after a step below 1e-13 (1 + |z|), taken
    whole, when the halving stalls on a fresh Jacobian, or after 100
    steps. A singular Jacobian raises numpy's LinAlgError.
    """
    f = _residual(equations, z)
    norm, jac = np.linalg.norm(f), None
    for _ in range(100):
        fresh = jac is None
        if fresh:
            h = np.sqrt(np.finfo(float).eps) * np.maximum(np.abs(z), 1.0)
            jac = np.column_stack([(_residual(equations, z + dz) - f) / hi
                                   for dz, hi in zip(np.diag(h), h)])
        step = np.linalg.solve(jac, -f)
        length = np.linalg.norm(step)
        tol = 1e-13 * (1.0 + np.linalg.norm(z))
        if length < tol:  # the last step: take it whole
            z = z + step
            return z, _residual(equations, z)
        t = 1.0
        while t * length >= tol:
            z_new = z + t * step
            f_new = _residual(equations, z_new)
            norm_new = np.linalg.norm(f_new)
            if norm_new <= (1.0 - 1e-4 * t) * norm:
                break
            t *= 0.5
        else:  # the halving stalled
            if fresh:
                break
            jac = None
            continue
        if t < 1.0 or norm_new > 0.1 * norm:
            jac = None
        z, f, norm = z_new, f_new, norm_new
    return z, f


def _first_root(equations, starts, error, failure):
    """The first root of equations over the starts, tried in order.

    Each start runs _chord_newton, and gives a root when every |F| there
    is below 1e-9. A start whose iterate leaves the scalar problem's
    domain or makes F non-finite (DomainError), or meets a singular
    Jacobian, is dropped. When no start gives a root, raises error with
    the failure message and the last residual.
    """
    residual = None
    # a step that overflows exp gives a NaN state: DomainError drops it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for z0 in starts:
            try:
                z, residual = _chord_newton(equations,
                                            np.asarray(z0, dtype=float))
            except (DomainError, np.linalg.LinAlgError) as exc:
                residual = exc
                continue
            if np.max(np.abs(residual)) < 1e-9:
                return z
    raise error(f"{failure} (last residual {residual})")


def _solve_rs(spec, moments_fn, inits):
    if inits is None:
        inits = [(c, f * spec.rho) for c in CHI_INITS for f in P_INIT_FACTORS]
    if not all(chi0 > 0 and p0 > 0 for chi0, p0 in inits):
        raise ConfigurationError(
            f"replica-symmetric starts need chi0 > 0 and p0 > 0: {inits}")

    def equations(z):
        xi, rho_rs = _rs_state(spec, *np.exp(z))
        power, cross, _ = moments_fn(spec.penalty, spec.support, xi, rho_rs)
        return np.log([xi * cross / rho_rs, power]) - z

    z = _first_root(equations, np.log(inits), ConvergenceError,
                    "replica-symmetric fixed point did not converge")
    return solution_at(spec, *np.exp(z), moments_fn)


def solve_rs_scenario(spec: ScenarioSpec, inits=None) -> RsSolution:
    """Replica-symmetric fixed point using the analytic scenario moments.

    _first_root solves log(step(e^z)) - z = 0 in z = (log chi, log p),
    step being the fixed-point map, from each start (chi0, p0) of inits in
    turn (default: CHI_INITS by P_INIT_FACTORS times rho). The first start
    that converges wins, not the lowest distortion among roots; a start
    that leaves the domain (scenario_moments raises DomainError) is
    dropped. A start not > 0 raises ConfigurationError, and no converged
    start ConvergenceError. residuals holds |step - (chi, p)| at the root.
    """
    return _solve_rs(spec, scenario_moments, inits)


def solve_rs_generic(spec: ScenarioSpec, inits=None) -> RsSolution:
    """Replica-symmetric fixed point using quadrature over the scalar map.

    Independent of the analytic expressions: the Gaussian moments are
    integrated numerically with the scalar minimizer as a black box
    (generic_moments), for every support including the constellations.
    The quadrature is a fixed rule and raises nothing of its own; the
    root-finder, starts, first-start rule and residuals are those of
    solve_rs_scenario.
    """
    return _solve_rs(spec, generic_moments, inits)


# ---------------------------------------------------------------------------
# tuning
# ---------------------------------------------------------------------------

def _chi_from_q(q, what):
    """chi with chi/(1+chi) = q.

    q in (0, 1) gives the usual branch chi > 0. q > 1 continues the family
    into chi < -1 (xi < 0), the regime of an over-provisioned regularized
    zero-forcer; the nominal weights flip sign there while the effective
    scalar weights xi*lambda stay positive, so the scalar problem remains
    well-posed. harness._program picks the finite-N program of that state.
    """
    if q <= 0 or abs(q - 1.0) < 1e-12:
        raise ConfigurationError(
            f"infeasible targets: implied fixed point requires {what} = {q} "
            "> 0 and != 1")
    return q / (1.0 - q)


def _tune_root(spec, p_t, unpack, targets, starts, failure):
    """(penalty, chi) of the first root over the starts, in order.

    unpack maps the unknowns z to (penalty, chi, xi); targets maps the
    moment names "power" and "eta" to their targets. The equations are
    moment - target for each entry of targets, in its order, then the chi
    equation of the fixed point, with rho_rs pinned by the power target.
    The root is _first_root's, with ConfigurationError(failure) if none.
    """
    rho_rs = (spec.rho + p_t) / spec.load

    def equations(z):
        pen, chi, xi = unpack(z)
        power, cross, eta = scenario_moments(pen, spec.support, xi, rho_rs)
        moments = {"power": power, "eta": eta}
        return ([moments[k] - v for k, v in targets.items()]
                + [chi - xi * cross / rho_rs])

    return unpack(_first_root(equations, starts, ConfigurationError,
                              failure))[:2]


def _unpack_shrink_chi(spec):
    """Unknowns (log shrink, log chi) of a quadratic-only penalty."""
    def unpack(z):
        shrink, chi = np.exp(z)
        xi = (1.0 + chi) / spec.load
        return PenaltySpec(lambda2=(shrink - 1.0) / xi), chi, xi
    return unpack


def _tune_full_l0(spec, p_t, eta_t):
    rho_rs = (spec.rho + p_t) / spec.load
    tau0_sq = -rho_rs * np.log(eta_t)
    # shrink = 1 + xi*lambda2 may fall below 1 (negative quadratic weight)
    shrink = np.sqrt((rho_rs + tau0_sq) * eta_t / p_t)
    chi = _chi_from_q(p_t * shrink / (spec.load * rho_rs), "chi/(1+chi)")
    xi = (1.0 + chi) / spec.load
    lam = (shrink - 1.0) / xi
    lam0 = tau0_sq / (xi * shrink)
    return PenaltySpec(lambda2=lam, lambda0=lam0), chi


def _tune_full_l1(spec, p_t, eta_t):
    rho_rs = (spec.rho + p_t) / spec.load
    tau1 = np.sqrt(-rho_rs * np.log(eta_t))
    e1 = eta_t
    q1 = qfunc(np.sqrt(2.0 / rho_rs) * tau1)
    root_pi_r = np.sqrt(np.pi * rho_rs)
    num = rho_rs * e1 - 2 * tau1 * root_pi_r * q1
    if num <= 0:
        raise ConfigurationError("infeasible targets: zero attainable power")
    shrink = np.sqrt(num / p_t)  # may be < 1: negative quadratic weight
    zeta = e1 - tau1 * root_pi_r * q1 / rho_rs
    chi = _chi_from_q(zeta / (spec.load * shrink), "chi/(1+chi)")
    xi = (1.0 + chi) / spec.load
    pen = PenaltySpec(lambda2=(shrink - 1.0) / xi, lambda1=2.0 * tau1 / xi)
    return pen, chi


def _tune_disk(spec, p_t, eta_t, sparsity):
    # unknowns, solved in logs: shrink = 1 + xi*lambda2, sparse threshold
    # tau and chi, all positive
    try:
        if sparsity == "l0":
            init_pen, chi0 = _tune_full_l0(spec, p_t, eta_t)
        else:
            init_pen, chi0 = _tune_full_l1(spec, p_t, eta_t)
    except ConfigurationError:
        init_pen, chi0 = PenaltySpec(lambda2=0.5, lambda0=0.1, lambda1=0.1), 1.0

    xi0 = (1.0 + chi0) / spec.load
    shrink0 = 1.0 + xi0 * init_pen.lambda2
    tau0 = (np.sqrt(xi0 * init_pen.lambda0 * shrink0) if sparsity == "l0"
            else xi0 * init_pen.lambda1 / 2.0)

    def unpack(z):
        shrink = np.exp(z[0])
        tau = np.exp(z[1])
        chi = np.exp(z[2])
        xi = (1.0 + chi) / spec.load
        if sparsity == "l0":
            pen = PenaltySpec(lambda2=(shrink - 1.0) / xi,
                              lambda0=tau * tau / (xi * shrink))
        else:
            pen = PenaltySpec(lambda2=(shrink - 1.0) / xi,
                              lambda1=2.0 * tau / xi)
        return pen, chi, xi

    z0 = np.log([max(shrink0, 1e-3), max(tau0, 1e-3), max(chi0, 1e-3)])
    return _tune_root(
        spec, p_t, unpack, {"power": p_t, "eta": eta_t}, [z0],
        f"tuning did not reach the targets; peak power "
        f"{spec.support.peak_power} may make (p={p_t}, eta={eta_t}) "
        "infeasible")


def _tune_disk_power(spec, p_t):
    """Quadratic-only weight on the disk support hitting the power target."""
    return _tune_root(
        spec, p_t, _unpack_shrink_chi(spec), {"power": p_t},
        ([0.0, 0.0], [0.5, 1.0], [-0.5, 2.0], [1.0, -1.0]),
        f"disk power tuning failed: peak power {spec.support.peak_power} "
        f"may be too small for target power {p_t}")


def _tune_constellation(spec, p_t, eta_t):
    peak = spec.support.peak_power
    if abs(peak * eta_t - p_t) > 1e-9 * max(p_t, 1.0):
        raise ConfigurationError(
            "constellation scenarios have p = eta * P; targets require "
            f"P = {p_t / eta_t:.6g} but support has P = {peak}")
    return _tune_root(
        spec, p_t, _unpack_shrink_chi(spec), {"eta": eta_t},
        ([0.4, 0.0], [0.05, 0.5], [1.0, -0.5], [0.0, 1.0]),
        "constellation tuning failed: activity target may be unreachable "
        "for this support and load")


def solution_at(spec: ScenarioSpec, chi, p,
                moments_fn=scenario_moments) -> RsSolution:
    """Evaluate the fixed-point state at (chi, p) and report its residuals.

    Used by tuning, which knows the fixed point in closed form, including
    continued branches with chi < -1 that the RS solve (which works in
    log chi, so chi > 0) cannot reach, and by the RS solve at its root.
    """
    xi, rho_rs = _rs_state(spec, chi, p)
    power, cross, eta = moments_fn(spec.penalty, spec.support, xi, rho_rs)
    residuals = {"chi": abs(xi * cross / rho_rs - chi), "p": abs(power - p)}
    return RsSolution(chi=float(chi), p=float(p), rho_rs=rho_rs, xi=xi,
                      distortion=rs_distortion(spec, chi, p),
                      eta=float(eta), residuals=residuals, rho=spec.rho)


def tune(spec: ScenarioSpec, target_power, target_eta, sparsity=None):
    """Find penalty weights hitting (p, eta) targets at the RS fixed point.

    For full-plane scenarios the weights follow in closed form from the
    target equations; disk scenarios solve a 3-equation root-find; the
    constellation scenarios tune the quadratic weight alone. Returns the
    tuned PenaltySpec together with the converged RsSolution. Every path
    assumes the unit path-loss atom; other atoms raise ConfigurationError.
    """
    if not (0 < target_eta <= 1):
        raise ConfigurationError("target_eta must lie in (0, 1]")
    if not 0 < target_power < np.inf:  # a NaN fails too
        raise ConfigurationError(
            f"target_power must be finite and positive, got {target_power}")
    if sparsity is None:
        sparsity = "l1" if spec.penalty.lambda1 != 0 else "l0"
    if sparsity not in ("l0", "l1"):
        raise ConfigurationError("sparsity must be 'l0' or 'l1'")
    if spec.pathloss_atoms != UNIT_ATOMS:
        raise ConfigurationError(
            "tune assumes the unit path-loss atom (rho_rs = (rho + p)/alpha, "
            f"xi = (1 + chi)/alpha), not {spec.pathloss_atoms}")

    kind = spec.support.kind
    if kind == FULL:
        if sparsity == "l0" or target_eta == 1.0:
            pen, chi = _tune_full_l0(spec, target_power, target_eta)
        else:
            pen, chi = _tune_full_l1(spec, target_power, target_eta)
    elif kind == DISK:
        if target_eta == 1.0:
            pen, chi = _tune_disk_power(spec, target_power)
        else:
            pen, chi = _tune_disk(spec, target_power, target_eta, sparsity)
    else:
        pen, chi = _tune_constellation(spec, target_power, target_eta)

    tuned_spec = replace(spec, penalty=pen)
    sol = solution_at(tuned_spec, chi, target_power)
    rel_res = max(sol.residuals["chi"] / max(abs(chi), 1.0),
                  sol.residuals["p"] / target_power)
    rel_eta = abs(sol.eta - target_eta) / target_eta
    if rel_res > 1e-6 or rel_eta > 1e-6:
        raise ConfigurationError(
            f"tuned weights attain (p residual {sol.residuals['p']:.3g}, "
            f"eta={sol.eta:.8g}) instead of ({target_power}, {target_eta})")
    return pen, sol


# ---------------------------------------------------------------------------
# bounds and baselines
# ---------------------------------------------------------------------------

def rate_lower_bound(rho, distortion, noise_power):
    """Ergodic-rate lower bound log(rho/(sigma^2 + D)), natural log."""
    if not 0 < noise_power < np.inf:  # a NaN fails too
        raise ConfigurationError("noise_power must be finite and positive")
    if not (0 < rho < np.inf and 0 <= distortion < np.inf):
        raise ConfigurationError("rho must be finite and positive and "
                                 "distortion finite and nonnegative")
    return float(np.log(rho / (noise_power + distortion)))


def heuristic_rate(rho, interference, distortion):
    """Noise-free ergodic-rate approximation log(1 + rho/(p + D))."""
    if rho < 0 or interference < 0 or distortion < 0:
        raise ConfigurationError("arguments must be nonnegative")
    if interference + distortion <= 0:
        raise DomainError("interference + distortion must be positive")
    return float(np.log1p(rho / (interference + distortion)))


def lemma2_bound(load, rho, eta, peak_power, order):
    """Rigorous asymptotic distortion lower bound for constellation supports.

    Solves r - log r = 1 + log(1 + M)/alpha for the root in (0, 1], which
    is r = -W0(-exp(-(1 + log(1 + M)/alpha))) with W0 the principal branch
    of the Lambert W function, and returns D = r * (rho + eta * P).
    """
    if not (load > 0 and 0 < rho < np.inf and 0 < peak_power < np.inf):
        raise ConfigurationError("load must be positive, and rho and "
                                 "peak_power finite and positive")
    if not (0 < eta <= 1):
        raise ConfigurationError("eta must lie in (0, 1]")
    if order < 1:
        raise ConfigurationError("order must be >= 1")
    # deferred: only the constellation bound needs scipy.special
    from scipy.special import lambertw

    rhs = 1.0 + np.log(1.0 + order) / load
    # rhs == 1 exactly (alpha -> infinity limit): r = 1, where lambertw
    # returns nan at its branch point -1/e
    if rhs <= 1.0:
        return rho + eta * peak_power
    r = -lambertw(-np.exp(-rhs)).real
    return r * (rho + eta * peak_power)


def random_tas_asymptote(load, eta, target_power, rho,
                         peak_power=None) -> RsSolution:
    """Baseline: random antenna subset of fraction eta precoded by RZF.

    Modeled as the quadratic-penalty scenario at effective load alpha/eta,
    with each active antenna carrying target_power (the convention that
    reproduces the published equivalent-eta fits). A finite peak_power
    restricts the subset precoder to the disk support (peak-limited
    baseline).
    """
    if not (0 < eta <= 1):
        raise ConfigurationError("eta must lie in (0, 1]")
    support = (SupportSpec.full_complex() if peak_power is None
               else SupportSpec.disk(peak_power))
    spec = ScenarioSpec(penalty=PenaltySpec(), support=support,
                        load=load / eta, rho=rho)
    pen, sol = tune(spec, target_power, 1.0, sparsity="l0")
    return sol
