"""Penalty model and the scalar decoupled precoder.

The penalty is u(v) = lambda2*|v|^2 + lambda0*1{v != 0} + lambda1*|v| over a
support that is the full complex plane, a disk of peak power P, an M-PSK
constellation extended with zero, or its constant-envelope limit.
`decouple` evaluates the closed-form minimizer of |v - s|^2 + xi*u(v) in
the six covered scenarios, elementwise on scalars or arrays; `prox` is the
same map at xi = 2*step and `decouple_grid` is the brute-force oracle.
`check_domain` is the one rule for where that problem is well-posed.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

FULL = "full"
DISK = "disk"
MPSK_ZERO = "mpsk_zero"
CONST_ENVELOPE = "const_envelope"

_TINY = np.finfo(float).tiny
_SUBNORMAL_SCALE = 2.0**600
_CONTAINS_TOL = 1e-9


@dataclass(frozen=True)
class PenaltySpec:
    """Separable penalty weights.

    All weights may be negative: tuning to aggressive targets at light
    loads lands on a continued fixed-point branch where the penalty factor
    xi is negative, so the effective scalar weights xi*lambda stay
    positive while the nominal weights flip sign. Well-posedness of the
    scalar problem (1 + xi*lambda2 > 0, xi*lambda0 >= 0, xi*lambda1 >= 0)
    is checked by check_domain where the weights are used. Which finite-N
    program a tuned state stands for is the rule of harness._program.
    """

    lambda2: float = 0.0
    lambda0: float = 0.0
    lambda1: float = 0.0

    def value(self, v):
        """u(v), elementwise for arrays."""
        mag = np.abs(v)
        u = self.lambda2 * mag**2 + self.lambda1 * mag
        if self.lambda0 != 0:  # else the term adds zeros
            u = u + self.lambda0 * (mag > 0)
        return u


@dataclass(frozen=True)
class SupportSpec:
    """Admissible alphabet for each transmit entry."""

    kind: str
    peak_power: float = np.inf
    order: int = 0

    def __post_init__(self):
        if self.kind not in (FULL, DISK, MPSK_ZERO, CONST_ENVELOPE):
            raise ConfigurationError(f"unknown support kind {self.kind!r}")
        if self.kind != FULL and not 0 < self.peak_power < np.inf:
            raise ConfigurationError(
                f"peak_power must be finite and positive, got "
                f"{self.peak_power}")
        if self.kind == MPSK_ZERO:
            order = self.order
            if not (isinstance(order, numbers.Real) and order % 1 == 0
                    and order >= 2):
                raise ConfigurationError(
                    f"constellation order must be an integer >= 2: {order!r}")
            object.__setattr__(self, "order", int(order))

    @classmethod
    def full_complex(cls):
        return cls(kind=FULL)

    @classmethod
    def disk(cls, peak_power):
        return cls(kind=DISK, peak_power=float(peak_power))

    @classmethod
    def mpsk_zero(cls, order, peak_power):
        return cls(kind=MPSK_ZERO, peak_power=float(peak_power), order=order)

    @classmethod
    def constant_envelope(cls, peak_power):
        """Limit of the zero-extended constellation as the order grows."""
        return cls(kind=CONST_ENVELOPE, peak_power=float(peak_power))

    def constellation(self):
        """The finite alphabet {0} u {sqrt(P) e^{j 2k pi/M}}, k = 1..M."""
        if self.kind != MPSK_ZERO:
            raise ConfigurationError("constellation defined only for mpsk_zero")
        k = np.arange(1, self.order + 1)
        points = np.sqrt(self.peak_power) * np.exp(2j * np.pi * k / self.order)
        return np.concatenate(([0.0 + 0.0j], points))

    def contains(self, v):
        """Whether v lies on the support, to within _CONTAINS_TOL."""
        tol = _CONTAINS_TOL
        if self.kind == FULL:
            return True
        if self.kind == DISK:
            return abs(v) <= np.sqrt(self.peak_power) + tol
        if self.kind == CONST_ENVELOPE:
            mag = abs(v)
            return mag <= tol or abs(mag - np.sqrt(self.peak_power)) <= tol
        return bool(np.min(np.abs(self.constellation() - v)) <= tol)


def scalar_objective(v, s, xi, penalty: PenaltySpec,
                     support: SupportSpec | None = None):
    """|v - s|^2 + xi*u(v); the quantity minimized by the decoupled precoder."""
    if support is not None and not support.contains(v):
        raise DomainError(f"v = {v} outside support {support.kind}")
    return float(abs(v - s) ** 2 + xi * penalty.value(v))


def _all(cond):
    """True if a scalar condition holds or every entry of an array one does."""
    return cond.all() if isinstance(cond, np.ndarray) else cond


def _unit(s, mag):
    """s/|s| elementwise, 0 where s = 0."""
    if not np.count_nonzero(mag < _TINY):
        return s / mag
    num, den = s, mag
    # s / |s| overflows in the complex division for subnormal |s|;
    # scaling by a power of two is exact and keeps the phase
    sub = (mag > 0) & (mag < _TINY)
    if sub.any():
        num = s.copy()
        num[sub] *= _SUBNORMAL_SCALE
        den = np.abs(num)
    return num / (den + (den == 0))


def _soft_threshold(s, tau1, shrink, root_p):
    """The l1 scalar precoder: soft threshold at tau1 = xi*lambda1/2 (the
    ridge when tau1 = 0), scaled by 1/shrink, shrink = 1 + xi*lambda2, and
    clipped to the radius root_p unless it is infinite.

    tau1 and shrink may be arrays that broadcast against s (one per row of
    a stack); the caller has checked the domain (check_domain).
    """
    mag = np.abs(s)
    r = np.maximum(mag - tau1, 0.0) / shrink
    if root_p < np.inf:
        r = np.minimum(r, root_p)
    return r * _unit(s, mag)


def check_covered(penalty: PenaltySpec, support: SupportSpec):
    """Raise ConfigurationError unless the scenario is one of the six covered.

    The full plane and the disk take an l0 or an l1 penalty but not both;
    the constellations take the quadratic penalty only.
    """
    if support.kind in (FULL, DISK):
        if penalty.lambda0 != 0 and penalty.lambda1 != 0:
            raise ConfigurationError(
                f"combined l0+l1 penalty on the {support.kind} support is "
                "not a covered scenario; use decouple_grid")
    elif penalty.lambda0 != 0 or penalty.lambda1 != 0:
        raise ConfigurationError(
            f"{support.kind} scenario covers the quadratic penalty only")


def check_domain(penalty: PenaltySpec, xi):
    """Raise DomainError unless the scalar problem at xi is well-posed.

    Well-posed means coercive, 1 + xi*lambda2 > 0, with nonnegative
    effective sparse weights xi*lambda0 and xi*lambda1; a NaN state is not
    well-posed. xi may be an array. Returns the shrink factor 1 + xi*lambda2.
    """
    shrink = 1.0 + xi * penalty.lambda2
    if not _all(shrink > 0):
        raise DomainError(
            f"1 + xi*lambda2 = {np.min(shrink)} is not > 0: scalar problem "
            "not coercive")
    for weight in (penalty.lambda0, penalty.lambda1):
        if weight != 0 and not _all(xi * weight >= 0):
            raise DomainError(
                f"effective sparse weight {np.min(xi * weight)} is not >= 0: "
                "the scalar problem has no thresholding minimizer (check "
                "signs of xi and the weights)")
    return shrink


def _decouple(s, xi, penalty, support):
    """The scalar precoder on a complex array s (see decouple)."""
    if not _all(xi != 0):
        raise ConfigurationError("xi must be nonzero")
    check_covered(penalty, support)
    shrink = check_domain(penalty, xi)
    lam0, lam1 = penalty.lambda0, penalty.lambda1
    root_p = np.inf if support.kind == FULL else np.sqrt(support.peak_power)
    if support.kind in (FULL, DISK) and lam0 == 0:
        return _soft_threshold(s, xi * lam1 / 2.0, shrink, root_p)
    mag = np.abs(s)
    if support.kind == MPSK_ZERO:
        # nearest phase e^{j 2k pi/M} (first max: ties toward smaller k),
        # taken when |s| cos(phase gap) exceeds sqrt(P)(1 + xi*lambda2)/2
        k = np.arange(1, support.order + 1)
        scores = np.cos(2 * np.pi * k / support.order
                        - np.angle(s)[..., None])
        best = np.argmax(scores, axis=-1)
        score = np.take_along_axis(scores, best[..., None], axis=-1)[..., 0]
        with np.errstate(divide="ignore"):
            on = (score > 0) & (mag > root_p * shrink / (2.0 * score))
        return np.where(on, support.constellation()[best + 1], 0.0)
    if support.kind == CONST_ENVELOPE:
        r = np.where(mag > root_p * shrink / 2.0, root_p, 0.0)
    else:
        # hard threshold: linear band (tau0, tau_clip], rim above tau_hat
        # (both infinite on the full plane)
        tau0 = np.sqrt(xi * lam0 * shrink)
        tau_clip = shrink * root_p
        tau_hat = max(tau_clip, tau_clip / 2.0 + xi * lam0 / (2.0 * root_p))
        band = (mag > tau0) & (mag <= tau_clip)
        r = np.where(mag > tau_hat, root_p, np.where(band, mag / shrink, 0.0))
    return r * _unit(s, mag)


def decouple(s, xi, penalty: PenaltySpec, support: SupportSpec):
    """Minimizer of |v - s|^2 + xi*u(v) over the support, elementwise in s.

    Covers the six scenarios: l0 or l1 penalty on the full plane or on the
    disk, and the quadratic penalty on the zero-extended constellation or
    its constant-envelope limit. Exact threshold ties resolve to 0, ties
    between constellation points to the smaller index k. Returns a complex
    number for scalar s and a complex array of the shape of s otherwise.
    """
    out = _decouple(np.asarray(s, dtype=complex), xi, penalty, support)
    return complex(out) if out.ndim == 0 else out


def decouple_grid(s, xi, penalty: PenaltySpec, support: SupportSpec,
                  resolution: int = 256):
    """Brute-force minimizer over a polar grid (oracle for decouple).

    The magnitude axis is truncated where the quadratic term provably
    dominates; for the constellation support the finite set is enumerated
    exactly. Ties break toward smaller |v|, then smaller phase.
    """
    if resolution < 64:
        raise ConfigurationError("resolution must be >= 64")
    s = complex(s)
    if support.kind == MPSK_ZERO:
        candidates = support.constellation()
        # order by (|v|, canonical phase) so argmin tie-breaks correctly
        mags = np.abs(candidates)
        phases = np.mod(np.angle(candidates), 2 * np.pi)
        order = np.lexsort((phases, mags))
        candidates = candidates[order]
    elif support.kind == CONST_ENVELOPE:
        phases = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
        ring = np.sqrt(support.peak_power) * np.exp(1j * phases)
        candidates = np.concatenate(([0.0 + 0.0j], ring))
    else:
        r_max = 4 * abs(s) + 4 * np.sqrt(
            xi * penalty.lambda0 + xi * penalty.lambda1 + 1.0)
        if penalty.lambda2 < 0:
            # amplifying quadratic weight: widen so |s|/(1+xi*lambda2) fits
            r_max /= min(1.0, check_domain(penalty, xi))
        if support.kind == DISK:
            r_max = min(r_max, np.sqrt(support.peak_power))
        radii = np.linspace(0.0, r_max, resolution)
        phases = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
        ring = np.exp(1j * phases)
        candidates = np.concatenate(
            ([0.0 + 0.0j], (radii[1:, None] * ring[None, :]).ravel()))
    obj = (np.abs(candidates - s) ** 2 + xi * penalty.value(candidates))
    return complex(candidates[np.argmin(obj)])


def prox(penalty: PenaltySpec, support: SupportSpec, w, step):
    """Proximal map argmin_v 0.5|v - w|^2 + step*(lambda2|v|^2 + lambda1|v|).

    The scalar precoder at xi = 2*step, for the convex penalties
    (lambda0 = 0) on the full plane or the disk. Weights that make the
    subproblem nonconvex (1 + 2*step*lambda2 <= 0 or lambda1 < 0) raise
    DomainError. Accepts scalars or arrays; step may be an array that
    broadcasts against w (one step per row of a stack). The phase of w is
    preserved.
    """
    out = _soft_threshold(np.asarray(w, dtype=complex),
                          *_prox_terms(penalty, support, step))
    return complex(out) if out.ndim == 0 else out


def _prox_terms(penalty: PenaltySpec, support: SupportSpec, step):
    """(tau1, shrink, root_p) of prox at step, for _soft_threshold.

    Makes every check of prox; a caller whose steps do not change (a
    stack of proximal-gradient iterations) makes them once.
    """
    if penalty.lambda0 != 0:
        raise ConfigurationError("prox requires lambda0 = 0 (convex penalty)")
    if support.kind not in (FULL, DISK):
        raise ConfigurationError("prox covers full-plane and disk supports")
    if not np.all(step > 0):
        raise ConfigurationError("step must be positive")
    xi = 2.0 * step
    shrink = check_domain(penalty, xi)
    root_p = np.inf if support.kind == FULL else np.sqrt(support.peak_power)
    return xi * penalty.lambda1 / 2.0, shrink, root_p
