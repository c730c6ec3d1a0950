"""Finite-dimension precoders: convex solver, exhaustive oracles, baselines.

The precoders minimize ||H v - sqrt(rho) s||^2 + sum_n u(v_n) over the
declared per-entry support. Convex scenarios (no l0 weight, full plane or
disk) use an accelerated proximal-gradient method; discrete and l0
scenarios have exact enumeration oracles at small N; the regularized
zero-forcer is the quadratic-penalty closed form used as a cross-check.
On the full plane with a negative weight the objective is unbounded
below: glse_convex minimises it under a power budget, and glse_stationary
finds a stationary point (a saddle) by semismooth Newton steps.
harness._program picks the program that a replica state describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .penalties import DISK, FULL, MPSK_ZERO, PenaltySpec, SupportSpec, prox

MAX_ENUM_L0 = 16
MAX_ENUM_DISCRETE = 10**8
_ENUM_CHUNK = 1 << 14  # candidates per vectorized block of the enumeration
DEFAULT_MAX_ITER = 50_000
DEFAULT_TOL = 1e-10
DEFAULT_NEWTON_ITER = 100


@dataclass(frozen=True)
class PrecodeOutput:
    """Solver result with per-realization diagnostics.

    residual and start are set by glse_stationary: its final ||F(x)|| and
    the start that x came from. The other solvers leave them None.
    """

    x: np.ndarray
    objective: float
    distortion: float
    power: float
    activity: float
    iterations: int
    converged: bool
    residual: float | None = None
    start: str | None = None


def _check_instance(h, s):
    h = np.asarray(h, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if h.ndim != 2:
        raise ConfigurationError("H must be a 2-D array")
    if s.ndim != 1 or s.shape[0] != h.shape[0]:
        raise ConfigurationError(
            f"s has shape {s.shape}, expected ({h.shape[0]},)")
    return h, s


def objective_value(h, s, rho, penalty, x):
    """Composite objective ||Hx - sqrt(rho) s||^2 + sum_n u(x_n)."""
    resid = h @ x - np.sqrt(rho) * s
    return float(np.vdot(resid, resid).real + np.sum(penalty.value(x)))


def _output(h, s, rho, penalty, x, iterations, converged, residual=None,
            start=None):
    k, n = h.shape
    resid = h @ x - np.sqrt(rho) * s
    sq = float(np.vdot(resid, resid).real)
    return PrecodeOutput(
        x=x,
        objective=sq + float(np.sum(penalty.value(x))),
        distortion=sq / k,
        power=float(np.vdot(x, x).real) / n,
        activity=float(np.count_nonzero(x)) / n,
        iterations=int(iterations),
        converged=bool(converged),
        residual=residual,
        start=start,
    )


def _capped_prox(penalty, support, w, step, power_cap):
    """Proximal map with an optional average-power ball constraint, per row.

    w is a (B, N) stack and step a (B, 1) column; each row is kept inside
    its own ball ||v||^2 <= N * power_cap. The ball prox is exact
    composition: soft thresholding fixes the active set independently of
    any extra ridge multiplier, so projecting the thresholded point
    radially onto the ball solves the joint subproblem.
    """
    v = prox(penalty, support, w, step)
    if power_cap is not None:
        budget = power_cap * v.shape[-1]
        nrm2 = np.vecdot(v, v).real
        over = nrm2 > budget
        if over.any():
            v[over] = v[over] * np.sqrt(budget / nrm2[over])[:, None]
    return v


def _prox_grad_step(gram, hts, y, step, penalty, support, power_cap):
    """x = capped prox(y - step * grad(y)) per row, grad = 2(G y - H^H hs)."""
    grad = 2.0 * (np.matmul(gram, y[..., None])[..., 0] - hts)
    return _capped_prox(penalty, support, y - step * grad, step, power_cap)


def _stack_objective(h, hs, penalty, x):
    """Per-row ||H x - hs||^2 + sum_n u(x_n) over a (B, N) stack x."""
    resid = np.matmul(h, x[..., None])[..., 0] - hs
    return np.vecdot(resid, resid).real + np.sum(penalty.value(x), axis=-1)


def _row_norms(v):
    """np.linalg.norm of each row of v, with the same arithmetic."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def optimality_residual(h, s, rho, penalty, support, x, power_cap=None):
    """Proximal fixed-point residual ||x - prox(x - grad/L)|| of the iterate."""
    lip = 2.0 * np.linalg.norm(h, 2) ** 2
    gram = h.conj().T @ h
    hts = h.conj().T @ (np.sqrt(rho) * s)
    step = np.full((1, 1), 1.0 / lip)
    x = np.asarray(x, dtype=complex)[None]
    return float(np.linalg.norm(
        x - _prox_grad_step(gram[None], hts[None], x, step, penalty, support,
                            power_cap)))


def glse_convex(h, s, rho, penalty: PenaltySpec, support: SupportSpec,
                max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL,
                power_cap=None) -> PrecodeOutput:
    """Accelerated proximal-gradient solver for the convex scenarios.

    The one-instance case of glse_convex_stack: the result is the same,
    bit for bit, as that instance's row in any stack.

    Args:
        h: K x N channel matrix.
        s: length-K data vector.
        rho: power control factor (nonnegative).
        penalty: weights with lambda0 = 0 and lambda1 >= 0 (a negative l1
            weight has no minimiser; glse_stationary covers it). lambda2
            may be negative as long as the proximal subproblem stays
            convex.
        support: full plane or disk.
        max_iter: iteration cap; hitting it returns converged=False.
        tol: relative objective-decrease stopping threshold.
        power_cap: optional average-power budget per antenna. Iterates are
            kept inside ||x||^2 <= N * power_cap. Required on the full
            plane when lambda2 < 0, where the unconstrained objective is
            unbounded along the channel null space.

    Returns:
        PrecodeOutput; x is the best (lowest-objective) iterate seen.
    """
    h, s = _check_instance(h, s)
    return glse_convex_stack(h[None], s[None], rho, penalty, support,
                             max_iter=max_iter, tol=tol,
                             power_cap=power_cap)[0]


def glse_convex_stack(h, s, rho, penalty: PenaltySpec, support: SupportSpec,
                      max_iter=None, tol=DEFAULT_TOL, power_cap=None):
    """glse_convex on a (B, K, N) stack of channels and a (B, K) data stack.

    Every instance keeps its own step 1/L, momentum, monotone restart,
    best iterate, plateau test, certificate and iteration count, and the
    arithmetic of each row is independent of the others: row b of the
    result equals glse_convex(h[b], s[b], ...) bit for bit, whatever stack
    it is solved in. Rows leave the stack as they converge. max_iter None
    means DEFAULT_MAX_ITER, read when called; the other arguments are
    those of glse_convex.

    Returns:
        list of B PrecodeOutput, in row order.
    """
    h = np.asarray(h, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if h.ndim != 3 or s.shape != h.shape[:2]:
        raise ConfigurationError(
            f"expected a (B, K, N) channel stack and a (B, K) data stack, "
            f"got {h.shape} and {s.shape}")
    if penalty.lambda0 != 0:
        raise ConfigurationError("glse_convex requires lambda0 = 0")
    if support.kind not in (FULL, DISK):
        raise ConfigurationError(
            "glse_convex covers the full-plane and disk supports")
    if rho < 0:
        raise ConfigurationError("rho must be nonnegative")
    if penalty.lambda1 < 0:
        raise ConfigurationError(
            "glse_convex requires lambda1 >= 0: with a negative l1 weight "
            "the objective is nonconvex; use glse_stationary for its "
            "stationary point")
    if power_cap is not None and not power_cap > 0:
        raise ConfigurationError("power_cap must be positive")
    if power_cap is None and support.kind == FULL and penalty.lambda2 < 0:
        raise ConfigurationError(
            "a negative lambda2 on the full plane needs a power_cap: the "
            "unconstrained objective is unbounded below")
    if max_iter is None:
        max_iter = DEFAULT_MAX_ITER
    b, _, n = h.shape
    lip = np.array([2.0 * np.linalg.norm(hb, 2) ** 2 for hb in h])
    hs = np.sqrt(rho) * s
    step = (1.0 / np.where(lip == 0, 1.0, lip))[:, None]
    gram = np.empty((b, n, n), dtype=complex)
    hts = np.empty((b, n), dtype=complex)
    for i, hb in enumerate(h):
        gram[i] = hb.conj().T @ hb
        hts[i] = hb.conj().T @ hs[i]
    x = np.zeros((b, n), dtype=complex)
    y = x.copy()
    t = np.ones(b)
    f_best = _stack_objective(h, hs, penalty, x)
    x_best = x.copy()
    f_prev = f_best.copy()
    # Row j of the running state is input row rows[j]; finished rows leave
    # every per-row array, so each step works on the running rows only.
    rows = np.arange(b)
    h_run, hs_run = h, hs
    outs = [None] * b

    def finish(done, iterations, converged):
        nonlocal rows, h_run, hs_run, gram, step, hts, x, y, t, f_prev
        nonlocal f_best, x_best
        for j in done:
            i = rows[j]
            outs[i] = _output(h[i], s[i], rho, penalty, x_best[j].copy(),
                              iterations, converged)
        keep = np.ones(rows.size, dtype=bool)
        keep[done] = False
        (rows, h_run, hs_run, gram, step, hts, x, y, t, f_prev, f_best,
         x_best) = (a[keep] for a in (rows, h_run, hs_run, gram, step, hts,
                                      x, y, t, f_prev, f_best, x_best))

    def objective(v):
        return _stack_objective(h_run, hs_run, penalty, v)

    def advance(v):
        return _prox_grad_step(gram, hts, v, step, penalty, support,
                               power_cap)

    finish(np.flatnonzero(lip == 0), 0, True)
    it = 0
    for it in range(1, max_iter + 1):
        if rows.size == 0:
            break
        x_new = advance(y)
        f_new = objective(x_new)
        restart = np.flatnonzero(f_new > f_prev)
        if restart.size:
            # monotone restart: drop momentum and step from the last iterate
            t[restart] = 1.0
            y[restart] = x[restart]
            x_new[restart] = advance(y)[restart]
            f_new[restart] = objective(x_new)[restart]
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new)[:, None] * (x_new - x)
        x, t = x_new, t_new
        better = f_new < f_best
        f_best[better] = f_new[better]
        x_best[better] = x_new[better]
        plateau = (np.abs(f_prev - f_new)
                   <= tol * np.maximum(np.abs(f_prev), 1e-300))
        f_prev = f_new
        if plateau.any():
            # objective has plateaued; accept only with a certificate that
            # the proximal fixed-point residual is small as well
            fp = _row_norms(x_new - advance(x_new))
            done = np.flatnonzero(
                plateau & (fp <= 1e-7 * (1.0 + _row_norms(x_new))))
            if done.size:
                finish(done, it, True)
    finish(range(rows.size), it, False)
    return outs


def _stationary_map(h, s, rho, penalty):
    """F(v) = v - prox(-u, v + t grad g(v), t) and its Jacobian.

    g(v) = ||Hv - sqrt(rho) s||^2 and t = 1/(2||H||^2). F is the
    proximal-gradient fixed-point map at step -t, so its roots are the
    stationary points of g + u. The prox takes the negated weights with a
    positive step and stays convex for lambda1 <= 0.

    Returns (fmap, jacobian): fmap(v) gives (F(v), w) with w the prox
    input, and jacobian(w) the real 2N x 2N generalized Jacobian of F. On
    an active entry (|w| > t|lambda1|) the prox scales the radial part of
    dw by c = 1/(1 - 2t lambda2) and the tangential part by
    c(1 - t|lambda1|/|w|); inactive entries map to zero.
    """
    n = h.shape[1]
    step = 0.5 / np.linalg.norm(h, 2) ** 2
    flipped = PenaltySpec(lambda2=-penalty.lambda2, lambda1=-penalty.lambda1)
    plane = SupportSpec.full_complex()
    a = np.eye(n) + 2.0 * step * (h.conj().T @ h)
    b = 2.0 * step * (h.conj().T @ (np.sqrt(rho) * s))
    a_re = np.block([[a.real, -a.imag], [a.imag, a.real]])
    tau = step * flipped.lambda1
    c = 1.0 / (1.0 + 2.0 * step * flipped.lambda2)

    def fmap(v):
        w = a @ v - b
        return v - prox(flipped, plane, w, step), w

    def jacobian(w):
        mag = np.abs(w)
        act = mag > tau
        safe = np.where(act, mag, 1.0)
        u = np.where(act, w / safe, 0.0)
        g_t = np.where(act, c * (1.0 - tau / safe), 0.0)[:, None]
        g_d = np.where(act, c, 0.0)[:, None] - g_t
        ur, ui = u.real[:, None], u.imag[:, None]
        top = (g_t + g_d * ur * ur) * a_re[:n] + g_d * ur * ui * a_re[n:]
        bot = g_d * ui * ur * a_re[:n] + (g_t + g_d * ui * ui) * a_re[n:]
        return np.eye(2 * n) - np.vstack([top, bot])

    return fmap, jacobian


def _newton_root(fmap, jacobian, v, max_iter):
    """Semismooth Newton on fmap from v, backtracking on ||F||.

    Returns (x, residual, steps): x = v - F(v) is the prox image of the
    last iterate, residual = ||F(x)|| and steps the Newton steps taken.
    """
    n = v.size
    f, w = fmap(v)
    nf = np.linalg.norm(f)
    steps = 0
    for _ in range(max_iter):
        if nf <= DEFAULT_TOL * (1.0 + np.linalg.norm(v)):
            break
        try:
            d = np.linalg.solve(jacobian(w), -np.concatenate([f.real, f.imag]))
        except np.linalg.LinAlgError:
            break
        steps += 1
        dv = d[:n] + 1j * d[n:]
        frac = 1.0
        while frac > 1e-8:
            f_new, w_new = fmap(v + frac * dv)
            nf_new = np.linalg.norm(f_new)
            if nf_new < (1.0 - 1e-4 * frac) * nf:
                break
            frac *= 0.5
        else:
            break  # no descent along the Newton direction: stalled
        v, f, w, nf = v + frac * dv, f_new, w_new, nf_new
    x = v - f
    return x, float(np.linalg.norm(fmap(x)[0])), steps


def glse_stationary(h, s, rho, penalty: PenaltySpec,
                    max_iter=DEFAULT_NEWTON_ITER) -> PrecodeOutput:
    """Stationary point of the full-plane objective with lambda1 <= 0.

    With lambda1 < 0 or lambda2 < 0, ||Hv - sqrt(rho) s||^2 +
    lambda2||v||^2 + lambda1||v||_1 is unbounded below. The tuning branch
    past the Lagrangian boundary (xi < 0) describes a stationary point of
    it, a saddle: the l1 version of rzf at negative lambda2, which it
    reproduces when lambda1 = 0. The point is a root of
    F(v) = v - prox(-u, v + t grad g(v), t), t = 1/(2||H||^2), solved by
    semismooth Newton steps with backtracking on ||F||, first from
    rzf(h, s, rho, lambda2) and, if that stalls, from zero. The objective
    is nonconvex, so uniqueness is not proven; on the instances tested,
    every start that converges (rzf, zero, random) reaches the same point.

    Args:
        h: K x N channel matrix.
        s: length-K data vector.
        rho: power control factor (nonnegative).
        penalty: weights with lambda0 = 0 and lambda1 <= 0.
        max_iter: Newton-step cap per start.

    Returns:
        PrecodeOutput; x is the prox image of the last iterate, so inactive
        entries are exactly zero. iterations counts the Newton steps of all
        starts, residual is ||F(x)|| and start names the start x came from
        ("rzf" or "zero"). converged is False when no start reaches
        ||F|| <= DEFAULT_TOL (1 + ||x||), and x is then the one with the
        smallest residual.
    """
    h, s = _check_instance(h, s)
    if penalty.lambda0 != 0:
        raise ConfigurationError("glse_stationary requires lambda0 = 0")
    if penalty.lambda1 > 0:
        raise ConfigurationError(
            "glse_stationary requires lambda1 <= 0; with lambda1 > 0 the "
            "minimiser is glse_convex's (under a power_cap if lambda2 < 0)")
    if rho < 0:
        raise ConfigurationError("rho must be nonnegative")
    n = h.shape[1]
    if np.linalg.norm(h, 2) == 0:
        return _output(h, s, rho, penalty, np.zeros(n, dtype=complex), 0,
                       True, residual=0.0, start="zero")
    fmap, jacobian = _stationary_map(h, s, rho, penalty)
    starts = []
    try:
        starts.append(("rzf", rzf(h, s, rho, penalty.lambda2).x))
    except DomainError:
        pass
    starts.append(("zero", np.zeros(n, dtype=complex)))
    total = 0
    best = None
    for name, v in starts:
        x, res, steps = _newton_root(fmap, jacobian, v, max_iter)
        total += steps
        if best is None or res < best[1]:
            best = (x, res, name)
        if res <= DEFAULT_TOL * (1.0 + np.linalg.norm(x)):
            break
    x, res, name = best
    converged = res <= DEFAULT_TOL * (1.0 + np.linalg.norm(x))
    return _output(h, s, rho, penalty, x, total, converged, residual=res,
                   start=name)


def rzf(h, s, rho, lambda2) -> PrecodeOutput:
    """Regularized zero-forcing closed form sqrt(rho) H^H (HH^H + la I)^-1 s."""
    h, s = _check_instance(h, s)
    k = h.shape[0]
    gram = h @ h.conj().T + lambda2 * np.eye(k)
    try:
        z = np.linalg.solve(gram, np.sqrt(rho) * s)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"singular system with lambda2 = {lambda2}") from exc
    x = h.conj().T @ z
    return _output(h, s, rho, PenaltySpec(lambda2=lambda2), x, 1, True)


def _ridge_on_support(h, hs, idx, lambda2):
    """Minimize ||H_S v - hs||^2 + lambda2 ||v||^2 on the active columns."""
    h_s = h[:, idx]
    if lambda2 > 0:
        gram = h_s.conj().T @ h_s + lambda2 * np.eye(len(idx))
        return np.linalg.solve(gram, h_s.conj().T @ hs)
    return np.linalg.lstsq(h_s, hs, rcond=None)[0]


def glse_exhaustive_l0(h, s, rho, penalty: PenaltySpec) -> PrecodeOutput:
    """Exact l0-penalized minimizer by enumerating all 2^N supports.

    Args:
        h: K x N channel matrix with N <= 16.
        s: length-K data vector.
        rho: power control factor.
        penalty: weights with lambda1 = 0 and lambda0, lambda2 >= 0. With
            lambda2 < 0 the ridge problem on a support wider than K has no
            minimiser (the least-squares fallback is not one), and a
            negative lambda0 comes from the continued tuning branch
            (xi < 0), whose replica state is not this minimiser.

    Returns:
        PrecodeOutput at the global optimum.
    """
    h, s = _check_instance(h, s)
    if penalty.lambda1 != 0:
        raise ConfigurationError("glse_exhaustive_l0 requires lambda1 = 0")
    if penalty.lambda0 < 0 or penalty.lambda2 < 0:
        raise ConfigurationError(
            "glse_exhaustive_l0 requires lambda0 >= 0 and lambda2 >= 0")
    n = h.shape[1]
    if n > MAX_ENUM_L0:
        raise ConfigurationError(
            f"N = {n} exceeds the enumeration guard {MAX_ENUM_L0}; use "
            "glse_convex with an l1 surrogate instead")
    hs = np.sqrt(rho) * s
    base = float(np.vdot(hs, hs).real)  # empty support objective
    best_obj = base
    best_x = np.zeros(n, dtype=complex)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        v = _ridge_on_support(h, hs, idx, penalty.lambda2)
        resid = h[:, idx] @ v - hs
        obj = (float(np.vdot(resid, resid).real)
               + penalty.lambda2 * float(np.vdot(v, v).real)
               + penalty.lambda0 * len(idx))
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_x = np.zeros(n, dtype=complex)
            best_x[idx] = v
    return _output(h, s, rho, penalty, best_x, 1 << n, True)


def glse_exhaustive_discrete(h, s, rho, lambda2,
                             support: SupportSpec) -> PrecodeOutput:
    """Exact minimizer over the zero-extended constellation by enumeration.

    Args:
        h: K x N channel matrix with (M+1)^N <= 1e8.
        s: length-K data vector.
        rho: power control factor.
        lambda2: quadratic penalty weight.
        support: zero-extended constellation.

    Returns:
        PrecodeOutput at the global optimum.
    """
    h, s = _check_instance(h, s)
    if support.kind != MPSK_ZERO:
        raise ConfigurationError(
            "glse_exhaustive_discrete requires the constellation support")
    n = h.shape[1]
    points = support.constellation()
    m1 = len(points)
    total = m1**n
    if total > MAX_ENUM_DISCRETE:
        raise ConfigurationError(
            f"(M+1)^N = {total} exceeds the enumeration guard "
            f"{MAX_ENUM_DISCRETE}")
    penalty = PenaltySpec(lambda2=lambda2)
    hs = np.sqrt(rho) * s
    radix = m1 ** np.arange(n)
    best_obj = np.inf
    best_x = None
    for start in range(0, total, _ENUM_CHUNK):
        idx = np.arange(start, min(start + _ENUM_CHUNK, total))
        digits = (idx[:, None] // radix[None, :]) % m1
        cand = points[digits]  # (chunk, N)
        resid = cand @ h.T - hs[None, :]
        obj = (np.sum(np.abs(resid) ** 2, axis=1)
               + lambda2 * np.sum(np.abs(cand) ** 2, axis=1))
        j = int(np.argmin(obj))
        if obj[j] < best_obj:
            best_obj = float(obj[j])
            best_x = cand[j].copy()
    return _output(h, s, rho, penalty, best_x, total, True)


def tas_strongest(h, n_active):
    """Indices of the n_active columns with largest norms (ties: lower index)."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[1]
    if not 1 <= n_active <= n:
        raise ConfigurationError(f"n_active must lie in [1, {n}]")
    norms = np.linalg.norm(h, axis=0)
    order = np.argsort(-norms, kind="stable")
    return np.sort(order[:n_active])


def tas_random(n, n_active, seed):
    """Uniformly random n_active-subset of range(n), deterministic in seed."""
    if not 1 <= n_active <= n:
        raise ConfigurationError(f"n_active must lie in [1, {n}]")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=n_active, replace=False))
