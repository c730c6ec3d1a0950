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
from .penalties import (DISK, FULL, MPSK_ZERO, PenaltySpec, SupportSpec,
                        _prox_terms, _soft_threshold, prox)

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


def _check_rho(rho):
    """Raise ConfigurationError unless rho is finite and nonnegative."""
    if not 0 <= rho < np.inf:  # a NaN fails too
        raise ConfigurationError(
            f"rho must be finite and nonnegative, got {rho}")


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


def _advance(gv, v, hts, step, tau1, shrink, root_p, power_cap):
    """Capped prox(v - step * grad) per row, grad = 2(G v - H^H hs).

    gv is G v for a (B, N) stack v; hts, step and the soft-threshold terms
    tau1, shrink, root_p (penalties._prox_terms) are per row. Each row is
    kept inside its own ball ||v||^2 <= N * power_cap. The ball prox is
    exact composition: soft thresholding fixes the active set
    independently of any extra ridge multiplier, so projecting the
    thresholded point radially onto the ball solves the joint subproblem.
    """
    v = _soft_threshold(v - step * (2.0 * (gv - hts)), tau1, shrink, root_p)
    if power_cap is not None:
        budget = power_cap * v.shape[-1]
        nrm2 = np.vecdot(v, v).real
        over = nrm2 > budget
        if over.any():
            v[over] = v[over] * np.sqrt(budget / nrm2[over])[:, None]
    return v


def _row_norms(v):
    """np.linalg.norm of each row of v, with the same arithmetic."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def optimality_residual(h, s, rho, penalty, support, x, power_cap=None):
    """Proximal fixed-point residual ||x - prox(x - grad/L)|| of the iterate."""
    lip = 2.0 * np.linalg.norm(h, 2) ** 2
    gram = h.conj().T @ h
    hts = h.conj().T @ (np.sqrt(rho) * s)
    step = np.full((1, 1), 1.0 / lip)
    x = np.asarray(x, dtype=complex)
    return float(np.linalg.norm(x - _advance(
        (gram @ x)[None], x[None], hts, step,
        *_prox_terms(penalty, support, step), power_cap)))


def glse_convex(h, s, rho, penalty: PenaltySpec, support: SupportSpec,
                max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL,
                power_cap=None) -> PrecodeOutput:
    """Accelerated proximal-gradient solver for the convex scenarios.

    The one-instance case of glse_convex_stack: the result is the same,
    bit for bit, as that instance's row in any stack.

    Args:
        h: K x N channel matrix.
        s: length-K data vector.
        rho: power control factor, finite and nonnegative.
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
    it is solved in. Rows leave the stack as they converge. A row's step
    does not change, so the prox's domain (check_domain at xi = 2 step) is
    checked once per stack, and each row carries its soft-threshold terms.
    A monotone restart or a plateau certificate advances, and evaluates
    the objective on, only the rows that need it. max_iter None means
    DEFAULT_MAX_ITER, read when called; the other arguments are those of
    glse_convex.

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
    _check_rho(rho)
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
    outs = [None] * b
    for i in np.flatnonzero(lip == 0):  # x = 0 is the answer, at once
        outs[i] = _output(h[i], s[i], rho, penalty,
                          np.zeros(n, dtype=complex), 0, True)
    # Row j of the running state is input row rows[j]; finished rows leave
    # every per-row array, so each step works on the running rows only.
    rows = np.flatnonzero(lip != 0)
    h_run, hs_run = (h, hs) if rows.size == b else (h[rows], hs[rows])
    step = 1.0 / lip[rows, None]
    # the prox's domain, checked once: the rows' steps do not change
    tau1, shrink, root_p = _prox_terms(penalty, support, step)
    gram = np.empty((rows.size, n, n), dtype=complex)
    hts = np.empty((rows.size, n), dtype=complex)
    for j, i in enumerate(rows):
        gram[j] = h[i].conj().T @ h[i]
        hts[j] = h[i].conj().T @ hs[i]

    def matvec(a, v, sel):
        # a[j] @ v[j] per running row j, or per row j in sel of them
        # (matched to the rows of v): views of a, so a restart or a
        # certificate gathers no matrices
        if sel is None:
            return np.matmul(a, v[..., None])[..., 0]
        return np.array([a[j] @ vj for j, vj in zip(sel, v)])

    def advance(v, sel=None):
        at = slice(None) if sel is None else sel
        return _advance(matvec(gram, v, sel), v, hts[at], step[at], tau1[at],
                        shrink[at], root_p, power_cap)

    def objective(v, sel=None):
        # per row ||H v - hs||^2 + sum_n u(v_n)
        at = slice(None) if sel is None else sel
        resid = matvec(h_run, v, sel) - hs_run[at]
        return np.vecdot(resid, resid).real + penalty.value(v).sum(axis=-1)

    def finish(done, iterations, converged):
        nonlocal rows, h_run, hs_run, gram, hts, step, tau1, shrink, x, y, t
        nonlocal f_prev, f_best, x_best
        for j in done:
            i = rows[j]
            outs[i] = _output(h[i], s[i], rho, penalty, x_best[j].copy(),
                              iterations, converged)
        keep = np.ones(rows.size, dtype=bool)
        keep[done] = False
        # the Gram stack shrinks in place: a gathered copy would double it
        kept = keep.nonzero()[0]
        for j, i in enumerate(kept):
            if i != j:
                gram[j] = gram[i]
        gram = gram[:kept.size]
        (rows, h_run, hs_run, hts, step, tau1, shrink, x, y, t, f_prev,
         f_best, x_best) = (a[keep] for a in (
             rows, h_run, hs_run, hts, step, tau1, shrink, x, y, t, f_prev,
             f_best, x_best))

    x = np.zeros((rows.size, n), dtype=complex)
    y = x.copy()
    t = np.ones(rows.size)
    f_best = objective(x)
    x_best = x.copy()
    f_prev = f_best.copy()
    it = 0
    for it in range(1, max_iter + 1):
        if rows.size == 0:
            break
        x_new = advance(y)
        f_new = objective(x_new)
        restart = (f_new > f_prev).nonzero()[0]
        if restart.size:
            # monotone restart of those rows: drop momentum and step from
            # the last iterate
            t[restart] = 1.0
            x_new[restart] = advance(x[restart], restart)
            f_new[restart] = objective(x_new[restart], restart)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new)[:, None] * (x_new - x)
        x, t = x_new, t_new
        better = f_new < f_best
        np.copyto(f_best, f_new, where=better)
        np.copyto(x_best, x_new, where=better[:, None])
        plateau = (np.abs(f_prev - f_new)
                   <= tol * np.maximum(np.abs(f_prev), 1e-300)).nonzero()[0]
        f_prev = f_new
        if plateau.size:
            # objective has plateaued; accept only with a certificate that
            # the proximal fixed-point residual is small as well
            xp = x_new[plateau]
            fp = _row_norms(xp - advance(xp, plateau))
            done = plateau[fp <= 1e-7 * (1.0 + _row_norms(xp))]
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
        rho: power control factor, finite and nonnegative.
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
    _check_rho(rho)
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
    _check_rho(rho)
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
        rho: power control factor, finite and nonnegative.
        penalty: weights with lambda1 = 0 and lambda0, lambda2 >= 0. With
            lambda2 < 0 the ridge problem on a support wider than K has no
            minimiser (the least-squares fallback is not one), and a
            negative lambda0 comes from the continued tuning branch
            (xi < 0), whose replica state is not this minimiser.

    Returns:
        PrecodeOutput at the global optimum.
    """
    h, s = _check_instance(h, s)
    _check_rho(rho)
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
        rho: power control factor, finite and nonnegative.
        lambda2: quadratic penalty weight.
        support: zero-extended constellation.

    Returns:
        PrecodeOutput at the global optimum.
    """
    h, s = _check_instance(h, s)
    _check_rho(rho)
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
