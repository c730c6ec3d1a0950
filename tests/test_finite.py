import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glse.errors import ConfigurationError
from glse import finite
from glse.finite import (DEFAULT_TOL, glse_convex, glse_convex_stack,
                         glse_exhaustive_discrete, glse_exhaustive_l0,
                         glse_stationary, objective_value,
                         optimality_residual, rzf, tas_random, tas_strongest)
from glse.penalties import PenaltySpec, SupportSpec, prox
from glse.replica import ScenarioSpec, tune
from glse.rmt import ChannelSpec, sample_channel


def _instance(n, k, seed):
    h = sample_channel(ChannelSpec(n_tx=n, n_users=k, rng_seed=seed))
    rng = np.random.default_rng(seed + 1)
    s = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    return h, s


def test_convex_matches_rzf_closed_form():
    h, s = _instance(24, 12, 3)
    pen = PenaltySpec(lambda2=0.4)
    out = glse_convex(h, s, 1.0, pen, SupportSpec.full_complex())
    ref = rzf(h, s, 1.0, 0.4)
    assert out.converged
    rel = np.linalg.norm(out.x - ref.x) / np.linalg.norm(ref.x)
    assert rel < 1e-6


def test_convex_certificate_small_residual():
    h, s = _instance(16, 8, 7)
    pen = PenaltySpec(lambda2=0.2, lambda1=0.3)
    sup = SupportSpec.full_complex()
    out = glse_convex(h, s, 1.0, pen, sup)
    assert out.converged
    res = optimality_residual(h, s, 1.0, pen, sup, out.x)
    assert res <= 1e-6 * (1.0 + np.linalg.norm(out.x))


def test_convex_l1_beats_random_feasible_points():
    h, s = _instance(12, 6, 11)
    pen = PenaltySpec(lambda2=0.1, lambda1=0.5)
    sup = SupportSpec.full_complex()
    out = glse_convex(h, s, 1.0, pen, sup)
    rng = np.random.default_rng(0)
    for _ in range(50):
        cand = (rng.standard_normal(12) + 1j * rng.standard_normal(12))
        assert out.objective <= objective_value(h, s, 1.0, pen, cand) + 1e-9


def test_convex_disk_respects_peak_power():
    h, s = _instance(12, 6, 13)
    pen = PenaltySpec(lambda2=0.05)
    sup = SupportSpec.disk(0.04)
    out = glse_convex(h, s, 4.0, pen, sup)
    assert np.max(np.abs(out.x) ** 2) <= 0.04 + 1e-12


def test_convex_rejects_l0_weight_and_bad_shapes():
    h, s = _instance(8, 4, 17)
    with pytest.raises(ConfigurationError):
        glse_convex(h, s, 1.0, PenaltySpec(lambda0=0.1),
                    SupportSpec.full_complex())
    with pytest.raises(ConfigurationError):
        glse_convex(h, s[:-1], 1.0, PenaltySpec(), SupportSpec.full_complex())


def test_negative_weights_need_power_cap():
    h, s = _instance(8, 4, 19)
    full = SupportSpec.full_complex()
    # a negative l1 weight has no minimiser, with or without a cap
    pen = PenaltySpec(lambda2=-0.01, lambda1=-0.05)
    for cap in (None, 0.5):
        with pytest.raises(ConfigurationError, match="glse_stationary"):
            glse_convex(h, s, 1.0, pen, full, power_cap=cap)
    # a negative quadratic weight has one under the power budget
    pen = PenaltySpec(lambda2=-0.01, lambda1=0.05)
    with pytest.raises(ConfigurationError):
        glse_convex(h, s, 1.0, pen, full)
    out = glse_convex(h, s, 1.0, pen, full, power_cap=0.5)
    assert out.power <= 0.5 + 1e-12


def _reference_apg(h, s, rho, penalty, support, max_iter, power_cap):
    """The one-instance APG loop that glse_convex_stack replaced, kept as
    the reference its rows must equal bit for bit.

    Returns (x, iterations, converged, restarts).
    """
    n = h.shape[1]
    lip = 2.0 * np.linalg.norm(h, 2) ** 2
    if lip == 0:
        return np.zeros(n, dtype=complex), 0, True, 0
    step = 1.0 / lip
    gram = h.conj().T @ h
    hts = h.conj().T @ (np.sqrt(rho) * s)

    def advance(v):
        w = prox(penalty, support, v - step * (2.0 * (gram @ v - hts)), step)
        if power_cap is not None:
            budget = power_cap * w.size
            nrm2 = float(np.vdot(w, w).real)
            if nrm2 > budget:
                w = w * np.sqrt(budget / nrm2)
        return w

    x = np.zeros(n, dtype=complex)
    y = x.copy()
    t = 1.0
    f_best = f_prev = objective_value(h, s, rho, penalty, x)
    x_best = x.copy()
    restarts = 0
    for it in range(1, max_iter + 1):
        x_new = advance(y)
        f_new = objective_value(h, s, rho, penalty, x_new)
        if f_new > f_prev:
            restarts += 1
            t = 1.0
            y = x.copy()
            x_new = advance(y)
            f_new = objective_value(h, s, rho, penalty, x_new)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
        if f_new < f_best:
            f_best, x_best = f_new, x_new.copy()
        if abs(f_prev - f_new) <= DEFAULT_TOL * max(abs(f_prev), 1e-300):
            fp = np.linalg.norm(x_new - advance(x_new))
            if fp <= 1e-7 * (1.0 + np.linalg.norm(x_new)):
                return x_best, it, True, restarts
        f_prev = f_new
    return x_best, max_iter, False, restarts


# (penalty, support, power_cap, max_iter) of each stack; every stack also
# holds an all-zero channel (Lipschitz constant 0)
STACK_CASES = {
    "full_l1": (PenaltySpec(lambda2=0.05, lambda1=0.3),
                SupportSpec.full_complex(), None, finite.DEFAULT_MAX_ITER),
    "disk": (PenaltySpec(lambda2=0.1, lambda1=0.2), SupportSpec.disk(0.3),
             None, finite.DEFAULT_MAX_ITER),
    "power_cap": (PenaltySpec(lambda2=-0.05, lambda1=0.1),
                  SupportSpec.full_complex(), 0.5, finite.DEFAULT_MAX_ITER),
    "max_iter_1": (PenaltySpec(lambda2=0.05, lambda1=0.3),
                   SupportSpec.full_complex(), None, 1),
}


# the benchmark sweep's two operating points, (alpha_inv, eta): full/l1
# weights tuned to power 0.5 and the sweep's first stack, 16 channels at
# N = 64 from seed 1234; as above, one channel of each stack is all zero
SWEEP_POINTS = {"sweep_alpha_inv_2": (2.0, 0.7),
                "sweep_alpha_inv_4": (4.0, 0.5)}


def _stack_case(case):
    """(penalty, support, power_cap, max_iter, n, k, seeds) of a case."""
    if case in STACK_CASES:
        return STACK_CASES[case] + (16, 8, range(6))
    alpha_inv, eta = SWEEP_POINTS[case]
    sup = SupportSpec.full_complex()
    base = ScenarioSpec(penalty=PenaltySpec(), support=sup,
                        load=1.0 / alpha_inv, rho=1.0)
    pen, _ = tune(base, 0.5, eta, sparsity="l1")
    return (pen, sup, None, finite.DEFAULT_MAX_ITER, 64, int(64 / alpha_inv),
            range(1234, 1250))


@pytest.mark.parametrize("case", sorted(STACK_CASES) + sorted(SWEEP_POINTS))
def test_convex_stack_equals_single_solves(case):
    pen, sup, cap, max_iter, n, k, seeds = _stack_case(case)
    pairs = [_trial_instance(n, k, seed) for seed in seeds]
    h = np.stack([p[0] for p in pairs])
    s = np.stack([p[1] for p in pairs])
    h[2] = 0.0
    stacked = glse_convex_stack(h, s, 1.0, pen, sup, max_iter=max_iter,
                                power_cap=cap)
    restarts = []
    for row, out in enumerate(stacked):
        single = glse_convex(h[row], s[row], 1.0, pen, sup,
                             max_iter=max_iter, power_cap=cap)
        x, iters, converged, n_restarts = _reference_apg(
            h[row], s[row], 1.0, pen, sup, max_iter, cap)
        restarts.append(n_restarts)
        for got in (out, single):
            np.testing.assert_array_equal(got.x, x)
            assert (got.iterations, got.converged) == (iters, converged)
    iters = [out.iterations for out in stacked]
    assert (iters[2], stacked[2].converged) == (0, True)
    if max_iter == 1:
        assert set(iters) == {0, 1}
    else:
        assert all(out.converged for out in stacked)
        assert len(set(iters)) > 2 and max(restarts) > 0
        # the rows restart a different number of times: restarts are
        # per row, not per stack
        del restarts[2]
        assert len(set(restarts)) > 1
    if cap is not None:
        # the ball is ||x||^2 <= N * cap, N = 16, whatever the stack size
        assert max(out.power for out in stacked) == pytest.approx(cap)


def test_convex_stack_rejects_bad_shapes():
    h, s = _instance(8, 4, 17)
    pen, sup = PenaltySpec(lambda1=0.1), SupportSpec.full_complex()
    with pytest.raises(ConfigurationError):
        glse_convex_stack(h, s, 1.0, pen, sup)
    with pytest.raises(ConfigurationError):
        glse_convex_stack(h[None], s[None, :-1], 1.0, pen, sup)


def test_stationary_without_l1_is_rzf():
    # lambda1 = 0: the stationary point is the regularized zero-forcer at
    # the same (negative) quadratic weight
    h, s = _instance(16, 8, 47)
    out = glse_stationary(h, s, 1.0, PenaltySpec(lambda2=-0.05))
    ref = rzf(h, s, 1.0, -0.05)
    assert out.converged
    assert np.linalg.norm(out.x - ref.x) <= 1e-10 * np.linalg.norm(ref.x)


def _continued_branch_penalty():
    # alpha_inv 4, eta 0.7 tunes past the Lagrangian boundary: xi < 0 and
    # lambda1 < 0
    spec = ScenarioSpec(PenaltySpec(), SupportSpec.full_complex(), 0.25, 1.0)
    pen, sol = tune(spec, 0.5, 0.7, sparsity="l1")
    assert sol.chi < -1 and pen.lambda1 < 0
    return pen


def _stationarity_gap(h, s, rho, pen, x):
    # first-order conditions of ||Hx - sqrt(rho) s||^2 + lambda2||x||^2 +
    # lambda1||x||_1: on active entries the gradient vanishes; on zero
    # entries the data gradient lies in the disk of radius |lambda1|
    grad = 2.0 * (h.conj().T @ (h @ x - np.sqrt(rho) * s))
    act = x != 0
    unit = x[act] / np.abs(x[act])
    on = np.abs(grad[act] + 2.0 * pen.lambda2 * x[act] + pen.lambda1 * unit)
    off = np.maximum(np.abs(grad[~act]) - abs(pen.lambda1), 0.0)
    return float(np.max(np.concatenate([on, off, [0.0]])))


def test_stationary_on_continued_branch():
    pen = _continued_branch_penalty()
    h, s = _instance(32, 8, 53)
    a = glse_stationary(h, s, 1.0, pen)
    b = glse_stationary(h, s, 1.0, pen)
    assert a.converged and a.iterations > 0 and a.start == "rzf"
    assert a.residual <= DEFAULT_TOL * (1.0 + np.linalg.norm(a.x))
    assert _stationarity_gap(h, s, 1.0, pen, a.x) <= 1e-8
    np.testing.assert_array_equal(a.x, b.x)
    assert (a.iterations, a.distortion) == (b.iterations, b.distortion)
    # thresholded entries are exact zeros
    assert 0 < a.activity < 1


def _trial_instance(n, k, seed):
    # the instance harness.run_trial draws for this seed
    h = sample_channel(ChannelSpec(n_tx=n, n_users=k, rng_seed=seed))
    rng = np.random.default_rng([seed, 0x5EED])
    s = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2.0)
    return h, s


@pytest.mark.parametrize("instance, start", [
    (_instance(32, 8, 53), "rzf"),
    # the one channel of criterion 02's (0.7, 4) point at N = 16 where
    # Newton stalls from the rzf start and the zero start takes over
    (_trial_instance(16, 4, 1299), "zero"),
])
def test_stationary_starts_agree(instance, start):
    # the objective is nonconvex, so its stationary point need not be
    # unique; every start that converges here reaches the returned one
    h, s = instance
    pen = _continued_branch_penalty()
    out = glse_stationary(h, s, 1.0, pen)
    assert out.converged and out.start == start
    fmap, jacobian = finite._stationary_map(h, s, 1.0, pen)
    n = h.shape[1]
    rng = np.random.default_rng(0)
    starts = [rzf(h, s, 1.0, pen.lambda2).x, np.zeros(n, dtype=complex)]
    starts += [rng.standard_normal(n) + 1j * rng.standard_normal(n)
               for _ in range(5)]
    reached = 0
    for v in starts:
        x, res, _ = finite._newton_root(fmap, jacobian, v, 100)
        if res <= DEFAULT_TOL * (1.0 + np.linalg.norm(x)):
            reached += 1
            assert np.linalg.norm(x - out.x) <= 1e-8 * np.linalg.norm(out.x)
    assert reached >= 5


def test_stationary_reports_nonconvergence_and_rejects_weights():
    h, s = _instance(32, 8, 53)
    out = glse_stationary(h, s, 1.0, _continued_branch_penalty(), max_iter=1)
    assert not out.converged and out.iterations == 2  # one step per start
    with pytest.raises(ConfigurationError):
        glse_stationary(h, s, 1.0, PenaltySpec(lambda1=0.1))
    with pytest.raises(ConfigurationError):
        glse_stationary(h, s, 1.0, PenaltySpec(lambda0=0.1, lambda1=-0.1))


_SOLVERS = {
    "convex": lambda h, s, rho: glse_convex(
        h, s, rho, PenaltySpec(lambda2=0.3), SupportSpec.full_complex()),
    "convex_stack": lambda h, s, rho: glse_convex_stack(
        h[None], s[None], rho, PenaltySpec(lambda2=0.3),
        SupportSpec.full_complex()),
    "stationary": lambda h, s, rho: glse_stationary(
        h, s, rho, PenaltySpec(lambda2=-0.05)),
    "rzf": lambda h, s, rho: rzf(h, s, rho, 0.3),
    "exhaustive_l0": lambda h, s, rho: glse_exhaustive_l0(
        h, s, rho, PenaltySpec(lambda2=0.1, lambda0=0.3)),
    "exhaustive_discrete": lambda h, s, rho: glse_exhaustive_discrete(
        h, s, rho, 0.2, SupportSpec.mpsk_zero(2, 2.5)),
}


@pytest.mark.parametrize("rho", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("solver", list(_SOLVERS))
def test_solvers_need_a_finite_nonnegative_rho(solver, rho):
    # rzf and glse_exhaustive_l0 returned a NaN distortion here,
    # glse_stationary NaN at nan and inf, glse_exhaustive_discrete a numpy
    # ValueError, and glse_convex ran to its iteration cap at nan and inf
    h, s = _instance(6, 3, 29)
    with pytest.raises(ConfigurationError, match="rho must be finite"):
        _SOLVERS[solver](h, s, rho)


def test_exhaustive_l0_is_global_minimum():
    h, s = _instance(8, 4, 23)
    # lambda2 = 0 takes the least-squares branch of each support's solve
    for lambda2 in (0.1, 0.0):
        pen = PenaltySpec(lambda2=lambda2, lambda0=0.3)
        out = glse_exhaustive_l0(h, s, 1.0, pen)
        # every support set, ridge-optimal coefficients: none can beat it
        rng = np.random.default_rng(1)
        for _ in range(200):
            mask = rng.integers(0, 2, size=8).astype(bool)
            cand = np.zeros(8, dtype=complex)
            cand[mask] = (rng.standard_normal(mask.sum())
                          + 1j * rng.standard_normal(mask.sum()))
            assert out.objective <= objective_value(h, s, 1.0, pen,
                                                    cand) + 1e-9


def test_exhaustive_l0_rejects_l1_weight():
    h, s = _instance(6, 3, 29)
    with pytest.raises(ConfigurationError):
        glse_exhaustive_l0(h, s, 1.0, PenaltySpec(lambda1=0.2))


def test_exhaustive_l0_rejects_negative_weights():
    # the first pair is what tune gives for full/l0 at alpha_inv 4, p 0.5,
    # eta 0.7 (the continued branch, xi < 0)
    h, s = _instance(6, 3, 29)
    for pen in (PenaltySpec(lambda2=-0.0744, lambda0=-0.0199),
                PenaltySpec(lambda2=0.1, lambda0=-0.02),
                PenaltySpec(lambda2=-0.05, lambda0=0.02)):
        with pytest.raises(ConfigurationError):
            glse_exhaustive_l0(h, s, 1.0, pen)


def test_exhaustive_discrete_is_global_minimum():
    h, s = _instance(6, 3, 31)
    sup = SupportSpec.mpsk_zero(4, 1.5)
    out = glse_exhaustive_discrete(h, s, 1.0, 0.2, sup)
    pen = PenaltySpec(lambda2=0.2)
    points = sup.constellation()
    # exhaustive cross-check on a random subsample of the grid
    rng = np.random.default_rng(2)
    for _ in range(300):
        cand = rng.choice(points, size=6)
        assert out.objective <= objective_value(h, s, 1.0, pen, cand) + 1e-9
    assert np.all(np.isin(np.round(out.x, 10),
                          np.round(np.asarray(points), 10)))


def test_exhaustive_discrete_matches_brute_force_small():
    h, s = _instance(4, 2, 37)
    sup = SupportSpec.mpsk_zero(2, 1.0)
    out = glse_exhaustive_discrete(h, s, 1.0, 0.1, sup)
    pen = PenaltySpec(lambda2=0.1)
    best = min(objective_value(h, s, 1.0, pen, np.asarray(cand))
               for cand in itertools.product(sup.constellation(), repeat=4))
    assert out.objective == pytest.approx(best, abs=1e-12)


def test_tas_strongest_picks_largest_columns():
    h = np.zeros((2, 5), dtype=complex)
    h[0] = [3.0, 1.0, 2.0, 0.5, 2.5]
    idx = tas_strongest(h, 3)
    assert sorted(idx) == [0, 2, 4]


def test_tas_random_deterministic_and_valid():
    a = tas_random(10, 4, seed=5)
    b = tas_random(10, 4, seed=5)
    np.testing.assert_array_equal(a, b)
    assert len(set(a.tolist())) == 4
    assert all(0 <= i < 10 for i in a)


def test_output_diagnostics_consistent():
    h, s = _instance(10, 5, 43)
    out = rzf(h, s, 2.0, 0.3)
    resid = h @ out.x - np.sqrt(2.0) * s
    assert out.distortion == pytest.approx(np.vdot(resid, resid).real / 5)
    assert out.power == pytest.approx(np.vdot(out.x, out.x).real / 10)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_convex_pure_in_inputs(seed):
    h, s = _instance(6, 3, seed)
    pen = PenaltySpec(lambda2=0.3, lambda1=0.1)
    a = glse_convex(h, s, 1.0, pen, SupportSpec.full_complex())
    b = glse_convex(h, s, 1.0, pen, SupportSpec.full_complex())
    np.testing.assert_array_equal(a.x, b.x)
