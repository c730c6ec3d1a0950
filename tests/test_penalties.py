import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glse.errors import ConfigurationError, DomainError
from glse.penalties import (PenaltySpec, SupportSpec, decouple, decouple_grid,
                            prox, scalar_objective)

FULL = SupportSpec.full_complex()


def test_scalar_objective_values():
    pen = PenaltySpec(lambda2=0.5)
    assert scalar_objective(0.0, 1.0, 2.0, PenaltySpec(lambda0=3.0)) == pytest.approx(1.0)
    assert scalar_objective(1.0, 0.0, 2.0, pen) == pytest.approx(2.0)
    assert scalar_objective(1.0, 1.0, 1.0, PenaltySpec(lambda0=0.25)) == pytest.approx(0.25)


def test_scalar_objective_support_check():
    disk = SupportSpec.disk(1.0)
    with pytest.raises(DomainError):
        scalar_objective(2.0, 0.0, 1.0, PenaltySpec(), disk)
    qpsk = SupportSpec.mpsk_zero(4, 1.0)
    with pytest.raises(DomainError):
        scalar_objective(0.5, 0.0, 1.0, PenaltySpec(), qpsk)
    # constellation points and zero are fine
    scalar_objective(1j, 0.0, 1.0, PenaltySpec(), qpsk)
    scalar_objective(0.0, 0.0, 1.0, PenaltySpec(), qpsk)


def test_decouple_ridge_special_case():
    out = decouple(2.0, 1.0, PenaltySpec(lambda2=1.0), FULL)
    assert out == pytest.approx(1.0)


def test_decouple_soft_dead_zone():
    s = 0.5 * np.exp(1j * np.pi / 4)
    out = decouple(s, 1.0, PenaltySpec(lambda1=2.0), FULL)
    assert out == 0


def test_decouple_mpsk_example():
    qpsk = SupportSpec.mpsk_zero(4, 1.0)
    out = decouple(2 * np.exp(0.1j), 1.0, PenaltySpec(), qpsk)
    assert out == pytest.approx(1.0)


def test_decouple_papr_l0_clip():
    disk = SupportSpec.disk(1.0)
    out = decouple(5.0, 1.0, PenaltySpec(lambda0=0.1), disk)
    assert out == pytest.approx(1.0)


def test_decouple_hard_threshold_tie_gives_zero():
    pen = PenaltySpec(lambda2=0.3, lambda0=0.7)
    xi = 1.3
    tau0 = np.sqrt(xi * pen.lambda0 * (1 + xi * pen.lambda2))
    assert decouple(tau0, xi, pen, FULL) == 0
    assert decouple(tau0 * 1.0001, xi, pen, FULL) != 0


def test_decouple_grid_tie_toward_zero():
    pen = PenaltySpec(lambda2=0.3, lambda0=0.7)
    xi = 1.3
    tau0 = np.sqrt(xi * pen.lambda0 * (1 + xi * pen.lambda2))
    assert decouple_grid(tau0, xi, pen, FULL, resolution=128) == 0


def test_decouple_zero_input_all_scenarios():
    supports = [FULL, SupportSpec.disk(2.0), SupportSpec.mpsk_zero(8, 1.0)]
    pens = [PenaltySpec(lambda2=0.5, lambda0=0.2), PenaltySpec(lambda2=0.5, lambda1=0.3),
            PenaltySpec(lambda2=0.5)]
    for sup in supports:
        for pen in pens:
            if sup.kind == "mpsk_zero" and (pen.lambda0 or pen.lambda1):
                continue
            assert decouple(0.0, 1.0, pen, sup) == 0


def test_decouple_uncovered_combination_rejected():
    with pytest.raises(ConfigurationError):
        decouple(1.0, 1.0, PenaltySpec(lambda0=0.5, lambda1=0.5), FULL)
    with pytest.raises(ConfigurationError):
        decouple(1.0, 1.0, PenaltySpec(lambda1=0.5),
                 SupportSpec.mpsk_zero(4, 1.0))


def _scenarios(rng):
    """Random (penalty, support) draws covering the six scenarios, and the
    full-plane l1 one with a negative quadratic weight."""
    lam = rng.uniform(0.0, 2.0)
    p = rng.uniform(0.25, 4.0)
    scen = rng.integers(0, 7)
    if scen == 0:
        return PenaltySpec(lambda2=lam, lambda0=rng.uniform(0, 2)), FULL
    if scen == 1:
        return PenaltySpec(lambda2=lam, lambda1=rng.uniform(0, 2)), FULL
    if scen == 2:
        return PenaltySpec(lambda2=lam, lambda0=rng.uniform(0, 2)), SupportSpec.disk(p)
    if scen == 3:
        return PenaltySpec(lambda2=lam, lambda1=rng.uniform(0, 2)), SupportSpec.disk(p)
    if scen == 4:
        return PenaltySpec(lambda2=lam), SupportSpec.constant_envelope(p)
    if scen == 5:
        # a negative quadratic weight, in the domain for every xi < 5
        return PenaltySpec(lambda2=-0.2, lambda1=rng.uniform(0, 2)), FULL
    m = int(rng.choice([2, 4, 8]))
    return PenaltySpec(lambda2=lam), SupportSpec.mpsk_zero(m, p)


def _grid_error_bound(s, xi, pen, support, resolution):
    if support.kind == "mpsk_zero":
        return 1e-12
    if support.kind == "const_envelope":
        # on the ring the objective moves with the phase at a rate of at
        # most 2 sqrt(P) |s|, and the grid's phase step is 2 pi/resolution
        step = 2 * np.pi / resolution
        return 2 * step * 2 * np.sqrt(support.peak_power) * abs(s) + 1e-9
    r_max = 4 * abs(s) + 4 * np.sqrt(xi * (pen.lambda0 + pen.lambda1) + 1.0)
    if pen.lambda2 < 0:  # the grid widens by 1/(1 + xi*lambda2)
        r_max /= 1.0 + xi * pen.lambda2
    if support.kind == "disk":
        r_max = min(r_max, np.sqrt(support.peak_power))
    step = max(r_max / (resolution - 1), r_max * 2 * np.pi / resolution)
    lip = (2 * (r_max + abs(s))
           + xi * (2 * abs(pen.lambda2) * r_max + pen.lambda1))
    return 2 * step * lip + 1e-9


def test_oracle_consistency_battery():
    rng = np.random.default_rng(42)
    for _ in range(250):
        pen, sup = _scenarios(rng)
        xi = rng.uniform(0.2, 5.0)
        s = (rng.normal() + 1j * rng.normal()) * rng.uniform(0.2, 3.0)
        closed = decouple(s, xi, pen, sup)
        grid = decouple_grid(s, xi, pen, sup, resolution=256)
        f_closed = scalar_objective(closed, s, xi, pen, sup)
        f_grid = scalar_objective(grid, s, xi, pen, sup)
        assert f_closed <= f_grid + 1e-9
        assert f_grid - f_closed <= _grid_error_bound(s, xi, pen, sup, 256)


def test_decouple_grid_widens_for_a_negative_quadratic_weight():
    # 1 + xi*lambda2 = 0.1 puts the minimiser at |v| = 27.75, past the
    # radius 4|s| + 4 sqrt(1 + xi*lambda1) = 16.8 that a positive weight
    # needs
    pen, xi, s = PenaltySpec(lambda2=-0.2, lambda1=0.1), 4.5, 3.0
    closed = decouple(s, xi, pen, FULL)
    assert closed == pytest.approx(27.75, rel=1e-12)
    grid = decouple_grid(s, xi, pen, FULL, resolution=1024)
    assert abs(grid - closed) < 0.1  # the radial step is 0.16


@pytest.mark.parametrize("order", [2.7, 1, 1.0, np.nan, np.inf, "4", None])
def test_mpsk_order_must_be_an_integer_from_2(order):
    # a fractional order used to build unequally spaced phases, and
    # mpsk_zero truncated it
    with pytest.raises(ConfigurationError, match="order"):
        SupportSpec(kind="mpsk_zero", peak_power=1.0, order=order)
    with pytest.raises(ConfigurationError, match="order"):
        SupportSpec.mpsk_zero(order, 1.0)


def test_mpsk_integral_float_order_is_stored_as_int():
    sup = SupportSpec(kind="mpsk_zero", peak_power=1.0, order=4.0)
    assert type(sup.order) is int and sup == SupportSpec.mpsk_zero(4, 1.0)
    assert SupportSpec.mpsk_zero(np.int64(8), 1.0).order == 8
    assert len(SupportSpec.mpsk_zero(4.0, 1.0).constellation()) == 5


def test_mpsk_grid_is_exact_enumeration():
    rng = np.random.default_rng(3)
    sup = SupportSpec.mpsk_zero(4, 1.5)
    for _ in range(100):
        s = rng.normal() + 1j * rng.normal()
        xi = rng.uniform(0.2, 4.0)
        pen = PenaltySpec(lambda2=rng.uniform(0, 2))
        assert decouple(s, xi, pen, sup) == decouple_grid(s, xi, pen, sup)


@settings(max_examples=60)
@given(st.floats(-np.pi, np.pi), st.floats(0.05, 3.0), st.floats(0.3, 3.0))
def test_phase_equivariance_full_and_disk(phi, mag, xi):
    pen = PenaltySpec(lambda2=0.4, lambda1=0.6)
    for sup in (FULL, SupportSpec.disk(1.2)):
        base = decouple(mag, xi, pen, sup)
        rotated = decouple(mag * np.exp(1j * phi), xi, pen, sup)
        assert rotated == pytest.approx(base * np.exp(1j * phi), abs=1e-12)


def test_phase_equivariance_mpsk_symmetry_only():
    sup = SupportSpec.mpsk_zero(4, 1.0)
    pen = PenaltySpec(lambda2=0.2)
    s = 1.7 * np.exp(0.3j)
    base = decouple(s, 1.0, pen, sup)
    shift = np.exp(2j * np.pi / 4)
    assert decouple(s * shift, 1.0, pen, sup) == pytest.approx(base * shift)


@settings(max_examples=60)
@given(st.floats(0.0, 3.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_monotone_sparsification(mag, w_lo, w_hi):
    lo, hi = sorted([w_lo, w_hi])
    for key in ("lambda0", "lambda1"):
        out_lo = decouple(mag, 1.0, PenaltySpec(lambda2=0.5, **{key: lo}), FULL)
        out_hi = decouple(mag, 1.0, PenaltySpec(lambda2=0.5, **{key: hi}), FULL)
        if out_lo == 0:
            assert out_hi == 0


def test_prox_examples():
    disk = SupportSpec.disk(1.0)
    theta = 0.7
    out = prox(PenaltySpec(), disk, 3 * np.exp(1j * theta), step=1.0)
    assert out == pytest.approx(np.exp(1j * theta))
    assert prox(PenaltySpec(lambda1=2.0), FULL, 0.5, step=1.0) == 0
    assert prox(PenaltySpec(lambda2=1.0), FULL, 2.0, step=0.5) == pytest.approx(1.0)


def test_prox_rejects_nonconvex():
    with pytest.raises(ConfigurationError):
        prox(PenaltySpec(lambda0=0.5), FULL, 1.0, step=1.0)
    with pytest.raises(ConfigurationError):
        prox(PenaltySpec(), SupportSpec.mpsk_zero(2, 1.0), 1.0, step=1.0)


@settings(max_examples=40)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0.01, 3), st.floats(0, 2))
@example(5e-324, 0.0, 0.01, 0.0)
def test_prox_ridge_closed_form(re, im, step, lam):
    w = re + 1j * im
    out = prox(PenaltySpec(lambda2=lam), FULL, w, step)
    assert out == pytest.approx(w / (1 + 2 * step * lam), abs=1e-12)


def test_prox_is_the_minimizer():
    # verify against a local grid search of the prox objective
    rng = np.random.default_rng(9)
    disk = SupportSpec.disk(1.3)
    for _ in range(50):
        w = rng.normal() + 1j * rng.normal()
        step = rng.uniform(0.05, 2.0)
        pen = PenaltySpec(lambda2=rng.uniform(0, 2), lambda1=rng.uniform(0, 2))
        out = prox(pen, disk, w, step)

        def f(v):
            return 0.5 * abs(v - w) ** 2 + step * (
                pen.lambda2 * abs(v) ** 2 + pen.lambda1 * abs(v))

        radius = np.sqrt(disk.peak_power)
        grid = [r * np.exp(1j * t)
                for r in np.linspace(0, radius, 200)
                for t in np.linspace(0, 2 * np.pi, 128, endpoint=False)]
        best = min(f(v) for v in grid)
        assert f(out) <= best + 1e-9


def test_prox_array_input():
    w = np.array([1.0 + 0j, 0.1j, -2.0])
    out = prox(PenaltySpec(lambda2=0.5), SupportSpec.disk(1.0), w, 0.5)
    assert out.shape == w.shape
    assert np.all(np.abs(out) <= 1.0 + 1e-12)


def test_decouple_ce_examples():
    p = 2.0
    xi, lam = 1.0, 0.5
    s = np.sqrt(p) * (1 + xi * lam) * np.exp(0.4j)
    ce = SupportSpec.constant_envelope(p)
    pen = PenaltySpec(lambda2=lam)
    out = decouple(s, xi, pen, ce)
    assert out == pytest.approx(np.sqrt(p) * np.exp(0.4j))
    assert decouple(1e-12, xi, pen, ce) == 0
    assert decouple(0.0, xi, pen, ce) == 0


def test_decouple_ce_is_large_order_limit():
    rng = np.random.default_rng(11)
    m = 256
    sup = SupportSpec.mpsk_zero(m, 1.0)
    pen = PenaltySpec(lambda2=0.4)
    xi = 1.2
    tau = np.sqrt(1.0) * (1 + xi * pen.lambda2) / 2.0
    for _ in range(1000):
        s = (rng.normal() + 1j * rng.normal()) * 0.8
        a = decouple(s, xi, pen, sup)
        b = decouple(s, xi, pen, SupportSpec.constant_envelope(1.0))
        near_threshold = abs(abs(s) - tau) < 4.0 / m
        if (a == 0) != (b == 0):
            assert near_threshold
        elif a != 0:
            phase_gap = np.abs(np.angle(a * np.conj(b)))
            assert phase_gap <= 2 * np.pi / m + 1e-12


def test_prox_rejects_negative_l1_weight():
    # a negative l1 weight would enlarge the input instead of shrinking it
    with pytest.raises(DomainError):
        prox(PenaltySpec(lambda1=-0.5), FULL, np.array([0.0, 0.1]), 1.0)
    with pytest.raises(DomainError):
        prox(PenaltySpec(lambda2=-1.0), FULL, 1.0, step=1.0)
    with pytest.raises(ConfigurationError):
        prox(PenaltySpec(), SupportSpec.constant_envelope(1.0), 1.0, 1.0)


def _six_scenarios():
    """(penalty, support, threshold ties) for each covered scenario."""
    xi, lam, p = 1.3, 0.3, 1.0
    shrink = 1.0 + xi * lam
    pen0 = PenaltySpec(lambda2=lam, lambda0=0.7)
    pen1 = PenaltySpec(lambda2=lam, lambda1=0.8)
    quad = PenaltySpec(lambda2=lam)
    tau0 = np.sqrt(xi * pen0.lambda0 * shrink)
    tau1 = xi * pen1.lambda1 / 2.0
    tau_ce = np.sqrt(p) * shrink / 2.0
    return xi, [
        (pen0, FULL, [tau0]),
        (pen1, FULL, [tau1]),
        (pen0, SupportSpec.disk(p), [tau0]),
        (pen1, SupportSpec.disk(p), [tau1]),
        (quad, SupportSpec.mpsk_zero(4, p), [tau_ce]),
        (quad, SupportSpec.constant_envelope(p), [tau_ce]),
    ]


def test_decouple_array_matches_scalar_calls():
    rng = np.random.default_rng(17)
    xi, scenarios = _six_scenarios()
    for pen, sup, ties in scenarios:
        # random inputs, the origin, the diagonals between QPSK points and
        # inputs exactly on the zero threshold along the real and
        # imaginary axes
        ties = np.array(ties, dtype=complex)
        s = np.concatenate([
            (rng.normal(size=40) + 1j * rng.normal(size=40)) * 1.2,
            [0.0, 0.9 * (1 + 1j), -0.9 * (1 - 1j)],
            ties, -ties, 1j * ties])
        out = decouple(s.reshape(2, -1), xi, pen, sup)
        assert out.shape == (2, s.size // 2)
        scalar = np.array([decouple(v, xi, pen, sup) for v in s])
        assert np.array_equal(out.ravel(), scalar)
        assert np.all(scalar[-3 * ties.size:] == 0)
        assert isinstance(decouple(s[0], xi, pen, sup), complex)
