import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from glse import rmt
from glse.errors import ConfigurationError, ConvergenceError, DomainError
from glse.rmt import (ChannelSpec, empirical_stieltjes, limiting_stieltjes,
                      r_transform, r_transform_derivative, sample_channel)


def test_sampling_deterministic():
    spec = ChannelSpec(n_tx=4, n_users=2, rng_seed=1234)
    h1 = sample_channel(spec)
    h2 = sample_channel(spec)
    assert h1.shape == (2, 4)
    np.testing.assert_array_equal(h1, h2)


def test_sampling_seed_changes_draw():
    a = sample_channel(ChannelSpec(n_tx=8, n_users=4, rng_seed=0))
    b = sample_channel(ChannelSpec(n_tx=8, n_users=4, rng_seed=1))
    assert not np.array_equal(a, b)


def test_entry_variance_contract():
    spec = ChannelSpec(n_tx=512, n_users=256, rng_seed=7)
    h = sample_channel(spec)
    mean_sq = np.mean(np.abs(h) ** 2)
    assert abs(mean_sq - 1.0 / 512) < 0.05 / 512


def test_zero_gain_atom_gives_zero_matrix():
    spec = ChannelSpec(n_tx=512, n_users=256, pathloss_atoms=[(0.0, 1.0)],
                       rng_seed=3)
    h = sample_channel(spec)
    assert np.all(h == 0)


def test_invalid_dimensions_rejected():
    with pytest.raises(ConfigurationError):
        ChannelSpec(n_tx=0, n_users=2)
    with pytest.raises(ConfigurationError):
        ChannelSpec(n_tx=2, n_users=0)


def test_atom_validation():
    with pytest.raises(ConfigurationError):
        ChannelSpec(n_tx=4, n_users=2, pathloss_atoms=[(1.0, 0.5)])
    for atoms in ([(-1.0, 1.0)], [(np.nan, 1.0)], [(np.inf, 1.0)],
                  [(1.0, np.nan)]):
        with pytest.raises(ConfigurationError):
            ChannelSpec(n_tx=4, n_users=2, pathloss_atoms=atoms)


def test_r_transform_values():
    assert r_transform(0.5, [(1.0, 1.0)], 0.0) == pytest.approx(0.5)
    assert r_transform(0.5, [(1.0, 1.0)], -1.0) == pytest.approx(0.25)
    two_atom = [(2.0, 0.5), (0.0, 0.5)]
    assert r_transform(0.5, two_atom, -1.0) == pytest.approx(1.0 / 6.0)


def test_r_transform_pole():
    with pytest.raises(DomainError):
        r_transform(0.5, [(1.0, 1.0)], 1.0)
    with pytest.raises(DomainError):
        r_transform(0.5, [(2.0, 1.0)], 0.5)


@given(st.floats(min_value=-50.0, max_value=0.999))
def test_r_transform_unit_atom_identity(omega):
    val = r_transform(0.5, [(1.0, 1.0)], omega)
    assert val * (1.0 - omega) == pytest.approx(0.5, abs=1e-12)


def test_r_transform_derivative_matches_finite_difference():
    atoms = [(2.0, 0.25), (1.0, 0.5), (0.5, 0.25)]
    eps = 1e-6
    fd = (r_transform(0.7, atoms, -1.0 + eps)
          - r_transform(0.7, atoms, -1.0 - eps)) / (2 * eps)
    assert r_transform_derivative(0.7, atoms, -1.0) == pytest.approx(fd, rel=1e-6)


def test_r_transform_empirical_cross_check():
    # invert the empirical Stieltjes transform at omega = -1 and compare
    # with the atom formula alpha * E a/(1 + a)
    atoms = [(2.0, 0.5), (0.0, 0.5)]
    spec = ChannelSpec(n_tx=1024, n_users=512, pathloss_atoms=atoms, rng_seed=11)
    h = sample_channel(spec)
    lam = np.linalg.eigvalsh(h.conj().T @ h)

    def g_hat(s):
        return np.mean(1.0 / (lam - s))

    # solve g_hat(s) = -omega = 1 on the negative real axis by bisection
    lo, hi = -50.0, -1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g_hat(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    r_emp = 0.5 * (lo + hi) + 1.0  # G^{-1}(-omega) - 1/omega at omega = -1
    assert abs(r_emp - 1.0 / 6.0) < 0.02


def test_empirical_stieltjes_zero_matrix():
    spec = ChannelSpec(n_tx=6, n_users=3, pathloss_atoms=[(0.0, 1.0)])
    assert empirical_stieltjes(sample_channel(spec), 1j) == pytest.approx(1j)


def test_empirical_stieltjes_rank_one():
    spec = ChannelSpec(n_tx=5, n_users=1, rng_seed=2)
    h = sample_channel(spec)
    n = 5
    expected = ((1.0 / (np.vdot(h[0], h[0]).real - 1j))
                + (n - 1) * (1.0 / (-1j))) / n
    assert empirical_stieltjes(h, 1j) == pytest.approx(expected)


def test_empirical_stieltjes_conjugate_symmetry():
    h = sample_channel(ChannelSpec(n_tx=32, n_users=16, rng_seed=5))
    for s in (0.3 + 0.2j, -1.0 + 0.01j, 2.0 + 1.0j):
        g = empirical_stieltjes(h, s)
        g_conj = empirical_stieltjes(h, np.conj(s))
        assert g_conj == pytest.approx(np.conj(g), rel=1e-12)


def test_empirical_stieltjes_requires_nonreal_argument():
    h = sample_channel(ChannelSpec(n_tx=4, n_users=2))
    with pytest.raises(DomainError):
        empirical_stieltjes(h, 1.0)


def test_limiting_stieltjes_solves_defining_relation():
    alpha = 0.5
    for s in (-1.0 + 0.01j, 0.5 + 0.5j, 2.0 + 0.1j):
        g = limiting_stieltjes(alpha, [(1.0, 1.0)], s)
        # s = R(-g) - 1/g with R(omega) = alpha/(1 - omega)
        recon = alpha / (1.0 + g) - 1.0 / g
        assert recon == pytest.approx(s, abs=1e-10)
        assert np.imag(g) > 0


def test_limiting_stieltjes_raises_at_iteration_cap(monkeypatch):
    monkeypatch.setattr(rmt, "_STIELTJES_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        limiting_stieltjes(0.5, [(1.0, 1.0)], 0.5 + 0.5j)


def test_empirical_matches_limiting_stieltjes():
    spec = ChannelSpec(n_tx=512, n_users=256, rng_seed=17)
    h = sample_channel(spec)
    s = -1.0 + 0.01j
    g_emp = empirical_stieltjes(h, s)
    g_lim = limiting_stieltjes(0.5, [(1.0, 1.0)], s)
    assert abs(g_emp - g_lim) < 1e-2


def _mp_cdf(x, alpha):
    """CDF of the limiting spectrum of J for the unit-gain ensemble."""
    a = (1.0 - np.sqrt(alpha)) ** 2
    b = (1.0 + np.sqrt(alpha)) ** 2
    if x < a:
        return 1.0 - alpha if x >= 0 else 0.0

    def density(t):
        return np.sqrt(max((b - t) * (t - a), 0.0)) / (2 * np.pi * t * alpha)

    val, _ = quad(density, a, min(x, b), limit=200)
    return 1.0 - alpha + alpha * min(val, 1.0)


def test_marchenko_pastur_ks_distance():
    # both laws have an atom at zero, so evaluate the sup on a dense grid
    # of right-continuity points instead of the jump-blind two-sided formula
    spec = ChannelSpec(n_tx=512, n_users=256, rng_seed=23)
    h = sample_channel(spec)
    lam = np.sort(np.linalg.eigvalsh(h.conj().T @ h))
    lam[np.abs(lam) < 1e-9] = 0.0  # snap numerical zeros to the atom
    grid = np.unique(np.concatenate([lam, np.linspace(0.0, lam[-1] + 0.1, 800)]))
    emp = np.searchsorted(lam, grid, side="right") / lam.size
    cdf = np.array([_mp_cdf(x, 0.5) for x in grid])
    assert np.max(np.abs(emp - cdf)) < 0.05


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_sampling_pure_in_seed(seed):
    spec = ChannelSpec(n_tx=6, n_users=3, rng_seed=seed)
    np.testing.assert_array_equal(sample_channel(spec),
                                  sample_channel(spec))
