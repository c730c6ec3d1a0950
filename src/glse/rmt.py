"""Channel ensemble sampling and random-matrix transforms.

The downlink channel is H = A^{1/2} G with G i.i.d. zero-mean complex
Gaussian of variance 1/N per entry and A a diagonal path-loss matrix whose
entries are drawn from a finite atom distribution. Spectral quantities of
the Gramian J = H^H H are described through the Stieltjes and R transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ConvergenceError, DomainError

UNIT_ATOMS = ((1.0, 1.0),)
_STIELTJES_TOL = 1e-13
_STIELTJES_MAX_ITER = 10_000


def _validate_atoms(atoms):
    atoms = [(float(a), float(p)) for a, p in atoms]
    if not atoms:
        raise ConfigurationError("pathloss_atoms must be nonempty")
    total = sum(p for _, p in atoms)
    if not abs(total - 1.0) <= 1e-12:  # a NaN probability fails too
        raise ConfigurationError(f"atom probabilities sum to {total}, not 1")
    for a, p in atoms:
        if not (0 <= a < np.inf and p >= 0):
            raise ConfigurationError(
                "atom gains must be finite and >= 0, probabilities >= 0")
    return tuple(atoms)


@dataclass(frozen=True)
class ChannelSpec:
    """Ensemble parameters for one channel draw.

    Args:
        n_tx: number of transmit antennas N.
        n_users: number of single-antenna users K.
        pathloss_atoms: finite distribution of path-loss gains, list of
            (gain, probability) pairs. Defaults to the single unit atom.
        rng_seed: seed for the sampling RNG.
    """

    n_tx: int
    n_users: int
    pathloss_atoms: tuple = field(default=UNIT_ATOMS)
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_tx <= 0 or self.n_users <= 0:
            raise ConfigurationError("n_tx and n_users must be positive")
        object.__setattr__(self, "pathloss_atoms",
                           _validate_atoms(self.pathloss_atoms))


def sample_channel(spec: ChannelSpec) -> np.ndarray:
    """Draw H = A^{1/2} G (shape K x N) for one coherence block.

    G has i.i.d. CN(0, 1/N) entries (variance 1/(2N) per real component)
    and A is diagonal with i.i.d. draws from the path-loss atoms.
    Deterministic given spec.rng_seed.
    """
    rng = np.random.default_rng(spec.rng_seed)
    n, k = spec.n_tx, spec.n_users
    scale = np.sqrt(1.0 / (2 * n))
    g = rng.standard_normal((k, n)) * scale + 1j * rng.standard_normal((k, n)) * scale
    gains = np.array([a for a, _ in spec.pathloss_atoms])
    probs = np.array([p for _, p in spec.pathloss_atoms])
    a_diag = rng.choice(gains, size=k, p=probs / probs.sum())
    return np.sqrt(a_diag)[:, None] * g


def _r_transform(load, atoms, omega, derivative=False):
    """r_transform, or with derivative its derivative, on validated atoms."""
    total = 0.0
    for a, p in atoms:
        if a > 0:
            denom = 1.0 - a * omega
            if denom == 0:
                raise DomainError(f"pole at atom gain {a}: 1 - a*omega = 0")
            total += p * a * a / denom**2 if derivative else p * a / denom
    return load * total


def r_transform(load, pathloss_atoms, omega):
    """R-transform of the limiting Gramian spectrum at a real argument.

    R(omega) = alpha * sum_i p_i a_i / (1 - a_i omega). For the unit atom
    this is alpha / (1 - omega). Arguments past a pole evaluate the analytic
    continuation, which the fixed-point equations use on the branch with
    chi < -1/a; only the poles themselves are rejected.
    """
    return _r_transform(load, _validate_atoms(pathloss_atoms), omega)


def r_transform_derivative(load, pathloss_atoms, omega):
    """d/d omega of r_transform: alpha * sum_i p_i a_i^2 / (1 - a_i omega)^2."""
    return _r_transform(load, _validate_atoms(pathloss_atoms), omega,
                        derivative=True)


def empirical_stieltjes(h, s: complex) -> complex:
    """Empirical Stieltjes transform (1/N) sum_n (lambda_n - s)^{-1} of
    J = H^H H, for the K x N channel matrix h."""
    if np.imag(s) == 0:
        raise DomainError("s must have nonzero imaginary part")
    lam = np.linalg.eigvalsh(h.conj().T @ h)
    return complex(np.mean(1.0 / (lam - s)))


def limiting_stieltjes(load, pathloss_atoms, s):
    """Limiting Stieltjes transform implied by the atom R-transform.

    Solves s = R(-g) - 1/g for g with Im(g) > 0 when Im(s) > 0, via the
    damped fixed point g = 1/(R(-g) - s). For the unit atom the solution
    is the Marchenko-Pastur transform with ratio alpha. Raises
    ConvergenceError if the step does not fall below _STIELTJES_TOL within
    _STIELTJES_MAX_ITER iterations.
    """
    if np.imag(s) == 0:
        raise DomainError("s must have nonzero imaginary part")
    atoms = _validate_atoms(pathloss_atoms)
    g = -1.0 / s
    for _ in range(_STIELTJES_MAX_ITER):
        g_new = 1.0 / (_r_transform(load, atoms, -g) - s)
        step = g_new - g
        g = g + 0.5 * step
        if abs(step) < _STIELTJES_TOL:
            return complex(g)
    raise ConvergenceError(
        f"limiting Stieltjes transform at s = {s} did not converge after "
        f"{_STIELTJES_MAX_ITER} iterations", {"step": abs(step)})
