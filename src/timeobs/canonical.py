"""Canonical time probability density for discrete spectra.

The density p(t) = |sum_j c_j e^{+i E_j t / hbar}|^2 / gamma shifts rigidly
under phase evolution: p(t | evolved by tau) = p(t - tau | initial).  That
covariance law is an algebraic identity here and is verified as one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PhysicsError
from .spectral import EnergySpectrum, QuantumState, _frozen, evolve
from .zeroset import TrigSignal, _grid_values, _require_finite_phases


def normalized_gamma(amplitudes) -> float:
    """The gamma for which the long-time (Bohr) mean of the density is 1."""
    return float(np.sum(np.abs(np.asarray(amplitudes, dtype=complex)) ** 2))


@dataclass(frozen=True)
class CanonicalDensity:
    """Amplitudes and normalization for the canonical time density.

    gamma defaults to 1.0; from_state sets it to normalized_gamma, sum
    |c_j|^2 (= 1 for unit states), the unique choice making the density
    time-average to 1.  p is a density with respect to that long-time mean,
    not a probability over any finite interval.
    """

    spectrum: EnergySpectrum
    amplitudes: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size != self.spectrum.size:
            raise DimensionError("amplitudes must match the spectrum length")
        if not self.gamma > 0.0:
            raise PhysicsError("gamma must be positive")
        object.__setattr__(self, "amplitudes", _frozen(amps, complex))
        object.__setattr__(self, "gamma", float(self.gamma))

    @classmethod
    def from_state(cls, spectrum: EnergySpectrum, state: QuantumState) -> "CanonicalDensity":
        """The density of a state, with gamma = normalized_gamma(state.coeffs)."""
        if state.size != spectrum.size:
            raise DimensionError("state length does not match spectrum length")
        return cls(spectrum, state.coeffs, normalized_gamma(state.coeffs))


def density_at(density: CanonicalDensity, t):
    """Evaluate p at a scalar or array of times; nonnegative by construction.

    |sum_j c_j e^{+i w_j t}| = |sum_j conj(c_j) e^{-i w_j t}|, so the zeroset
    kernels do the summation: a uniform grid (np.linspace, shifted or not) as
    one phase-table product with about 2 sqrt(n) N exponentials, and a scalar
    or any other array by eval_f.  The two sums agree to _scan_rounding over
    max|t|.  A time whose phase t * omega is not finite raises PhysicsError.
    """
    sig = TrigSignal(density.spectrum.frequencies(), np.conj(density.amplitudes))
    t_arr = np.asarray(t, dtype=float)
    _require_finite_phases(t_arr, sig.freqs)
    vals = np.abs(_grid_values(sig, t_arr)) ** 2 / density.gamma
    return float(vals) if np.ndim(t) == 0 else vals


def verify_covariance(
    spectrum: EnergySpectrum, state: QuantumState, tau: float, t_grid
) -> float:
    """max over the grid of |p(t | evolved) - p(t - tau | initial)|.

    The shift law is exact for this density, so the result is roundoff, and
    roundoff grows with the largest phase max|t| max omega.  Both sides go
    through density_at, so a uniform grid and its shift by tau are each one
    phase-table product.  On the claims grid (512 points on [0, 10], tau = 5)
    it is <= 1e-11 for harmonic N <= 256 and box N <= 64 (at most 4.4e-12,
    box N = 64, seeds 1, 7 and 29), but box N = 128 reads 1.3e-11 to 2.4e-11
    and box N = 256 5.8e-11 to 1.1e-10: their phases reach 1.6e5 and 6.6e5
    rad.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise DimensionError("time grid must be a nonempty vector")
    base = CanonicalDensity.from_state(spectrum, state)
    shifted = CanonicalDensity.from_state(spectrum, evolve(state, spectrum, tau))
    lhs = density_at(shifted, t_grid)
    rhs = density_at(base, t_grid - float(tau))
    return float(np.max(np.abs(lhs - rhs)))
