"""Canonical time probability density for discrete spectra.

The density p(t) = |sum_j c_j e^{+i E_j t / hbar}|^2 / gamma shifts rigidly
under phase evolution: p(t | evolved by tau) = p(t - tau | initial).  That
covariance law is an algebraic identity here and is verified as one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PhysicsError
from .spectral import EnergySpectrum, QuantumState, evolve
from .zeroset import TrigSignal, eval_f


def normalized_gamma(amplitudes) -> float:
    """The gamma for which the long-time (Bohr) mean of the density is 1."""
    return float(np.sum(np.abs(np.asarray(amplitudes, dtype=complex)) ** 2))


@dataclass(frozen=True)
class CanonicalDensity:
    """Amplitudes and normalization for the canonical time density.

    gamma defaults to sum |c_j|^2 (= 1 for unit states), the unique choice
    making a unit-norm state time-average to unit density.  p is a density
    with respect to that long-time mean, not a probability over any finite
    interval.
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
        amps = np.array(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "gamma", float(self.gamma))

    @classmethod
    def from_state(
        cls, spectrum: EnergySpectrum, state: QuantumState, gamma: float | None = None
    ) -> "CanonicalDensity":
        if state.size != spectrum.size:
            raise DimensionError("state length does not match spectrum length")
        if gamma is None:
            gamma = normalized_gamma(state.coeffs)
        return cls(spectrum, state.coeffs, gamma)


def density_at(density: CanonicalDensity, t):
    """Evaluate p at a scalar or array of times; nonnegative by construction.

    |sum_j c_j e^{+i w_j t}| = |sum_j conj(c_j) e^{-i w_j t}|, so eval_f and its
    bounded-memory blocks do the summation.
    """
    sig = TrigSignal(density.spectrum.frequencies(), np.conj(density.amplitudes))
    vals = np.abs(eval_f(sig, t)) ** 2 / density.gamma
    return float(vals) if np.ndim(t) == 0 else vals


def verify_covariance(
    spectrum: EnergySpectrum, state: QuantumState, tau: float, t_grid
) -> float:
    """max over the grid of |p(t | evolved) - p(t - tau | initial)|.

    The shift law is exact for this density, so the result is roundoff-level
    (contract: <= 1e-11 on order-10 grids).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise DimensionError("time grid must be a nonempty vector")
    base = CanonicalDensity.from_state(spectrum, state)
    shifted = CanonicalDensity.from_state(spectrum, evolve(state, spectrum, tau))
    lhs = density_at(shifted, t_grid)
    rhs = density_at(base, t_grid - float(tau))
    return float(np.max(np.abs(lhs - rhs)))
