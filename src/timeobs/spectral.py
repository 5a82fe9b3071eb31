"""Spectra, states, and phase evolution in the energy eigenbasis.

Everything downstream consumes these types: a spectrum is a finite, strictly
increasing list of nondegenerate levels (a truncation of the physical system)
with a positive hbar, and a state is a unit-norm complex coefficient vector
over that eigenbasis.  Every level, hbar and coefficient is a finite number,
and so are the span E_max - E_min, which bounds every level difference, and
hbar*(1/g) for the smallest gap g, which bounds every time-operator entry.
Membership of the zero-sum subspace is the fixed test
|sum_j c_j| <= MEMBERSHIP_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegeneracyError,
    DimensionError,
    NormalizationError,
    PhysicsError,
)

NORM_TOL = 1e-12
MEMBERSHIP_TOL = 1e-10

SPECTRUM_KINDS = ("harmonic", "box", "custom")


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EnergySpectrum:
    """Strictly increasing nondegenerate energy levels with an hbar scale."""

    levels: np.ndarray
    hbar: float = 1.0
    label: str = "custom"

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        if levels.ndim != 1 or levels.size < 2:
            raise DimensionError("a spectrum needs at least two levels")
        if not np.all(np.isfinite(levels)):
            raise PhysicsError("energy levels must be finite")
        with np.errstate(over="ignore"):
            gaps = np.diff(levels)
            span = levels[-1] - levels[0]
        if not np.all(gaps > 0.0):
            raise DegeneracyError("energy levels must be strictly increasing")
        if not np.isfinite(span):
            raise PhysicsError("level span must be finite")
        if not 0.0 < self.hbar < math.inf:
            raise PhysicsError("hbar must be positive and finite")
        with np.errstate(over="ignore"):
            # The time operator's largest entry, as its complex division forms it.
            largest = self.hbar * (1.0 / np.min(gaps))
        if not np.isfinite(largest):
            raise PhysicsError("hbar * (1 / smallest level gap) must be finite")
        object.__setattr__(self, "levels", _frozen(levels, float))
        object.__setattr__(self, "hbar", float(self.hbar))

    @property
    def size(self) -> int:
        return int(self.levels.size)

    def frequencies(self) -> np.ndarray:
        """Angular frequencies E_j / hbar."""
        return self.levels / self.hbar


@dataclass(frozen=True)
class QuantumState:
    """Unit-norm complex coefficient vector over an energy eigenbasis."""

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise DimensionError("state coefficients must form a nonempty vector")
        if not np.all(np.isfinite(coeffs)):
            raise NormalizationError("state coefficients must be finite")
        norm_sq = float(np.sum(np.abs(coeffs) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise NormalizationError(
                f"squared norm {norm_sq!r} deviates from 1 by more than {NORM_TOL}"
            )
        object.__setattr__(self, "coeffs", _frozen(coeffs, complex))

    @classmethod
    def normalized(cls, raw: Sequence[complex] | np.ndarray) -> "QuantumState":
        """Normalize an arbitrary nonzero vector into a state."""
        vec = np.asarray(raw, dtype=complex)
        nrm = float(np.linalg.norm(vec))
        if nrm == 0.0:
            raise NormalizationError("cannot normalize the zero vector")
        return cls(vec / nrm)

    @property
    def size(self) -> int:
        return int(self.coeffs.size)


def build_spectrum(
    kind: str,
    n_levels: int,
    *,
    omega: float = 1.0,
    scale: float = 1.0,
    levels: Sequence[float] | None = None,
    hbar: float = 1.0,
) -> EnergySpectrum:
    """Standard spectrum families.

    harmonic: E_j = hbar*omega*(j + 1/2); box: E_j = scale*(j + 1)^2;
    custom: the given levels, passed through unchanged.
    """
    if kind not in SPECTRUM_KINDS:
        raise ValueError(f"unknown spectrum kind {kind!r}; expected one of {SPECTRUM_KINDS}")
    if int(n_levels) < 2:
        raise DimensionError("n_levels must be at least 2")
    n = int(n_levels)
    if kind == "harmonic":
        if not omega > 0.0:
            raise PhysicsError("harmonic spectrum requires omega > 0")
        vals = hbar * omega * (np.arange(n) + 0.5)
    elif kind == "box":
        if not scale > 0.0:
            raise PhysicsError("box spectrum requires scale > 0")
        vals = scale * (np.arange(n) + 1.0) ** 2
    else:
        if levels is None:
            raise ValueError("custom spectrum requires explicit levels")
        vals = np.asarray(levels, dtype=float)
        if vals.ndim != 1 or vals.size != n:
            raise DimensionError(f"custom levels must be a flat list of length {n}")
    return EnergySpectrum(vals, hbar=hbar, label=kind)


def evolve(state: QuantumState, spectrum: EnergySpectrum, tau: float) -> QuantumState:
    """Phase evolution c_j -> c_j * exp(-i E_j tau / hbar); norm-preserving.

    A phase angle E_j tau / hbar that is not finite raises PhysicsError.
    """
    if state.size != spectrum.size:
        raise DimensionError(
            f"state length {state.size} does not match spectrum length {spectrum.size}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        angles = -1j * spectrum.levels * (float(tau) / spectrum.hbar)
    if not np.all(np.isfinite(angles)):
        raise PhysicsError("phase angles E * tau / hbar must be finite")
    return QuantumState(state.coeffs * np.exp(angles))


def coefficient_sum(state: QuantumState) -> complex:
    """Exactly rounded sum of the coefficients.

    |coefficient_sum| <= MEMBERSHIP_TOL defines membership in the zero-sum
    subspace on which the commutation relation holds.
    """
    c = state.coeffs
    return complex(math.fsum(c.real.tolist()), math.fsum(c.imag.tolist()))


def in_zero_sum_subspace(state: QuantumState) -> bool:
    """Tolerance test |sum_j c_j| <= MEMBERSHIP_TOL; exact zero is unattainable in floats."""
    return abs(coefficient_sum(state)) <= MEMBERSHIP_TOL
