"""Explicit zero-sum states converging to energy eigenstates.

The sequence with coefficients (h, -1/1, -1/2, ..., -1/n) / sqrt(sigma + h^2),
h and sigma the partial harmonic and quadratic-harmonic sums, lies in the
zero-sum subspace at every step yet converges to the ground eigenstate as n
grows: the subspace is dense even though every finite truncation of it misses
one dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .spectral import QuantumState, coefficient_sum

STEP_TOL = 1e-13


def harmonic_partial_sums(n: int) -> tuple[float, float]:
    """h(n) = sum_{j<=n} 1/j and sigma(n) = sum_{j<=n} 1/j^2, exactly rounded.

    Uses exact (compensated) summation so rate checks at n ~ 1e6 are not
    dominated by roundoff.
    """
    if int(n) < 1:
        raise DimensionError("n must be at least 1")
    inv = 1.0 / np.arange(1, int(n) + 1, dtype=float)
    h = math.fsum(inv.tolist())
    sigma = math.fsum((inv * inv).tolist())
    return h, sigma


def leading_coefficient(n: int) -> float:
    """c_0(n) = h / sqrt(sigma + h^2) without building the state vector."""
    h, sigma = harmonic_partial_sums(n)
    return h / math.sqrt(sigma + h * h)


@dataclass(frozen=True)
class CauchyStep:
    """Index n and its zero-sum unit state of length n+1; see harmonic_partial_sums(n)."""

    n: int
    state: QuantumState

    def __post_init__(self):
        if int(self.n) < 1:
            raise DimensionError("sequence index n must be at least 1")
        if self.state.size != self.n + 1:
            raise DimensionError("state must have length n + 1")
        if abs(coefficient_sum(self.state)) > STEP_TOL:
            raise DimensionError("step state left the zero-sum subspace")
        if abs(float(np.linalg.norm(self.state.coeffs)) - 1.0) > STEP_TOL:
            raise DimensionError("step state is not unit norm")


def cauchy_state(n: int, target: int = 0) -> CauchyStep:
    """The n-th explicit zero-sum state aimed at the given eigenstate.

    target 0 uses the displayed coefficients directly; target k swaps entries
    0 and k, the minimal relabeling that keeps the zero sum and unit norm.
    """
    n = int(n)
    if n < 1:
        raise DimensionError("n must be at least 1")
    if not 0 <= int(target) <= n:
        raise IndexError(f"target {target} outside the valid range 0..{n}")
    h, sigma = harmonic_partial_sums(n)
    d = math.sqrt(sigma + h * h)
    coeffs = np.empty(n + 1, dtype=float)
    coeffs[0] = h / d
    coeffs[1:] = -1.0 / (np.arange(1, n + 1, dtype=float) * d)
    t = int(target)
    if t:
        coeffs[[0, t]] = coeffs[[t, 0]]
    return CauchyStep(n=n, state=QuantumState(coeffs))


def distance_to_eigenstate(step: CauchyStep, target: int = 0) -> float:
    """Hilbert distance ||psi_n - e_target|| = sqrt(2 - 2 Re c_target)."""
    c = step.state.coeffs
    if not 0 <= int(target) < c.size:
        raise IndexError(f"target {target} outside the valid range 0..{c.size - 1}")
    return math.sqrt(max(0.0, 2.0 - 2.0 * float(c[int(target)].real)))


def state_distance(a: QuantumState, b: QuantumState) -> float:
    """||a - b|| after zero-padding the shorter vector; energies play no role."""
    n = max(a.size, b.size)
    va = np.zeros(n, dtype=complex)
    vb = np.zeros(n, dtype=complex)
    va[: a.size] = a.coeffs
    vb[: b.size] = b.coeffs
    return float(np.linalg.norm(va - vb))


def uniform_vector(n: int) -> np.ndarray:
    """The unit vector with equal entries 1/sqrt(n)."""
    if int(n) < 1:
        raise DimensionError("n must be at least 1")
    return np.full(int(n), 1.0 / math.sqrt(int(n)))


def zero_sum_basis(n: int) -> np.ndarray:
    """Orthonormal rows spanning the zero-sum subspace (Helmert construction)."""
    n = int(n)
    if n < 2:
        raise DimensionError("n must be at least 2")
    basis = np.zeros((n - 1, n))
    for k in range(1, n):
        basis[k - 1, :k] = 1.0
        basis[k - 1, k] = -float(k)
        basis[k - 1] /= math.sqrt(k * (k + 1.0))
    return basis


def uniform_vector_orthogonality(n: int) -> float:
    """max |<uniform, b>| over a zero-sum basis; contract: <= 1e-13."""
    u = uniform_vector(n)
    return float(np.max(np.abs(zero_sum_basis(n) @ u)))


def zero_sum_projector(n: int) -> np.ndarray:
    """I - |u><u| with u the uniform vector."""
    u = uniform_vector(n)
    return np.eye(int(n)) - np.outer(u, u)


def zero_sum_projector_rank(n: int) -> int:
    """Count of eigenvalues of the zero-sum projector within 1e-10 of 1; equals n - 1."""
    evals = np.linalg.eigvalsh(zero_sum_projector(n))
    return int(np.sum(np.abs(evals - 1.0) <= 1e-10))
