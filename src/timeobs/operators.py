"""Dense operators in the energy eigenbasis.

Builds the Hermitian time-operator candidate with entries i*hbar/(E_j - E_k),
the diagonal Hamiltonian, exact and weak commutators, and the scans that probe
whether the operator's statistics track elapsed time.  `commutator_defects`
compares [T, H] with its closed form i*hbar*(I - J) tile by tile, without
building H, the commutator or the weak form as N x N matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MembershipError, ZeroProjectionError
from .spectral import (
    MEMBERSHIP_TOL,
    EnergySpectrum,
    QuantumState,
    coefficient_sum,
)
from .zeroset import _BLOCK_ENTRIES, TrigSignal, _phases, eval_f

HERMITICITY_TOL = 1e-13

_TILE_ROWS = 64  # rows per tile of the tiled N x N scans

_PROJECTION_FLOOR = 1e-12


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense N x N complex matrix in the energy eigenbasis."""

    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionError("operator entries must form a square matrix")
        if entries.shape[0] < 1:
            raise DimensionError("operator must be at least 1 x 1")
        if self.hermitian and hermiticity_defect(entries) > HERMITICITY_TOL:
            raise DimensionError(
                f"matrix tagged hermitian has defect above {HERMITICITY_TOL}"
            )
        frozen = np.array(entries, dtype=complex)
        frozen.setflags(write=False)
        object.__setattr__(self, "entries", frozen)

    @property
    def basis_size(self) -> int:
        return int(self.entries.shape[0])


def hermiticity_defect(entries: np.ndarray) -> float:
    """Largest entrywise deviation |A - A^dagger|.

    The deviation is symmetric: |a_jk - conj(a_kj)| equals |a_kj - conj(a_jk)|
    bit for bit. So only the upper triangle is scanned, in tiles of
    _TILE_ROWS rows: the tile at row r is a[r:r+tile, r:] against the
    conjugate transpose of a[r:, r:r+tile]. No N x N temporary is built, and
    np.max over the tiles keeps a NaN, as the dense difference would.
    """
    a = np.asarray(entries)
    tile = _TILE_ROWS
    return float(np.max([
        np.max(np.abs(a[r:r + tile, r:] - a[r:, r:r + tile].conj().T))
        for r in range(0, a.shape[0], tile)
    ]))


@dataclass(frozen=True)
class DeviationSeries:
    """Real-valued scan over a strictly increasing time grid."""

    taus: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if taus.ndim != 1 or taus.size == 0:
            raise DimensionError("time grid must be a nonempty vector")
        if values.shape != taus.shape:
            raise DimensionError("values and taus must have equal length")
        if taus.size > 1 and not np.all(np.diff(taus) > 0.0):
            raise DimensionError("time grid must be strictly increasing")
        for name, arr in (("taus", taus), ("values", values)):
            arr = np.array(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def build_time_operator(spectrum: EnergySpectrum) -> OperatorMatrix:
    """Hermitian matrix with entries i*hbar/(E_j - E_k) off the diagonal, 0 on it.

    Nondegeneracy of the spectrum (a type invariant) keeps every gap nonzero.
    """
    e = spectrum.levels
    gaps = e[:, None] - e[None, :]
    np.fill_diagonal(gaps, 1.0)  # placeholder; diagonal zeroed below
    entries = (1j * spectrum.hbar) / gaps
    np.fill_diagonal(entries, 0.0)
    return OperatorMatrix(entries, hermitian=True)


def build_hamiltonian(spectrum: EnergySpectrum) -> OperatorMatrix:
    """Diagonal matrix of the energy levels."""
    entries = np.zeros((spectrum.size, spectrum.size), dtype=complex)
    np.fill_diagonal(entries, spectrum.levels)
    return OperatorMatrix(entries, hermitian=True)


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """[A, B] = AB - BA.

    A diagonal operand scales rows and columns, so the commutator is then
    computed entrywise in O(N^2): [A, D]_jk = A_jk d_k - d_j A_jk. That is
    bit-identical to the dense products whenever one operand is real (the
    Hamiltonian is); a fused multiply-add in the dense product can otherwise
    move the last bit.
    """
    if a.basis_size != b.basis_size:
        raise DimensionError(
            f"commutator needs equal sizes, got {a.basis_size} and {b.basis_size}"
        )
    x, y = a.entries, b.entries
    if _is_diagonal(y):
        d = np.diagonal(y)
        return OperatorMatrix(x * d - d[:, None] * x)
    if _is_diagonal(x):
        d = np.diagonal(x)
        return OperatorMatrix(d[:, None] * y - y * d)
    return OperatorMatrix(x @ y - y @ x)


def _is_diagonal(m: np.ndarray) -> bool:
    return np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))


def weak_commutator(spectrum: EnergySpectrum) -> OperatorMatrix:
    """The sesquilinear form i*hbar*(I - J), J the all-ones matrix.

    At finite truncation this equals the exact commutator of the time operator
    with the Hamiltonian entrywise; its diagonal vanishes on every eigenstate.
    """
    n = spectrum.size
    entries = 1j * spectrum.hbar * (np.eye(n) - np.ones((n, n)))
    return OperatorMatrix(entries)


def commutator_defects(top: OperatorMatrix, spectrum: EnergySpectrum) -> tuple[float, float]:
    """(max |[T, H] - i*hbar*(I - J)|, max |diag [T, H]|) for T = `top`.

    One pass over tiles of _TILE_ROWS rows of T.  Each tile of [T, H] is
    `commutator`'s diagonal branch, x*d - d_rows*x with d the levels as
    complex numbers, and each tile of the weak form is `weak_commutator`'s
    1j*hbar*(I - J) restricted to those rows.  Every entry therefore has the
    same bits as in the dense matrices, and no N x N temporary is built.
    """
    if top.basis_size != spectrum.size:
        raise DimensionError(
            f"operator size {top.basis_size} does not match spectrum length {spectrum.size}"
        )
    x, n = top.entries, spectrum.size
    d = spectrum.levels.astype(complex)
    weak_max, diag_max = [], []
    for r in range(0, n, _TILE_ROWS):
        rows = x[r:r + _TILE_ROWS]
        c = rows * d - d[r:r + _TILE_ROWS, None] * rows
        w = 1j * spectrum.hbar * (np.eye(rows.shape[0], n, r) - 1.0)
        weak_max.append(np.max(np.abs(c - w)))
        diag_max.append(np.max(np.abs(np.diagonal(c, offset=r))))
    return float(np.max(weak_max)), float(np.max(diag_max))


def expectation(op: OperatorMatrix, state: QuantumState) -> complex:
    """Quadratic form <psi|A|psi>; real up to roundoff for Hermitian A."""
    if op.basis_size != state.size:
        raise DimensionError(
            f"operator size {op.basis_size} does not match state length {state.size}"
        )
    c = state.coeffs
    return complex(c.conj() @ op.entries @ c)


def spectral_norm(op: OperatorMatrix) -> float:
    """2-norm of a Hermitian operator.

    eigvalsh reads one triangle only, so a non-Hermitian operator is rejected.
    An operator tagged `hermitian` passed that check when it was built, and
    its entries are read-only, so it is not scanned again.

    A purely imaginary Hermitian operator, such as the time operator, is i*K
    with K real antisymmetric, so its norm is sqrt(lambda_max(K^T K)) in real
    arithmetic. Any other operator is max|eigvalsh(op)|.
    """
    if not op.hermitian and hermiticity_defect(op.entries) > HERMITICITY_TOL:
        raise DimensionError(
            f"spectral_norm needs a Hermitian operator, defect above {HERMITICITY_TOL}"
        )
    if not np.any(op.entries.real):
        k = op.entries.imag
        return float(np.sqrt(np.linalg.eigvalsh(k.T @ k)[-1]))
    return float(np.max(np.abs(np.linalg.eigvalsh(op.entries))))


def covariance_deviation(
    spectrum: EnergySpectrum, state: QuantumState, taus
) -> DeviationSeries:
    """Re<T>_tau - Re<T>_0 - tau over the grid.

    The evolved states are built in row blocks of _BLOCK_ENTRIES phase entries,
    each applied to T by one product, so memory does not grow with the grid.
    The expectation is bounded by the spectral norm of the operator while tau
    is unbounded, so the deviation grows without bound: the statistics cannot
    track elapsed time.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise DimensionError("time grid must be a nonempty vector")
    if state.size != spectrum.size:
        raise DimensionError("state length does not match spectrum length")
    t_op = build_time_operator(spectrum)
    freqs = spectrum.frequencies()
    expect = np.empty(taus.size)
    rows = max(1, _BLOCK_ENTRIES // spectrum.size)
    for start in range(0, taus.size, rows):
        states = _phases(taus[start:start + rows], freqs, state.coeffs)
        applied = states @ t_op.entries.T
        np.conj(states, out=states)
        expect[start:start + rows] = np.einsum("kj,kj->k", states, applied).real
        del states, applied  # the next block's phases are built without them
    base = float(np.real(state.coeffs.conj() @ t_op.entries @ state.coeffs))
    return DeviationSeries(taus, expect - base - taus)


def membership_decay(spectrum: EnergySpectrum, state: QuantumState, taus) -> DeviationSeries:
    """|sum_j c_j e^{-i E_j tau / hbar}| over the grid, for a zero-sum state.

    The state must pass the membership test |sum_j c_j| <= MEMBERSHIP_TOL.
    Values above ~10x that tolerance show the subspace is not invariant under
    evolution: membership at tau=0 is lost at later times.
    """
    s0 = abs(coefficient_sum(state))
    if s0 > MEMBERSHIP_TOL:
        raise MembershipError(
            f"initial state has |coefficient sum| {s0:.3e} above tolerance {MEMBERSHIP_TOL}"
        )
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise DimensionError("time grid must be a nonempty vector")
    return DeviationSeries(taus, np.abs(eval_f(TrigSignal.from_state(spectrum, state), taus)))


def project_to_zero_sum(state: QuantumState) -> QuantumState:
    """Subtract the coefficient mean and renormalize.

    The uniform vector is the orthogonal complement of the zero-sum subspace,
    so inputs proportional to it leave nothing to return.
    """
    c = state.coeffs
    centered = c - c.mean()
    nrm = float(np.linalg.norm(centered))
    if nrm <= _PROJECTION_FLOOR:
        raise ZeroProjectionError(
            "state is proportional to the uniform vector; its zero-sum projection vanishes"
        )
    return QuantumState(centered / nrm)
