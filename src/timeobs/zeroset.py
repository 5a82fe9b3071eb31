"""Almost-periodic signals built from state coefficients.

f(t) = sum_j c_j e^{-i omega_j t} vanishes exactly at the times when the
evolved state re-enters the zero-sum subspace.  This module evaluates f,
estimates the Lebesgue measure of sublevel sets {t : |f(t)| < eps} over a
window, computes mean |log|f|| integrals (finite for any nontrivial signal,
which is what forces the zero set to have measure zero), and constructs
commensurate (periodic) approximants with a guaranteed sup-norm bound.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ApproximationError,
    DimensionError,
    PhysicsError,
    ZeroSignalError,
)
from .spectral import EnergySpectrum, QuantumState

BISECTION_TOL = 1e-12
PANEL_TOL = 1e-9
NYQUIST_PER_PERIOD = 20
DENOMINATOR_CAP = 10**9

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_FLOOR = 1e-300  # keeps log finite if a sample lands exactly on a zero
_BLOCK_ENTRIES = 2**20  # phase entries per eval_f block: 16 MiB of complex128


@dataclass(frozen=True)
class TrigSignal:
    """Finite trigonometric sum: strictly increasing frequencies, complex amplitudes."""

    freqs: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        amps = np.asarray(self.amps, dtype=complex)
        if freqs.ndim != 1 or freqs.size == 0:
            raise DimensionError("signal needs at least one frequency")
        if amps.shape != freqs.shape:
            raise DimensionError("freqs and amps must have equal length")
        if freqs.size > 1 and not np.all(np.diff(freqs) > 0.0):
            raise DimensionError("frequencies must be strictly increasing")
        for name, arr in (("freqs", freqs), ("amps", amps)):
            arr = np.array(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_state(cls, spectrum: EnergySpectrum, state: QuantumState) -> "TrigSignal":
        if state.size != spectrum.size:
            raise DimensionError("state length does not match spectrum length")
        return cls(spectrum.frequencies(), state.coeffs)

    @property
    def count(self) -> int:
        return int(self.freqs.size)

    def weight(self) -> float:
        """sum |c_j|, a tight upper bound for max |f|."""
        return float(np.sum(np.abs(self.amps)))

    def lipschitz(self) -> float:
        """sum |c_j omega_j|, a bound for |d|f|/dt|."""
        return float(np.sum(np.abs(self.amps) * np.abs(self.freqs)))


def eval_f(sig: TrigSignal, t):
    """Evaluate the sum at a scalar or array of times, in bounded-memory blocks."""
    t_arr = np.asarray(t, dtype=float)
    flat = t_arr.ravel()
    vals = np.empty(flat.size, dtype=complex)
    rows = max(1, _BLOCK_ENTRIES // sig.count)
    for start in range(0, flat.size, rows):
        phases = np.exp(-1j * np.outer(flat[start:start + rows], sig.freqs))
        vals[start:start + rows] = phases @ sig.amps
    if t_arr.ndim == 0:
        return complex(vals[0])
    return vals.reshape(t_arr.shape)


@dataclass(frozen=True)
class MeasureReport:
    """Sublevel-measure estimate lambda{t in [0, window] : |f(t)| < epsilon}."""

    epsilon: float
    window: float
    measure: float
    refinement_depth: int
    error_bound: float

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise PhysicsError("epsilon must be positive")
        if not self.window > 0.0:
            raise PhysicsError("window must be positive")
        if not 0.0 <= self.measure <= self.window * (1.0 + 1e-12):
            raise PhysicsError("measure must lie in [0, window]")
        if self.error_bound < 0.0:
            raise PhysicsError("error bound must be nonnegative")
        object.__setattr__(self, "measure", min(float(self.measure), float(self.window)))


def _cell_count(sig: TrigSignal, window: float, base_grid: int) -> int:
    """Grid cells satisfying the sampling floor of 20 points per shortest period."""
    om = float(np.max(np.abs(sig.freqs)))
    nyquist = 0
    if om > 0.0:
        nyquist = int(math.ceil(NYQUIST_PER_PERIOD * window * om / (2.0 * math.pi)))
    return max(int(base_grid), nyquist, 8)


def _scan(sig: TrigSignal, window: float, base_grid: int):
    """Grid over [0, window], |f| on it, and the Lipschitz screen sum|c_j omega_j| * h."""
    n = _cell_count(sig, window, base_grid)
    ts = np.linspace(0.0, float(window), n + 1)
    return ts, np.abs(eval_f(sig, ts)), sig.lipschitz() * (float(window) / n)


def _local_minima(v: np.ndarray, floor: float, ceiling: float) -> np.ndarray:
    """Interior indices i with v[i] <= both neighbours and floor < v[i] < ceiling."""
    mid = v[1:-1]
    keep = (mid <= v[:-2]) & (mid <= v[2:]) & (mid > floor) & (mid < ceiling)
    return np.nonzero(keep)[0] + 1


def _golden(sig: TrigSignal, a, b, sign, shift: float):
    """Golden-section minima of sign * (|f| - shift) on all brackets [a, b] in lockstep.

    Each bracket runs the scalar recurrence to BISECTION_TOL (at most 200
    steps); the open ones share one eval_f call per step.  Returns the
    minimizers and the signed minimum values.
    """
    if a.size == 0:
        return a, a
    a, b = a.copy(), b.copy()
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    both = np.tile(sign, 2) * (np.abs(eval_f(sig, np.concatenate([c, d]))) - shift)
    fc, fd = np.split(both, 2)
    for _ in range(200):
        live = np.nonzero(b - a > BISECTION_TOL)[0]
        if live.size == 0:
            break
        keep = fc[live] <= fd[live]  # the minimum stays in [a, d]
        lo, hi = np.where(keep, a[live], c[live]), np.where(keep, d[live], b[live])
        probe = np.where(keep, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
        f_probe = sign[live] * (np.abs(eval_f(sig, probe)) - shift)
        c[live], d[live], fc[live], fd[live] = (
            np.where(keep, probe, d[live]),
            np.where(keep, c[live], probe),
            np.where(keep, f_probe, fd[live]),
            np.where(keep, fc[live], f_probe),
        )
        a[live], b[live] = lo, hi
    take_c = fc <= fd
    return np.where(take_c, c, d), np.where(take_c, fc, fd)


def _bisect(sig: TrigSignal, lo, hi, inside_lo, shift: float) -> tuple[np.ndarray, int]:
    """Crossings of |f| = shift on all brackets [lo, hi] in lockstep, to BISECTION_TOL.

    inside_lo flags brackets whose left end lies in {|f| < shift}; the open ones
    share one eval_f call per step, for at most 80 steps.  Also returns the step count.
    """
    lo, hi = lo.copy(), hi.copy()
    depth = 0
    while depth < 80:
        live = np.nonzero(hi - lo > BISECTION_TOL)[0]
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        to_lo = (np.abs(eval_f(sig, mid)) - shift < 0.0) == inside_lo[live]
        lo[live], hi[live] = np.where(to_lo, mid, lo[live]), np.where(to_lo, hi[live], mid)
        depth += 1
    return 0.5 * (lo + hi), depth


def sublevel_measure(
    sig: TrigSignal, epsilon: float, window: float, base_grid: int = 4096
) -> MeasureReport:
    """Measure of {t in [0, window] : |f(t)| < epsilon}.

    Uniform sampling detects sign changes of |f| - epsilon, each refined by
    bisection to 1e-12 in t; grid-scale local extrema that could hide a dip
    (or rise) are promoted to golden-section refinement first.  The error
    bound is the cell width times the count of cells that passed the
    Lipschitz screen but produced no refined feature.
    """
    if not epsilon > 0.0:
        raise PhysicsError("epsilon must be positive")
    if not window > 0.0:
        raise PhysicsError("window must be positive")
    if int(base_grid) < 1000:
        raise DimensionError("base_grid must be at least 1000")
    w = sig.weight()
    if epsilon >= w:
        warnings.warn(
            "threshold at or above max|f|; the whole window qualifies", stacklevel=2
        )
        return MeasureReport(epsilon, window, window, 0, 0.0)

    ts, absf, margin = _scan(sig, window, base_grid)
    n = ts.size - 1
    gvals = absf - epsilon
    below = gvals < 0.0
    cross = np.nonzero(below[:-1] != below[1:])[0]

    dips, rises = _local_minima(gvals, 0.0, margin), _local_minima(-gvals, 0.0, margin)
    ext = np.concatenate([dips, rises])
    sign = np.concatenate([np.ones(dips.size), -np.ones(rises.size)])
    t_ext, v_ext = _golden(sig, ts[ext - 1], ts[ext + 1], sign, epsilon)
    hit = v_ext < 0.0
    ext, t_ext, g_ext = ext[hit], t_ext[hit], (sign * v_ext)[hit]

    # The right half of a split extremum starts at t_ext: inside for a dip.
    crossings, depth = _bisect(
        sig,
        np.concatenate([ts[cross], ts[ext - 1], t_ext]),
        np.concatenate([ts[cross + 1], t_ext, ts[ext + 1]]),
        np.concatenate([below[cross], below[ext - 1], g_ext < 0.0]),
        epsilon,
    )
    refined = np.zeros(n, dtype=bool)
    refined[cross] = refined[ext - 1] = refined[ext] = True

    points = [0.0]
    for p in np.sort(crossings).tolist():
        if p - points[-1] > BISECTION_TOL and p < window:
            points.append(p)
    points.append(float(window))
    edges = np.array(points)
    inside = np.abs(eval_f(sig, 0.5 * (edges[:-1] + edges[1:]))) - epsilon < 0.0
    measure = min(float(np.sum(np.diff(edges)[inside])), float(window))

    h = float(window) / n
    same_sign = below[:-1] == below[1:]
    small = (np.abs(gvals[:-1]) + np.abs(gvals[1:])) < margin
    suspicious = int(np.sum(same_sign & small & ~refined))
    error_bound = h * suspicious + BISECTION_TOL * crossings.size
    return MeasureReport(epsilon, float(window), measure, depth, error_bound)


def find_zeros(
    sig: TrigSignal,
    window: float,
    base_grid: int = 4096,
    zero_tol: float | None = None,
) -> list[float]:
    """Times in [0, window] where |f| vanishes, by refining grid-scale minima."""
    if not window > 0.0:
        raise PhysicsError("window must be positive")
    w = sig.weight()
    if w == 0.0:
        raise ZeroSignalError("signal is identically zero")
    if zero_tol is None:
        zero_tol = 1e-10 * w

    ts, absf, margin = _scan(sig, window, base_grid)
    # Padding with +inf lets the window ends count as one-sided minima.
    idx = _local_minima(np.pad(absf, 1, constant_values=np.inf), -np.inf, margin) - 1
    lo, hi = ts[np.maximum(idx - 1, 0)], ts[np.minimum(idx + 1, ts.size - 1)]
    t_min, f_min = _golden(sig, lo, hi, np.ones(idx.size), 0.0)
    zeros = np.sort(np.clip(t_min[f_min <= zero_tol], 0.0, float(window))).tolist()
    merge_tol = max(10.0 * BISECTION_TOL, 1e-12 * float(window))
    merged: list[float] = []
    for z in zeros:
        if not merged or z - merged[-1] > merge_tol:
            merged.append(z)
    return merged


def _adaptive_midpoint(phi, a: float, b: float, tol: float) -> float:
    """Composite midpoint with doubling until successive estimates agree to tol."""
    width = b - a
    if width <= 0.0:
        return 0.0
    m = 1
    prev = math.inf
    val = 0.0
    while m <= 2**14:
        pts = a + (np.arange(m) + 0.5) * (width / m)
        val = float(np.sum(phi(pts))) * (width / m)
        if abs(val - prev) <= tol:
            return val
        prev = val
        m *= 2
    return val


def _dyadic_ladder(phi, start: float, center: float, tol: float) -> float:
    """Integrate phi from start toward the singular point at center.

    Halves the remaining gap each step; for an integrable log singularity the
    piece contributions decay geometrically, and the ladder stops once a piece
    falls below tol (the neglected remainder is of the same order).
    """
    total = 0.0
    outer = start
    while True:
        gap = abs(center - outer)
        if gap <= 1e-13:
            break
        inner = outer + 0.5 * (center - outer)
        piece = _adaptive_midpoint(phi, min(outer, inner), max(outer, inner), 0.25 * tol)
        total += piece
        if abs(piece) < tol:
            break
        outer = inner
    return total


def paley_wiener_integral(
    sig: TrigSignal, window: float, panels: int = 256, absolute: bool = True
) -> float:
    """Window-averaged integral of |log|f|| (log|f| when absolute=False).

    Zeros of f are isolated first; each is wrapped in a pocket integrated by
    shrinking dyadic subintervals, while zero-free stretches use per-panel
    adaptive midpoint quadrature.  Finiteness of the absolute version is the
    numerical signature that membership times form a measure-zero set.
    """
    if not window > 0.0:
        raise PhysicsError("window must be positive")
    if int(panels) < 100:
        raise DimensionError("panels must be at least 100")
    if sig.weight() == 0.0:
        raise ZeroSignalError("signal is identically zero")

    if absolute:
        def phi(pts):
            av = np.maximum(np.abs(eval_f(sig, pts)), _LOG_FLOOR)
            return np.abs(np.log(av))
    else:
        def phi(pts):
            av = np.maximum(np.abs(eval_f(sig, pts)), _LOG_FLOOR)
            return np.log(av)

    zeros = find_zeros(sig, window, base_grid=max(1000, 4 * int(panels)))
    h = float(window) / int(panels)

    pockets: list[tuple[float, float, float]] = []
    for k, z in enumerate(zeros):
        r = h / 2.0
        if k > 0:
            r = min(r, 0.5 * (z - zeros[k - 1]))
        if k + 1 < len(zeros):
            r = min(r, 0.5 * (zeros[k + 1] - z))
        pockets.append((max(0.0, z - r), min(float(window), z + r), z))

    total = 0.0
    cursor = 0.0
    for a, b, z in pockets:
        if a > cursor:
            total += _integrate_smooth(phi, cursor, a, h)
        total += _dyadic_ladder(phi, a, z, PANEL_TOL)
        total += _dyadic_ladder(phi, b, z, PANEL_TOL)
        cursor = b
    if cursor < window:
        total += _integrate_smooth(phi, cursor, float(window), h)
    return total / float(window)


def _integrate_smooth(phi, a: float, b: float, max_width: float) -> float:
    if b - a <= 0.0:
        return 0.0
    k = max(1, int(math.ceil((b - a) / max_width)))
    edges = np.linspace(a, b, k + 1)
    return sum(
        _adaptive_midpoint(phi, float(lo), float(hi), PANEL_TOL)
        for lo, hi in zip(edges[:-1], edges[1:])
    )


def bohr_mean(g, window: float, tol: float = 1e-10, start: int = 1024, cap: int = 2**21) -> float:
    """Window average of a vectorized function g over [0, window].

    Midpoint sampling with doubling until stable; exact (up to quadrature
    tolerance) over whole periods of commensurate frequencies.
    """
    if not window > 0.0:
        raise PhysicsError("window must be positive")
    n = int(start)
    prev = None
    while True:
        ts = (np.arange(n) + 0.5) * (float(window) / n)
        val = float(np.mean(np.asarray(g(ts), dtype=float)))
        if prev is not None and abs(val - prev) <= tol * max(1.0, abs(val)):
            return val
        if n >= cap:
            return val
        prev = val
        n *= 2


def _convergent_within(x: float, tol_abs: float, max_den: int) -> tuple[int, int, float]:
    """First continued-fraction convergent of x with |x - p/q| <= tol_abs.

    Stops early at the denominator cap, returning the best convergent found.
    """
    a0 = math.floor(x)
    p_prev, q_prev = 1, 0
    p, q = int(a0), 1
    frac = x - a0
    best = (p, q, abs(x - p))
    for _ in range(64):
        err = abs(x - p / q)
        if err < best[2]:
            best = (p, q, err)
        if err <= tol_abs or frac == 0.0:
            return p, q, err
        recip = 1.0 / frac
        a = math.floor(recip)
        frac = recip - a
        p, p_prev = int(a) * p + p_prev, p
        q, q_prev = int(a) * q + q_prev, q
        if q > max_den:
            return best
    return best


@dataclass(frozen=True)
class PeriodicApproximant:
    """Commensurate signal 2*pi*k_j/base_period with the original amplitudes."""

    signal: TrigSignal
    base_period: float
    multipliers: tuple[int, ...]
    drift_bound: float


def periodic_approximation(
    sig: TrigSignal,
    tol: float,
    horizon: float,
    *,
    margin: float = 0.1,
    max_denominator: int = DENOMINATOR_CAP,
) -> PeriodicApproximant:
    """Periodic (commensurate) approximant with sup|f - f~| <= tol on [0, horizon].

    Anchors the first nonzero frequency and approximates every frequency ratio
    by continued-fraction convergents until the guaranteed phase-drift bound
    sum_j |c_j| |omega_j - omega~_j| * horizon falls below margin*tol; the
    common denominator of the ratios fixes the base period.  margin keeps an
    order of headroom between the guaranteed bound and the requested tol.
    One-sided amplitude support is untouched, so the approximant stays causal.
    """
    if not tol > 0.0:
        raise PhysicsError("tol must be positive")
    if not horizon > 0.0:
        raise PhysicsError("horizon must be positive")
    if not 0.0 < margin <= 1.0:
        raise ValueError("margin must lie in (0, 1]")

    freqs = sig.freqs
    amps = sig.amps
    weight = sig.weight()
    max_abs = float(np.max(np.abs(freqs)))
    if max_abs == 0.0:
        return PeriodicApproximant(sig, 2.0 * math.pi, (0,) * sig.count, 0.0)

    anchor_idx = int(np.argmax(np.abs(freqs) > 1e-12 * max_abs))
    wa = float(freqs[anchor_idx])
    budget = math.inf if weight == 0.0 else tol * margin / (horizon * weight)
    ratio_tol = budget / abs(wa)

    nums: list[int] = []
    dens: list[int] = []
    errs: list[float] = []
    for w in freqs:
        p, q, err = _convergent_within(float(w) / wa, ratio_tol, max_denominator)
        nums.append(p)
        dens.append(q)
        errs.append(err)

    approx_freqs = np.array([(wa * p) / q for p, q in zip(nums, dens)])
    drift = float(horizon) * float(np.sum(np.abs(amps) * np.abs(freqs - approx_freqs)))
    if any(err > ratio_tol for err in errs):
        raise ApproximationError(
            f"tolerance {tol} unreachable within denominator cap {max_denominator}",
            achieved_bound=drift,
        )
    big_q = math.lcm(*dens)
    if big_q > max_denominator:
        raise ApproximationError(
            f"common denominator {big_q} exceeds cap {max_denominator}",
            achieved_bound=drift,
        )
    sign = 1 if wa > 0 else -1
    multipliers = tuple(sign * p * (big_q // q) for p, q in zip(nums, dens))
    base_period = 2.0 * math.pi * big_q / abs(wa)
    return PeriodicApproximant(TrigSignal(approx_freqs, amps), base_period, multipliers, drift)
