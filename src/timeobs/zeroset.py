"""Almost-periodic signals built from state coefficients.

f(t) = sum_j c_j e^{-i omega_j t} vanishes exactly at the times when the
evolved state re-enters the zero-sum subspace.  This module evaluates f,
estimates the Lebesgue measure of sublevel sets {t : |f(t)| < eps} over a
window, computes mean log|f| and |log|f|| integrals (finite for any
nontrivial signal, which is what forces the zero set to have measure zero)
with an error estimate, and constructs commensurate (periodic) approximants
with a guaranteed sup-norm bound.

Zeros and sublevel sets share one lockstep scan -> bracket -> refine engine.
The scan evaluates f on a uniform grid as one product of two phase tables
(_uniform_values), as membership_decay and density_at do on theirs.
One rule turns grid extrema, the window ends counted as one-sided, into
brackets for zeros, dips and rises alike: _extremum_centres finds the grid
minima of |f| (or of -|f|), and _beside keeps those next to a cell where the
chord-curvature screen (the distance from 0 to a chord, less sum|c_j|
omega_j^2 h^2 / 8 and a rounding term) lets |f| reach the threshold.
Crossings and extrema are refined by safeguarded Newton inside their
brackets, with f, f' and f'' from one phase block per point, and a sublevel
measure is summed from the sides on which its crossing brackets start.  A
ladder of thresholds (sublevel_measures) holds its masks with one row per
threshold, so it shares one scan, one refinement of the extremum brackets
that any row needs and one lockstep refinement of every row's crossings.
The mean-log integral is lockstep adaptive Gauss-Legendre quadrature with
the zeros as panel edges and each zero's log singularity integrated in
closed form, and a panel's tolerance is its share of the window.  Its nodes
share the scan's phase-table product: the panels of one width sample f at
the same offsets from their left ends.  Several panel counts
(paley_wiener_integrals) share one zero search, whatever the counts, and one
loop evaluates each distinct panel of their trees once per step.  eval_f
and _phase_product are one kernel (_products) whose row bits do not depend
on the other rows in its call, so every shared result is bit-equal to a
call of its own.

Convergence is returned, not warned: a bracket still open at a refinement
step cap, or a panel still open at the quadrature level cap, makes the
`converged` flag of MeasureReport or PaleyWienerReport false.  find_zeros,
which returns a bare list, is the one routine that warns at its step cap.
"""

from __future__ import annotations

import functools
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
from .spectral import EnergySpectrum, QuantumState, _frozen

BISECTION_TOL = 1e-12
PANEL_TOL = 1e-9
NYQUIST_PER_PERIOD = 20
DENOMINATOR_CAP = 10**9

_LOG_FLOOR = 1e-300  # keeps log finite if a sample lands exactly on a zero
_MAX_LEVELS = 40  # halvings of a Paley-Wiener panel before the level cap
_PANEL_BLOCK = 2**12  # Paley-Wiener panels per _panel_rules call: 147 k nodes
_BLOCK_ENTRIES = 2**18  # phase entries per table block (_row_blocks): 4 MiB at 16 bytes each
_CROSSING_STEPS = 80  # lockstep steps of _crossings before the step cap
_EXTREMUM_STEPS = 200  # lockstep steps of _extrema before the step cap


@dataclass(frozen=True)
class TrigSignal:
    """Trigonometric sum: strictly increasing frequencies, complex amplitudes, all finite."""

    freqs: np.ndarray
    amps: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        amps = np.asarray(self.amps, dtype=complex)
        if freqs.ndim != 1 or freqs.size == 0:
            raise DimensionError("signal needs at least one frequency")
        if amps.shape != freqs.shape:
            raise DimensionError("freqs and amps must have equal length")
        if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(amps))):
            raise PhysicsError("frequencies and amplitudes must be finite")
        if freqs.size > 1 and not np.all(np.diff(freqs) > 0.0):
            raise DimensionError("frequencies must be strictly increasing")
        object.__setattr__(self, "freqs", _frozen(freqs, float))
        object.__setattr__(self, "amps", _frozen(amps, complex))

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


def _phases(t: np.ndarray, freqs: np.ndarray, amps=None) -> np.ndarray:
    """e^{-i t omega} as a (t, freqs) table, times amps when given, built in place.

    The argument -(t omega) is written straight into the imaginary part of
    the table, at 16 bytes per entry and with no temporary.  It has the bits
    of np.outer(t, freqs) * -1j, whose imaginary part is -(t omega) + -0.0,
    equal to -(t omega) signed zeros included, and whose real part is +0.0.
    """
    z = np.empty((t.size, freqs.size), dtype=complex)
    z.real = 0.0
    np.multiply.outer(t, freqs, out=z.imag)
    np.negative(z.imag, out=z.imag)
    np.exp(z, out=z)
    if amps is not None:
        z *= amps
    return z


def _require_finite_phases(t, freqs: np.ndarray) -> None:
    """PhysicsError unless every phase argument t * omega is finite.

    Rounding is monotone, so max|t| max|omega| overflows exactly when some
    t * omega does.  Entry points that take a caller's time grid check once;
    the refinement loops, whose times lie in a checked window, do not.
    """
    reach = float(np.max(np.abs(t), initial=0.0)) * float(np.max(np.abs(freqs)))
    if not math.isfinite(reach):
        raise PhysicsError("phase arguments t * omega must be finite")


def _row_blocks(count: int, width: int) -> list[slice]:
    """Row slices of a count x width phase table, _BLOCK_ENTRIES // width rows each.

    numpy multiplies a one-row table by other kernels than a taller one, with
    other last bits, so no block but a whole one-row table has one row: a
    lone trailing row joins the block before it, and a block has at least two
    rows.  _products, the one kernel of eval_f and _phase_product, runs a
    one-row table as two equal rows and keeps the first, so a row's bits do
    not depend on the other rows in its call.
    """
    rows = max(2, _BLOCK_ENTRIES // width)
    edges = [*range(0, count, rows), count]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _products(t: np.ndarray, freqs: np.ndarray, amps, right: np.ndarray) -> np.ndarray:
    """_phases(t, freqs, amps) @ right, one _row_blocks block of phase rows at a time.

    One time runs as two equal times and keeps the first row, so a row's bits
    do not depend on its call (see _row_blocks).
    """
    if t.size == 1:
        return _products(np.repeat(t, 2), freqs, amps, right)[:1]
    out = np.empty((t.size,) + right.shape[1:], dtype=complex)
    for rows in _row_blocks(t.size, freqs.size):
        out[rows] = _phases(t[rows], freqs, amps) @ right
    return out


def eval_f(sig: TrigSignal, t):
    """Evaluate the sum at a scalar or array of times: _products of phases and amps.

    A _Jet in place of sig gives f, f' and f'' in a trailing axis of 3.
    """
    t_arr = np.asarray(t, dtype=float)
    out = _products(t_arr.ravel(), sig.freqs, None, sig.amps)
    out = out.reshape(t_arr.shape + sig.amps.shape[1:])
    return complex(out) if out.ndim == 0 else out


class _Jet:
    """f, f' and f'' of a signal as the amplitude columns [c, -i omega c, -omega^2 c].

    eval_f of a _Jet gives the three values in a trailing axis from one phase
    block per time: the exponentials of one f evaluation.
    """

    def __init__(self, sig: TrigSignal):
        c, om = sig.amps, sig.freqs
        self.freqs, self.count = om, sig.count
        self.amps = np.column_stack([c, -1j * om * c, -(om**2) * c])


@dataclass(frozen=True)
class MeasureReport:
    """Sublevel-measure estimate lambda{t in [0, window] : |f(t)| < epsilon}.

    refinement_depth is the number of lockstep steps its crossing brackets
    took to close (the step cap when one stayed open); converged is false
    when a crossing or extremum bracket was still open at its step cap.
    """

    epsilon: float
    window: float
    measure: float
    refinement_depth: int
    error_bound: float
    converged: bool

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
    cells = NYQUIST_PER_PERIOD * window * float(np.max(np.abs(sig.freqs))) / (2.0 * math.pi)
    if not math.isfinite(cells):
        raise PhysicsError("window times the largest frequency overflows the scan grid")
    return max(int(base_grid), math.ceil(cells), 8)


def _scan_rounding(sig: TrigSignal, window: float) -> float:
    """Bound on the phase and summation errors of one _scan value and one eval_f value."""
    return 8.0 * np.finfo(float).eps * (float(window) * sig.lipschitz() + sig.count * sig.weight())


def _phase_product(sig: TrigSignal, starts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """f(starts[i] + offsets[j]) as one (starts, offsets) table.

    e^{-i omega (s + o)} = e^{-i omega s} e^{-i omega o}, so the table is
    (amps * e^{-i omega s}) (rows, N) @ e^{-i omega o} (N, offsets): (rows +
    offsets) N exponentials and one product per _row_blocks block of start
    phases, 4 MiB at most (_products).  Its error is bounded by _scan_rounding.
    """
    return _products(starts, sig.freqs, sig.amps, _phases(sig.freqs, offsets))


def _uniform_values(sig: TrigSignal, start: float, step: float, count: int) -> np.ndarray:
    """f(start + k step) for k < count, as one _phase_product.

    With k = q b + r and b = isqrt(count - 1) + 1, e^{-i omega t_k} factors
    into e^{-i omega (start + q b step)} e^{-i omega r step}: ceil(count / b)
    starts and b offsets, about 2 sqrt(count) N exponentials where eval_f
    takes count N.  Its error is bounded by _scan_rounding over max|t_k|.
    """
    b = math.isqrt(count - 1) + 1
    starts = start + np.arange(-(-count // b)) * (b * step)
    return _phase_product(sig, starts, np.arange(b) * step).ravel()[:count]


def _uniform_step(t: np.ndarray) -> float | None:
    """The step h of a uniform time grid t, or None when t is not one.

    t is uniform when it is 1-D with at least two points and every t_k lies
    within 4 ulps of max|t| of t_0 + k h, h = (t_{n-1} - t_0) / (n - 1).
    np.linspace grids are, and so is linspace - tau unless the shift cancels
    leading digits of t; the grid is then summed by eval_f.
    """
    if t.ndim != 1 or t.size < 2:
        return None
    h = (t[-1] - t[0]) / (t.size - 1)
    ulps = 4.0 * np.spacing(max(abs(t[0]), abs(t[-1])))
    return float(h) if np.all(np.abs(t - (t[0] + np.arange(t.size) * h)) <= ulps) else None


def _grid_values(sig: TrigSignal, t: np.ndarray):
    """f on the times t: _uniform_values on a uniform grid (_uniform_step), else eval_f."""
    h = _uniform_step(t)
    return eval_f(sig, t) if h is None else _uniform_values(sig, float(t[0]), h, t.size)


def _scan(sig: TrigSignal, window: float, base_grid: int):
    """Grid over [0, window], complex f on it, and the chord screen.

    f on the n + 1 nodes is _uniform_values from 0.0, at O(sqrt(n) N)
    exponentials.  On a cell, |f| is at least the distance from 0 to the
    chord [f_k, f_{k+1}] minus the screen: the linear interpolation error of
    f is at most sum|c_j| omega_j^2 h^2 / 8, because its Peano kernel has one
    sign (so the bound holds for complex f), plus a rounding term that covers
    the error of this product and of eval_f.
    """
    window = float(window)
    n = _cell_count(sig, window, base_grid)
    h = window / n
    values = _uniform_values(sig, 0.0, h, n + 1)
    curvature = float(np.abs(sig.amps) @ sig.freqs**2) * h * h / 8.0
    return np.linspace(0.0, window, n + 1), values, curvature + _scan_rounding(sig, window)


def _chord_distance(f: np.ndarray) -> np.ndarray:
    """Distance from 0 to each chord [f_k, f_{k+1}] in the complex plane."""
    a, d = f[:-1], np.diff(f)
    d2 = d.real**2 + d.imag**2
    s = np.divide(-(a.real * d.real + a.imag * d.imag), d2, out=np.zeros_like(d2), where=d2 > 0.0)
    return np.abs(a + np.clip(s, 0.0, 1.0) * d)


def _extremum_centres(v: np.ndarray) -> np.ndarray:
    """Grid minima i of v, the window ends counted as one-sided minima.

    This is the one rule that turns grid extrema into refinement brackets
    [t_{i-1}, t_{i+1}]; an end's bracket covers the one cell beside it.
    """
    pad = np.pad(v, 1, constant_values=np.inf)
    return np.flatnonzero((v <= pad[:-2]) & (v <= pad[2:]))


def _beside(cell_ok: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Whether cell_ok holds on cell at - 1 or cell at, beside each node at, per row.

    Cell k joins nodes k and k + 1; a window end has the one cell beside it.
    """
    n = cell_ok.shape[-1]
    left = cell_ok[..., np.maximum(at - 1, 0)] & (at > 0)
    return left | (cell_ok[..., np.minimum(at, n - 1)] & (at < n))


def _open(lo, hi) -> np.ndarray:
    """Brackets wider than BISECTION_TOL and than the double spacing at their ends.

    Beyond |t| = 8192 adjacent doubles lie more than BISECTION_TOL apart, so a
    bracket there is closed once no double lies strictly inside it.
    """
    return hi - lo > np.maximum(BISECTION_TOL, np.spacing(np.maximum(np.abs(lo), np.abs(hi))))


def _newton(sig: TrigSignal, lo, hi, probe, cap: int):
    """Lockstep safeguarded Newton on brackets [lo, hi] until each is closed.

    Each bracket starts at its midpoint.  probe(live, x, jet) gets the
    iterates x of the brackets live with their eval_f rows (f, f', f'') and
    returns whether each becomes its bracket's left end, and its Newton step.
    A step that is not finite or leaves the bracket is replaced by the
    midpoint (Brent, Algorithms for Minimization without Derivatives, 1973);
    a step below BISECTION_TOL / 2, or below one double spacing where that is
    larger, is taken at that length, which closes the bracket around a
    converged root.  A bracket need not change sign: where it does not, the
    side test moves the same end every step and closes the bracket on the
    other.  The open brackets (_open) share one eval_f call per step, for at
    most cap steps.  Returns the brackets, the step after which each was
    closed (cap for one still open) and the indices of the brackets still
    open.
    """
    jet = _Jet(sig)
    lo, hi = lo.copy(), hi.copy()
    x = 0.5 * (lo + hi)
    live = np.arange(lo.size)
    closed_at = np.zeros(lo.size, dtype=int)
    steps = 0
    while live.size and steps < cap:
        xl = x[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            to_lo, step = probe(live, xl, eval_f(jet, xl))
        lo[live], hi[live] = np.where(to_lo, xl, lo[live]), np.where(to_lo, hi[live], xl)
        a, b = lo[live], hi[live]
        floor = np.maximum(0.5 * BISECTION_TOL, np.spacing(np.abs(xl)))
        nxt = xl - np.where(np.abs(step) < floor, np.copysign(floor, step), step)
        x[live] = np.where((a < nxt) & (nxt < b), nxt, 0.5 * (a + b))
        steps += 1
        closed_at[live] = steps
        live = live[_open(a, b)]
    return lo, hi, closed_at, live


def _crossings(
    sig: TrigSignal, lo, hi, inside_lo, shift
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Crossings of |f| = shift on all brackets [lo, hi] in lockstep, to BISECTION_TOL.

    shift holds one threshold per bracket, and inside_lo flags brackets whose
    left end lies in {|f| < shift}.  Newton runs on |f| - shift (d|f|/dt =
    Re(conj(f) f') / |f|, so it is exact where |f| is linear in t, as next to
    a simple zero), and every iterate replaces the bracket end on its side of
    the crossing, so each crossing keeps bisection's guarantee.  A bracket's
    iterates depend on its own values alone, so it ends as in a call of its
    own.  Returns the final midpoints, the step after which each bracket was
    closed (_CROSSING_STEPS for one still open) and the indices of the
    brackets still open after _CROSSING_STEPS steps.
    """

    def probe(live, x, jet):
        f, f1 = jet[:, 0], jet[:, 1]
        absf = np.abs(f)
        gap = absf - shift[live]
        to_lo = (gap < 0.0) == inside_lo[live]
        return to_lo, gap * absf / (f.real * f1.real + f.imag * f1.imag)

    lo, hi, closed_at, still_open = _newton(sig, lo, hi, probe, _CROSSING_STEPS)
    return 0.5 * (lo + hi), closed_at, still_open


def _extrema(sig: TrigSignal, a, b, sign):
    """Minima of sign * |f| on all brackets [a, b] in lockstep.

    Newton on s = sign * d|f|^2/dt (s' = 2 sign (|f'|^2 + Re(conj(f) f'')))
    returns the best point it probed, the two bracket ends included, so a
    bracket whose minimum sits at an end returns that end.  Returns the
    minimizers, the signed minimum values sign * |f| and the indices of the
    brackets still open after _EXTREMUM_STEPS steps.
    """
    ends = np.tile(sign, 2) * np.abs(eval_f(sig, np.concatenate([a, b])))
    v_a, v_b = np.split(ends, 2)
    take_a = v_a <= v_b
    best_t, best_v = np.where(take_a, a, b), np.where(take_a, v_a, v_b)

    def probe(live, x, jet):
        f, f1, f2 = jet[:, 0], jet[:, 1], jet[:, 2]
        value = sign[live] * np.abs(f)
        better = value < best_v[live]
        best_t[live[better]], best_v[live[better]] = x[better], value[better]
        slope = sign[live] * (f.real * f1.real + f.imag * f1.imag)
        curve = sign[live] * (f1.real**2 + f1.imag**2 + f.real * f2.real + f.imag * f2.imag)
        return slope < 0.0, slope / curve

    *_, still_open = _newton(sig, a, b, probe, _EXTREMUM_STEPS)
    return best_t, best_v, still_open


def sublevel_measure(
    sig: TrigSignal, epsilon: float, window: float, base_grid: int = 4096
) -> MeasureReport:
    """Measure of {t in [0, window] : |f(t)| < epsilon}: sublevel_measures at one threshold."""
    return sublevel_measures(sig, [epsilon], window, base_grid, _stacklevel=3)[0]


def sublevel_measures(
    sig: TrigSignal, epsilons, window: float, base_grid: int = 4096, *, _stacklevel: int = 2
) -> list[MeasureReport]:
    """Measures of {t in [0, window] : |f(t)| < eps}, one report per eps in order.

    One uniform scan serves every threshold, and its masks hold one row per
    threshold.  Its sign changes of |f| - eps are refined by safeguarded
    Newton on |f| - eps to sign-change brackets of at most 1e-12 in t, in
    one _crossings call for all thresholds: each bracket carries its own
    eps, and a report's refinement_depth is the step after which its last
    bracket closed.  A grid minimum above eps is promoted to extremum
    refinement (Newton on d|f|^2/dt) when a chord next to it comes within
    the screen of eps, and a grid maximum below eps when it lies within the
    screen of eps (|chord| is convex, so its cell maxima sit at nodes).
    This is the bracket rule of find_zeros too (_extremum_centres and
    _beside): the window ends count as one-sided extrema, and their brackets
    cover the one cell beside them.  The grid extrema do not depend on eps,
    so one _extrema call refines those that some threshold needs.  The
    measure sums the intervals between sorted crossings whose crossing
    bracket starts inside the set.  The error bound is the cell width times
    the count of cells that passed the chord screen but produced no refined
    feature.  A report is not converged when one of its crossing or extremum
    brackets is still open at its refinement step cap.  A threshold at or
    above sum|c_j| warns and gets the whole window; when every threshold
    does, nothing is scanned.  _stacklevel points the warning at the
    caller's line.
    """
    if any(not eps > 0.0 for eps in epsilons):
        raise PhysicsError("epsilon must be positive")
    if not 0.0 < window < math.inf:
        raise PhysicsError("window must be positive and finite")
    if int(base_grid) < 1000:
        raise DimensionError("base_grid must be at least 1000")
    reports = [None] * len(epsilons)
    for k, eps in enumerate(epsilons):
        if eps >= sig.weight():
            message = "threshold at or above max|f|; the whole window qualifies"
            warnings.warn(message, stacklevel=_stacklevel)
            reports[k] = MeasureReport(eps, window, window, 0, 0.0, True)
    todo = [k for k, report in enumerate(reports) if report is None]
    if not todo:
        return reports

    window = float(window)
    ts, fs, screen = _scan(sig, window, base_grid)
    n = ts.size - 1
    h = window / n
    absf = np.abs(fs)
    floor = _chord_distance(fs) - screen
    peak = np.maximum(absf[:-1], absf[1:])
    # One row per threshold: nodes below it, cells on which |f| may pass below
    # it or reach it.  Each eps - peak row is formed alone, as a float temporary.
    eps = np.array([epsilons[k] for k in todo], dtype=float)[:, None]
    below, may_dip = absf < eps, floor < eps
    may_rise = np.empty_like(may_dip)
    for row, level in zip(may_rise, eps):
        np.less(level - peak, screen, out=row)

    # Grid minima (dips) and maxima (rises) of |f| that some threshold needs refined.
    mins, maxs = _extremum_centres(absf), _extremum_centres(-absf)
    dips = (absf[mins] > eps) & _beside(may_dip, mins)
    needs = np.concatenate([dips, below[:, maxs] & _beside(may_rise, maxs)], axis=1)
    centre, sign = np.concatenate([mins, maxs]), np.repeat([1.0, -1.0], [mins.size, maxs.size])
    wanted = needs.any(0)
    needs, centre, sign = needs[:, wanted], centre[wanted], sign[wanted]
    # The bracket [ts[lo], ts[hi]] covers cells lo and hi - 1.
    lo, hi = np.maximum(centre - 1, 0), np.minimum(centre + 1, n)
    best_t, best_v, ext_open = _extrema(sig, ts[lo], ts[hi], sign)

    # |f| - eps at each minimizer; a bracket hits eps where sign * that is negative.
    g_ext = sign * best_v - eps
    # (row, column) of each hit, row by row; np.nonzero is about ten times
    # slower on a 2-D mask.
    ext_row, ext = np.divmod(np.flatnonzero(needs & (sign * g_ext < 0.0)), centre.size)
    ext_lo, ext_hi, t_ext, g_ext = lo[ext], hi[ext], best_t[ext], g_ext[ext_row, ext]
    cross_row, cross = np.divmod(np.flatnonzero(below[:, :-1] != below[:, 1:]), n)
    # One _crossings call refines the crossing brackets of every threshold: the
    # grid crossings, then the left and right halves of each split extremum.
    # The right half starts at t_ext: inside for a dip.
    owner = np.concatenate([cross_row, ext_row, ext_row])
    starts = np.concatenate([ts[cross], ts[ext_lo], t_ext])
    ends = np.concatenate([ts[cross + 1], t_ext, ts[ext_hi]])
    inside_lo = np.concatenate([below[cross_row, cross], below[ext_row, ext_lo], g_ext < 0.0])
    mids, closed_at, still_open = _crossings(sig, starts, ends, inside_lo, eps[owner, 0])
    unclosed = np.zeros(mids.size, dtype=bool)
    unclosed[still_open] = True

    for row, k in enumerate(todo):
        mine = owner == row
        crossings = mids[mine]
        # The step after which its last crossing bracket closed, as in a call of its own.
        depth = int(np.max(closed_at[mine], initial=0))
        refined = np.zeros(n, dtype=bool)
        hits = ext_row == row
        refined[cross[cross_row == row]] = refined[ext_lo[hits]] = refined[ext_hi[hits] - 1] = True

        # The brackets are disjoint, so the interval before each sorted crossing
        # lies on its bracket's left side, and the last one on the window end's.
        order = np.argsort(crossings)
        edges = np.concatenate([[0.0], crossings[order], [window]])
        inside = np.append(inside_lo[mine][order], below[row, -1])
        measure = min(float(np.sum(np.diff(edges)[inside])), window)

        same_sign = below[row, :-1] == below[row, 1:]
        may = np.where(below[row, :-1], may_rise[row], may_dip[row])
        error_bound = h * int(np.sum(same_sign & may & ~refined)) + BISECTION_TOL * crossings.size
        converged = not unclosed[mine].any() and not needs[row, ext_open].any()
        reports[k] = MeasureReport(epsilons[k], window, measure, depth, error_bound, converged)
    return reports


def _merge_tol(window: float) -> float:
    """Distance below which two zero estimates are taken to be one zero."""
    return max(10.0 * BISECTION_TOL, 1e-12 * float(window))


def find_zeros(sig: TrigSignal, window: float, base_grid: int = 4096) -> list[float]:
    """Times in [0, window] where |f| vanishes, by refining grid-scale minima.

    A grid minimum is refined (Newton on d|f|^2/dt, the bracket ends
    included) only when the chord screen lets |f| fall to 1e-10 sum|c_j| on
    one of its cells (the bracket rule of sublevel_measures); a refined
    minimum at or below that is a zero.  Brackets still open at the
    refinement step cap raise a RuntimeWarning.
    """
    zeros, still_open = _zeros(sig, window, base_grid)
    if still_open:
        message = f"{still_open} extremum brackets hit the step cap {_EXTREMUM_STEPS}"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return zeros


def _zeros(sig: TrigSignal, window: float, base_grid: int):
    """The zeros of find_zeros, without its warning, and the open bracket count.

    The count is of extremum brackets still open at the step cap.
    """
    if not 0.0 < window < math.inf:
        raise PhysicsError("window must be positive and finite")
    if sig.weight() == 0.0:
        raise ZeroSignalError("signal is identically zero")
    zero_level = 1e-10 * sig.weight()
    ts, fs, screen = _scan(sig, window, base_grid)
    centre = _extremum_centres(np.abs(fs))
    centre = centre[_beside(_chord_distance(fs) - screen <= zero_level, centre)]
    lo, hi = np.maximum(centre - 1, 0), np.minimum(centre + 1, ts.size - 1)
    t_min, f_min, still_open = _extrema(sig, ts[lo], ts[hi], np.ones(lo.size))
    zeros = np.sort(np.clip(t_min[f_min <= zero_level], 0.0, float(window))).tolist()
    merged: list[float] = []
    for z in zeros:
        if not merged or z - merged[-1] > _merge_tol(window):
            merged.append(z)
    return merged, still_open.size


def _log(x):
    """Natural log floored at _LOG_FLOOR, so a sample on a zero stays finite."""
    return np.log(np.maximum(x, _LOG_FLOOR))


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Order-12 nodes and weights on [-1, 1], built on first use to keep import cheap."""
    return np.polynomial.legendre.leggauss(12)


def _panel_rules(sig: TrigSignal, rows: np.ndarray, absolute: bool) -> np.ndarray:
    """(panels, 3) Gauss-Legendre estimates on each panel and its two halves.

    rows holds (a, b, zero_a, zero_b); a flag is 1.0 where that end is a zero z
    of f.  There sigma*log|t - z| (sigma = -1 absolute, +1 signed) is subtracted
    before the rule and its exact integral u*log(u) - u added back (Davis &
    Rabinowitz, Methods of Numerical Integration, ch. 2).  Every node is
    t = a + w*u for the panel width w = b - a and 36 fixed fractions u (12 on
    the panel, 12 on each half), so the panels of one exact width share one
    _phase_product.
    """
    a, b, zero_a, zero_b = rows.T
    w = b - a
    nodes, weights = _gauss_legendre()
    x = 0.5 * (1.0 + nodes)
    u = np.concatenate([x, 0.5 * x, 0.5 + 0.5 * x])
    widths, group = np.unique(w, return_inverse=True)
    f = np.empty((a.size, u.size), dtype=complex)
    for k, width in enumerate(widths):
        members = np.flatnonzero(group == k)
        f[members] = _phase_product(sig, a[members], width * u)
    t = (a[:, None] + w[:, None] * u).reshape(-1, 3, nodes.size)
    logf = _log(np.abs(f)).reshape(t.shape)

    mid = a + 0.5 * w
    none = np.zeros_like(a)
    lo, hi = np.stack([a, a, mid], axis=1), np.stack([b, mid, b], axis=1)
    at_lo = np.stack([zero_a, zero_a, none], axis=1)
    at_hi = np.stack([zero_b, none, zero_b], axis=1)
    half = w[:, None] * np.array([0.5, 0.25, 0.25])
    sigma = -1.0 if absolute else 1.0
    integrand = np.abs(logf) if absolute else logf
    # The subtraction is 0 on a panel with no zero end: form it on the others only.
    z = np.flatnonzero((zero_a != 0.0) | (zero_b != 0.0))
    t, lo, hi = t[z], lo[z, :, None], hi[z, :, None]
    near = at_lo[z, :, None] * _log(t - lo) + at_hi[z, :, None] * _log(hi - t)
    integrand[z] -= sigma * near
    exact = sigma * (at_lo + at_hi) * 2.0 * half * (_log(2.0 * half) - 1.0)
    return half * (integrand @ weights) + exact


@dataclass(frozen=True)
class PaleyWienerReport:
    """Window-averaged mean-log integral, whether it converged and its error estimate.

    converged is false when a panel was still open at the level cap or a
    zero-search bracket at its step cap.  error_estimate is the window average
    of |whole - halves| summed over every panel whose halves' sum was kept.
    """

    value: float
    converged: bool
    error_estimate: float


def paley_wiener_integral(
    sig: TrigSignal, window: float, panels: int = 256, absolute: bool = True
) -> PaleyWienerReport:
    """Window-averaged integral of |log|f|| (log|f| when absolute=False) on `panels` panels.

    paley_wiener_integrals at one panel count.
    """
    return paley_wiener_integrals(sig, window, [panels], absolute)[0]


def paley_wiener_integrals(
    sig: TrigSignal, window: float, panel_counts, absolute: bool = True
) -> list[PaleyWienerReport]:
    """Window-averaged integrals of |log|f|| (log|f| when absolute=False), one per panel count.

    For a count p: lockstep adaptive Gauss-Legendre quadrature of order 12
    over p uniform panels plus the zeros of find_zeros (via _zeros, on 1000
    base cells, the scan floor of sublevel_measures) as edges, with each
    zero's log singularity integrated in closed form.  _cell_count raises
    that grid to 20 points per shortest period, and the chord screen
    brackets every cell where |f| can reach the zero level, so the floor
    grid misses no zero.  Each level evaluates every open panel and its
    two halves; a panel [a, b] is accepted, keeping its halves' sum, when
    the two estimates agree to PANEL_TOL (b - a) / window, so the accepted
    tolerances sum to PANEL_TOL over the window, or when it is no wider than
    _merge_tol(window), the resolution of the zeros that may be its edges;
    it is halved otherwise.  After 40 levels the open panels keep their
    halves' sum.  error_estimate is the window average of |whole - halves|
    summed over every panel whose halves' sum was kept.  A report is not
    converged when its level cap or its zero search's step cap was hit.

    The counts share their work, and each report is bit-equal to a call with
    its count alone.  One zero search serves every count, so the zeros do not
    depend on the counts.  Each count holds its open panels (a, b, zero_a,
    zero_b), its running total and the halves left open at its last level, and
    one loop advances every tree: at each step the distinct open panels of the
    live counts, by their exact bits, go through _panel_rules once, in
    _PANEL_BLOCK blocks, and each tree accepts or halves its own.  A panel's
    rules do not depend on the other panels in the call (_row_blocks).  A
    count 2^k times the smallest starts k steps later, so that its panels meet
    the halves of the coarser tree, and it is live for _MAX_LEVELS steps while
    it has open panels.  Only the current step's panels are held.

    The signed mean is the kink-free one.  log|f| <= log sum|c_j|, so the
    absolute mean is finite exactly when the signed mean is above -infinity
    (the Paley-Wiener/Jensen condition), and either finite mean is the
    numerical signature that membership times form a measure-zero set.
    |log|f|| adds a kink wherever |f| = 1, which costs several times the
    panel rows of log|f|.
    """
    counts = [int(p) for p in panel_counts]
    if not counts or any(p < 100 for p in counts):
        raise DimensionError("give at least one panel count, each at least 100")
    window = float(window)
    zeros, still_open = _zeros(sig, window, 1000)
    rows = [_first_panels(window, p, zeros) for p in counts]
    starts = [(p // min(counts)).bit_length() - 1 for p in counts]

    totals, errors = [0.0] * len(counts), [0.0] * len(counts)
    pending = [(np.zeros(0), np.zeros(0))] * len(counts)
    for step in range(max(starts) + _MAX_LEVELS):
        live = [k for k, at in enumerate(starts) if 0 <= step - at < _MAX_LEVELS and rows[k].size]
        if not live:
            continue
        asked = np.concatenate([rows[k] for k in live])
        # Each row's 32 bytes as one key: equal keys are equal bits.
        keys = asked.view(np.dtype((np.void, asked.itemsize * 4))).ravel()
        distinct, inverse = np.unique(keys, return_inverse=True)
        distinct = distinct.view(float).reshape(-1, 4)
        est = np.concatenate([
            _panel_rules(sig, distinct[s:s + _PANEL_BLOCK], absolute)
            for s in range(0, len(distinct), _PANEL_BLOCK)
        ])[inverse]
        parts = np.cumsum([len(rows[k]) for k in live])[:-1]
        for k, part in zip(live, np.split(est, parts)):
            halves = part[:, 1] + part[:, 2]
            gap = np.abs(part[:, 0] - halves)
            width = rows[k][:, 1] - rows[k][:, 0]
            done = (gap <= PANEL_TOL * width / window) | (width <= _merge_tol(window))
            totals[k] += float(np.sum(halves[done]))
            errors[k] += float(np.sum(gap[done]))
            pending[k] = halves[~done], gap[~done]
            a, b, zero_a, zero_b = rows[k][~done].T
            mid, none = a + 0.5 * (b - a), np.zeros_like(a)
            left, right = [a, mid, zero_a, none], [mid, b, none, zero_b]
            rows[k] = np.concatenate([np.column_stack(left), np.column_stack(right)])
    # Panels still open at the level cap keep their halves' sum.
    return [
        PaleyWienerReport(
            (total + float(np.sum(held))) / window,
            still_open == 0 and not tree.size,
            (error + float(np.sum(held_gap))) / window,
        )
        for total, error, (held, held_gap), tree in zip(totals, errors, pending, rows)
    ]


def _first_panels(window: float, panels: int, zeros) -> np.ndarray:
    """Rows (a, b, zero_a, zero_b) of `panels` uniform panels split at the zeros.

    A zero within the merge tolerance of a uniform edge is taken to lie on it.
    """
    grid = np.linspace(0.0, window, panels + 1)
    zeros = np.asarray(zeros)
    k = np.rint(zeros * (panels / window)).astype(int)
    zeros = np.where(np.abs(grid[k] - zeros) <= _merge_tol(window), grid[k], zeros)
    edges = np.union1d(grid, zeros)
    on_zero = np.isin(edges, zeros).astype(float)
    return np.column_stack([edges[:-1], edges[1:], on_zero[:-1], on_zero[1:]])


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
    max_denominator: int = DENOMINATOR_CAP,
) -> PeriodicApproximant:
    """Periodic (commensurate) approximant with sup|f - f~| <= tol on [0, horizon].

    Anchors the first nonzero frequency and approximates every frequency ratio
    by continued-fraction convergents until the guaranteed phase-drift bound
    sum_j |c_j| |omega_j - omega~_j| * horizon falls below 0.1*tol; the
    common denominator of the ratios fixes the base period.  The factor 0.1
    keeps an order of headroom between the guaranteed bound and tol.
    One-sided amplitude support is untouched, so the approximant stays causal.
    """
    if not tol > 0.0:
        raise PhysicsError("tol must be positive")
    if not horizon > 0.0:
        raise PhysicsError("horizon must be positive")

    freqs = sig.freqs
    amps = sig.amps
    weight = sig.weight()
    max_abs = float(np.max(np.abs(freqs)))
    if max_abs == 0.0:
        return PeriodicApproximant(sig, 2.0 * math.pi, (0,) * sig.count, 0.0)

    anchor_idx = int(np.argmax(np.abs(freqs) > 1e-12 * max_abs))
    wa = float(freqs[anchor_idx])
    budget = math.inf if weight == 0.0 else tol * 0.1 / (horizon * weight)
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
