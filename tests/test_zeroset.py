import cmath
import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeobs import (
    ApproximationError,
    CanonicalDensity,
    DimensionError,
    MeasureReport,
    PhysicsError,
    QuantumState,
    TrigSignal,
    ZeroSignalError,
    build_spectrum,
    coefficient_sum,
    density_at,
    eval_f,
    evolve,
    find_zeros,
    membership_decay,
    paley_wiener_integral,
    paley_wiener_integrals,
    periodic_approximation,
    project_to_zero_sum,
    random_state,
    sublevel_measure,
    sublevel_measures,
)
from timeobs import claims, zeroset
from timeobs.claims import DEFAULT_EPSILONS, PW_STABILITY_TOL, run_claims
from timeobs.zeroset import (
    BISECTION_TOL,
    _beside,
    _chord_distance,
    _crossings,
    _extrema,
    _extremum_centres,
    _gauss_legendre,
    _Jet,
    _panel_rules,
    _phase_product,
    _scan,
    _scan_rounding,
)

TWO_PI = 2.0 * math.pi
CATALAN = 0.915965594177219015054603514932384110774


def _converged(report):
    """The report of a sublevel_measure or paley_wiener_integral call that must converge."""
    assert report.converged
    return report


def _midpoint_mean(g, window, n=2**16):
    """Window average of a vectorized g over [0, window] by the n-point midpoint rule."""
    ts = (np.arange(n) + 0.5) * (window / n)
    return float(np.mean(g(ts)))


def _structured_signal(kind, n, seed, zero_sum):
    # Unit base frequency: harmonic omega = 1, box scale = 1, hbar = 1.
    spec = build_spectrum(kind, n, omega=1.0, scale=1.0)
    return TrigSignal.from_state(spec, random_state(n, seed, in_zero_sum=zero_sum))


def _signal_with_unit_roots():
    # f(t) = e^{-it/2} P(e^{-it}), P of degree 5 with three roots on |z| = 1
    roots = np.array([np.exp(0.7j), np.exp(2.1j), np.exp(-2.9j), 0.5, 1.6 * np.exp(1.0j)])
    coeffs = np.poly(roots)[::-1]
    return TrigSignal(np.arange(6) + 0.5, coeffs / np.linalg.norm(coeffs))


STRUCTURED = {
    f"{kind}{n}-seed{seed}{'-zerosum' if zero_sum else ''}": (kind, n, seed, zero_sum)
    for kind, n in (("harmonic", 2), ("harmonic", 6), ("harmonic", 12), ("box", 4), ("box", 6))
    for seed, zero_sum in ((1, False), (2, True), (3, True))
}


@pytest.fixture(params=[*STRUCTURED, "harmonic6-unit-roots"])
def structured_signal(request):
    """Signal whose frequencies are freqs[0] plus integer multiples of 1."""
    if request.param in STRUCTURED:
        return _structured_signal(*STRUCTURED[request.param])
    return _signal_with_unit_roots()


def _roots_of_p(sig):
    """Leading coefficient and roots of P, where f(t) = e^{-i freqs[0] t} P(e^{-it})."""
    powers = np.rint(sig.freqs - sig.freqs[0]).astype(int)
    coeffs = np.zeros(powers[-1] + 1, dtype=complex)
    coeffs[powers] = sig.amps
    return coeffs[-1], np.roots(coeffs[::-1])


def _jensen_mean(sig):
    """Mean of log|f| over whole periods 2 pi, by Jensen's formula on the roots of P.

    With f(t) = e^{-i freqs[0] t} P(e^{-it}), the mean of log|P| over |z| = 1
    is log|c_lead| + sum_{|r|>1} log|r| (the Mahler measure of P).
    """
    lead, roots = _roots_of_p(sig)
    return math.log(abs(lead)) + float(np.sum(np.log(np.abs(roots[np.abs(roots) > 1.0]))))


def _random_signal(seed, n):
    """Incommensurate signal: n random frequencies in (-40, 40) and a random unit state."""
    freqs = np.sort(np.random.default_rng(seed).uniform(-40.0, 40.0, n))
    return TrigSignal(freqs, random_state(n, seed).coeffs)


@pytest.fixture
def balanced_signal():
    # |f(t)| = sqrt(2)|cos(t/2)|
    return TrigSignal(np.array([0.5, 1.5]), np.array([1.0, 1.0]) / math.sqrt(2.0))


@pytest.fixture
def incommensurate_five():
    freqs = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.pi])
    return TrigSignal(freqs, random_state(5, 8).coeffs)


class TestSignal:
    def test_value_at_zero_is_coefficient_sum(self, two_level, minus_state):
        sig = TrigSignal.from_state(two_level, minus_state)
        assert eval_f(sig, 0.0) == pytest.approx(
            complex(coefficient_sum(minus_state)), abs=1e-15
        )

    def test_true_zero_at_pi(self, balanced_signal):
        assert abs(eval_f(balanced_signal, math.pi)) <= 1e-15

    def test_squared_modulus_one_plus_cos(self, balanced_signal):
        ts = np.linspace(0.0, 9.0, 200)
        np.testing.assert_allclose(
            np.abs(eval_f(balanced_signal, ts)) ** 2, 1.0 + np.cos(ts), atol=1e-13
        )

    def test_bounded_by_weight(self, incommensurate_five):
        ts = np.linspace(0.0, 50.0, 5000)
        assert np.max(np.abs(eval_f(incommensurate_five, ts))) <= incommensurate_five.weight()

    def test_frequencies_must_increase(self):
        with pytest.raises(DimensionError):
            TrigSignal(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_amplitudes_and_frequencies_must_be_finite(self, bad):
        with pytest.raises(PhysicsError, match="finite"):
            TrigSignal(np.array([1.0, 2.0]), np.array([bad, 0.0]))
        with pytest.raises(PhysicsError, match="finite"):
            TrigSignal(np.array([abs(bad)]), np.array([1.0]))

    def test_matches_density_through_conjugate_amplitudes(self):
        spec = build_spectrum("box", 4, scale=0.6)
        psi = random_state(4, 21)
        density = CanonicalDensity.from_state(spec, psi)
        conjugate = TrigSignal(spec.frequencies(), np.conj(psi.coeffs))
        ts = np.linspace(0.0, 15.0, 400)
        lhs = np.abs(eval_f(conjugate, ts))
        rhs = np.sqrt(density.gamma * density_at(density, ts))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_blocked_evaluation_matches_pieces_in_bounded_memory(self):
        spec = build_spectrum("harmonic", 64, omega=1.0)
        sig = TrigSignal.from_state(spec, random_state(64, 5))
        ts = np.linspace(0.0, 40.0, 100_000)
        tracemalloc.start()
        try:
            vals = eval_f(sig, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4 MiB phase blocks beside the 1.6 MiB result: 6.4 MiB measured.
        assert peak < 10 * 2**20
        for piece in np.array_split(np.arange(ts.size), 100):
            direct = np.exp(-1j * np.outer(ts[piece], sig.freqs)) @ sig.amps
            np.testing.assert_allclose(vals[piece], direct, rtol=0, atol=1e-12)

    def test_phase_blocks_are_built_in_place(self):
        # Sixteen blocks of 256 x 1024 phases (4 MiB each).  Built in place at 16
        # bytes per entry, one block peaks near 4 MiB (4.2 MiB measured); a real
        # argument beside it reads 6.2 MiB, and a block kept into the next or
        # exp of a complex copy about 8.2.
        spec = build_spectrum("harmonic", 1024, omega=1.0)
        sig = TrigSignal.from_state(spec, random_state(1024, 3))
        ts = np.linspace(0.0, 10.0, 4096)
        tracemalloc.start()
        try:
            eval_f(sig, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20

    def test_jet_gives_f_and_its_derivatives(self, incommensurate_five):
        sig = incommensurate_five
        ts = np.linspace(0.0, 20.0, 301)
        terms = np.exp(-1j * np.outer(ts, sig.freqs)) * sig.amps
        direct = np.column_stack(
            [terms.sum(axis=1), terms @ (-1j * sig.freqs), terms @ -(sig.freqs**2)]
        )
        np.testing.assert_allclose(eval_f(_Jet(sig), ts), direct, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("jet", [False, True], ids=["signal", "jet"])
    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_point_bits_do_not_depend_on_its_block(self, monkeypatch, n, jet):
        # numpy multiplies a one-row table by another kernel than a taller one.
        sig = _random_signal(17, n)
        target = _Jet(sig) if jet else sig
        ts = np.random.default_rng(n).uniform(0.0, 50.0, 9)
        together = eval_f(target, ts)
        alone = np.array([eval_f(target, ts[i:i + 1])[0] for i in range(ts.size)])
        scalar = np.array([eval_f(target, float(t)) for t in ts])
        # Blocks of 4 and 5 rows: the lone trailing row joins the block before it.
        monkeypatch.setattr(zeroset, "_BLOCK_ENTRIES", 4 * n)
        blocked = eval_f(target, ts)
        for other in (alone, scalar, blocked):
            np.testing.assert_array_equal(other.view(np.int64), together.view(np.int64))

    @pytest.mark.parametrize("seed", range(4))
    def test_phase_table_has_the_bits_of_outer_times_minus_i(self, seed):
        # The table writes -(t omega) into its imaginary part and +0.0 into its
        # real part; np.outer(t, freqs) * -1j gives those bits, signed zeros too.
        rng = np.random.default_rng(seed)
        specials = np.array([0.0, -0.0, 1.0, -1.0, 1e-200, -3e5])
        for _ in range(100):
            scale = 10.0 ** rng.uniform(-3, 3)
            t = np.concatenate([rng.choice(specials, 3), rng.normal(0.0, scale, 6)])
            freqs = np.concatenate([rng.choice(specials, 3), rng.normal(0.0, scale, 4)])
            amps = rng.normal(size=freqs.size) + 1j * rng.normal(size=freqs.size)
            reference = np.exp(np.outer(t, freqs) * -1j)
            for got, want in (
                (zeroset._phases(t, freqs), reference),
                (zeroset._phases(t, freqs, amps), reference * amps),
            ):
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "count, rows, sizes",
        [
            (0, 16, []),
            (1, 16, [1]),
            (16, 16, [16]),
            (17, 16, [17]),
            (32, 16, [16, 16]),
            (33, 16, [16, 17]),
            (34, 16, [16, 16, 2]),
            (5, 1, [2, 3]),
        ],
    )
    def test_row_blocks_leave_no_lone_trailing_row(self, monkeypatch, count, rows, sizes):
        monkeypatch.setattr(zeroset, "_BLOCK_ENTRIES", 8 * rows)
        blocks = zeroset._row_blocks(count, 8)
        assert [b.stop - b.start for b in blocks] == sizes
        assert [b.start for b in blocks] == np.cumsum([0, *sizes])[:-1].tolist()


SCAN_CASES = {
    # (kind or "random", N, seed, window, stride between compared grid points)
    "harmonic64": ("harmonic", 64, 5, 10.0, 1),
    "box32": ("box", 32, 7, 10.0, 1),
    "box256-sampled": ("box", 256, 7, 10.0, 97),
    "incommensurate12": ("random", 12, 3, 17.0, 1),
}


def _scan_case_signal(case):
    kind, n, seed, window, _ = SCAN_CASES[case]
    if kind == "random":
        return _random_signal(seed, n), window
    return _structured_signal(kind, n, seed, False), window


class TestScan:
    @pytest.mark.parametrize("case", list(SCAN_CASES))
    def test_grid_matches_eval_f_within_rounding(self, case):
        sig, window = _scan_case_signal(case)
        stride = SCAN_CASES[case][-1]
        ts, fs, _ = _scan(sig, window, 1000)
        pick = np.unique(np.append(np.arange(0, ts.size, stride), ts.size - 1))
        err = float(np.max(np.abs(fs[pick] - eval_f(sig, ts[pick]))))
        assert err <= _scan_rounding(sig, window)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        window=st.floats(0.5, 20.0),
    )
    def test_grid_matches_eval_f_on_random_spectra(self, seed, n, window):
        sig = _random_signal(seed, n)
        ts, fs, _ = _scan(sig, window, 1000)
        assert np.max(np.abs(fs - eval_f(sig, ts))) <= _scan_rounding(sig, window)

    # A single tone has constant |f|, and its chords fall short of the circle by
    # exactly |c| omega^2 h^2 / 8 to leading order: the screen is tight there.
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), window=st.floats(0.5, 10.0))
    @example(seed=0, n=1, window=5.0)
    def test_chord_screen_bounds_f_between_nodes(self, seed, n, window):
        sig = _random_signal(seed, n)
        ts, fs, screen = _scan(sig, window, 1000)
        sub = ts[:-1, None] + np.linspace(0.0, 1.0, 65) * np.diff(ts)[:, None]
        absf = np.abs(eval_f(sig, sub))
        assert np.all(absf.min(axis=1) >= _chord_distance(fs) - screen)
        node_max = np.maximum(np.abs(fs[:-1]), np.abs(fs[1:]))
        assert np.all(absf.max(axis=1) <= node_max + screen)

    def test_cancellation_between_nodes_is_found(self):
        # |f| = sqrt(2)|sin((t - pi/2)/2)|: its zero pi/2 sits mid-cell on the
        # 1000-cell grid, and every node lies far above eps.
        sig = TrigSignal(np.array([3.0, 4.0]), np.array([1.0, -1.0j]) / math.sqrt(2.0))
        window, eps = 0.5 * math.pi * 1000 / 600.5, 1e-5
        ts = np.linspace(0.0, window, 1001)
        assert np.min(np.abs(eval_f(sig, ts))) > 50.0 * eps
        report = _converged(sublevel_measure(sig, eps, window, base_grid=1000))
        assert report.measure == pytest.approx(4.0 * math.asin(eps / math.sqrt(2.0)), abs=1e-9)
        zeros = find_zeros(sig, window, base_grid=1000)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(0.5 * math.pi, abs=1e-9)


class TestPhaseProduct:
    @pytest.mark.parametrize("case", list(SCAN_CASES))
    def test_table_matches_eval_f_within_rounding(self, case):
        sig, window = _scan_case_signal(case)
        rng = np.random.default_rng(11)
        starts = np.sort(rng.uniform(0.0, 0.9 * window, 300))
        offsets = 0.1 * window * np.linspace(0.0, 1.0, 36)
        table = _phase_product(sig, starts, offsets)
        assert table.shape == (300, 36)
        direct = eval_f(sig, starts[:, None] + offsets)
        assert np.max(np.abs(table - direct)) <= _scan_rounding(sig, window)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        rows=st.integers(1, 40),
        cols=st.integers(1, 40),
        window=st.floats(0.5, 20.0),
    )
    def test_table_matches_eval_f_on_random_inputs(self, seed, n, rows, cols, window):
        sig = _random_signal(seed, n)
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0.0, 0.5 * window, rows)
        offsets = rng.uniform(0.0, 0.5 * window, cols)
        table = _phase_product(sig, starts, offsets)
        direct = eval_f(sig, starts[:, None] + offsets)
        assert np.max(np.abs(table - direct)) <= _scan_rounding(sig, window)

    def test_row_blocks_match_one_block(self, monkeypatch):
        sig = _structured_signal("harmonic", 64, 5, False)
        starts, offsets = np.linspace(0.0, 9.0, 100), np.linspace(0.0, 1.0, 7)
        whole = _phase_product(sig, starts, offsets)
        monkeypatch.setattr(zeroset, "_BLOCK_ENTRIES", 64 * 16)  # 16 rows per block
        blocked = _phase_product(sig, starts, offsets)
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=_scan_rounding(sig, 10.0))

    @pytest.mark.parametrize("kind, n", [("harmonic", 8), ("harmonic", 64), ("box", 32)])
    def test_split_rows_keep_their_bits(self, monkeypatch, kind, n):
        # 33 rows at 16 rows per block: a lone trailing row would take numpy's
        # one-row kernel, so it joins the block before it.
        sig = _structured_signal(kind, n, 5, False)
        starts, offsets = np.linspace(0.0, 9.0, 33), np.linspace(0.0, 1.0, 7)
        whole = _phase_product(sig, starts, offsets)
        monkeypatch.setattr(zeroset, "_BLOCK_ENTRIES", 16 * n)
        split = _phase_product(sig, starts, offsets)
        np.testing.assert_array_equal(split.view(np.int64), whole.view(np.int64))

    # A width group of one Paley-Wiener panel is a one-start product.
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64))
    @example(seed=0, n=8)
    def test_one_start_has_the_bits_of_its_row_among_two(self, seed, n):
        sig = _random_signal(seed, n)
        rng = np.random.default_rng(seed)
        start, offsets = rng.uniform(0.0, 10.0, 1), rng.uniform(0.0, 0.5, 36)
        alone = _phase_product(sig, start, offsets)
        pair = _phase_product(sig, np.repeat(start, 2), offsets)
        np.testing.assert_array_equal(alone[0].view(np.int64), pair[0].view(np.int64))


UNIFORM_GRIDS = {
    "0-10x512": (0.0, 10.0, 512),
    "-5-5x512": (-5.0, 5.0, 512),
    "0-100x1000": (0.0, 100.0, 1000),
}


def _density_and_signal(spec, state):
    """The canonical density of a state and the signal whose |f|^2 / gamma it is."""
    density = CanonicalDensity.from_state(spec, state)
    return density, TrigSignal(spec.frequencies(), np.conj(density.amplitudes))


class TestUniformGrid:
    """membership_decay and density_at sum a uniform grid as one _phase_product."""

    @pytest.mark.parametrize("grid", list(UNIFORM_GRIDS))
    @pytest.mark.parametrize("seed", [1, 7, 29])
    @pytest.mark.parametrize("kind, n", [(k, n) for k in ("harmonic", "box") for n in (8, 64, 256)])
    def test_matches_eval_f_within_rounding(self, kind, n, seed, grid):
        spec = build_spectrum(kind, n)
        state = random_state(n, seed, in_zero_sum=True)
        t = np.linspace(*UNIFORM_GRIDS[grid])
        assert zeroset._uniform_step(t) is not None
        sig = TrigSignal.from_state(spec, state)
        rounding = _scan_rounding(sig, np.max(np.abs(t)))
        decay = membership_decay(spec, state, t).values
        assert np.max(np.abs(decay - np.abs(eval_f(sig, t)))) <= rounding
        # ||f|^2 - |g|^2| <= (|f| + |g|) |f - g| <= 2 sum|c_j| |f - g|.
        density, conj = _density_and_signal(spec, state)
        direct = np.abs(eval_f(conj, t)) ** 2 / density.gamma
        bound = 2.0 * conj.weight() * rounding / density.gamma
        assert np.max(np.abs(density_at(density, t) - direct)) <= bound

    def test_shifted_linspace_is_uniform(self):
        t = np.linspace(0.0, 10.0, 512)
        assert zeroset._uniform_step(t - 5.0) is not None
        assert zeroset._uniform_step(t[::-1]) is not None

    @pytest.mark.parametrize(
        "t",
        [np.array([0.0]), np.array(3.0), np.linspace(0.0, 1.0, 12).reshape(3, 4)],
        ids=["one-point", "scalar", "2-D"],
    )
    def test_short_or_shaped_grids_are_not_uniform(self, t):
        assert zeroset._uniform_step(t) is None

    @pytest.mark.parametrize("kind, n", [("harmonic", 64), ("box", 16)])
    def test_a_moved_node_takes_eval_f(self, kind, n):
        spec = build_spectrum(kind, n)
        state = random_state(n, 7, in_zero_sum=True)
        t = np.linspace(0.0, 10.0, 512)
        t[200] += 1e-6
        assert zeroset._uniform_step(t) is None
        sig = TrigSignal.from_state(spec, state)
        decay = membership_decay(spec, state, t).values
        np.testing.assert_array_equal(decay.view(np.int64), np.abs(eval_f(sig, t)).view(np.int64))
        density, conj = _density_and_signal(spec, state)
        direct = np.abs(eval_f(conj, t)) ** 2 / density.gamma
        np.testing.assert_array_equal(density_at(density, t).view(np.int64), direct.view(np.int64))


class TestSublevelMeasure:
    # At window 7 the zero at pi falls between grid points, and for the small
    # thresholds the dip below eps is narrower than one cell: only extremum
    # refinement, whose minimum splits the dip into two crossing brackets, can
    # find it.
    @pytest.mark.parametrize(
        "eps, window",
        [(0.1, TWO_PI), (1e-4, 7.0), (1e-6, 7.0)],
        ids=["eps0.1-window2pi", "eps1e-4-window7", "eps1e-6-window7"],
    )
    def test_arcsine_closed_form(self, balanced_signal, eps, window):
        report = _converged(sublevel_measure(balanced_signal, eps, window))
        assert report.measure == pytest.approx(4.0 * math.asin(eps / math.sqrt(2.0)), abs=1e-9)
        assert report.refinement_depth > 0

    def test_peak_between_nodes_is_found(self, balanced_signal):
        # |f|^2 = 1 + cos t peaks at 2 pi between two nodes of the 4096-cell grid
        # on [0, 7], and those nodes lie below eps: only the refinement of that
        # grid maximum finds the interval around 2 pi where |f| >= eps.
        eps = balanced_signal.weight() * (1.0 - 1e-8)
        nodes = np.linspace(0.0, 7.0, 4097)
        near = nodes[np.abs(nodes - TWO_PI) < 0.01]
        assert np.all(np.abs(eval_f(balanced_signal, near)) < eps)
        report = _converged(sublevel_measure(balanced_signal, eps, 7.0))
        # {cos t < eps^2 - 1} on [0, 7] leaves out [0, a), (2 pi - a, 2 pi + a).
        a = math.acos(eps * eps - 1.0)
        assert report.measure == pytest.approx(7.0 - 3.0 * a, abs=1e-9)

    @pytest.mark.parametrize("t0", [0.004, 9.996], ids=["start", "end"])
    @pytest.mark.parametrize("kind", ["dip", "rise"])
    def test_extremum_in_an_end_cell_is_found(self, kind, t0):
        # |f| is 2|sin((t - t0)/2)| for the dip and 2|cos((t - t0)/2)| for the
        # rise.  On 1000 cells of [0, 10] the extremum at t0 lies in the first
        # or last cell, whose window end is the grid's one-sided extremum: only
        # its refinement finds the interval around t0 where |f| crosses eps.
        phase = cmath.exp(1j * t0)
        if kind == "dip":
            sig, eps = TrigSignal(np.array([0.0, 1.0]), np.array([1.0, -phase])), 3e-3
            # |f| < eps within 2 asin(eps / 2) of t0 and of its copy 2 pi away.
            expected = 8.0 * math.asin(eps / 2.0)
        else:
            sig, eps = TrigSignal(np.array([0.0, 1.0]), np.array([1.0, phase])), 2.0 - 2e-6
            # |f| >= eps within 2 acos(eps / 2) of t0 and of its copy 2 pi away.
            expected = 10.0 - 8.0 * math.acos(eps / 2.0)
        report = _converged(sublevel_measure(sig, eps, 10.0, base_grid=1000))
        assert report.measure == pytest.approx(expected, abs=1e-9)

    def test_brute_force_grid_oracle(self, balanced_signal):
        # independent oracle: fraction of 1e7 midpoint samples below threshold
        eps = 0.1
        total = 10**7
        chunk = 10**6
        count = 0
        for k in range(0, total, chunk):
            ts = (np.arange(k, min(k + chunk, total)) + 0.5) * (TWO_PI / total)
            count += int(np.sum(np.abs(eval_f(balanced_signal, ts)) < eps))
        brute = TWO_PI * count / total
        report = _converged(sublevel_measure(balanced_signal, eps, TWO_PI))
        assert report.measure == pytest.approx(brute, abs=3e-6)

    def test_small_threshold_linear_scaling(self, balanced_signal):
        # slope of measure vs epsilon tends to 2*sqrt(2) at the simple zero
        eps = np.array([1e-2, 1e-3, 1e-4])
        measures = np.array(
            [_converged(sublevel_measure(balanced_signal, e, TWO_PI)).measure for e in eps]
        )
        slope = float(np.sum(measures * eps) / np.sum(eps * eps))
        assert slope == pytest.approx(2.0 * math.sqrt(2.0), rel=0.02)

    def test_threshold_above_maximum_gives_full_window(self, balanced_signal):
        with pytest.warns(UserWarning):
            report = _converged(sublevel_measure(balanced_signal, 1.5, TWO_PI))
        assert report.measure == TWO_PI
        assert report.error_bound == 0.0

    def test_measure_never_exceeds_window(self, incommensurate_five):
        for eps in (0.3, 0.9, 1.2):
            report = _converged(sublevel_measure(incommensurate_five, eps, 5.0))
            assert 0.0 <= report.measure <= 5.0

    @pytest.mark.parametrize("family", ["two", "harm5", "box5", "incomm5"])
    def test_fraction_ladder_monotone_and_collapsing(self, family, balanced_signal, incommensurate_five):
        if family == "two":
            sig = balanced_signal
        elif family == "harm5":
            spec = build_spectrum("harmonic", 5, omega=1.0)
            sig = TrigSignal.from_state(spec, random_state(5, 3, in_zero_sum=True))
        elif family == "box5":
            spec = build_spectrum("box", 5, scale=1.0)
            sig = TrigSignal.from_state(spec, random_state(5, 4, in_zero_sum=True))
        else:
            sig = incommensurate_five
        fractions = []
        for scale in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            report = _converged(sublevel_measure(sig, scale * sig.weight(), TWO_PI))
            fractions.append(report.measure / TWO_PI)
        assert all(b <= a + 1e-15 for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] <= 1e-4

    def test_validation(self, balanced_signal):
        with pytest.raises(PhysicsError):
            sublevel_measure(balanced_signal, -0.1, TWO_PI)
        with pytest.raises(PhysicsError):
            sublevel_measures(balanced_signal, [0.1, -0.1], TWO_PI)
        with pytest.raises(PhysicsError):
            sublevel_measure(balanced_signal, 0.1, 0.0)
        with pytest.raises(DimensionError):
            sublevel_measure(balanced_signal, 0.1, TWO_PI, base_grid=100)

    @pytest.mark.parametrize("window", [math.inf, math.nan, 1e308], ids=["inf", "nan", "1e308"])
    def test_non_finite_or_overflowing_window_raises(self, balanced_signal, window):
        # At 1e308 the scan's cell count 20 * window * max|omega| / (2 pi) overflows.
        with pytest.raises(PhysicsError, match="finite|overflows"):
            sublevel_measures(balanced_signal, [0.1], window)
        with pytest.raises(PhysicsError, match="finite|overflows"):
            find_zeros(balanced_signal, window)
        with pytest.raises(PhysicsError, match="finite|overflows"):
            paley_wiener_integral(balanced_signal, window)

    def test_report_invariants(self):
        with pytest.raises(PhysicsError):
            MeasureReport(0.1, 1.0, measure=2.0, refinement_depth=0, error_bound=0.0, converged=True)
        with pytest.raises(PhysicsError):
            MeasureReport(0.1, 1.0, measure=0.5, refinement_depth=0, error_bound=-1.0, converged=True)
        # converged has no default: every report states it.
        with pytest.raises(TypeError):
            MeasureReport(0.1, 1.0, measure=0.5, refinement_depth=0, error_bound=0.0)


def _report_bits(report):
    return (
        float(report.measure).hex(),
        float(report.error_bound).hex(),
        report.refinement_depth,
        report.converged,
    )


class TestSublevelLadder:
    # Unsorted thresholds, a repeated one, and one at or above sum|c_j|.
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10),
        window=st.floats(0.5, 15.0),
        scales=st.lists(st.floats(-7.0, 0.0), min_size=1, max_size=5),
    )
    @example(seed=3, n=6, window=9.0, scales=[-1.0, -4.0, -2.0])
    # A bracket left alone in one Newton step was a one-row eval_f block.
    @example(seed=26074, n=5, window=14.0, scales=[-2.0, -2.5])
    def test_ladder_is_bit_equal_to_one_call_per_threshold(self, seed, n, window, scales):
        sig = _random_signal(seed, n)
        w = sig.weight()
        epsilons = [w * 10.0**s for s in scales] + [w * 10.0 ** scales[0], 1.5 * w]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            ladder = sublevel_measures(sig, epsilons, window, base_grid=1000)
            single = [sublevel_measure(sig, eps, window, base_grid=1000) for eps in epsilons]
        assert [r.epsilon for r in ladder] == epsilons
        assert [_report_bits(r) for r in ladder] == [_report_bits(r) for r in single]

    def test_ladder_memory_of_claim_iii_on_box64(self):
        # Claim (iii)'s ladder at box N = 64 over window 30 (about 400 k cells):
        # its masks hold one boolean row per threshold, and each float
        # temporary of eps - peak is formed one row at a time.  32.96 MiB
        # measured; forming every eps - peak row at once read 46.6 MiB.
        sig = _structured_signal("box", 64, 7, True)
        epsilons = [*DEFAULT_EPSILONS, 1e-6 * sig.weight()]
        tracemalloc.start()
        try:
            sublevel_measures(sig, epsilons, 30.0, base_grid=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 32.96 * 2**20

    def test_threshold_above_maximum_warns_for_that_threshold_only(self, monkeypatch, balanced_signal):
        w = balanced_signal.weight()
        with pytest.warns(UserWarning, match="threshold at or above max") as caught:
            low, at, above = sublevel_measures(balanced_signal, [0.1, w, 2.0 * w], TWO_PI)
        assert len(caught) == 2
        assert low.measure == pytest.approx(4.0 * math.asin(0.1 / math.sqrt(2.0)), abs=1e-9)
        for report in (at, above):
            assert (report.measure, report.error_bound, report.converged) == (TWO_PI, 0.0, True)
        scans = []
        monkeypatch.setattr(zeroset, "_scan", lambda *args: scans.append(args))
        with pytest.warns(UserWarning) as caught:
            reports = sublevel_measures(balanced_signal, [w, 3.0 * w], TWO_PI)
        assert len(caught) == 2 and not scans
        assert [r.measure for r in reports] == [TWO_PI, TWO_PI]

    def test_warning_names_the_callers_line(self, balanced_signal):
        with pytest.warns(UserWarning) as caught:
            line = sys._getframe().f_lineno + 1
            sublevel_measure(balanced_signal, 1.5, TWO_PI)
            sublevel_measures(balanced_signal, [1.5], TWO_PI)
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line), (__file__, line + 1)]

    def test_open_extremum_bracket_fails_only_the_thresholds_that_use_it(self, monkeypatch, balanced_signal):
        # At eps 0.5 the dip at pi spans many cells: crossings only.  At 1e-4 it is
        # narrower than a cell, and its extremum bracket stays open after one step.
        monkeypatch.setattr(zeroset, "_EXTREMUM_STEPS", 1)
        reports = sublevel_measures(balanced_signal, [0.5, 1e-4], 7.0)
        assert [r.converged for r in reports] == [True, False]

    def test_one_crossings_call_refines_every_threshold(self, monkeypatch):
        shifts = []

        def spy(*args):
            shifts.append(args[-1])
            return _crossings(*args)

        monkeypatch.setattr(zeroset, "_crossings", spy)
        epsilons = [0.3, 0.1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 1e-6]
        for report in sublevel_measures(_box32_benchmark_signal(), epsilons, 10.0, base_grid=1000):
            _converged(report)
        assert len(shifts) == 1
        assert set(shifts[0].tolist()) == set(epsilons)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_ladder_is_bit_equal_to_one_call_per_threshold_at_the_step_cap(self, monkeypatch, cap):
        # Brackets of one threshold close at different steps: a report's depth is
        # its own last closing step, or the cap when one of them stays open.
        monkeypatch.setattr(zeroset, "_CROSSING_STEPS", cap)
        sig = _box32_benchmark_signal()
        epsilons = [0.3, 0.1, 1e-2, 1e-4, 1e-6]
        ladder = sublevel_measures(sig, epsilons, 10.0, base_grid=1000)
        single = [sublevel_measure(sig, eps, 10.0, base_grid=1000) for eps in epsilons]
        assert [_report_bits(r) for r in ladder] == [_report_bits(r) for r in single]
        assert not all(r.converged for r in ladder)
        assert all(r.refinement_depth == cap for r in ladder if not r.converged)

    def test_run_claims_scans_twice(self, monkeypatch):
        # One ladder scan and one zero search that serves both Paley-Wiener
        # panel counts, whatever their grids.
        scans = []

        def counted(*args):
            scans.append(args)
            return _scan(*args)

        monkeypatch.setattr(zeroset, "_scan", counted)
        spec = build_spectrum("harmonic", 8, omega=1.0)
        assert run_claims(spec, random_state(8, 7, in_zero_sum=True))["all_demonstrated"]
        assert len(scans) == 2


def _scalar_golden(fun, a, b):
    """Reference: scalar golden-section minimization of fun on [a, b] to BISECTION_TOL."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(200):
        if b - a <= BISECTION_TOL:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (c, fc) if fc <= fd else (d, fd)


def _scalar_bisection(inside, lo, hi, inside_lo):
    """Reference: scalar bisection of a side test to BISECTION_TOL, returning the midpoint."""
    for _ in range(80):
        if hi - lo <= BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if inside(mid) == inside_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _box32_benchmark_signal():
    """Box N = 32, equal moduli with seeded phases (seed 7), projected to zero sum."""
    spec = build_spectrum("box", 32, scale=1.0)
    coeffs = random_state(32, 7).coeffs
    flat = QuantumState.normalized(coeffs / np.abs(coeffs))
    return TrigSignal.from_state(spec, project_to_zero_sum(flat))


class TestExtremumCentres:
    # Values from a few integers make plateaus of equal neighbours common.
    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-2, 2), min_size=n + 1, max_size=n + 1),
                st.lists(st.booleans(), min_size=n + 1, max_size=n + 1),
                st.lists(
                    st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=4
                ),
            )
        )
    )
    def test_matches_a_loop_over_the_nodes(self, cells):
        values, keep, cell_rows = cells
        last = len(values) - 1
        v, keep = np.array(values, dtype=float), np.array(keep)
        at = _extremum_centres(v)
        for cell_ok in cell_rows:
            expected = []
            for i, value in enumerate(values):
                # A window end has one neighbour and one cell.
                left = values[i - 1] if i > 0 else math.inf
                right = values[i + 1] if i < last else math.inf
                beside = (i > 0 and cell_ok[i - 1]) or (i < last and cell_ok[i])
                if value <= left and value <= right and keep[i] and beside:
                    expected.append(i)
            assert at[keep[at] & _beside(np.array(cell_ok), at)].tolist() == expected
        # A 2-D cell_ok holds one row per threshold: each row is its 1-D call.
        rows = np.array(cell_rows)
        got = _beside(rows, at)
        assert got.shape == (len(rows), at.size)
        for row, cell_ok in zip(got, rows):
            np.testing.assert_array_equal(row, _beside(cell_ok, at))


class TestLockstepRefiners:
    def test_bisection_follows_the_inside_flag(self, balanced_signal):
        # |f| = sqrt(2)|cos(t/2)| drops below eps on (pi - delta, pi + delta)
        eps = 0.1
        delta = 2.0 * math.asin(eps / math.sqrt(2.0))
        lo = np.array([math.pi - delta - 0.01, math.pi + delta - 0.002])
        hi = np.array([math.pi - delta + 0.003, math.pi + delta + 0.01])
        crossings, closed_at, still_open = _crossings(
            balanced_signal, lo, hi, np.array([False, True]), np.full(2, eps)
        )
        np.testing.assert_allclose(crossings, [math.pi - delta, math.pi + delta], atol=1e-11)
        assert np.all((0 < closed_at) & (closed_at <= 80))
        assert still_open.size == 0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        level=st.floats(0.05, 0.95),
        window=st.floats(0.5, 3.0),
    )
    def test_newton_matches_scalar_references_on_random_spectra(self, seed, n, level, window):
        sig = _random_signal(seed, n)
        ts, fs, _ = _scan(sig, window, 1000)
        absf = np.abs(fs)
        eps = float(np.quantile(absf, level))
        below = absf - eps < 0.0
        cross = np.nonzero(below[:-1] != below[1:])[0]
        # Compare only cells that a 64-piece sub-grid shows crossing once.
        sub = ts[cross, None] + np.linspace(0.0, 1.0, 65) * (ts[cross + 1] - ts[cross])[:, None]
        side = np.abs(eval_f(sig, sub)) - eps < 0.0
        cross = cross[np.sum(side[:, 1:] != side[:, :-1], axis=1) == 1]
        shift = np.full(cross.size, eps)
        crossings, _, still_open = _crossings(sig, ts[cross], ts[cross + 1], below[cross], shift)
        assert still_open.size == 0
        for k, c in enumerate(cross):
            ref = _scalar_bisection(
                lambda t: abs(eval_f(sig, t)) - eps < 0.0, ts[c], ts[c + 1], below[c]
            )
            assert abs(crossings[k] - ref) <= 2.0 * BISECTION_TOL

        inner, cells = np.ones(absf.size, dtype=bool), np.ones(absf.size - 1, dtype=bool)
        inner[[0, -1]] = False  # interior brackets only
        dips, rises = (
            c[inner[c] & _beside(cells, c)] for c in map(_extremum_centres, (absf, -absf))
        )
        ext = np.concatenate([dips, rises])
        sign = np.concatenate([np.ones(dips.size), -np.ones(rises.size)])
        t_ext, v_ext, still_open = _extrema(sig, ts[ext - 1], ts[ext + 1], sign)
        assert still_open.size == 0
        for k, e in enumerate(ext):
            _, v_ref = _scalar_golden(
                lambda t: sign[k] * abs(eval_f(sig, t)), ts[e - 1], ts[e + 1]
            )
            assert ts[e - 1] < t_ext[k] < ts[e + 1]
            # The two minimizers differ, so each value carries its own rounding.
            assert v_ext[k] <= v_ref + 2.0 * _scan_rounding(sig, window)

    def test_refinement_points_on_the_box32_eps_ladder(self, monkeypatch):
        # Newton on every bracket takes 8 929 eval_f points in 162 calls here;
        # golden section beside it and a closing midpoint test took 215 calls.
        sig = _box32_benchmark_signal()
        points = calls = 0

        def counted(s, t):
            nonlocal points, calls
            points += np.size(t)
            calls += 1
            return eval_f(s, t)

        monkeypatch.setattr(zeroset, "eval_f", counted)
        for eps in (0.3, 0.1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 1e-6):
            _converged(sublevel_measure(sig, eps, 10.0, base_grid=1000))
        zeros = find_zeros(sig, 10.0, base_grid=1000)
        np.testing.assert_allclose(zeros, [0.0, TWO_PI], rtol=0, atol=1e-8)
        assert points <= 13_435
        assert calls <= 170

    def test_refinement_points_of_one_box32_ladder(self, monkeypatch):
        # One scan and one extremum refinement serve all 11 thresholds: 8 000
        # points in 86 calls here, against 8 823 in 155 at one call per eps.
        sig = _box32_benchmark_signal()
        points = calls = 0

        def counted(s, t):
            nonlocal points, calls
            points += np.size(t)
            calls += 1
            return eval_f(s, t)

        monkeypatch.setattr(zeroset, "eval_f", counted)
        epsilons = [0.3, 0.1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 1e-6]
        for report in sublevel_measures(sig, epsilons, 10.0, base_grid=1000):
            _converged(report)
        assert points <= 8_000
        assert calls <= 86

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 10),
        level=st.floats(0.02, 0.9),
        window=st.floats(0.5, 10.0),
    )
    def test_measure_matches_midpoint_classification_on_random_spectra(self, seed, n, level, window):
        # Reference: each interval between sorted crossings is inside when |f|
        # is below eps at its midpoint.  Intervals narrower than BISECTION_TOL
        # may go either way.
        sig = _random_signal(seed, n)
        eps = level * sig.weight()
        found = []

        def spy(*args):
            crossings, closed_at, still_open = _crossings(*args)
            found.append(crossings)
            return crossings, closed_at, still_open

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zeroset, "_crossings", spy)
            report = _converged(sublevel_measure(sig, eps, window, base_grid=1000))
        (crossings,) = found
        edges = np.concatenate([[0.0], np.sort(crossings), [window]])
        inside = np.abs(eval_f(sig, 0.5 * (edges[:-1] + edges[1:]))) - eps < 0.0
        reference = float(np.sum(np.diff(edges)[inside]))
        assert abs(report.measure - reference) <= BISECTION_TOL * crossings.size

    def test_extrema_return_the_better_end_without_an_interior_minimum(self, balanced_signal):
        # |f| = sqrt(2)|cos(t/2)| falls on (0, pi), vanishes at pi and peaks at 2 pi.
        a = np.array([0.5, 0.5, TWO_PI - 0.3, math.pi - 0.2])
        b = np.array([1.0, 1.0, TWO_PI + 0.5, math.pi + 0.4])
        sign = np.array([1.0, -1.0, 1.0, -1.0])
        t, v, still_open = _extrema(balanced_signal, a, b, sign)
        assert still_open.size == 0
        # Monotone |f|: the lower end of sign * |f|.  Around a maximum of
        # sign * |f|: the end farther from it.
        np.testing.assert_array_equal(t, [1.0, 0.5, TWO_PI + 0.5, math.pi + 0.4])
        np.testing.assert_allclose(v, sign * np.abs(eval_f(balanced_signal, t)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("cap", ["_CROSSING_STEPS", "_EXTREMUM_STEPS"])
    def test_step_cap_hit_is_reported_by_sublevel_measure(self, monkeypatch, balanced_signal, cap):
        # At eps 1e-4 the dip at pi is narrower than a cell: an extremum and two
        # crossings.  The report carries the cap hit; no RuntimeWarning is raised.
        _converged(sublevel_measure(balanced_signal, 1e-4, 7.0))
        monkeypatch.setattr(zeroset, cap, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = sublevel_measure(balanced_signal, 1e-4, 7.0)
        assert not report.converged

    def test_step_cap_hit_fails_claim_iii(self, monkeypatch):
        # The sublevel_measures call leaves crossing brackets open at each of its
        # seven thresholds.
        spec = build_spectrum("harmonic", 8, omega=1.0)
        psi = random_state(8, 7, in_zero_sum=True)
        monkeypatch.setattr(zeroset, "_CROSSING_STEPS", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            claim_iii = run_claims(spec, psi)["claim_iii"]
        assert claim_iii["paley_wiener_converged"]
        assert not claim_iii["demonstrated"]

    def test_unrelated_runtime_warning_does_not_fail_claim_iii(self, monkeypatch):
        # Only a step or level cap decides convergence: a RuntimeWarning from
        # elsewhere reaches the caller and leaves claim (iii) demonstrated.
        spec = build_spectrum("harmonic", 8, omega=1.0)
        psi = random_state(8, 7, in_zero_sum=True)
        emitted = []

        def noisy(sig, t):
            if not emitted:
                emitted.append(True)
                warnings.warn("unrelated", RuntimeWarning)
            return eval_f(sig, t)

        monkeypatch.setattr(zeroset, "eval_f", noisy)
        with pytest.warns(RuntimeWarning) as caught:
            claim_iii = run_claims(spec, psi)["claim_iii"]
        assert [str(w.message) for w in caught] == ["unrelated"]
        assert claim_iii["demonstrated"]

    def test_other_warnings_pass_through_claim_iii(self):
        spec = build_spectrum("harmonic", 8, omega=1.0)
        psi = random_state(8, 7, in_zero_sum=True)
        with pytest.warns(UserWarning, match="threshold at or above max"):
            claim_iii = run_claims(spec, psi, epsilons=(10.0,))["claim_iii"]
        assert claim_iii["measure_fractions"] == [1.0]

    def test_brackets_beyond_double_resolution_close_without_cap_hits(self, balanced_signal):
        # Past t = 8192 adjacent doubles lie more than BISECTION_TOL apart, so a
        # bracket closes at one double spacing, and no bracket reaches its step cap.
        # Newton closes them in a few steps; bisecting to that spacing takes 30.
        window, eps = 2.0e4, 1e-3
        zeros = np.arange(math.pi, window, TWO_PI)
        delta = 2.0 * math.asin(eps / math.sqrt(2.0))
        report = _converged(sublevel_measure(balanced_signal, eps, window))
        # Each of the 2 * zeros.size crossings lies within one double spacing.
        tol = 2 * zeros.size * float(np.spacing(window))
        assert report.measure == pytest.approx(2.0 * delta * zeros.size, abs=tol)
        assert report.refinement_depth <= 12
        found = find_zeros(balanced_signal, window)
        np.testing.assert_allclose(found, zeros, rtol=0, atol=1e-8)

    def test_step_cap_hit_is_reported_by_find_zeros(self, monkeypatch):
        # Every bracket goes to Newton, the window-end zero at t = 0 included.
        sig = _box32_benchmark_signal()
        monkeypatch.setattr(zeroset, "_EXTREMUM_STEPS", 1)
        with pytest.warns(RuntimeWarning) as caught:
            find_zeros(sig, 10.0, base_grid=1000)
        kinds = {str(w.message).split(" brackets")[0].split(" ", 1)[1] for w in caught}
        assert kinds == {"extremum"}


class TestFindZeros:
    def test_matches_unit_circle_roots(self, structured_signal):
        # z = e^{-it} is a root of P on |z| = 1 exactly when f vanishes at t.
        window = 10.0
        _, roots = _roots_of_p(structured_signal)
        on_circle = roots[np.abs(np.abs(roots) - 1.0) < 1e-8]
        t0 = np.mod(-np.angle(on_circle), TWO_PI)
        times = np.concatenate([t0 - TWO_PI, t0, t0 + TWO_PI])
        expected = np.sort(np.clip(times[(times > -1e-8) & (times < window + 1e-8)], 0.0, window))
        zeros = find_zeros(structured_signal, window)
        assert len(zeros) == expected.size
        np.testing.assert_allclose(zeros, expected, rtol=0, atol=1e-8)

    def test_cosine_zeros(self, balanced_signal):
        zeros = find_zeros(balanced_signal, 3.0 * TWO_PI)
        expected = [math.pi, 3.0 * math.pi, 5.0 * math.pi]
        assert len(zeros) == 3
        np.testing.assert_allclose(zeros, expected, atol=1e-9)

    def test_window_end_zero_is_returned_exactly(self):
        # f(0) = sum c_j = 0 to rounding: the bracket end t = 0 is the minimum.
        zeros = find_zeros(_box32_benchmark_signal(), 10.0, base_grid=1000)
        assert zeros[0] == 0.0

    def test_zero_sum_state_vanishes_at_origin(self):
        spec = build_spectrum("harmonic", 6, omega=1.0)
        psi = random_state(6, 12, in_zero_sum=True)
        zeros = find_zeros(TrigSignal.from_state(spec, psi), 4.0)
        assert zeros and zeros[0] == pytest.approx(0.0, abs=1e-9)

    def test_zeros_are_membership_times(self, two_level, minus_state):
        sig = TrigSignal.from_state(two_level, minus_state)
        zeros = find_zeros(sig, 3.0 * TWO_PI)
        assert zeros
        for t_star in zeros:
            moved = evolve(minus_state, two_level, t_star)
            assert abs(coefficient_sum(moved)) <= 1e-9

    def test_zero_free_signal(self):
        sig = TrigSignal(np.array([0.0, 1.0]), np.array([0.9, math.sqrt(1 - 0.81)]))
        # |f| >= 0.9 - 0.436 > 0 everywhere
        assert find_zeros(sig, 20.0) == []

    def test_identically_zero_rejected(self):
        sig = TrigSignal(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        with pytest.raises(ZeroSignalError):
            find_zeros(sig, 1.0)


def _direct_panel_rules(sig, rows, absolute):
    """Reference for _panel_rules: each rule's nodes through eval_f, one interval at a time."""
    nodes, weights = _gauss_legendre()
    sigma = -1.0 if absolute else 1.0
    out = []
    for a, b, zero_a, zero_b in rows:
        mid = a + 0.5 * (b - a)
        estimates = []
        for lo, hi, at_lo, at_hi in ((a, b, zero_a, zero_b), (a, mid, zero_a, 0.0), (mid, b, 0.0, zero_b)):
            half = 0.5 * (hi - lo)
            t = lo + half * (1.0 + nodes)
            logf = np.log(np.abs(eval_f(sig, t)))
            near = at_lo * np.log(t - lo) + at_hi * np.log(hi - t)
            integrand = (np.abs(logf) if absolute else logf) - sigma * near
            exact = sigma * (at_lo + at_hi) * 2.0 * half * (math.log(2.0 * half) - 1.0)
            estimates.append(half * float(integrand @ weights) + exact)
        out.append(estimates)
    return np.array(out)


class TestPaleyWiener:
    @pytest.mark.parametrize("absolute", [True, False])
    def test_panel_rules_match_direct_evaluation(self, absolute):
        sig = _signal_with_unit_roots()
        zeros = np.array(find_zeros(sig, 8.0))
        assert zeros.size == 3
        # 16 uniform panels of width 0.5, each zero splitting one of them into two
        # pieces of unique width, and halves of two panels in scrambled order.
        edges = np.union1d(np.linspace(0.0, 8.0, 17), zeros)
        flags = np.isin(edges, zeros).astype(float)
        split = np.column_stack([edges[:-1], edges[1:], flags[:-1], flags[1:]])
        halves = np.array([[6.0, 6.25, 0, 0], [1.0, 1.25, 0, 0], [6.25, 6.5, 0, 0], [1.25, 1.5, 0, 0]])
        rows = np.concatenate([split, halves])
        rows = rows[np.random.default_rng(4).permutation(len(rows))]
        _, counts = np.unique(rows[:, 1] - rows[:, 0], return_counts=True)
        assert 1 in counts and 4 in counts
        got = _panel_rules(sig, rows, absolute)
        np.testing.assert_allclose(got, _direct_panel_rules(sig, rows, absolute), rtol=0, atol=1e-12)

    def test_integral_memory_is_bounded_by_phase_blocks(self):
        # 4096 same-width panels at N = 1024: unblocked, one level's start table
        # alone would be 64 MiB; in 4 MiB blocks the level peaks near 11.5 MiB.
        spec = build_spectrum("harmonic", 1024, omega=1.0)
        sig = TrigSignal.from_state(spec, random_state(1024, 3, in_zero_sum=True))
        tracemalloc.start()
        try:
            value = _converged(paley_wiener_integral(sig, 1.0, 4096)).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value) and value > 0.0
        assert peak < 16 * 2**20

    def test_flat_signal_zero_integral(self):
        sig = TrigSignal(np.array([2.0]), np.array([1.0]))
        value = _converged(paley_wiener_integral(sig, 5.0, 128)).value
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_signed_mean_is_minus_half_log_two(self, balanced_signal):
        report = paley_wiener_integral(balanced_signal, TWO_PI, 256, absolute=False)
        value = _converged(report).value
        assert value == pytest.approx(-0.5 * math.log(2.0), abs=1e-6)

    def test_absolute_mean_matches_catalan_form(self, balanced_signal):
        # closed form: 2*G/pi with G Catalan's constant
        value = _converged(paley_wiener_integral(balanced_signal, TWO_PI, 256)).value
        assert value == pytest.approx(2.0 * CATALAN / math.pi, abs=1e-6)

    def test_absolute_mean_matches_catalan_form_closely(self, balanced_signal):
        value = _converged(paley_wiener_integral(balanced_signal, TWO_PI, 256)).value
        assert value == pytest.approx(2.0 * CATALAN / math.pi, abs=1e-12)

    def test_signed_mean_over_a_period_is_jensen_value(self, structured_signal):
        report = paley_wiener_integral(structured_signal, TWO_PI, 256, absolute=False)
        value = _converged(report).value
        assert value == pytest.approx(_jensen_mean(structured_signal), abs=1e-10)

    @pytest.mark.parametrize("periods", [1, 3])
    @pytest.mark.parametrize("seed", [1, 7, 29])
    @pytest.mark.parametrize(
        "kind, n", [("harmonic", 8), ("harmonic", 64), ("box", 4), ("box", 8), ("box", 16)]
    )
    def test_signed_mean_over_whole_periods_is_jensen_value(self, kind, n, seed, periods):
        # Box N = 16 makes P of degree 255.
        sig = _structured_signal(kind, n, seed, True)
        report = paley_wiener_integral(sig, periods * TWO_PI, 256, absolute=False)
        value = _converged(report).value
        assert value == pytest.approx(_jensen_mean(sig), rel=1e-11, abs=0)

    @pytest.mark.parametrize("n", [16, 64])
    def test_signed_mean_on_box_matches_a_fine_reference(self, monkeypatch, n):
        # Claim (iii)'s problem: seed 7, window 10.  The reference takes 2^14
        # panels at a per-panel tolerance of 1e-12 (b - a) / window; 1e-14 would
        # take minutes on box N = 64, where a panel's rounding is near it.
        sig = _structured_signal("box", n, 7, True)
        report = _converged(paley_wiener_integral(sig, 10.0, 256, absolute=False))
        monkeypatch.setattr(zeroset, "PANEL_TOL", 1e-12)
        reference = _converged(paley_wiener_integral(sig, 10.0, 2**14, absolute=False))
        assert reference.error_estimate <= 1e-13
        assert abs(report.value - reference.value) <= 1e-10
        assert abs(report.value - reference.value) <= report.error_estimate

    @pytest.mark.parametrize("absolute", [False, True])
    def test_a_zero_edge_off_by_less_than_the_merge_tolerance_converges(
        self, monkeypatch, balanced_signal, absolute
    ):
        # The zero is at pi; an edge 5e-12 off leaves a log singularity that
        # no halving resolves, until its panels are no wider than the merge
        # tolerance (1e-11 here).  201 panels keep pi off the uniform edges.
        monkeypatch.setattr(zeroset, "_zeros", lambda sig, window, base: ([math.pi + 5e-12], 0))
        report = _converged(paley_wiener_integral(balanced_signal, TWO_PI, 201, absolute))
        exact = 2.0 * CATALAN / math.pi if absolute else -0.5 * math.log(2.0)
        assert abs(report.value - exact) <= report.error_estimate <= 1e-12

    def test_level_cap_hit_is_reported(self, monkeypatch, incommensurate_five):
        spec = build_spectrum("harmonic", 8, omega=1.0)
        psi = random_state(8, 7, in_zero_sum=True)
        assert run_claims(spec, psi)["claim_iii"]["demonstrated"]
        _converged(paley_wiener_integral(incommensurate_five, TWO_PI, 200))
        monkeypatch.setattr(zeroset, "_MAX_LEVELS", 1)
        assert not paley_wiener_integral(incommensurate_five, TWO_PI, 200).converged
        pair = paley_wiener_integrals(incommensurate_five, TWO_PI, [200, 400])
        assert [report.converged for report in pair] == [False, False]
        claim_iii = run_claims(spec, psi)["claim_iii"]
        assert not claim_iii["paley_wiener_converged"]
        assert not claim_iii["demonstrated"]

    def test_error_estimate_above_the_stability_tolerance_fails_claim_iii(self, monkeypatch):
        spec = build_spectrum("harmonic", 8, omega=1.0)
        psi = random_state(8, 7, in_zero_sum=True)
        assert run_claims(spec, psi)["claim_iii"]["demonstrated"]
        integrals = claims.paley_wiener_integrals

        def inflated(*args, **kwargs):
            reports = integrals(*args, **kwargs)
            return [
                dataclasses.replace(r, error_estimate=2.0 * PW_STABILITY_TOL * abs(r.value))
                for r in reports
            ]

        monkeypatch.setattr(claims, "paley_wiener_integrals", inflated)
        claim_iii = run_claims(spec, psi)["claim_iii"]
        assert claim_iii["paley_wiener_relative_change"] <= PW_STABILITY_TOL
        value, estimate = claim_iii["paley_wiener_value"], claim_iii["paley_wiener_error_estimate"]
        assert estimate > PW_STABILITY_TOL * abs(value)
        assert not claim_iii["paley_wiener_converged"]
        assert not claim_iii["demonstrated"]

    def test_stable_under_panel_doubling(self, balanced_signal, incommensurate_five):
        for sig in (balanced_signal, incommensurate_five):
            coarse = _converged(paley_wiener_integral(sig, TWO_PI, 200)).value
            fine = _converged(paley_wiener_integral(sig, TWO_PI, 400)).value
            assert abs(fine - coarse) / abs(fine) <= 1e-5

    def test_finite_even_with_boundary_zero(self):
        spec = build_spectrum("harmonic", 4, omega=1.0)
        psi = random_state(4, 2, in_zero_sum=True)
        sig = TrigSignal.from_state(spec, psi)
        value = _converged(paley_wiener_integral(sig, TWO_PI, 128)).value
        assert math.isfinite(value) and value > 0.0

    def test_zero_search_step_cap_hit_is_reported(self, monkeypatch, balanced_signal):
        # The zero at pi is refined by Newton on d|f|^2/dt; one step leaves it open.
        _converged(paley_wiener_integral(balanced_signal, TWO_PI, 256))
        monkeypatch.setattr(zeroset, "_EXTREMUM_STEPS", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = paley_wiener_integral(balanced_signal, TWO_PI, 256)
        assert not report.converged

    def test_identically_zero_rejected(self):
        sig = TrigSignal(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ZeroSignalError):
            paley_wiener_integral(sig, 1.0, 128)

    def test_panel_floor(self, balanced_signal):
        # Every count, and that there is one, is checked before the window and
        # the signal.
        zero = TrigSignal(np.array([1.0]), np.array([0.0]))
        bad = ((balanced_signal, -1.0), (balanced_signal, math.inf), (zero, 1.0))
        for sig, window in ((balanced_signal, 1.0), *bad):
            with pytest.raises(DimensionError):
                paley_wiener_integral(sig, window, 50)
            for counts in ([200, 50], []):
                with pytest.raises(DimensionError):
                    paley_wiener_integrals(sig, window, counts)

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(["harmonic", "box", "custom"]),
        n=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
        zero_sum=st.booleans(),
        window=st.sampled_from([10.0, 7.3, 31.0]),
        absolute=st.booleans(),
        p=st.integers(100, 200),
        layout=st.sampled_from([(1,), (1, 2), (2, 1), (1, 1)]),
    )
    # The pair that claim (iii) runs on the default problem.
    @example(
        kind="harmonic", n=8, seed=7, zero_sum=True, window=10.0, absolute=True, p=128, layout=(1, 2)
    )
    def test_counts_together_are_bit_equal_to_one_call_per_count(
        self, kind, n, seed, zero_sum, window, absolute, p, layout
    ):
        if kind == "custom":
            levels = np.sort(np.random.default_rng(seed).uniform(0.0, 30.0, n))
            spec = build_spectrum("custom", n, levels=levels)
            sig = TrigSignal.from_state(spec, random_state(n, seed, in_zero_sum=zero_sum))
        else:
            sig = _structured_signal(kind, n, seed, zero_sum)
        counts = [m * p for m in layout]
        together = paley_wiener_integrals(sig, window, counts, absolute)
        alone = [paley_wiener_integral(sig, window, count, absolute) for count in counts]
        bits = [
            [(r.value.hex(), r.converged, r.error_estimate.hex()) for r in reports]
            for reports in (together, alone)
        ]
        assert bits[0] == bits[1]

    def test_pair_searches_zeros_once_and_shares_its_panels(self, monkeypatch):
        # Harmonic N = 64, window 10: most halves of the coarse tree are panels
        # of the fine one.  One zero search serves both counts on every
        # spectrum, N = 8 included.
        sig = _structured_signal("harmonic", 64, 7, True)
        rows, searches = [], []
        zeros, rules = zeroset._zeros, zeroset._panel_rules

        def counted_zeros(*args):
            searches.append(args)
            return zeros(*args)

        def counted_rules(s, panels, absolute):
            rows.append(len(panels))
            return rules(s, panels, absolute)

        monkeypatch.setattr(zeroset, "_zeros", counted_zeros)
        monkeypatch.setattr(zeroset, "_panel_rules", counted_rules)
        alone = [_converged(paley_wiener_integral(sig, 10.0, count)) for count in (128, 256)]
        two_calls, rows[:], searches[:] = sum(rows), [], []
        pair = paley_wiener_integrals(sig, 10.0, [128, 256])
        assert pair == alone
        assert len(searches) == 1
        assert sum(rows) <= 0.6 * two_calls
        searches[:] = []
        paley_wiener_integrals(_structured_signal("harmonic", 8, 7, True), 10.0, [128, 256])
        assert len(searches) == 1


class TestBohrMean:
    def test_unit_state_power_approaches_one(self, incommensurate_five):
        def power(ts):
            return np.abs(eval_f(incommensurate_five, ts)) ** 2

        errors = [abs(_midpoint_mean(power, w) - 1.0) for w in (100.0, 800.0, 6400.0)]
        assert errors[2] < errors[0]
        assert errors[2] <= 0.02


class TestPeriodicApproximation:
    def test_commensurate_unchanged(self, balanced_signal):
        result = periodic_approximation(balanced_signal, 1e-3, 100.0)
        np.testing.assert_array_equal(result.signal.freqs, balanced_signal.freqs)
        assert result.base_period == pytest.approx(4.0 * math.pi, abs=0)
        assert result.multipliers == (1, 3)
        assert result.drift_bound == 0.0

    def test_sqrt_two_uses_deep_convergent(self):
        sig = TrigSignal(np.array([1.0, math.sqrt(2.0)]), np.array([1.0, 1.0]) / math.sqrt(2.0))
        result = periodic_approximation(sig, 1e-3, 100.0)
        # must be as good as the 1393/985 convergent, |sqrt2 - 1393/985| ~ 3.65e-7
        assert abs(result.signal.freqs[1] - math.sqrt(2.0)) <= 3.7e-7
        assert result.drift_bound <= 1e-3

    def test_sup_norm_contract_on_dense_grid(self):
        cases = [
            (TrigSignal(np.array([1.0, math.sqrt(2.0)]), np.array([1.0, 1.0]) / math.sqrt(2.0)), 1e-3, 100.0),
            (TrigSignal(np.array([0.3, 1.1, math.pi]), QuantumState.normalized([0.5, 0.5j, 0.7]).coeffs), 1e-2, 50.0),
        ]
        for sig, tol, horizon in cases:
            result = periodic_approximation(sig, tol, horizon)
            ts = np.linspace(0.0, horizon, 100_000)
            sup = float(np.max(np.abs(eval_f(sig, ts) - eval_f(result.signal, ts))))
            assert sup <= tol
            assert sup <= result.drift_bound + 1e-12

    def test_multipliers_reconstruct_frequencies(self):
        sig = TrigSignal(np.array([1.0, math.sqrt(2.0)]), np.array([1.0, 1.0]) / math.sqrt(2.0))
        result = periodic_approximation(sig, 1e-3, 100.0)
        rebuilt = 2.0 * math.pi * np.array(result.multipliers) / result.base_period
        np.testing.assert_allclose(rebuilt, result.signal.freqs, rtol=1e-12)

    def test_unreachable_tolerance_raises(self):
        sig = TrigSignal(np.array([1.0, math.sqrt(2.0)]), np.array([1.0, 1.0]) / math.sqrt(2.0))
        with pytest.raises(ApproximationError) as info:
            periodic_approximation(sig, 1e-14, 1e6, max_denominator=10_000)
        assert info.value.achieved_bound is not None
        assert info.value.achieved_bound > 0.0

    def test_negative_frequencies_supported(self):
        sig = TrigSignal(np.array([-math.sqrt(3.0), 2.0]), np.array([0.6, 0.8]))
        result = periodic_approximation(sig, 1e-3, 40.0)
        ts = np.linspace(0.0, 40.0, 50_000)
        sup = float(np.max(np.abs(eval_f(sig, ts) - eval_f(result.signal, ts))))
        assert sup <= 1e-3

    def test_pw_integral_of_approximant_converges(self):
        # mirror of the uniform-approximation step: the mean-log of the
        # approximant approaches that of f on a zero-free window
        sig = TrigSignal(np.array([1.0, math.sqrt(2.0)]), np.array([1.0, 1.0]) / math.sqrt(2.0))
        window = 4.0
        ts = np.linspace(0.0, window, 20_001)
        min_scale = float(np.min(np.abs(eval_f(sig, ts))))
        reference = _converged(paley_wiener_integral(sig, window, 200)).value
        for tol in (1e-2, 1e-3, 1e-4):
            approx = periodic_approximation(sig, tol, 100.0)
            value = _converged(paley_wiener_integral(approx.signal, window, 200)).value
            rel = abs(value - reference) / abs(reference)
            assert rel <= 10.0 * tol / min_scale
