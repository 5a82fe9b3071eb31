import math
import tracemalloc

import numpy as np
import pytest

from timeobs import (
    ApproximationError,
    CanonicalDensity,
    DimensionError,
    MeasureReport,
    PhysicsError,
    QuantumState,
    TrigSignal,
    ZeroSignalError,
    bohr_mean,
    build_spectrum,
    coefficient_sum,
    density_at,
    eval_f,
    evolve,
    find_zeros,
    paley_wiener_integral,
    periodic_approximation,
    random_state,
    sublevel_measure,
)
from timeobs import zeroset
from timeobs.claims import paley_wiener_convergence, run_claims
from timeobs.zeroset import BISECTION_TOL, _bisect, _golden

TWO_PI = 2.0 * math.pi
CATALAN = 0.915965594177219015054603514932384110774


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
        assert peak < 64 * 2**20
        for piece in np.array_split(np.arange(ts.size), 100):
            direct = np.exp(-1j * np.outer(ts[piece], sig.freqs)) @ sig.amps
            np.testing.assert_allclose(vals[piece], direct, rtol=0, atol=1e-12)


class TestSublevelMeasure:
    # At window 7 the zero at pi falls between grid points, and for the small
    # thresholds the dip below eps is narrower than one cell: only the
    # golden-section -> bisection path can find it.
    @pytest.mark.parametrize(
        "eps, window",
        [(0.1, TWO_PI), (1e-4, 7.0), (1e-6, 7.0)],
        ids=["eps0.1-window2pi", "eps1e-4-window7", "eps1e-6-window7"],
    )
    def test_arcsine_closed_form(self, balanced_signal, eps, window):
        report = sublevel_measure(balanced_signal, eps, window)
        assert report.measure == pytest.approx(4.0 * math.asin(eps / math.sqrt(2.0)), abs=1e-9)
        assert report.refinement_depth > 0

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
        report = sublevel_measure(balanced_signal, eps, TWO_PI)
        assert report.measure == pytest.approx(brute, abs=3e-6)

    def test_small_threshold_linear_scaling(self, balanced_signal):
        # slope of measure vs epsilon tends to 2*sqrt(2) at the simple zero
        eps = np.array([1e-2, 1e-3, 1e-4])
        measures = np.array(
            [sublevel_measure(balanced_signal, e, TWO_PI).measure for e in eps]
        )
        slope = float(np.sum(measures * eps) / np.sum(eps * eps))
        assert slope == pytest.approx(2.0 * math.sqrt(2.0), rel=0.02)

    def test_threshold_above_maximum_gives_full_window(self, balanced_signal):
        with pytest.warns(UserWarning):
            report = sublevel_measure(balanced_signal, 1.5, TWO_PI)
        assert report.measure == TWO_PI
        assert report.error_bound == 0.0

    def test_measure_never_exceeds_window(self, incommensurate_five):
        for eps in (0.3, 0.9, 1.2):
            report = sublevel_measure(incommensurate_five, eps, 5.0)
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
            report = sublevel_measure(sig, scale * sig.weight(), TWO_PI)
            fractions.append(report.measure / TWO_PI)
        assert all(b <= a + 1e-15 for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] <= 1e-4

    def test_validation(self, balanced_signal):
        with pytest.raises(PhysicsError):
            sublevel_measure(balanced_signal, -0.1, TWO_PI)
        with pytest.raises(PhysicsError):
            sublevel_measure(balanced_signal, 0.1, 0.0)
        with pytest.raises(DimensionError):
            sublevel_measure(balanced_signal, 0.1, TWO_PI, base_grid=100)

    def test_report_invariants(self):
        with pytest.raises(PhysicsError):
            MeasureReport(epsilon=0.1, window=1.0, measure=2.0, refinement_depth=0, error_bound=0.0)
        with pytest.raises(PhysicsError):
            MeasureReport(epsilon=0.1, window=1.0, measure=0.5, refinement_depth=0, error_bound=-1.0)


def _scalar_golden(fun, a, b):
    """Reference: the scalar golden-section recurrence each lockstep bracket follows."""
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


class TestLockstepRefiners:
    def test_golden_matches_scalar_recurrence(self, incommensurate_five):
        sig, shift = incommensurate_five, 0.3
        ts = np.linspace(0.0, 20.0, 401)
        a, b = ts[:-2], ts[2:]
        sign = np.where(np.arange(a.size) % 2 == 0, 1.0, -1.0)
        t_min, v_min = _golden(sig, a, b, sign, shift)
        for k in range(a.size):
            t_ref, v_ref = _scalar_golden(
                lambda t: sign[k] * (abs(eval_f(sig, t)) - shift), a[k], b[k]
            )
            # Scalar and array evaluations differ in the last bit, which moves
            # the minimizer of a flat extremum by up to ~sqrt(machine eps).
            assert t_min[k] == pytest.approx(t_ref, abs=1e-7)
            assert v_min[k] == pytest.approx(v_ref, abs=1e-14)

    def test_bisection_follows_the_inside_flag(self, balanced_signal):
        # |f| = sqrt(2)|cos(t/2)| drops below eps on (pi - delta, pi + delta)
        eps = 0.1
        delta = 2.0 * math.asin(eps / math.sqrt(2.0))
        lo = np.array([math.pi - delta - 0.01, math.pi + delta - 0.002])
        hi = np.array([math.pi - delta + 0.003, math.pi + delta + 0.01])
        crossings, depth = _bisect(balanced_signal, lo, hi, np.array([False, True]), eps)
        np.testing.assert_allclose(crossings, [math.pi - delta, math.pi + delta], atol=1e-11)
        assert 0 < depth <= 80


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


class TestPaleyWiener:
    def test_flat_signal_zero_integral(self):
        sig = TrigSignal(np.array([2.0]), np.array([1.0]))
        assert paley_wiener_integral(sig, 5.0, 128) == pytest.approx(0.0, abs=1e-12)

    def test_signed_mean_is_minus_half_log_two(self, balanced_signal):
        value = paley_wiener_integral(balanced_signal, TWO_PI, 256, absolute=False)
        assert value == pytest.approx(-0.5 * math.log(2.0), abs=1e-6)

    def test_absolute_mean_matches_catalan_form(self, balanced_signal):
        # closed form: 2*G/pi with G Catalan's constant
        value = paley_wiener_integral(balanced_signal, TWO_PI, 256)
        assert value == pytest.approx(2.0 * CATALAN / math.pi, abs=1e-6)

    def test_absolute_mean_matches_catalan_form_closely(self, balanced_signal):
        value = paley_wiener_integral(balanced_signal, TWO_PI, 256)
        assert value == pytest.approx(2.0 * CATALAN / math.pi, abs=1e-12)

    def test_signed_mean_over_a_period_is_jensen_value(self, structured_signal):
        # Jensen: the mean of log|P| over |z| = 1 is log|c_lead| + sum_{|r|>1} log|r|.
        lead, roots = _roots_of_p(structured_signal)
        mahler = math.log(abs(lead)) + float(np.sum(np.log(np.abs(roots[np.abs(roots) > 1.0]))))
        value = paley_wiener_integral(structured_signal, TWO_PI, 256, absolute=False)
        assert value == pytest.approx(mahler, abs=1e-10)

    def test_level_cap_hit_is_reported(self, monkeypatch, incommensurate_five):
        spec = build_spectrum("harmonic", 8, omega=1.0)
        psi = random_state(8, 7, in_zero_sum=True)
        assert run_claims(spec, psi)["claim_iii"]["demonstrated"]
        monkeypatch.setattr(zeroset, "_MAX_LEVELS", 1)
        with pytest.warns(RuntimeWarning, match="level cap"):
            paley_wiener_integral(incommensurate_five, TWO_PI, 200)
        *_, converged = paley_wiener_convergence(incommensurate_five, TWO_PI, 800)
        assert not converged
        claim_iii = run_claims(spec, psi)["claim_iii"]
        assert not claim_iii["paley_wiener_converged"]
        assert not claim_iii["demonstrated"]

    def test_stable_under_panel_doubling(self, balanced_signal, incommensurate_five):
        for sig in (balanced_signal, incommensurate_five):
            coarse = paley_wiener_integral(sig, TWO_PI, 200)
            fine = paley_wiener_integral(sig, TWO_PI, 400)
            assert abs(fine - coarse) / abs(fine) <= 1e-5

    def test_finite_even_with_boundary_zero(self):
        spec = build_spectrum("harmonic", 4, omega=1.0)
        psi = random_state(4, 2, in_zero_sum=True)
        sig = TrigSignal.from_state(spec, psi)
        value = paley_wiener_integral(sig, TWO_PI, 128)
        assert math.isfinite(value) and value > 0.0

    def test_identically_zero_rejected(self):
        sig = TrigSignal(np.array([1.0]), np.array([0.0]))
        with pytest.raises(ZeroSignalError):
            paley_wiener_integral(sig, 1.0, 128)

    def test_panel_floor(self, balanced_signal):
        with pytest.raises(DimensionError):
            paley_wiener_integral(balanced_signal, 1.0, 50)


class TestBohrMean:
    def test_constant(self):
        assert bohr_mean(lambda ts: np.ones_like(ts), 7.3) == pytest.approx(1.0)

    def test_cosine_over_whole_periods(self):
        assert bohr_mean(np.cos, 6.0 * math.pi) == pytest.approx(0.0, abs=1e-10)

    def test_unit_state_power_approaches_one(self, incommensurate_five):
        def power(ts):
            return np.abs(eval_f(incommensurate_five, ts)) ** 2

        errors = [abs(bohr_mean(power, w) - 1.0) for w in (100.0, 800.0, 6400.0)]
        assert errors[2] < errors[0]
        assert errors[2] <= 0.02

    def test_window_must_be_positive(self):
        with pytest.raises(PhysicsError):
            bohr_mean(np.cos, 0.0)


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
        reference = paley_wiener_integral(sig, window, 200)
        for tol in (1e-2, 1e-3, 1e-4):
            approx = periodic_approximation(sig, tol, 100.0)
            value = paley_wiener_integral(approx.signal, window, 200)
            rel = abs(value - reference) / abs(reference)
            assert rel <= 10.0 * tol / min_scale
