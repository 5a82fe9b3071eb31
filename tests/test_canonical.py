import math

import numpy as np
import pytest

from timeobs import (
    CanonicalDensity,
    DimensionError,
    PhysicsError,
    QuantumState,
    build_spectrum,
    density_at,
    normalized_gamma,
    random_state,
    verify_covariance,
)


def _midpoint_mean(g, window, n=2**16):
    """Window average of a vectorized g over [0, window] by the n-point midpoint rule."""
    ts = (np.arange(n) + 0.5) * (window / n)
    return float(np.mean(g(ts)))


class TestDensity:
    def test_single_eigenstate_is_flat(self):
        spec = build_spectrum("box", 3)
        d = CanonicalDensity(spec, np.array([1.0, 0.0, 0.0]), gamma=2.0)
        ts = np.linspace(-5.0, 5.0, 50)
        np.testing.assert_allclose(density_at(d, ts), 0.5, atol=1e-14)

    def test_two_level_one_plus_cos(self, two_level, plus_state):
        d = CanonicalDensity.from_state(two_level, plus_state)
        assert d.gamma == pytest.approx(1.0)
        ts = np.linspace(0.0, 8.0, 100)
        np.testing.assert_allclose(density_at(d, ts), 1.0 + np.cos(ts), atol=1e-13)

    def test_scalar_input_gives_float(self, two_level, plus_state):
        d = CanonicalDensity.from_state(two_level, plus_state)
        val = density_at(d, 0.0)
        assert isinstance(val, float)
        assert val == pytest.approx(2.0)

    def test_nonnegative_and_bounded(self):
        spec = build_spectrum("box", 6, scale=0.7)
        for seed in range(10):
            psi = random_state(6, seed)
            d = CanonicalDensity.from_state(spec, psi)
            cap = float(np.sum(np.abs(psi.coeffs))) ** 2 / d.gamma
            vals = density_at(d, np.linspace(-20.0, 20.0, 2000))
            assert np.all(vals >= 0.0)
            assert np.max(vals) <= cap * (1.0 + 1e-12)

    def test_global_phase_invariance(self, two_level, plus_state):
        d0 = CanonicalDensity.from_state(two_level, plus_state)
        rotated = QuantumState(plus_state.coeffs * np.exp(1.234j))
        d1 = CanonicalDensity.from_state(two_level, rotated)
        ts = np.linspace(0.0, 10.0, 300)
        np.testing.assert_allclose(density_at(d0, ts), density_at(d1, ts), rtol=1e-12)

    def test_gamma_must_be_positive(self, two_level, plus_state):
        with pytest.raises(PhysicsError):
            CanonicalDensity(two_level, plus_state.coeffs, gamma=0.0)

    def test_length_mismatch(self, two_level):
        with pytest.raises(DimensionError):
            CanonicalDensity(two_level, np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("t", [3e307, -3e307, math.nan], ids=["3e307", "-3e307", "nan"])
    def test_non_finite_phase_rejected(self, t):
        # At harmonic N = 8, omega reaches 7.5 and 3e307 * 7.5 overflows.
        spec = build_spectrum("harmonic", 8, omega=1.0)
        density = CanonicalDensity.from_state(spec, random_state(8, 1))
        with pytest.raises(PhysicsError, match="finite"):
            density_at(density, t)
        with pytest.raises(PhysicsError, match="finite"):
            verify_covariance(spec, random_state(8, 1), 1.0, np.array([0.0, t]))

    def test_normalized_gamma_is_squared_norm(self):
        assert normalized_gamma([0.6, 0.8j]) == pytest.approx(1.0)
        assert normalized_gamma([1.0, 1.0]) == pytest.approx(2.0)


class TestCovariance:
    def test_zero_shift_is_exact(self, two_level, plus_state):
        grid = np.linspace(-3.0, 3.0, 101)
        assert verify_covariance(two_level, plus_state, 0.0, grid) == 0.0

    def test_identity_for_random_states(self):
        for seed in range(10):
            n = 2 + seed
            spec = build_spectrum("harmonic", n, omega=0.9)
            psi = random_state(n, seed)
            tau = -3.0 + 0.61 * seed
            grid = np.linspace(-5.0, 5.0, 1000)
            assert verify_covariance(spec, psi, tau, grid) <= 1e-11

    # Claim (i)'s grid and shift (timeobs claims --grid 512).  Box N = 64 reads
    # up to 5.6e-12; box N >= 128 exceeds 1e-11, as its phases reach 1.6e5 rad.
    @pytest.mark.parametrize("seed", [1, 7, 29])
    @pytest.mark.parametrize(
        "kind, n", [("harmonic", 64), ("harmonic", 256), ("box", 16), ("box", 64)]
    )
    def test_identity_at_the_claims_grid(self, kind, n, seed):
        spec = build_spectrum(kind, n)
        psi = random_state(n, seed, in_zero_sum=True)
        assert verify_covariance(spec, psi, 5.0, np.linspace(0.0, 10.0, 512)) <= 1e-11

    def test_eight_level_example(self):
        spec = build_spectrum("box", 8, scale=0.5)
        psi = random_state(8, 17)
        assert verify_covariance(spec, psi, 1.7, np.linspace(0.0, 12.0, 1000)) <= 1e-12

    def test_empty_grid_rejected(self, two_level, plus_state):
        with pytest.raises(DimensionError):
            verify_covariance(two_level, plus_state, 1.0, np.array([]))


class TestBohrMeanDensity:
    def test_two_level_over_one_period(self, two_level, plus_state):
        d = CanonicalDensity.from_state(two_level, plus_state)
        mean = _midpoint_mean(lambda ts: density_at(d, ts), 2.0 * math.pi)
        assert mean == pytest.approx(1.0, abs=1e-12)

    def test_single_eigenstate_any_window(self):
        spec = build_spectrum("box", 2)
        d = CanonicalDensity(spec, np.array([0.0, 1.0]), gamma=4.0)
        for window in (0.3, 2.0, 17.0):
            assert _midpoint_mean(lambda ts: density_at(d, ts), window) == pytest.approx(0.25)

    def test_mean_approaches_one_with_growing_window(self):
        # incommensurate levels: cross terms decay like 1/window
        spec = build_spectrum("custom", 3, levels=[0.0, 1.0, math.sqrt(2.0)])
        psi = random_state(3, 5)
        d = CanonicalDensity.from_state(spec, psi)

        def error(window):
            return abs(_midpoint_mean(lambda ts: density_at(d, ts), window) - 1.0)

        errors = [error(50.0), error(400.0), error(3200.0)]
        assert errors[2] < errors[0]
        assert errors[2] <= 0.01
