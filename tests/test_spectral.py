import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeobs import (
    DegeneracyError,
    DimensionError,
    EnergySpectrum,
    NormalizationError,
    PhysicsError,
    QuantumState,
    build_spectrum,
    coefficient_sum,
    evolve,
    in_zero_sum_subspace,
    random_state,
)
from timeobs.denseness import cauchy_state


def _raw_sum(vec):
    vec = np.asarray(vec, dtype=complex)
    return complex(math.fsum(vec.real.tolist()), math.fsum(vec.imag.tolist()))


class TestBuildSpectrum:
    def test_harmonic_levels(self):
        spec = build_spectrum("harmonic", 3, omega=1.0, hbar=1.0)
        np.testing.assert_allclose(spec.levels, [0.5, 1.5, 2.5], rtol=0, atol=0)
        assert spec.label == "harmonic"

    def test_box_levels(self):
        spec = build_spectrum("box", 3, scale=1.0)
        np.testing.assert_allclose(spec.levels, [1.0, 4.0, 9.0], rtol=0, atol=0)

    def test_custom_passthrough(self):
        spec = build_spectrum("custom", 3, levels=[0.1, 0.5, 2.0])
        np.testing.assert_allclose(spec.levels, [0.1, 0.5, 2.0])

    def test_custom_degenerate_rejected(self):
        with pytest.raises(DegeneracyError):
            build_spectrum("custom", 2, levels=[1.0, 1.0])

    def test_too_few_levels_rejected(self):
        with pytest.raises(DimensionError):
            build_spectrum("harmonic", 1)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            build_spectrum("rotor", 4)

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(PhysicsError):
            build_spectrum("harmonic", 4, omega=0.0)

    def test_hbar_scales_harmonic(self):
        spec = build_spectrum("harmonic", 2, omega=2.0, hbar=0.5)
        np.testing.assert_allclose(spec.levels, [0.5, 1.5])
        np.testing.assert_allclose(spec.frequencies(), [1.0, 3.0])


class TestTypes:
    def test_spectrum_requires_positive_hbar(self):
        with pytest.raises(PhysicsError):
            EnergySpectrum(np.array([0.0, 1.0]), hbar=0.0)

    def test_spectrum_immutable(self):
        spec = build_spectrum("harmonic", 2)
        with pytest.raises(ValueError):
            spec.levels[0] = 5.0

    def test_state_requires_unit_norm(self):
        with pytest.raises(NormalizationError):
            QuantumState(np.array([1.0, 1.0]))

    def test_state_normalized_constructor(self):
        st_ = QuantumState.normalized([3.0, 4.0j])
        assert abs(np.linalg.norm(st_.coeffs) - 1.0) < 1e-15

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalizationError):
            QuantumState.normalized([0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_spectrum_requires_finite_levels(self, bad):
        with pytest.raises(PhysicsError, match="finite"):
            EnergySpectrum(np.array([1.0, bad]))
        with pytest.raises(PhysicsError, match="finite"):
            build_spectrum("custom", 3, levels=[1.0, 1e308, bad])

    @pytest.mark.parametrize(
        "levels", [[-1e308, 1e308], [-1e308, 0.0, 1e308]], ids=["two", "three"]
    )
    def test_spectrum_requires_finite_span(self, levels):
        # The three-level gaps are finite; only E_max - E_min overflows.
        with pytest.raises(PhysicsError, match="level span must be finite"):
            EnergySpectrum(np.array(levels))
        assert EnergySpectrum(np.array([-8e307, 0.0, 8e307])).size == 3

    @pytest.mark.parametrize(
        "levels, hbar",
        [([0.0, 5e-324], 1.0), ([0.0, 1e-309], 1e-300)],
        ids=["subnormal-gap", "finite-ratio"],
    )
    def test_spectrum_requires_finite_time_operator_entries(self, levels, hbar):
        # The time operator's complex division forms hbar*(1/gap): 1/5e-324
        # overflows, and so does 1/1e-309 although hbar/gap is 1e9.
        with pytest.raises(PhysicsError, match="finite"):
            EnergySpectrum(np.array(levels), hbar=hbar)
        assert EnergySpectrum(np.array([0.0, 1e-300]), hbar=1e-10).size == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_spectrum_requires_finite_hbar(self, bad):
        with pytest.raises(PhysicsError, match="finite"):
            EnergySpectrum(np.array([0.0, 1.0]), hbar=bad)

    @pytest.mark.parametrize(
        "coeffs",
        [
            [math.nan, 0.0],
            [complex(0.0, math.nan), 1.0],
            [math.inf, 0.0],
            [1.0, complex(0.0, -math.inf)],
        ],
        ids=["nan", "nan-imag", "inf", "inf-imag"],
    )
    def test_state_requires_finite_coefficients(self, coeffs):
        with pytest.raises(NormalizationError, match="finite"):
            QuantumState(np.array(coeffs, dtype=complex))


class TestEvolve:
    def test_tau_zero_is_identity(self, two_level, plus_state):
        out = evolve(plus_state, two_level, 0.0)
        np.testing.assert_array_equal(out.coeffs, plus_state.coeffs)

    def test_groundstate_phase_at_pi(self, two_level):
        st_ = QuantumState(np.array([1.0, 0.0]))
        out = evolve(st_, two_level, math.pi)
        # e^{-i pi/2} = -i on the first level
        np.testing.assert_allclose(out.coeffs, [-1.0j, 0.0], atol=1e-15)

    def test_length_mismatch(self, two_level):
        with pytest.raises(DimensionError):
            evolve(QuantumState(np.array([1.0, 0.0, 0.0])), two_level, 1.0)

    def test_norm_preserved_100_random_states(self):
        spec = build_spectrum("box", 12, scale=0.7)
        for seed in range(100):
            st_ = random_state(12, seed)
            tau = -10.0 + 20.0 * (seed / 99.0)
            out = evolve(st_, spec, tau)
            assert abs(np.sum(np.abs(out.coeffs) ** 2) - 1.0) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        a=st.floats(-10, 10, allow_nan=False),
        b=st.floats(-10, 10, allow_nan=False),
    )
    def test_evolution_composes(self, seed, a, b):
        spec = build_spectrum("harmonic", 6, omega=1.3)
        psi = random_state(6, seed)
        left = evolve(evolve(psi, spec, a), spec, b)
        right = evolve(psi, spec, a + b)
        np.testing.assert_allclose(left.coeffs, right.coeffs, atol=1e-12, rtol=0)


class TestCoefficientSum:
    def test_antisymmetric_pair(self, minus_state):
        assert abs(coefficient_sum(minus_state)) < 1e-16

    def test_single_eigenstate(self):
        st_ = QuantumState(np.array([1.0, 0.0]))
        assert coefficient_sum(st_) == pytest.approx(1.0)
        assert not in_zero_sum_subspace(st_)

    def test_cauchy_state_telescopes(self):
        step = cauchy_state(2)
        assert abs(coefficient_sum(step.state)) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        alpha=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        beta=st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    )
    def test_sum_is_linear_on_raw_vectors(self, seed, alpha, beta):
        psi = random_state(5, seed)
        phi = random_state(5, seed + 1)
        mixed = _raw_sum(alpha * psi.coeffs + beta * phi.coeffs)
        split = alpha * coefficient_sum(psi) + beta * coefficient_sum(phi)
        assert abs(mixed - split) <= 1e-13
