import math

import numpy as np
import pytest

from timeobs import (
    CauchyStep,
    DimensionError,
    QuantumState,
    cauchy_state,
    coefficient_sum,
    distance_to_eigenstate,
    harmonic_partial_sums,
    leading_coefficient,
    state_distance,
    uniform_vector,
    uniform_vector_orthogonality,
    zero_sum_basis,
    zero_sum_projector_rank,
)

SIGMA_INF = math.pi**2 / 6.0


class TestPartialSums:
    def test_small_values_exact(self):
        assert harmonic_partial_sums(1) == (1.0, 1.0)
        h, sigma = harmonic_partial_sums(2)
        assert h == pytest.approx(1.5, abs=0)
        assert sigma == pytest.approx(1.25, abs=0)

    def test_against_slow_loop(self):
        h, sigma = harmonic_partial_sums(97)
        assert h == pytest.approx(math.fsum(1.0 / j for j in range(1, 98)), abs=1e-16)
        assert sigma == pytest.approx(
            math.fsum(1.0 / j**2 for j in range(1, 98)), abs=1e-15
        )

    def test_sigma_approaches_pi_sq_over_six(self):
        _, sigma = harmonic_partial_sums(100_000)
        assert sigma == pytest.approx(SIGMA_INF, abs=1.1e-5)

    def test_rejects_nonpositive(self):
        with pytest.raises(DimensionError):
            harmonic_partial_sums(0)


class TestCauchyState:
    def test_n_equals_one(self):
        step = cauchy_state(1)
        assert harmonic_partial_sums(1) == (1.0, 1.0)
        np.testing.assert_allclose(
            step.state.coeffs.real,
            [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)],
            atol=1e-15,
        )

    def test_n_equals_two_direct_substitution(self):
        # oracle: substitute h(2)=3/2 and sigma(2)=5/4 into the closed formulas
        denom = math.sqrt(1.25 + 2.25)
        step = cauchy_state(2)
        np.testing.assert_allclose(
            step.state.coeffs.real,
            [1.5 / denom, -1.0 / denom, -0.5 / denom],
            atol=1e-15,
        )
        assert step.state.coeffs[0].real == pytest.approx(0.801784, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 511, 512])
    def test_membership_and_norm(self, n):
        step = cauchy_state(n)
        assert abs(coefficient_sum(step.state)) <= 1e-13
        assert abs(np.linalg.norm(step.state.coeffs) - 1.0) <= 1e-13

    def test_target_swap(self):
        step = cauchy_state(4, target=2)
        base = cauchy_state(4).state.coeffs.real
        swapped = step.state.coeffs.real
        assert swapped[2] == base[0]
        assert swapped[0] == base[2]
        assert abs(coefficient_sum(step.state)) <= 1e-13

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cauchy_state(3, target=4)

    def test_bad_n(self):
        with pytest.raises(DimensionError):
            cauchy_state(0)

    def test_step_invariants_enforced(self):
        good = cauchy_state(2)
        with pytest.raises(DimensionError):
            CauchyStep(n=3, state=good.state)
        with pytest.raises(DimensionError):
            CauchyStep(n=2, state=QuantumState(np.array([1.0, 0.0, 0.0])))


class TestDistance:
    def test_n_one_groundstate(self):
        step = cauchy_state(1)
        assert distance_to_eigenstate(step, 0) == pytest.approx(
            math.sqrt(2.0 - math.sqrt(2.0)), abs=1e-15
        )

    def test_n_two_direct_substitution(self):
        # oracle: sqrt(2 - 2 * (3/2) / sqrt(7/2))
        expected = math.sqrt(2.0 - 2.0 * 1.5 / math.sqrt(3.5))
        step = cauchy_state(2)
        assert distance_to_eigenstate(step, 0) == pytest.approx(expected, abs=1e-15)

    def test_strictly_decreasing_along_ladder(self):
        dists = [
            distance_to_eigenstate(cauchy_state(n), 0)
            for n in (1, 2, 4, 8, 16, 64, 256, 1024, 4096)
        ]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.15

    def test_swapped_target_distance_matches_groundstate_value(self):
        d0 = distance_to_eigenstate(cauchy_state(6), 0)
        d3 = distance_to_eigenstate(cauchy_state(6, target=3), 3)
        assert d3 == pytest.approx(d0, abs=1e-15)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            distance_to_eigenstate(cauchy_state(2), 5)


class TestConvergenceRate:
    def test_rate_constant_at_ten_thousand(self):
        n = 10_000
        h, _ = harmonic_partial_sums(n)
        ratio = (1.0 - leading_coefficient(n)) * 2.0 * h * h / SIGMA_INF
        assert abs(ratio - 1.0) <= 0.05

    def test_cauchy_doubling_distances_decrease(self):
        dists = []
        for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
            a = cauchy_state(n).state
            b = cauchy_state(2 * n).state
            dists.append(state_distance(b, a))
        assert all(b < a for a, b in zip(dists, dists[1:]))


class TestStateDistance:
    def test_zero_padding(self):
        a = QuantumState(np.array([1.0, 0.0]))
        b = QuantumState(np.array([1.0, 0.0, 0.0, 0.0]))
        assert state_distance(a, b) == 0.0

    def test_orthogonal_states(self):
        a = QuantumState(np.array([1.0, 0.0]))
        b = QuantumState(np.array([0.0, 1.0]))
        assert state_distance(a, b) == pytest.approx(math.sqrt(2.0))


class TestSubspaceGeometry:
    @pytest.mark.parametrize("n", range(2, 33))
    def test_uniform_overlap_tiny(self, n):
        assert uniform_vector_orthogonality(n) <= 1e-13

    @pytest.mark.parametrize("n", (2, 5, 12, 32))
    def test_projector_rank(self, n):
        assert zero_sum_projector_rank(n) == n - 1

    def test_basis_orthonormal(self):
        basis = zero_sum_basis(7)
        gram = basis @ basis.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-14)

    def test_two_level_span(self):
        basis = zero_sum_basis(2)
        np.testing.assert_allclose(
            np.abs(basis[0]), [1.0 / math.sqrt(2.0)] * 2, atol=1e-15
        )
        assert abs(basis[0] @ uniform_vector(2)) <= 1e-16

    def test_cauchy_state_orthogonal_to_uniform(self):
        for n in (1, 2, 8, 64):
            step = cauchy_state(n)
            overlap = abs(np.sum(step.state.coeffs) / math.sqrt(n + 1))
            assert overlap <= 1e-13
