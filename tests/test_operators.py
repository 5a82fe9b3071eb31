import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from timeobs import (
    DeviationSeries,
    DimensionError,
    MembershipError,
    OperatorMatrix,
    QuantumState,
    ZeroProjectionError,
    build_hamiltonian,
    build_spectrum,
    build_time_operator,
    coefficient_sum,
    commutator,
    commutator_defects,
    covariance_deviation,
    evolve,
    expectation,
    hermiticity_defect,
    membership_decay,
    project_to_zero_sum,
    random_state,
    spectral_norm,
    weak_commutator,
)
from timeobs import operators
from timeobs.denseness import zero_sum_projector_rank
from timeobs.zeroset import TrigSignal, eval_f

SIZES = (2, 4, 8, 16, 32, 64)


def _spectra(n):
    rng = np.random.default_rng(n)
    random_levels = np.sort(rng.uniform(-3.0, 9.0, n))
    while np.any(np.diff(random_levels) <= 0):
        random_levels = np.sort(rng.uniform(-3.0, 9.0, n))
    return [
        build_spectrum("harmonic", n, omega=1.0),
        build_spectrum("box", n, scale=1.0),
        build_spectrum("custom", n, levels=random_levels),
    ]


class TestTimeOperator:
    def test_two_level_harmonic_entries(self, two_level):
        top = build_time_operator(two_level)
        assert top.entries[0, 1] == pytest.approx(-1.0j)
        assert top.entries[1, 0] == pytest.approx(1.0j)
        assert top.entries[0, 0] == 0.0 and top.entries[1, 1] == 0.0

    def test_two_level_box_entry(self):
        top = build_time_operator(build_spectrum("box", 2, scale=1.0))
        assert top.entries[0, 1] == pytest.approx(-1.0j / 3.0)

    @pytest.mark.parametrize("n", SIZES)
    def test_diagonal_vanishes_everywhere(self, n):
        for spec in _spectra(n):
            top = build_time_operator(spec)
            assert np.all(np.diag(top.entries) == 0.0)

    @pytest.mark.parametrize("n", SIZES)
    def test_hermiticity(self, n):
        for spec in _spectra(n):
            top = build_time_operator(spec)
            assert hermiticity_defect(top.entries) <= 1e-13

    def test_hbar_scaling(self):
        spec = build_spectrum("harmonic", 3, omega=1.0, hbar=2.0)
        top = build_time_operator(spec)
        # levels are hbar*omega*(j+1/2), so entries i*hbar/(E_j-E_k) = i/(omega*(j-k))
        assert top.entries[0, 1] == pytest.approx(-1.0j)


class TestHamiltonian:
    def test_harmonic_diagonal(self, two_level):
        ham = build_hamiltonian(two_level)
        np.testing.assert_allclose(np.diag(ham.entries), [0.5, 1.5])
        assert np.all(ham.entries == np.diag(np.diag(ham.entries)))

    def test_box_diagonal(self):
        ham = build_hamiltonian(build_spectrum("box", 3))
        np.testing.assert_allclose(np.diag(ham.entries).real, [1.0, 4.0, 9.0])

    def test_hermitian_tag(self):
        ham = build_hamiltonian(build_spectrum("box", 3))
        assert ham.hermitian

    @pytest.mark.parametrize("levels", [[-1.5, -0.0, 2.0], [-3.0, 0.0, 0.25, 7.0]])
    def test_entries_bit_equal_complex_diag(self, levels):
        spec = build_spectrum("custom", len(levels), levels=levels)
        entries = build_hamiltonian(spec).entries
        reference = np.diag(spec.levels).astype(complex)
        np.testing.assert_array_equal(
            entries.view(np.int64), reference.view(np.int64)
        )


class TestCommutator:
    def test_self_commutation_vanishes(self, two_level):
        ham = build_hamiltonian(two_level)
        comm = commutator(ham, ham)
        assert np.all(comm.entries == 0.0)

    @pytest.mark.parametrize("n", (2, 5, 16))
    def test_closed_form_minus_i_hbar_off_diagonal(self, n):
        for spec in _spectra(n):
            comm = commutator(build_time_operator(spec), build_hamiltonian(spec))
            expected = 1j * spec.hbar * (np.eye(n) - np.ones((n, n)))
            np.testing.assert_allclose(comm.entries, expected, atol=1e-12, rtol=0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        a = OperatorMatrix(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        b = OperatorMatrix(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        np.testing.assert_array_equal(
            commutator(a, b).entries, -commutator(b, a).entries
        )

    def test_size_mismatch(self, two_level):
        with pytest.raises(DimensionError):
            commutator(
                build_time_operator(two_level),
                build_hamiltonian(build_spectrum("box", 3)),
            )

    @staticmethod
    def _assert_dense_bits(x, y):
        got = commutator(OperatorMatrix(x), OperatorMatrix(y)).entries
        assert np.array_equal(got, x @ y - y @ x)

    def test_diagonal_path_bit_identical_real_diagonal(self):
        rng = np.random.default_rng(5)
        dense = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
        diag = np.diag(rng.normal(size=40)).astype(complex)
        self._assert_dense_bits(dense, diag)
        self._assert_dense_bits(diag, dense)

    def test_diagonal_path_bit_identical_complex_diagonal(self):
        rng = np.random.default_rng(6)
        real_dense = rng.normal(size=(30, 30)).astype(complex)
        diag = np.diag(rng.normal(size=30) + 1j * rng.normal(size=30))
        self._assert_dense_bits(real_dense, diag)
        self._assert_dense_bits(diag, real_dense)

    def test_diagonal_path_complex_operands_within_rounding(self):
        # With both operands complex the dense product may fuse a multiply-add,
        # so only the last bit of each product part may differ.
        rng = np.random.default_rng(7)
        dense = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        d = rng.normal(size=30) + 1j * rng.normal(size=30)
        got = commutator(OperatorMatrix(dense), OperatorMatrix(np.diag(d))).entries
        scale = np.abs(dense) * (np.abs(d)[None, :] + np.abs(d)[:, None])
        assert np.all(np.abs(got - (dense @ np.diag(d) - np.diag(d) @ dense)) <= 4e-16 * scale)

    def test_two_diagonal_operands(self):
        rng = np.random.default_rng(8)
        x = np.diag(rng.normal(size=12) + 1j * rng.normal(size=12))
        y = np.diag(rng.normal(size=12)).astype(complex)
        for first, second in ((x, y), (y, x), (y, 2.0 * y)):
            self._assert_dense_bits(first, second)
            assert not np.any(commutator(OperatorMatrix(first), OperatorMatrix(second)).entries)

    def test_one_by_one_operands(self):
        self._assert_dense_bits(np.array([[2.0 - 1.5j]]), np.array([[0.25 + 3.0j]]))

    def test_diagonal_operand_with_zero_entry(self):
        rng = np.random.default_rng(9)
        dense = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        d = rng.normal(size=16)
        d[[0, 7]] = 0.0
        diag = np.diag(d).astype(complex)
        self._assert_dense_bits(dense, diag)
        self._assert_dense_bits(diag, dense)

    def test_zero_diagonal_non_diagonal_operand_stays_dense(self):
        # Same nonzero count as a diagonal matrix, but off the diagonal.
        rng = np.random.default_rng(10)
        shift = np.roll(np.eye(8), 1, axis=1) * (1.0 + rng.normal(size=8))
        dense = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        self._assert_dense_bits(dense, shift.astype(complex))
        self._assert_dense_bits(shift.astype(complex), dense)

    @pytest.mark.parametrize("n", (2, 17, 64))
    def test_time_operator_with_hamiltonian_bit_identical(self, n):
        for spec in _spectra(n):
            self._assert_dense_bits(
                build_time_operator(spec).entries, build_hamiltonian(spec).entries
            )


class TestWeakCommutator:
    def test_three_level_entries(self):
        spec = build_spectrum("harmonic", 3, omega=1.0, hbar=1.0)
        weak = weak_commutator(spec)
        expected = np.where(np.eye(3, dtype=bool), 0.0, -1.0j)
        np.testing.assert_array_equal(weak.entries, expected)

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_exact_commutator_at_finite_n(self, n):
        for spec in _spectra(n):
            exact = commutator(build_time_operator(spec), build_hamiltonian(spec))
            weak = weak_commutator(spec)
            np.testing.assert_allclose(exact.entries, weak.entries, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("n", (2, 4, 8, 16, 64))
    def test_diagonal_zero_never_i_hbar(self, n):
        for spec in _spectra(n):
            comm = commutator(build_time_operator(spec), build_hamiltonian(spec))
            diag = np.diag(comm.entries)
            assert np.max(np.abs(diag)) <= 1e-13
            # the naive canonical value i*hbar never appears on the diagonal
            assert np.all(np.abs(diag - 1j * spec.hbar) > 0.5 * spec.hbar)

    def test_acts_as_i_hbar_on_zero_sum_states(self):
        spec = build_spectrum("box", 10, scale=0.5)
        weak = weak_commutator(spec)
        for seed in range(20):
            psi = random_state(10, seed, in_zero_sum=True)
            out = weak.entries @ psi.coeffs
            assert np.linalg.norm(out - 1j * spec.hbar * psi.coeffs) <= 1e-10

    def test_commutator_identity_on_subspace_100_states(self):
        spec = build_spectrum("harmonic", 16, omega=1.0)
        comm = commutator(build_time_operator(spec), build_hamiltonian(spec))
        for seed in range(100):
            psi = project_to_zero_sum(random_state(16, seed))
            resid = comm.entries @ psi.coeffs - 1j * spec.hbar * psi.coeffs
            assert np.linalg.norm(resid) <= 1e-10


class TestCommutatorDefects:
    @pytest.mark.parametrize("n", (2, 63, 64, 65, 200))
    def test_equals_dense_reference(self, n):
        # Tiles of 64 rows: one short tile, one full, one full plus one row.
        for spec in [*_spectra(n), build_spectrum("box", n, scale=0.3, hbar=0.7)]:
            top = build_time_operator(spec)
            t, h = top.entries, build_hamiltonian(spec).entries
            dense = t @ h - h @ t
            reference = (
                float(np.max(np.abs(dense - weak_commutator(spec).entries))),
                float(np.max(np.abs(np.diag(dense)))),
            )
            assert commutator_defects(top, spec) == reference

    @pytest.mark.parametrize("n", (2, 63, 64, 65, 200))
    def test_reads_the_last_row(self, n):
        # A defect in the last row of T, so the last (partial) tile decides.
        spec = build_spectrum("custom", n, levels=np.arange(n) ** 1.5)
        entries = build_time_operator(spec).entries.copy()
        entries[n - 1, 0] += 0.5
        top = OperatorMatrix(entries)
        dense = commutator(top, build_hamiltonian(spec)).entries
        assert commutator_defects(top, spec)[0] == float(
            np.max(np.abs(dense - weak_commutator(spec).entries))
        )

    def test_size_mismatch(self):
        top = build_time_operator(build_spectrum("harmonic", 3))
        with pytest.raises(DimensionError):
            commutator_defects(top, build_spectrum("harmonic", 4))


class TestExpectation:
    def test_eigenstate_energy(self):
        spec = build_spectrum("box", 4)
        ham = build_hamiltonian(spec)
        for j in range(4):
            basis = np.zeros(4)
            basis[j] = 1.0
            val = expectation(ham, QuantumState(basis))
            assert val == pytest.approx(spec.levels[j])

    def test_balanced_state_zero(self, two_level, plus_state):
        top = build_time_operator(two_level)
        assert abs(expectation(top, plus_state)) < 1e-15

    def test_hermitian_expectation_real(self):
        spec = build_spectrum("box", 8, scale=0.3)
        top = build_time_operator(spec)
        for seed in range(10):
            val = expectation(top, random_state(8, seed))
            assert abs(val.imag) <= 1e-13

    def test_minus_sin_closed_form_with_brute_oracle(self, two_level, plus_state):
        top = build_time_operator(two_level)
        taus = np.linspace(0.0, 7.0, 60)
        for tau in taus:
            moved = evolve(plus_state, two_level, tau)
            val = expectation(top, moved)
            # independent oracle: plain matrix-vector product
            c = moved.coeffs
            brute = np.conj(c) @ (top.entries @ c)
            assert val == pytest.approx(complex(brute), abs=1e-14)
            assert val.real == pytest.approx(-math.sin(tau), abs=1e-13)

    def test_dimension_mismatch(self, two_level):
        with pytest.raises(DimensionError):
            expectation(build_time_operator(two_level), QuantumState(np.array([1.0, 0, 0])))


class TestSpectralNorm:
    @pytest.mark.parametrize("n", (2, 4, 8, 16, 32))
    def test_against_lapack_oracle(self, n):
        for spec in _spectra(n):
            top = build_time_operator(spec)
            ours = spectral_norm(top)
            oracle = float(np.linalg.norm(top.entries, 2))
            assert ours == pytest.approx(oracle, rel=1e-6)

    def test_zero_matrix(self):
        assert spectral_norm(OperatorMatrix(np.zeros((3, 3)))) == 0.0

    def test_non_hermitian_rejected(self):
        with pytest.raises(DimensionError):
            spectral_norm(OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))

    @pytest.mark.parametrize("n", (2, 4, 8, 16, 32, 64, 128, 256))
    def test_matches_svd_norm_to_1e12(self, n):
        for spec in _spectra(n):
            top = build_time_operator(spec)
            oracle = float(np.linalg.norm(top.entries, 2))
            assert abs(spectral_norm(top) - oracle) <= 1e-12 * oracle

    def test_imaginary_non_hermitian_rejected(self):
        with pytest.raises(DimensionError):
            spectral_norm(OperatorMatrix(1j * np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_hermitian_with_real_part(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 9, 40):
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = z + z.conj().T
            oracle = float(np.linalg.norm(h, 2))
            assert abs(spectral_norm(OperatorMatrix(h)) - oracle) <= 1e-12 * oracle
            real_symmetric = h.real.astype(complex)
            oracle = float(np.linalg.norm(real_symmetric, 2))
            assert abs(spectral_norm(OperatorMatrix(real_symmetric)) - oracle) <= 1e-12 * oracle


class TestNormOracles:
    """Exact bounds on ||T|| that hold without any numerical reference.

    On a harmonic spectrum with omega = 1, T_N is i times the N-section of the
    Toeplitz matrix 1/(j - k): Cauchy interlacing makes ||T_N|| nondecreasing
    in N, Hilbert's inequality keeps it below pi, and Szego's theorem sends it
    to pi. For any spectrum with smallest gap delta, Montgomery and Vaughan
    give ||T|| <= pi * hbar / delta.
    """

    @staticmethod
    def _harmonic_norm(n):
        return spectral_norm(build_time_operator(build_spectrum("harmonic", n, omega=1.0)))

    def test_toeplitz_sections_nondecreasing_below_pi(self):
        # every section up to 128, then every 8th up to 512 (all of them take ~7 s)
        sizes = [*range(2, 129), *range(136, 513, 8)]
        norms = np.array([self._harmonic_norm(n) for n in sizes])
        assert np.all(np.diff(norms) >= 0.0)
        assert np.all(norms < math.pi)

    @pytest.mark.parametrize(("n", "gap"), ((64, 0.14), (256, 0.04)))
    def test_szego_approach_to_pi(self, n, gap):
        assert 0.0 < math.pi - self._harmonic_norm(n) <= gap

    @staticmethod
    def _montgomery_vaughan_holds(spec):
        top = build_time_operator(spec)
        norm = spectral_norm(top)
        oracle = float(np.linalg.norm(top.entries, 2))
        assert abs(norm - oracle) <= 1e-12 * oracle
        return norm <= math.pi * spec.hbar / float(np.min(np.diff(spec.levels)))

    @pytest.mark.parametrize("n", (2, 8, 64, 256))
    def test_montgomery_vaughan_structured(self, n):
        for spec in (
            build_spectrum("harmonic", n, omega=1.0),
            build_spectrum("harmonic", n, omega=0.37, hbar=2.5),
            build_spectrum("box", n, scale=1.0),
            build_spectrum("box", n, scale=0.05, hbar=0.5),
        ):
            assert self._montgomery_vaughan_holds(spec)

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=48),
        offset=st.floats(-50.0, 50.0),
        hbar=st.floats(0.1, 5.0),
    )
    def test_montgomery_vaughan_custom(self, gaps, offset, hbar):
        levels = offset + np.concatenate(([0.0], np.cumsum(gaps)))
        assume(np.all(np.diff(levels) > 0.0))
        spec = build_spectrum("custom", levels.size, levels=levels, hbar=hbar)
        assert self._montgomery_vaughan_holds(spec)


class TestCovarianceDeviation:
    def test_deviation_zero_at_tau_zero(self, two_level, plus_state):
        series = covariance_deviation(two_level, plus_state, np.array([0.0, 1.0]))
        assert series.values[0] == 0.0

    def test_closed_form_minus_sin_minus_tau(self, two_level, plus_state):
        taus = np.linspace(0.0, 8.0, 200)
        series = covariance_deviation(two_level, plus_state, taus)
        np.testing.assert_allclose(series.values, -np.sin(taus) - taus, atol=1e-12)

    def test_deviation_at_pi_is_minus_pi(self, two_level, plus_state):
        series = covariance_deviation(two_level, plus_state, np.array([0.0, math.pi]))
        assert series.values[-1] == pytest.approx(-math.pi, abs=1e-10)

    def test_expectation_bounded_by_norm(self):
        spec = build_spectrum("box", 8, scale=0.4)
        top = build_time_operator(spec)
        bound = spectral_norm(top) * (1.0 + 1e-9)
        taus = np.linspace(0.0, 30.0, 400)
        for seed in range(5):
            psi = random_state(8, seed)
            series = covariance_deviation(spec, psi, taus)
            expect = series.values + taus + expectation(top, psi).real
            assert np.max(np.abs(expect)) <= bound

    def test_unbounded_drift_at_four_norms(self):
        spec = build_spectrum("harmonic", 8, omega=1.0)
        norm = spectral_norm(build_time_operator(spec))
        for seed in range(10):
            psi = random_state(8, seed)
            series = covariance_deviation(spec, psi, np.array([0.0, 4.0 * norm]))
            assert abs(series.values[-1]) >= 2.0 * norm

    @pytest.mark.parametrize("block_rows", [None, 97])
    @pytest.mark.parametrize("n", [16, 64])
    def test_blocks_match_one_einsum(self, monkeypatch, n, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(operators, "_BLOCK_ENTRIES", n * block_rows)
        taus = np.linspace(0.0, 25.0, 1000)
        for spec in _spectra(n):
            psi = random_state(n, 3)
            series = covariance_deviation(spec, psi, taus)
            top = build_time_operator(spec).entries
            states = np.exp(-1j * np.outer(taus, spec.frequencies())) * psi.coeffs
            expect = np.einsum("kj,jl,kl->k", states.conj(), top, states).real
            base = float(np.real(psi.coeffs.conj() @ top @ psi.coeffs))
            scale = float(np.max(np.abs(expect)))
            np.testing.assert_allclose(
                series.values + taus, expect - base, rtol=0, atol=1e-12 * scale
            )

    def test_long_series_in_bounded_memory(self):
        # Unblocked, the 100 000 x 64 phase table and its einsum peak near 296 MiB.
        spec = build_spectrum("harmonic", 64, omega=1.0)
        psi = random_state(64, 5)
        taus = np.linspace(0.0, 50.0, 100_000)
        tracemalloc.start()
        try:
            series = covariance_deviation(spec, psi, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20
        assert np.all(np.isfinite(series.values))

    def test_empty_grid_rejected(self, two_level, plus_state):
        with pytest.raises(DimensionError):
            covariance_deviation(two_level, plus_state, np.array([]))


class TestMembershipDecay:
    def test_root_two_at_pi(self, two_level, minus_state):
        series = membership_decay(two_level, minus_state, np.array([0.0, math.pi]))
        assert series.values[0] <= 1e-15
        assert series.values[-1] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_matches_signal_modulus(self, two_level, minus_state):
        taus = np.linspace(0.0, 9.0, 100)
        series = membership_decay(two_level, minus_state, taus)
        sig = TrigSignal.from_state(two_level, minus_state)
        np.testing.assert_allclose(series.values, np.abs(eval_f(sig, taus)), atol=1e-14)

    def test_long_grid_in_bounded_memory(self):
        spec = build_spectrum("harmonic", 64, omega=1.0)
        psi = random_state(64, 5, in_zero_sum=True)
        taus = np.linspace(0.0, 40.0, 100_000)
        tracemalloc.start()
        try:
            series = membership_decay(spec, psi, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        for piece in np.array_split(np.arange(taus.size), 100):
            direct = np.exp(-1j * np.outer(taus[piece], spec.frequencies())) @ psi.coeffs
            np.testing.assert_allclose(series.values[piece], np.abs(direct), rtol=0, atol=1e-12)

    def test_requires_zero_sum_input(self, two_level, plus_state):
        with pytest.raises(MembershipError):
            membership_decay(two_level, plus_state, np.array([0.0, 1.0]))


class TestProjectToZeroSum:
    def test_uniform_input_rejected(self):
        with pytest.raises(ZeroProjectionError):
            project_to_zero_sum(QuantumState(np.full(4, 0.5)))

    def test_uniform_with_phase_rejected(self):
        with pytest.raises(ZeroProjectionError):
            project_to_zero_sum(QuantumState(np.full(4, 0.5) * np.exp(0.3j)))

    def test_idempotent_on_members(self):
        psi = random_state(6, 11, in_zero_sum=True)
        again = project_to_zero_sum(psi)
        np.testing.assert_allclose(again.coeffs, psi.coeffs, atol=1e-13)

    def test_two_level_example(self):
        out = project_to_zero_sum(QuantumState(np.array([1.0, 0.0])))
        np.testing.assert_allclose(
            out.coeffs.real, [1.0 / math.sqrt(2), -1.0 / math.sqrt(2)], atol=1e-15
        )

    def test_output_in_subspace(self):
        for seed in range(20):
            psi = project_to_zero_sum(random_state(9, seed))
            assert abs(coefficient_sum(psi)) <= 1e-13


class TestProjectorRank:
    @pytest.mark.parametrize("n", (2, 3, 5, 8, 16, 32))
    def test_rank_is_n_minus_one(self, n):
        assert zero_sum_projector_rank(n) == n - 1


class TestDeviationSeries:
    def test_requires_increasing_grid(self):
        with pytest.raises(DimensionError):
            DeviationSeries(np.array([0.0, 0.0]), np.array([1.0, 2.0]))

    def test_requires_equal_lengths(self):
        with pytest.raises(DimensionError):
            DeviationSeries(np.array([0.0, 1.0]), np.array([1.0]))


class TestOperatorMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            OperatorMatrix(np.zeros((2, 3)))

    def test_rejects_false_hermitian_tag(self):
        with pytest.raises(DimensionError):
            OperatorMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]), hermitian=True)

    @pytest.mark.parametrize("n, j, k", [(6, 5, 2), (130, 129, 0), (130, 100, 70)])
    def test_rejects_defect_in_lower_triangle_only(self, n, j, k):
        entries = build_time_operator(build_spectrum("box", n)).entries.copy()
        entries[j, k] += 1e-9
        assert hermiticity_defect(entries) > operators.HERMITICITY_TOL
        with pytest.raises(DimensionError):
            OperatorMatrix(entries, hermitian=True)


_SALTS = (math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.0)
_TILE = operators._TILE_ROWS
_TILE_EDGES = sorted(
    {m + d for m in (_TILE, 2 * _TILE, 3 * _TILE) for d in (-1, 0, 1)} | {1, 2}
)


@st.composite
def _salted_squares(draw):
    """Random or exactly Hermitian squares, salted with special values and
    a single non-Hermitian entry in the upper, lower or last partial tile."""
    n = draw(st.one_of(st.sampled_from(_TILE_EDGES), st.integers(1, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if draw(st.booleans()):
        a = a + a.conj().T
    index = st.integers(0, n - 1)
    salts = st.tuples(index, index, st.sampled_from(_SALTS), st.sampled_from(_SALTS))
    for j, k, re, im in draw(st.lists(salts, max_size=4)):
        a[j, k] = complex(re, im)
    where = draw(st.sampled_from(("none", "upper", "lower", "last tile")))
    if where != "none":
        low = (n - 1) // _TILE * _TILE if where == "last tile" else 0
        j, k = sorted(draw(st.tuples(st.integers(low, n - 1), st.integers(low, n - 1))))
        if where == "lower":
            j, k = k, j
        a[j, k] += draw(st.sampled_from((1e-300, 1e-9, 1.0j)))
    return a


class TestHermiticityDefect:
    @settings(max_examples=150, deadline=None)
    @given(a=_salted_squares())
    def test_equals_dense_defect(self, a):
        with np.errstate(invalid="ignore"):
            reference = float(np.max(np.abs(a - a.conj().T)))
            defect = hermiticity_defect(a)
        if math.isnan(reference):
            assert math.isnan(defect)
        else:
            assert defect == reference
