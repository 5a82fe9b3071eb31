"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion report.
Expected values marked as oracles below are computed from independent closed
forms or brute-force evaluation, never from the implementation under test.
"""

import json
import math
import time

import numpy as np
import pytest

from timeobs import (
    QuantumState,
    TrigSignal,
    build_hamiltonian,
    build_spectrum,
    build_time_operator,
    cauchy_state,
    coefficient_sum,
    commutator,
    covariance_deviation,
    distance_to_eigenstate,
    eval_f,
    harmonic_partial_sums,
    leading_coefficient,
    membership_decay,
    paley_wiener_integral,
    periodic_approximation,
    project_to_zero_sum,
    random_state,
    spectral_norm,
    sublevel_measure,
    uniform_vector_orthogonality,
    verify_covariance,
    zero_sum_projector_rank,
)
from timeobs import serialize
from timeobs.cli import EXIT_OK, main

TWO_PI = 2.0 * math.pi


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d}: {detail}")


def _spectra_grid():
    for family, kw in (("harmonic", {"omega": 1.0}), ("box", {"scale": 1.0})):
        for n in (4, 8, 16, 64):
            yield build_spectrum(family, n, **kw)


def test_criterion_1_commutator_identity_on_subspace():
    start = time.perf_counter()
    worst = 0.0
    for spec in _spectra_grid():
        comm = commutator(build_time_operator(spec), build_hamiltonian(spec))
        for seed in range(100):
            psi = project_to_zero_sum(random_state(spec.size, seed))
            resid = comm.entries @ psi.coeffs - 1j * spec.hbar * psi.coeffs
            worst = max(worst, float(np.linalg.norm(resid)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, ok, f"max ||[T,H]psi - i*hbar*psi|| = {worst:.3e} in {elapsed:.2f} s")
    assert ok


def test_criterion_2_commutator_diagonal_vanishes():
    worst = 0.0
    for spec in _spectra_grid():
        comm = commutator(build_time_operator(spec), build_hamiltonian(spec))
        worst = max(worst, float(np.max(np.abs(np.diag(comm.entries)))))
    ok = worst <= 1e-13
    _report(2, ok, f"max diagonal |[T,H]_jj| = {worst:.3e} (never i*hbar)")
    assert ok


def test_criterion_3_covariance_identity():
    worst = 0.0
    grid = np.linspace(-5.0, 5.0, 1000)
    for seed in range(50):
        n = 2 + (seed % 15)  # spans 2..16
        family = "harmonic" if seed % 2 == 0 else "box"
        spec = build_spectrum(family, n, omega=1.1, scale=0.6)
        psi = random_state(n, seed)
        tau = -3.0 + 6.0 * ((seed * 0.6180339887498949) % 1.0)
        worst = max(worst, verify_covariance(spec, psi, tau, grid))
    ok = worst <= 1e-11
    _report(3, ok, f"max covariance defect over 50 state/shift pairs = {worst:.3e}")
    assert ok


def test_criterion_4_statistics_do_not_track_time():
    spec2 = build_spectrum("harmonic", 2, omega=1.0, hbar=1.0)
    plus = QuantumState(np.array([1.0, 1.0]) / math.sqrt(2.0))
    series = covariance_deviation(spec2, plus, np.array([0.0, math.pi]))
    dev_pi = float(series.values[-1])
    ok_closed = abs(dev_pi - (-math.pi)) <= 1e-10

    spec8 = build_spectrum("harmonic", 8, omega=1.0)
    norm = spectral_norm(build_time_operator(spec8))
    min_excess = math.inf
    for seed in range(10):
        psi = random_state(8, seed)
        scan = covariance_deviation(spec8, psi, np.array([0.0, 4.0 * norm]))
        min_excess = min(min_excess, abs(float(scan.values[-1])) - 2.0 * norm)
    ok = ok_closed and min_excess > 0.0
    _report(
        4,
        ok,
        f"deviation(pi) = {dev_pi:.12f} (target -pi), "
        f"min margin over 2||T|| at tau=4||T|| = {min_excess:.3f}",
    )
    assert ok


def test_criterion_5_subspace_not_invariant():
    spec2 = build_spectrum("harmonic", 2, omega=1.0, hbar=1.0)
    minus = QuantumState(np.array([1.0, -1.0]) / math.sqrt(2.0))
    series = membership_decay(spec2, minus, np.array([0.0, math.pi]))
    at_pi = float(series.values[-1])
    ok_closed = abs(at_pi - math.sqrt(2.0)) <= 1e-12

    spec8 = build_spectrum("harmonic", 8, omega=1.0)
    taus = np.linspace(0.0, 10.0, 512)
    min_peak = math.inf
    for seed in range(20):
        psi = random_state(8, seed, in_zero_sum=True)
        scan = membership_decay(spec8, psi, taus)
        min_peak = min(min_peak, float(np.max(scan.values)))
    ok = ok_closed and min_peak > 0.1
    _report(
        5,
        ok,
        f"|sum c_j(pi)| = {at_pi:.15f} (target sqrt(2)), "
        f"min peak over 20 zero-sum states = {min_peak:.3f} (> 0.1)",
    )
    assert ok


def test_criterion_6_explicit_cauchy_sequence():
    # oracles: direct substitution of h(2)=3/2, sigma(2)=5/4 into the formulas
    c0_oracle = 1.5 / math.sqrt(3.5)
    dist_oracle = math.sqrt(2.0 - 2.0 * c0_oracle)
    step2 = cauchy_state(2)
    c0 = float(step2.state.coeffs[0].real)
    dist = distance_to_eigenstate(step2, 0)
    ok_values = abs(c0 - c0_oracle) <= 1e-6 and abs(dist - dist_oracle) <= 1e-5

    worst_sum, worst_norm = 0.0, 0.0
    for n in range(1, 513):
        step = cauchy_state(n)
        worst_sum = max(worst_sum, abs(coefficient_sum(step.state)))
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(step.state.coeffs)) - 1.0))
    ok_invariants = worst_sum <= 1e-13 and worst_norm <= 1e-13

    n_rate = 10**6
    h, _ = harmonic_partial_sums(n_rate)
    ratio = (1.0 - leading_coefficient(n_rate)) * 2.0 * h * h / (math.pi**2 / 6.0)
    ok_rate = abs(ratio - 1.0) <= 0.05

    ok = ok_values and ok_invariants and ok_rate
    _report(
        6,
        ok,
        f"c0(2) = {c0:.6f}, distance = {dist:.6f}, max|sum| = {worst_sum:.2e}, "
        f"max norm defect = {worst_norm:.2e}, rate ratio at N=1e6: {ratio:.4f}",
    )
    assert ok


def test_criterion_7_finite_dimension_remark():
    ranks_ok = all(zero_sum_projector_rank(n) == n - 1 for n in range(2, 33))
    worst_overlap = max(uniform_vector_orthogonality(n) for n in range(2, 33))
    ok = ranks_ok and worst_overlap <= 1e-13
    _report(7, ok, f"projector ranks all N-1, max uniform overlap = {worst_overlap:.2e}")
    assert ok


def test_criterion_8_sublevel_measure_scaling():
    sig = TrigSignal(np.array([0.5, 1.5]), np.array([1.0, 1.0]) / math.sqrt(2.0))
    closed = 4.0 * math.asin(0.1 / math.sqrt(2.0))
    report = sublevel_measure(sig, 0.1, TWO_PI)
    measured = report.measure
    ok_value = abs(measured - closed) <= 1e-3

    eps = np.array([1e-2, 1e-3, 1e-4])
    ladder = [sublevel_measure(sig, float(e), TWO_PI) for e in eps]
    ms = np.array([r.measure for r in ladder])
    slope = float(np.sum(ms * eps) / np.sum(eps * eps))
    ok_slope = abs(slope - 2.0 * math.sqrt(2.0)) <= 0.02 * 2.0 * math.sqrt(2.0)

    freqs = np.array([1.0, math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.pi])
    sig5 = TrigSignal(freqs, random_state(5, 8).coeffs)
    tail = sublevel_measure(sig5, 1e-6 * sig5.weight(), TWO_PI)
    ok_tail = tail.measure / TWO_PI <= 1e-4
    ok_converged = all(r.converged for r in [report, *ladder, tail])

    ok = ok_value and ok_slope and ok_tail and ok_converged
    _report(
        8,
        ok,
        f"measure(0.1) = {measured:.6f} vs arcsin form {closed:.6f}, "
        f"slope = {slope:.4f} (target {2*math.sqrt(2):.4f}), "
        f"incommensurate tail fraction = {tail.measure / TWO_PI:.2e}",
    )
    assert ok


def test_criterion_9_mean_log_integral():
    sig = TrigSignal(np.array([0.5, 1.5]), np.array([1.0, 1.0]) / math.sqrt(2.0))
    reports = [
        paley_wiener_integral(sig, TWO_PI, 256, absolute=False),
        paley_wiener_integral(sig, TWO_PI, 256),
        paley_wiener_integral(sig, TWO_PI, 512),
    ]
    signed, coarse, fine = (r.value for r in reports)
    ok_signed = abs(signed - (-0.5 * math.log(2.0))) <= 1e-4

    rel = abs(fine - coarse) / abs(fine)
    ok_stable = rel <= 1e-5

    ok = ok_signed and ok_stable and all(r.converged for r in reports)
    _report(
        9,
        ok,
        f"signed mean = {signed:.6f} (target {-0.5 * math.log(2):.6f}), "
        f"doubling relative change = {rel:.2e}",
    )
    assert ok


def test_criterion_10_periodic_approximation_chain():
    sig = TrigSignal(
        np.array([1.0, math.sqrt(2.0)]), np.array([1.0, 1.0]) / math.sqrt(2.0)
    )
    result = periodic_approximation(sig, 1e-3, 100.0)
    ts = np.linspace(0.0, 100.0, 100_000)
    sup = float(np.max(np.abs(eval_f(sig, ts) - eval_f(result.signal, ts))))
    convergent_err = abs(1393.0 / 985.0 - math.sqrt(2.0))
    freq_err = abs(float(result.signal.freqs[1]) - math.sqrt(2.0))
    ok = sup <= 1e-3 and freq_err <= convergent_err + 1e-12
    _report(
        10,
        ok,
        f"sup|f - approx| = {sup:.3e} (<= 1e-3), sqrt(2) frequency error = "
        f"{freq_err:.3e} (1393/985 gives {convergent_err:.3e})",
    )
    assert ok


def test_criterion_11_cli_determinism_and_round_trip(tmp_path):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    for out in (run_a, run_b):
        code = main(["claims", "-o", str(out), "--grid", "256", "--seed", "7"])
        assert code == EXIT_OK
    identical = (run_a / "claims.json").read_bytes() == (run_b / "claims.json").read_bytes()
    summary = json.loads((run_a / "claims.json").read_text())["claims"]
    demonstrated = summary["all_demonstrated"]

    problem = tmp_path / "problem.json"
    spec = build_spectrum("harmonic", 8, omega=1.0)
    serialize.dump_problem(problem, spec)
    tg_out = tmp_path / "tg"
    assert main(["tg", "-i", str(problem), "-o", str(tg_out)]) == EXIT_OK
    reloaded = serialize.load_matrix(tg_out / "tg_matrix.json")
    round_trip_exact = bool(
        np.array_equal(reloaded.entries, build_time_operator(spec).entries)
    )
    ok = identical and round_trip_exact and demonstrated
    _report(
        11,
        ok,
        f"claims byte-identical: {identical}, all demonstrated: {demonstrated}, "
        f"matrix round-trip exact: {round_trip_exact}",
    )
    assert ok
