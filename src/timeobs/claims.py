"""End-to-end numerical demonstrations of the three critiques.

(1) Expectation values of the inverse-gap time operator are bounded by its
spectral norm, so they cannot track unbounded elapsed time, while the
canonical density obeys the shift law exactly.  (2) The zero-sum subspace is
not invariant under evolution.  (3) The times at which an evolved state
re-enters the subspace form a set whose sublevel measure collapses with the
threshold, with a finite mean |log|f|| backing the measure-zero signature.
"""

from __future__ import annotations

import numpy as np

from .canonical import verify_covariance
from .operators import (
    build_time_operator,
    covariance_deviation,
    membership_decay,
    project_to_zero_sum,
    spectral_norm,
)
from .spectral import (
    MEMBERSHIP_TOL,
    EnergySpectrum,
    QuantumState,
    in_zero_sum_subspace,
)
# paley_wiener_integral, sublevel_measure: unused, kept as perfbench/tracing.py wrap sites.
from .zeroset import (
    TrigSignal,
    paley_wiener_integral,
    paley_wiener_integrals,
    sublevel_measure,
    sublevel_measures,
)

DEFAULT_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)

COVARIANCE_IDENTITY_TOL = 1e-11
MEASURE_FRACTION_LIMIT = 1e-4
PW_STABILITY_TOL = 1e-5


def run_claims(
    spectrum: EnergySpectrum,
    state: QuantumState,
    *,
    grid: int = 512,
    tau_max: float = 10.0,
    epsilons=DEFAULT_EPSILONS,
) -> dict:
    """Run all three demonstrations and return a pass/fail summary.

    Claims (ii) and (iii) use the state itself when it passes the zero-sum
    membership test (|sum_j c_j| <= MEMBERSHIP_TOL), else its projection
    (_zero_sum).
    """
    grid = max(int(grid), 2)
    summary = {
        "claim_i": _claim_i(spectrum, state, grid, tau_max),
        "claim_ii": _claim_ii(spectrum, _zero_sum(state), grid, tau_max),
        "claim_iii": claim_iii(spectrum, state, grid, tau_max, epsilons)[0],
    }
    summary["all_demonstrated"] = all(
        summary[key]["demonstrated"] for key in ("claim_i", "claim_ii", "claim_iii")
    )
    return summary


def _zero_sum(state: QuantumState) -> QuantumState:
    """`state` when it passes the zero-sum membership test, else its projection."""
    return state if in_zero_sum_subspace(state) else project_to_zero_sum(state)


def _claim_i(spectrum, state, grid, tau_max) -> dict:
    top = build_time_operator(spectrum)
    norm = spectral_norm(top)
    tau_probe = 4.0 * norm
    series = covariance_deviation(spectrum, state, np.array([tau_probe]))
    deviation = float(series.values[0])
    threshold = 2.0 * norm

    canonical_tau = 0.5 * tau_max
    t_grid = np.linspace(0.0, tau_max, min(grid, 2000))
    canonical_dev = verify_covariance(spectrum, state, canonical_tau, t_grid)
    return {
        "demonstrated": bool(abs(deviation) >= threshold),
        "operator_norm": norm,
        "tau_probe": tau_probe,
        "deviation_at_probe": deviation,
        "deviation_threshold": threshold,
        "canonical_covariance_tau": canonical_tau,
        "canonical_covariance_max_deviation": canonical_dev,
        "canonical_covariant": bool(canonical_dev <= COVARIANCE_IDENTITY_TOL),
    }


def _claim_ii(spectrum, state, grid, tau_max) -> dict:
    taus = np.linspace(0.0, tau_max, grid)
    series = membership_decay(spectrum, state, taus)
    max_value = float(np.max(series.values))
    threshold = 10.0 * MEMBERSHIP_TOL
    return {
        "demonstrated": bool(max_value > threshold),
        "max_membership_value": max_value,
        "threshold": threshold,
        "tau_max": float(tau_max),
    }


def claim_iii(spectrum, state, grid, tau_max, epsilons) -> tuple[dict, list]:
    """Claim (iii) on the signal of _zero_sum(state) over [0, tau_max].

    The eps ladder runs on max(1000, grid) cells, over the distinct epsilons
    in descending order and then the tail threshold 1e-6 sum|c_j|, in one
    sublevel_measures call.  The mean |log|f|| is taken at grid // 4 (at
    least 100) panels and at twice that, in one paley_wiener_integrals call
    that shares the pair's zero search and common panels; it is stable when
    the relative change between the two is within PW_STABILITY_TOL and both
    integrals converged.  Returns the claim record and the MeasureReport of
    each of the distinct epsilons.
    """
    sig = TrigSignal.from_state(spectrum, _zero_sum(state))
    window = float(tau_max)
    eps_sorted = sorted({float(e) for e in epsilons}, reverse=True)
    tail_eps = 1e-6 * sig.weight()
    *reports, tail = sublevel_measures(sig, [*eps_sorted, tail_eps], window, max(1000, int(grid)))
    tail_fraction = tail.measure / window
    refined = tail.converged and all(report.converged for report in reports)

    panels = max(100, int(grid) // 4)
    coarse, fine = paley_wiener_integrals(sig, window, [panels, 2 * panels])
    rel_change = abs(fine.value - coarse.value) / max(abs(fine.value), 1e-300)
    converged = rel_change <= PW_STABILITY_TOL and coarse.converged and fine.converged
    record = {
        "demonstrated": bool(tail_fraction <= MEASURE_FRACTION_LIMIT and refined and converged),
        "window": window,
        "epsilons": eps_sorted,
        "measure_fractions": [report.measure / window for report in reports],
        "tail_epsilon": tail_eps,
        "tail_fraction": tail_fraction,
        "paley_wiener_value": fine.value,
        "paley_wiener_panels": 2 * panels,
        "paley_wiener_relative_change": rel_change,
        "paley_wiener_converged": converged,
    }
    return record, reports
