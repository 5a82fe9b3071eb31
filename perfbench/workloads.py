"""The benchmark's three workloads: inputs, the timed call, and the oracles.

Each workload builds its inputs from the seed (``__init__``), makes one cheap
warm-up call that starts the BLAS thread pool and touches the hot kernel
(``warm_up``), runs one execution through a public entry point (``execute``,
the only timed part), keeps light evidence of each execution (``record``) and
finally checks all of it against oracles (``verify``).  ``verify`` runs after
peak memory is read, because some oracles reload large artifacts.

Workloads call the package through module attributes (``cli.main``,
``zeroset.sublevel_measure``) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from timeobs import claims, cli, operators, rng, serialize, spectral, zeroset

# The Montgomery-Vaughan inequality (J. London Math. Soc. 8 (1974) 73-82)
# bounds the inverse-gap matrix: ||T|| <= pi * hbar / min_gap.
NORM_REL_TOL = 1e-8
LINEAR_LAW_REL_TOL = 1e-3
LINEAR_LAW_MAX_EPS = 1e-4
DENSE_POINTS = 16 * 32768  # oracle grid for minima of |f| on the sublevel window
ZERO_ABS_TOL = 1e-8


def _load_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _reference_norm(spectrum) -> float:
    """2-norm of the inverse-gap matrix built directly from the levels."""
    e = spectrum.levels
    gaps = e[:, None] - e[None, :]
    np.fill_diagonal(gaps, 1.0)
    entries = 1j * spectrum.hbar / gaps
    np.fill_diagonal(entries, 0.0)
    return float(np.linalg.norm(entries, 2))


def _norm_problems(value: float, reference: float, spectrum) -> list[str]:
    problems = []
    if not abs(value - reference) <= NORM_REL_TOL * reference:
        problems.append(f"spectral norm {value!r} differs from np.linalg.norm {reference!r}")
    bound = math.pi * spectrum.hbar / float(np.min(np.diff(spectrum.levels)))
    if not value <= bound:
        problems.append(f"spectral norm {value!r} exceeds Montgomery-Vaughan bound {bound!r}")
    return problems


class ClaimsHarmonic64:
    """`timeobs claims` on a 64-level harmonic spectrum; quadrature bound."""

    name = "claims-harmonic64"
    levels = 64
    grid = 512
    tau_max = 10.0

    def __init__(self, seed: int, workdir: Path):
        self.spectrum = spectral.build_spectrum("harmonic", self.levels, omega=1.0, hbar=1.0)
        self.state = rng.random_state(self.levels, seed, in_zero_sum=True)
        problem = workdir / "problem.json"
        serialize.dump_problem(problem, self.spectrum)
        self.out = workdir / "out"
        self.argv = [
            "claims", "--input", str(problem), "--output", str(self.out),
            "--grid", str(self.grid), "--tau-max", str(self.tau_max), "--seed", str(seed),
        ]

    def warm_up(self) -> None:
        sig = zeroset.TrigSignal.from_state(self.spectrum, self.state)
        zeroset.eval_f(sig, np.linspace(0.0, self.tau_max, 2048))
        operators.spectral_norm(operators.build_time_operator(self.spectrum))

    def execute(self):
        return cli.main(self.argv)

    def record(self, rc):
        return rc, _load_json(self.out / "claims.json")

    def verify(self, evidence: list) -> list[list[str]]:
        reference = _reference_norm(self.spectrum)
        expected_state = serialize.state_to_dict(self.state)
        results = []
        for rc, doc in evidence:
            problems = [] if rc == 0 else [f"exit code {rc}"]
            summary = doc["claims"]
            if not summary["all_demonstrated"]:
                problems.append("all_demonstrated is false")
            problems += _norm_problems(summary["claim_i"]["operator_norm"], reference, self.spectrum)
            iii = summary["claim_iii"]
            if not iii["paley_wiener_relative_change"] <= claims.PW_STABILITY_TOL:
                problems.append(f"paley_wiener_relative_change {iii['paley_wiener_relative_change']!r}")
            if not iii["tail_fraction"] <= claims.MEASURE_FRACTION_LIMIT:
                problems.append(f"tail_fraction {iii['tail_fraction']!r}")
            if doc["state"] != expected_state:
                problems.append("claims.json state is not the seeded state")
            results.append(problems)
        return results


class SublevelBox32:
    """Library quick-start path: sublevel measures over an eps ladder, then zeros."""

    name = "sublevel-box32"
    levels = 32
    window = 10.0
    base_grid = 1000
    epsilons = (0.3, 0.1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 1e-6)

    def __init__(self, seed: int, workdir: Path):
        self.spectrum = spectral.build_spectrum("box", self.levels, scale=1.0, hbar=1.0)
        # Equal moduli with seeded phases: the scan/refine work follows the
        # state's spectral moments, which then barely depend on the seed.
        coeffs = rng.random_state(self.levels, seed).coeffs
        flat = spectral.QuantumState.normalized(coeffs / np.abs(coeffs))
        self.signal = zeroset.TrigSignal.from_state(
            self.spectrum, operators.project_to_zero_sum(flat)
        )

    def warm_up(self) -> None:
        zeroset.eval_f(self.signal, np.linspace(0.0, self.window, 32768))

    def execute(self):
        measures = [
            zeroset.sublevel_measure(self.signal, eps, self.window, base_grid=self.base_grid)
            for eps in self.epsilons
        ]
        zeros = zeroset.find_zeros(self.signal, self.window, base_grid=self.base_grid)
        return [r.measure for r in measures], zeros

    def record(self, result):
        return result

    def _exact_zeros(self) -> list[float]:
        # Box levels (j+1)^2 with hbar = 1 are integer frequencies, so f has
        # period 2*pi, and f(0) = sum c_j = 0 for a zero-sum state.
        period = 2.0 * math.pi
        return [k * period for k in range(int(self.window // period) + 1)]

    def _derivatives(self, t):
        """f, f' and f'' at the times t, summed directly from the trigonometric sum."""
        freqs = self.signal.freqs
        terms = np.exp(-1j * np.outer(np.atleast_1d(t), freqs)) * self.signal.amps
        return terms.sum(axis=1), terms @ (-1j * freqs), terms @ -(freqs**2)

    def _minima(self) -> list[tuple[float, float, float]]:
        """(t_d, m_d, a_d) for every local minimum of |f| below LINEAR_LAW_MAX_EPS.

        Near t_d, |f(t)|^2 = m_d^2 + a_d (t - t_d)^2 with a_d = |f'|^2 + Re(conj(f) f'').
        The exact zeros have m_d = 0.  Other minima are found on a grid 16 times
        finer than the one sublevel_measure uses and refined by Newton's method
        on d|f|^2/dt = 0.
        """
        zeros = self._exact_zeros()
        ts = np.linspace(0.0, self.window, DENSE_POINTS + 1)
        h = ts[1]
        absf = np.concatenate(
            [np.abs(self._derivatives(block)[0]) for block in np.array_split(ts, 64)]
        )
        screen = self.signal.lipschitz() * h + LINEAR_LAW_MAX_EPS
        mid = absf[1:-1]
        idx = np.nonzero((mid <= absf[:-2]) & (mid <= absf[2:]) & (mid < screen))[0] + 1
        points = [(z, True) for z in zeros]
        for i in idx:
            t = float(ts[i])
            if min(abs(t - z) for z in zeros) < 4 * h:
                continue
            for _ in range(50):
                f, f1, f2 = (v[0] for v in self._derivatives(t))
                step = (f.conjugate() * f1).real / (abs(f1) ** 2 + (f.conjugate() * f2).real)
                t -= step
                if abs(step) <= 1e-13:
                    break
            else:
                raise RuntimeError(f"Newton refinement of the minimum near {ts[i]} did not converge")
            if abs(t - ts[i]) > 2 * h:
                raise RuntimeError(f"Newton refinement left the grid cell at {ts[i]}")
            points.append((t, False))
        minima = []
        for t, exact in points:
            f, f1, f2 = (v[0] for v in self._derivatives(t))
            m = 0.0 if exact else abs(f)
            if m < LINEAR_LAW_MAX_EPS:
                minima.append((t, m, abs(f1) ** 2 + (f.conjugate() * f2).real))
        return minima

    def _predicted_measure(self, eps: float, minima) -> float:
        """Sublevel measure from the quadratic model of |f|^2 at each minimum.

        At an exact zero this is the linear law: an interval of length
        2*eps/|f'(t_d)|, of which half lies in the window at a window end.
        """
        total = 0.0
        for t, m, a in minima:
            if m < eps:
                half = math.sqrt((eps * eps - m * m) / a)
                total += min(t + half, self.window) - max(t - half, 0.0)
        return total

    def verify(self, evidence: list) -> list[list[str]]:
        minima = self._minima()
        exact = self._exact_zeros()
        results = []
        for measures, zeros in evidence:
            problems = []
            if any(b > a for a, b in zip(measures, measures[1:])):
                problems.append(f"measures increase as eps falls: {measures!r}")
            if len(zeros) != len(exact) or any(
                abs(z - x) > ZERO_ABS_TOL for z, x in zip(zeros, exact)
            ):
                problems.append(f"zeros {zeros!r}, expected {exact!r}")
            for eps, measure in zip(self.epsilons, measures):
                predicted = self._predicted_measure(eps, minima)
                if eps <= LINEAR_LAW_MAX_EPS and not abs(measure - predicted) <= LINEAR_LAW_REL_TOL * predicted:
                    problems.append(f"measure {measure!r} at eps {eps}, predicted {predicted!r}")
            results.append(problems)
        return results


class TgDense1024:
    """`timeobs tg` on a 1024-level harmonic spectrum; operators and serialization."""

    name = "tg-dense1024"
    levels = 1024

    def __init__(self, seed: int, workdir: Path):
        omega = 0.5 + rng.SplitMix64(seed).next_unit()
        self.spectrum = spectral.build_spectrum("harmonic", self.levels, omega=omega, hbar=1.0)
        problem = workdir / "problem.json"
        serialize.dump_problem(problem, self.spectrum)
        self.out = workdir / "out"
        self.argv = ["tg", "--input", str(problem), "--output", str(self.out)]

    def warm_up(self) -> None:
        top = operators.build_time_operator(self.spectrum)
        operators.commutator(top, operators.build_hamiltonian(self.spectrum))

    def execute(self):
        return cli.main(self.argv)

    def record(self, rc):
        diagnostics = _load_json(self.out / "tg_diagnostics.json")
        return rc, _digest(self.out / "tg_matrix.json"), diagnostics["spectral_norm"]

    def verify(self, evidence: list) -> list[list[str]]:
        # The artifact on disk is the last execution's; every other execution
        # is covered by byte identity with it.
        on_disk = _digest(self.out / "tg_matrix.json")
        expected = operators.build_time_operator(self.spectrum).entries
        loaded = serialize.load_matrix(self.out / "tg_matrix.json").entries
        reload_ok = bool(np.array_equal(loaded, expected))
        del loaded
        reference = _reference_norm(self.spectrum)
        results = []
        for rc, digest, norm in evidence:
            problems = [] if rc == 0 else [f"exit code {rc}"]
            if digest != on_disk:
                problems.append("tg_matrix.json differs between executions")
            elif not reload_ok:
                problems.append("tg_matrix.json does not reload to build_time_operator")
            problems += _norm_problems(norm, reference, self.spectrum)
            results.append(problems)
        return results


WORKLOADS = {w.name: w for w in (ClaimsHarmonic64, SublevelBox32, TgDense1024)}
