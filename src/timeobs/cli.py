"""Command-line front end: JSON problem in, CSV/JSON artifacts out.

Commands: tg (time-operator matrix + commutator diagnostics), canonical
(density samples + covariance record), cauchy (convergence ladder), zeroset
(claim (iii) without its verdict: sublevel-measure scaling + mean-log
record), claims (full demonstration suite).  Exit codes: 0 success, 2
unreadable/malformed input or an invalid option (such as a cauchy ladder with
no rung), 3 physics precondition violation (including a non-finite level,
hbar or state coefficient).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import claims as claims_mod
from . import serialize
from .canonical import CanonicalDensity, density_at, verify_covariance
from .denseness import cauchy_state, distance_to_eigenstate
from .errors import PhysicsError, SchemaError
# build_hamiltonian, commutator, weak_commutator: unused, kept as perfbench/tracing.py wrap sites.
from .operators import (
    build_hamiltonian,
    build_time_operator,
    commutator,
    commutator_defects,
    hermiticity_defect,
    spectral_norm,
    weak_commutator,
)
from .rng import random_state
from .spectral import EnergySpectrum, QuantumState, build_spectrum

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PHYSICS = 3

DEFAULT_EPSILONS = claims_mod.DEFAULT_EPSILONS
_DEFAULT_LEVELS = 8
_MAX_CAUCHY_N = 512

# Each flag's argparse names and options; dest is its RunConfig field.
_FLAGS = {
    "input": (
        ("--input", "-i"),
        dict(dest="input_path", metavar="INPUT", help="problem JSON path"),
    ),
    "output": (
        ("--output", "-o"),
        dict(
            dest="output_path",
            metavar="OUTPUT",
            required=True,
            help="output directory for artifacts",
        ),
    ),
    "grid": (("--grid",), dict(type=int, help="grid points / cells")),
    "tau-max": (("--tau-max",), dict(type=float, help="scan horizon")),
    "eps": (
        ("--eps",),
        dict(
            dest="epsilons",
            metavar="EPS",
            type=float,
            action="append",
            help="sublevel threshold (repeatable)",
        ),
    ),
    "seed": (("--seed",), dict(type=int, help="random-state seed")),
    "target": (("--target",), dict(type=int, help="eigenstate index")),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one command plus its numeric knobs."""

    command: str
    output_path: str
    input_path: str | None = None
    grid: int = 1000
    tau_max: float = 10.0
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    seed: int = 0
    target: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if int(self.grid) < 2:
            raise ValueError("grid must be at least 2")
        if not 0.0 < self.tau_max < np.inf:
            raise ValueError("tau-max must be positive and finite")
        if not self.epsilons or any(not e > 0.0 for e in self.epsilons):
            raise ValueError("every eps must be strictly positive")
        if int(self.target) < 0:
            raise ValueError("target must be nonnegative")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timeobs",
        description=(
            "Canonical time statistics and time-operator diagnostics for "
            "discrete-spectrum quantum systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        # A flag left out keeps the RunConfig default.
        cmd = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for flag in flags:
            names, options = _FLAGS[flag]
            cmd.add_argument(*names, **options)
    return parser


def main(argv=None) -> int:
    options = vars(build_parser().parse_args(argv))
    if "epsilons" in options:
        options["epsilons"] = tuple(options["epsilons"])
    try:
        return run(RunConfig(**options))
    except PhysicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except json.JSONDecodeError as exc:
        print(
            f"parse error: {exc.msg} (line {exc.lineno}, column {exc.colno})",
            file=sys.stderr,
        )
        return EXIT_PARSE
    except (SchemaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def run(config: RunConfig) -> int:
    out_dir = Path(config.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = COMMANDS[config.command][0]
    runner(config, out_dir)
    return EXIT_OK


def _load_problem(
    config: RunConfig, need_state: bool, in_zero_sum: bool
) -> tuple[EnergySpectrum, QuantumState | None]:
    """Problem from --input, or the default harmonic system with a seeded state."""
    if config.input_path is not None:
        spectrum, state = serialize.load_problem(config.input_path)
    else:
        spectrum = build_spectrum("harmonic", _DEFAULT_LEVELS, omega=1.0, hbar=1.0)
        state = None
    if need_state and state is None:
        state = random_state(spectrum.size, config.seed, in_zero_sum=in_zero_sum)
    return spectrum, state


def _cmd_tg(config: RunConfig, out_dir: Path) -> None:
    """Time-operator matrix plus its Hermiticity, norm and commutator diagnostics.

    `commutator_defects` compares [T, H] with the closed form i*hbar*(I - J)
    tile by tile; no dense H, commutator or weak form is built.
    """
    spectrum, _ = _load_problem(config, need_state=False, in_zero_sum=False)
    top = build_time_operator(spectrum)
    max_weak_defect, max_diagonal_entry = commutator_defects(top, spectrum)
    diagnostics = {
        "basis_size": spectrum.size,
        "hermiticity_defect": hermiticity_defect(top.entries),
        "spectral_norm": spectral_norm(top),
        "max_weak_defect": max_weak_defect,
        "max_diagonal_entry": max_diagonal_entry,
    }
    serialize.dump_matrix(out_dir / "tg_matrix.json", top)
    serialize.write_json(out_dir / "tg_diagnostics.json", diagnostics)
    print(f"wrote {out_dir / 'tg_matrix.json'} and {out_dir / 'tg_diagnostics.json'}")


def _cmd_canonical(config: RunConfig, out_dir: Path) -> None:
    spectrum, state = _load_problem(config, need_state=True, in_zero_sum=False)
    density = CanonicalDensity.from_state(spectrum, state)
    ts = np.linspace(0.0, config.tau_max, config.grid)
    tau = 0.5 * config.tau_max
    # Evolving by tau fails first on a huge tau_max, before any artifact.
    record = {
        "tau": tau,
        "max_deviation": verify_covariance(spectrum, state, tau, ts),
        "grid_points": config.grid,
    }
    ps = density_at(density, ts)
    serialize.write_csv(out_dir / "density.csv", ("t", "p"), zip(ts, ps))
    serialize.write_json(out_dir / "covariance.json", record)
    print(f"wrote {out_dir / 'density.csv'} and {out_dir / 'covariance.json'}")


def _cmd_cauchy(config: RunConfig, out_dir: Path) -> None:
    """One row per power of two N with max(target, 1) <= N <= min(grid, 512)."""
    lo, hi = max(config.target, 1), min(config.grid, _MAX_CAUCHY_N)
    ladder = [2**k for k in range(hi.bit_length()) if 2**k >= lo]
    if not ladder:
        raise ValueError(
            f"no power of two N with max(target, 1) = {lo} <= N <= {hi}"
            f" = min(grid, {_MAX_CAUCHY_N})"
        )
    rows = []
    for n in ladder:
        step = cauchy_state(n, target=config.target)
        leading = float(step.state.coeffs[config.target].real)
        rows.append((n, leading, distance_to_eigenstate(step, config.target)))
    serialize.write_csv(out_dir / "convergence.csv", ("N", "c0", "distance"), rows)
    print(f"wrote {out_dir / 'convergence.csv'}")


def _cmd_zeroset(config: RunConfig, out_dir: Path) -> None:
    """Claim (iii)'s eps ladder and Paley-Wiener record, without its verdict."""
    spectrum, state = _load_problem(config, need_state=True, in_zero_sum=True)
    claim, reports = claims_mod.claim_iii(
        spectrum, state, config.grid, config.tau_max, config.epsilons
    )
    serialize.write_csv(
        out_dir / "measure_scaling.csv",
        ("epsilon", "measure", "error_bound", "converged"),
        [(r.epsilon, r.measure, r.error_bound, r.converged) for r in reports],
    )
    record = {key: claim[f"paley_wiener_{key}"] for key in ("panels", "value", "converged")}
    record["window"] = claim["window"]
    serialize.write_json(out_dir / "paley_wiener.json", record)
    print(f"wrote {out_dir / 'measure_scaling.csv'} and {out_dir / 'paley_wiener.json'}")


def _cmd_claims(config: RunConfig, out_dir: Path) -> None:
    spectrum, state = _load_problem(config, need_state=True, in_zero_sum=True)
    summary = claims_mod.run_claims(
        spectrum,
        state,
        grid=config.grid,
        tau_max=config.tau_max,
        epsilons=config.epsilons,
    )
    document = {
        "seed": config.seed,
        "grid": config.grid,
        "tau_max": config.tau_max,
        "spectrum": serialize.spectrum_to_dict(spectrum),
        "state": serialize.state_to_dict(state),
        "claims": summary,
    }
    serialize.write_json(out_dir / "claims.json", document)
    print(f"wrote {out_dir / 'claims.json'}")


# Each command's runner, --help line and the flags it reads.
COMMANDS = {
    "tg": (
        _cmd_tg,
        "export the time-operator matrix and commutator diagnostics",
        ("input", "output"),
    ),
    "canonical": (
        _cmd_canonical,
        "sample the canonical density and verify the shift law",
        ("input", "output", "grid", "tau-max", "seed"),
    ),
    "cauchy": (_cmd_cauchy, "emit the zero-sum convergence ladder", ("output", "grid", "target")),
    "zeroset": (
        _cmd_zeroset,
        "scan sublevel measures and the mean-log integral",
        ("input", "output", "grid", "tau-max", "eps", "seed"),
    ),
    "claims": (
        _cmd_claims,
        "run the full demonstration suite",
        ("input", "output", "grid", "tau-max", "eps", "seed"),
    ),
}


if __name__ == "__main__":
    sys.exit(main())
