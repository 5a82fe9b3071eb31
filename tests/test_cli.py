import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from timeobs import (
    build_hamiltonian,
    build_spectrum,
    build_time_operator,
    hermiticity_defect,
    random_state,
    weak_commutator,
)
from timeobs import cli, operators, serialize, zeroset
from timeobs.cli import EXIT_OK, EXIT_PARSE, EXIT_PHYSICS, main


def _write_problem(tmp_path, name="problem.json", n=4, with_state=True, seed=1):
    spec = build_spectrum("harmonic", n, omega=1.0)
    state = random_state(n, seed, in_zero_sum=True) if with_state else None
    path = tmp_path / name
    serialize.dump_problem(path, spec, state)
    return path


def _nan_state_problem():
    """Harmonic N = 2 with state (NaN, 0): its squared norm is NaN."""
    return {
        "spectrum": {"kind": "harmonic", "n": 2},
        "state": {"re": [math.nan, 0.0], "im": [0.0, 0.0]},
    }


class TestHappyPaths:
    def test_tg_writes_matrix_and_diagnostics(self, tmp_path):
        problem = _write_problem(tmp_path)
        out = tmp_path / "out"
        assert main(["tg", "-i", str(problem), "-o", str(out)]) == EXIT_OK
        top = serialize.load_matrix(out / "tg_matrix.json")
        assert hermiticity_defect(top.entries) <= 1e-15
        diag = json.loads((out / "tg_diagnostics.json").read_text())
        assert diag["basis_size"] == 4
        assert diag["max_weak_defect"] <= 1e-12
        assert diag["max_diagonal_entry"] <= 1e-13

    def test_tg_peak_memory_bounded(self, tmp_path):
        # T is 16 N^2 bytes and is allocated once; spectral_norm's K and K^T K
        # add half of that.  Dense H, [T, H], weak form and their difference
        # would take the traced peak to about 5.6 times T, and a builder that
        # copies T to about 2.6 times.
        n = 256
        problem = tmp_path / "problem.json"
        serialize.dump_problem(problem, build_spectrum("harmonic", n, omega=1.0))
        argv = ["tg", "-i", str(problem), "-o", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 16 * n * n

    def test_tg_commutator_diagnostics_match_dense_reference(self, tmp_path):
        problem = _write_problem(tmp_path, n=64, with_state=False)
        out = tmp_path / "out"
        assert main(["tg", "-i", str(problem), "-o", str(out)]) == EXIT_OK
        diag = json.loads((out / "tg_diagnostics.json").read_text())
        spec, _ = serialize.load_problem(problem)
        top = build_time_operator(spec).entries
        ham = build_hamiltonian(spec).entries
        dense = top @ ham - ham @ top
        assert diag["max_weak_defect"] == float(
            np.max(np.abs(dense - weak_commutator(spec).entries))
        )
        assert diag["max_diagonal_entry"] == float(np.max(np.abs(np.diag(dense))))

    def test_canonical_density_and_covariance(self, tmp_path):
        problem = _write_problem(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["canonical", "-i", str(problem), "-o", str(out), "--grid", "50", "--tau-max", "6.0"]
        )
        assert code == EXIT_OK
        lines = (out / "density.csv").read_text().splitlines()
        assert lines[0] == "t,p"
        assert len(lines) == 51
        record = json.loads((out / "covariance.json").read_text())
        assert record["max_deviation"] <= 1e-11
        assert record["grid_points"] == 50

    def test_cauchy_ladder(self, tmp_path):
        out = tmp_path / "out"
        assert main(["cauchy", "-o", str(out), "--grid", "64"]) == EXIT_OK
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "N,c0,distance"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 2, 4, 8, 16, 32, 64]
        # distances strictly decrease along the ladder
        dists = [float(r[2]) for r in rows]
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_cauchy_respects_target(self, tmp_path):
        out = tmp_path / "out"
        assert main(["cauchy", "-o", str(out), "--grid", "8", "--target", "2"]) == EXIT_OK
        rows = (out / "convergence.csv").read_text().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [2, 4, 8]

    def test_zeroset_outputs(self, tmp_path):
        problem = _write_problem(tmp_path, n=5, seed=3)
        out = tmp_path / "out"
        code = main(
            [
                "zeroset",
                "-i",
                str(problem),
                "-o",
                str(out),
                "--grid",
                "1200",
                "--tau-max",
                str(2.0 * math.pi),
                "--eps",
                "0.1",
                "--eps",
                "0.01",
            ]
        )
        assert code == EXIT_OK
        lines = (out / "measure_scaling.csv").read_text().splitlines()
        assert lines[0] == "epsilon,measure,error_bound,converged"
        eps = [float(line.split(",")[0]) for line in lines[1:]]
        assert eps == [0.1, 0.01]
        assert [line.split(",")[3] for line in lines[1:]] == ["true", "true"]
        record = json.loads((out / "paley_wiener.json").read_text())
        assert record["converged"] is True
        assert math.isfinite(record["value"])

    def test_zeroset_reports_a_step_cap_hit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(zeroset, "_CROSSING_STEPS", 1)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["zeroset", "-o", str(out), "--seed", "7", "--grid", "256"])
        assert code == EXIT_OK
        rows = (out / "measure_scaling.csv").read_text().splitlines()[1:]
        assert "false" in [row.split(",")[3] for row in rows]

    def test_zeroset_scans_three_times(self, tmp_path, monkeypatch):
        # One scan for the whole eps ladder and one zero search in each
        # Paley-Wiener integral.
        scans = []
        scan = zeroset._scan

        def counted(*args):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(zeroset, "_scan", counted)
        assert main(["zeroset", "-o", str(tmp_path / "out"), "--seed", "7"]) == EXIT_OK
        assert len(scans) == 3

    @pytest.mark.parametrize("command, scans", [("tg", 2), ("claims", 1)])
    def test_hermiticity_is_scanned_only_where_it_is_measured(
        self, tmp_path, monkeypatch, command, scans
    ):
        # tg reports the defect and gates spectral_norm on it; claims only
        # gates spectral_norm.  No builder scans the operator it builds.
        calls = []

        def counted(entries):
            calls.append(entries.shape)
            return hermiticity_defect(entries)

        monkeypatch.setattr(operators, "hermiticity_defect", counted)
        monkeypatch.setattr(cli, "hermiticity_defect", counted)
        assert main([command, "-o", str(tmp_path / "out")]) == EXIT_OK
        assert len(calls) == scans

    def test_claims_summary(self, tmp_path):
        out = tmp_path / "out"
        code = main(["claims", "-o", str(out), "--grid", "256", "--seed", "5"])
        assert code == EXIT_OK
        doc = json.loads((out / "claims.json").read_text())
        claims = doc["claims"]
        assert claims["claim_i"]["demonstrated"] is True
        assert claims["claim_i"]["canonical_covariant"] is True
        assert claims["claim_ii"]["demonstrated"] is True
        assert claims["claim_iii"]["demonstrated"] is True
        assert claims["all_demonstrated"] is True


class TestFailurePaths:
    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["tg", "-i", str(bad), "-o", str(tmp_path / "o")]) == EXIT_PARSE

    def test_missing_input_exits_2(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["tg", "-i", str(missing), "-o", str(tmp_path / "o")]) == EXIT_PARSE

    def test_schema_violation_exits_2(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"spectrum": {"kind": "harmonic"}}))
        assert main(["tg", "-i", str(doc), "-o", str(tmp_path / "o")]) == EXIT_PARSE

    def test_degenerate_levels_exit_3(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"spectrum": {"kind": "custom", "levels": [1.0, 1.0]}}))
        assert main(["tg", "-i", str(doc), "-o", str(tmp_path / "o")]) == EXIT_PHYSICS

    def test_unnormalized_state_exit_3(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(
            json.dumps(
                {
                    "spectrum": {"kind": "harmonic", "n": 2},
                    "state": {"re": [1.0, 1.0], "im": [0.0, 0.0]},
                }
            )
        )
        assert main(["canonical", "-i", str(doc), "-o", str(tmp_path / "o")]) == EXIT_PHYSICS

    @pytest.mark.parametrize(
        "command, problem",
        [
            ("zeroset", _nan_state_problem()),
            ("claims", _nan_state_problem()),
            ("canonical", _nan_state_problem()),
            ("tg", {"spectrum": {"kind": "custom", "levels": [1.0, 1e308, math.inf]}}),
            ("tg", {"spectrum": {"kind": "custom", "levels": [1.0, 2.0], "hbar": math.inf}}),
            ("tg", {"spectrum": {"kind": "custom", "levels": [-1e308, 1e308]}}),
            ("tg", {"spectrum": {"kind": "custom", "levels": [-1e308, 0.0, 1e308]}}),
            ("tg", {"spectrum": {"kind": "custom", "levels": [0.0, 5e-324]}}),
            ("tg", {"spectrum": {"kind": "custom", "levels": [0.0, 1e-309], "hbar": 1e-300}}),
            (
                "claims",
                {
                    "spectrum": {"kind": "harmonic", "n": 2},
                    "state": {"re": [1.0, 0.0], "im": [0.0, math.inf]},
                },
            ),
        ],
        ids=[
            "zeroset-nan",
            "claims-nan",
            "canonical-nan",
            "tg-inf-level",
            "tg-inf-hbar",
            "tg-span-overflow",
            "tg-span-overflow-finite-gaps",
            "tg-tiny-gap",
            "tg-tiny-gap-finite-ratio",
            "claims-inf-im",
        ],
    )
    def test_non_finite_input_exits_3_without_artifacts(self, tmp_path, capsys, command, problem):
        # json reads NaN and Infinity; the types reject them before any computation.
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(problem))
        out = tmp_path / "o"
        assert main([command, "-i", str(doc), "-o", str(out)]) == EXIT_PHYSICS
        assert "finite" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "command, tau_max, code",
        [
            ("zeroset", "inf", EXIT_PARSE),
            ("claims", "inf", EXIT_PARSE),
            ("canonical", "inf", EXIT_PARSE),
            ("zeroset", "nan", EXIT_PARSE),
            ("zeroset", "1e308", EXIT_PHYSICS),
            ("claims", "1e308", EXIT_PHYSICS),
            ("canonical", "1e308", EXIT_PHYSICS),
            ("claims", "3e307", EXIT_PHYSICS),
            ("canonical", "3e307", EXIT_PHYSICS),
        ],
        ids=[
            "zeroset-inf",
            "claims-inf",
            "canonical-inf",
            "zeroset-nan",
            "zeroset-1e308",
            "claims-1e308",
            "canonical-1e308",
            "claims-3e307",
            "canonical-3e307",
        ],
    )
    def test_non_finite_or_overflowing_window_exits_without_artifacts(
        self, tmp_path, capsys, command, tau_max, code
    ):
        # At 1e308 the scan's cell count 20 * window * max|omega| / (2 pi)
        # overflows, and so do the phase angles of evolving by tau_max / 2.  At
        # 3e307 evolving stays finite, but the density's phases t * omega reach
        # 3e307 * 7.5, which overflows.
        out = tmp_path / "o"
        assert main([command, "-o", str(out), "--tau-max", tau_max]) == code
        err = capsys.readouterr().err
        assert "finite" in err or "overflows" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "args",
        [["--target", "600"], ["--grid", "3", "--target", "3"]],
        ids=["target600", "grid3-target3"],
    )
    def test_empty_cauchy_ladder_exits_2(self, tmp_path, args):
        # No power of two N satisfies max(target, 1) <= N <= min(grid, 512).
        out = tmp_path / "o"
        assert main(["cauchy", "-o", str(out), *args]) == EXIT_PARSE
        assert not (out / "convergence.csv").exists()

    def test_bad_grid_exits_2(self, tmp_path):
        assert main(["canonical", "-o", str(tmp_path / "o"), "--grid", "1"]) == EXIT_PARSE

    def test_bad_eps_exits_2(self, tmp_path):
        code = main(["zeroset", "-o", str(tmp_path / "o"), "--eps", "-0.5"])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "argv", [["tg", "--eps", "0.1"], ["cauchy", "--input", "x"]], ids=["tg-eps", "cauchy-input"]
    )
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, argv):
        # Each command registers only the flags it reads; argparse rejects the rest.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-o", str(tmp_path / "o")])
        assert exc.value.code == EXIT_PARSE


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["claims", "-o", str(out), "--grid", "128", "--seed", "11"]) == EXIT_OK
        assert (a / "claims.json").read_bytes() == (b / "claims.json").read_bytes()

    def test_tg_byte_identical(self, tmp_path):
        problem = _write_problem(tmp_path, n=24, with_state=False)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["tg", "-i", str(problem), "-o", str(out)]) == EXIT_OK
        for name in ("tg_matrix.json", "tg_diagnostics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize(
        "spec, matrix_digest, diagnostics_digest",
        [
            (
                build_spectrum("harmonic", 24, omega=0.83),
                "2816d7fe6a5d0000cf884ffca6fcc83d7dead0a4d5ac772b5b46daa6caed2958",
                "72db5071d37e0916eb78263bd24e62a538e4c60f4740f6c2d1c47ebbb7f1b7f8",
            ),
            (
                build_spectrum("box", 9, scale=0.3),
                "c626922c013c98f474b664656f923e49e6ba3c996efcaba9cc2609fa58a10359",
                "4b371d4480303563228f627035a19865eeaea0dad0ae0a36a79f57dadd335d89",
            ),
        ],
        ids=["harmonic24", "box9"],
    )
    def test_tg_bytes_are_pinned(self, tmp_path, spec, matrix_digest, diagnostics_digest):
        # sha256 of the artifacts before the sort-based float dedup and the
        # tiled Hermiticity scan; a writer or operator change that moves one
        # byte fails here.  tg_diagnostics.json holds spectral_norm, which
        # comes from LAPACK's eigvalsh, so its digest is tied to that build.
        problem = tmp_path / "problem.json"
        serialize.dump_problem(problem, spec)
        out = tmp_path / "out"
        assert main(["tg", "-i", str(problem), "-o", str(out)]) == EXIT_OK
        digests = [
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("tg_matrix.json", "tg_diagnostics.json")
        ]
        assert digests == [matrix_digest, diagnostics_digest]

    @pytest.mark.parametrize(
        "spec, args, digests",
        [
            (
                None,
                ["--seed", "7", "--grid", "256"],
                {
                    "claims.json": "61888f9d1760897d14223dfe5bdadd5531fe1f9a3f4dff1d3e8ed600ab613ffe",
                    "measure_scaling.csv": "1efc5b6088faafc01b3cfdbaf1367de4293d1bcdfd9bc25bc08c16ccd1e1b194",
                    "paley_wiener.json": "0743205d8fd464803cd279698637f81c9fac4f87bd3992a71db0bd76ecb1d8a9",
                },
            ),
            (
                build_spectrum("box", 16),
                ["--grid", "512"],
                {
                    "claims.json": "0b0bed6b8a3403c8362460faf787498610abc301460c90732bc9dea1e8590114",
                    "measure_scaling.csv": "60f23c55f5436ad5f92a7848953c36436c51fe158410c95343968e1464c4d03b",
                    "paley_wiener.json": "a1e3d0520745396b23306c36ad135d9e6242e471c949100da84a622d5d4fdd87",
                },
            ),
        ],
        ids=["harmonic8", "box16"],
    )
    def test_claims_and_zeroset_bytes_are_pinned(self, tmp_path, spec, args, digests):
        # sha256 of the artifacts before the convergence flags moved from
        # warnings into the returned reports; the default problem is harmonic
        # N = 8.  claims.json holds spectral_norm, which comes from LAPACK's
        # eigvalsh, so its digest is tied to that build.
        argv = [*args]
        if spec is not None:
            problem = tmp_path / "problem.json"
            serialize.dump_problem(problem, spec)
            argv += ["-i", str(problem)]
        out = tmp_path / "out"
        assert main(["claims", *argv, "-o", str(out)]) == EXIT_OK
        assert main(["zeroset", *argv, "-o", str(out)]) == EXIT_OK
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests}
        assert got == digests

    @pytest.mark.parametrize(
        "problem, args",
        [
            (None, ["--seed", "7", "--grid", "256"]),
            ((build_spectrum("box", 16),), ["--grid", "512"]),
            (None, ["--grid", "1200", "--eps", "0.1", "--eps", "0.01", "--eps", "1e-6"]),
            # A loaded state outside the zero-sum subspace: both project it.
            ((build_spectrum("harmonic", 8), random_state(8, 7)), []),
        ],
        ids=["harmonic8", "box16", "three-eps", "not-zero-sum"],
    )
    def test_zeroset_writes_the_numbers_of_claim_iii(self, tmp_path, problem, args):
        # zeroset writes claim (iii)'s ladder and Paley-Wiener pair without its
        # verdict, so every number it writes is a number of claims.json.
        argv = [*args]
        if problem is not None:
            path = tmp_path / "problem.json"
            serialize.dump_problem(path, *problem)
            argv += ["-i", str(path)]
        out = tmp_path / "out"
        assert main(["claims", *argv, "-o", str(out)]) == EXIT_OK
        assert main(["zeroset", *argv, "-o", str(out)]) == EXIT_OK
        claim = json.loads((out / "claims.json").read_text())["claims"]["claim_iii"]
        record = json.loads((out / "paley_wiener.json").read_text())
        assert record["window"] == claim["window"]
        assert record["value"] == claim["paley_wiener_value"]
        assert record["panels"] == claim["paley_wiener_panels"]
        assert record["converged"] is claim["paley_wiener_converged"]
        lines = (out / "measure_scaling.csv").read_text().splitlines()[1:]
        rows = [[float(x) for x in line.split(",")[:2]] for line in lines]
        assert [eps for eps, _ in rows] == claim["epsilons"]
        assert [measure / claim["window"] for _, measure in rows] == claim["measure_fractions"]

    @pytest.mark.parametrize(
        "argv, digests",
        [
            (
                ["canonical", "--seed", "7"],
                {
                    "density.csv": "e82bea6f079ecf63ebfe356735ab1922e74b2229306db9012058052ccc555942",
                    "covariance.json": "ae5bbc8957ed7becbaa1816ac7d0b035efa98482b155732740f196eb3b00bb9b",
                },
            ),
            (
                ["cauchy", "--grid", "512"],
                {"convergence.csv": "98df220946d0e6949d709577615720395b163d309531f61195a76eb3456c283e"},
            ),
        ],
        ids=["canonical", "cauchy"],
    )
    def test_canonical_and_cauchy_bytes_are_pinned(self, tmp_path, argv, digests):
        # sha256 of the artifacts before the unused tolerance and partial-sum
        # parameters were deleted; the default problem is harmonic N = 8.
        out = tmp_path / "out"
        assert main([*argv, "-o", str(out)]) == EXIT_OK
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests}
        assert got == digests

    def test_density_csv_reparses_exactly(self, tmp_path):
        problem = _write_problem(tmp_path)
        out = tmp_path / "out"
        main(["canonical", "-i", str(problem), "-o", str(out), "--grid", "20"])
        from timeobs.canonical import CanonicalDensity, density_at
        spec, state = serialize.load_problem(problem)
        density = CanonicalDensity.from_state(spec, state)
        rows = [line.split(",") for line in (out / "density.csv").read_text().splitlines()[1:]]
        ts = np.array([float(t) for t, _ in rows])
        ps = np.array([float(p) for _, p in rows])
        np.testing.assert_array_equal(ts, np.linspace(0.0, 10.0, 20))
        # 17-digit cells reparse to the exact doubles the command computed
        np.testing.assert_array_equal(ps, density_at(density, ts))
