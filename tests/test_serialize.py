import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from timeobs import (
    QuantumState,
    SchemaError,
    build_spectrum,
    build_time_operator,
    covariance_deviation,
    random_state,
)
from timeobs import serialize
from timeobs.cli import EXIT_OK, main
from timeobs.operators import OperatorMatrix


def _reference_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _salted_matrix(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m[0, 0] = complex(math.nan, math.inf)
    m[1, 2] = complex(-math.inf, -0.0)
    m[3, 3] = complex(-0.0, 0.0)
    m[5, 7] = complex(5e-324, -math.nan)
    return m


_SPECIAL_DOUBLES = (
    0.0,
    -0.0,
    math.nan,
    -math.nan,
    float(np.array(0x7FF8000000000001).view(np.float64)),  # NaN with a payload
    math.inf,
    -math.inf,
    5e-324,
    -2.225073858507201e-308,  # largest-magnitude negative subnormal
)

class TestFormatting:
    @pytest.mark.parametrize(
        "value", [0.1, 1.0 / 3.0, math.pi, 1e-300, 2.5, -7.25e17, 4.9e-324]
    )
    def test_fmt17_round_trips(self, value):
        assert float(serialize.fmt17(value)) == value


class TestSpectrumDocuments:
    def test_harmonic_document(self):
        spec = serialize.spectrum_from_dict(
            {"kind": "harmonic", "omega": 1.0, "n": 16, "hbar": 1.0}
        )
        assert spec.size == 16
        assert spec.levels[0] == pytest.approx(0.5)

    def test_box_document(self):
        spec = serialize.spectrum_from_dict({"kind": "box", "scale": 2.0, "n": 3})
        np.testing.assert_allclose(spec.levels, [2.0, 8.0, 18.0])

    def test_round_trip_preserves_levels_exactly(self):
        spec = build_spectrum("box", 7, scale=math.pi, hbar=0.7)
        back = serialize.spectrum_from_dict(serialize.spectrum_to_dict(spec))
        np.testing.assert_array_equal(back.levels, spec.levels)
        assert back.hbar == spec.hbar
        assert back.label == spec.label

    def test_missing_keys_rejected(self):
        with pytest.raises(SchemaError):
            serialize.spectrum_from_dict({"kind": "harmonic"})
        with pytest.raises(SchemaError):
            serialize.spectrum_from_dict({"kind": "custom"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            serialize.spectrum_from_dict({"kind": "hydrogen", "n": 3})

    def test_wrong_types_rejected(self):
        with pytest.raises(SchemaError):
            serialize.spectrum_from_dict({"kind": "harmonic", "n": "16"})
        with pytest.raises(SchemaError):
            serialize.spectrum_from_dict({"kind": "custom", "levels": "nope"})


class TestStateDocuments:
    def test_round_trip_exact(self):
        psi = random_state(5, 3)
        back = serialize.state_from_dict(serialize.state_to_dict(psi))
        np.testing.assert_array_equal(back.coeffs, psi.coeffs)

    def test_round_trip_keeps_bit_patterns(self):
        psi = QuantumState(
            np.array([complex(-0.0, 0.6), complex(0.8, -0.0), complex(-0.0, 0.0)])
        )
        text = json.dumps(serialize.state_to_dict(psi))
        back = serialize.state_from_dict(json.loads(text))
        np.testing.assert_array_equal(back.coeffs.view(np.int64), psi.coeffs.view(np.int64))

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            serialize.state_from_dict({"re": [1.0, 0.0], "im": [0.0]})

    def test_missing_component_rejected(self):
        with pytest.raises(SchemaError):
            serialize.state_from_dict({"re": [1.0, 0.0]})


class TestProblemDocuments:
    def test_round_trip(self, tmp_path):
        spec = build_spectrum("harmonic", 4, omega=1.3)
        psi = random_state(4, 9)
        path = tmp_path / "problem.json"
        serialize.dump_problem(path, spec, psi)
        spec2, psi2 = serialize.load_problem(path)
        np.testing.assert_array_equal(spec2.levels, spec.levels)
        np.testing.assert_array_equal(psi2.coeffs, psi.coeffs)

    def test_state_optional(self, tmp_path):
        path = tmp_path / "problem.json"
        serialize.dump_problem(path, build_spectrum("box", 3))
        _, state = serialize.load_problem(path)
        assert state is None

    def test_state_spectrum_length_mismatch(self, tmp_path):
        path = tmp_path / "problem.json"
        doc = {
            "spectrum": {"kind": "box", "n": 3},
            "state": {"re": [1.0, 0.0], "im": [0.0, 0.0]},
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            serialize.load_problem(path)

    def test_top_level_must_hold_spectrum(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"state": {"re": [1.0], "im": [0.0]}}))
        with pytest.raises(SchemaError):
            serialize.load_problem(path)


class TestWriteJsonByteIdentity:
    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            {"a": [1, 2, (3, 4.5)], "b": {"c": None, "d": True, "e": False}, "f": [[]], "g": {}},
            ("x", -7, 0, [None, [True, [False]]]),
            {"quote\"d": "back\\slash \"q\"", "non-ascii é ☃": "Ω\u2028\ttab"},
            [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 0.1, 1e300, -2.5e-10],
            {"1": "s", "b": 2, "a": 1},
            {2: "int", 1.5: "float", True: "bool"},
            {None: "null"},
            3.25,
            None,
        ],
    )
    def test_matches_json_dump(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        serialize.write_json(path, doc)
        assert path.read_text(encoding="utf-8") == _reference_json(doc)

    def test_claims_document(self, tmp_path):
        out = tmp_path / "out"
        assert main(["claims", "-o", str(out), "--seed", "7"]) == EXIT_OK
        written = (out / "claims.json").read_text(encoding="utf-8")
        doc = json.loads(written)
        path = tmp_path / "again.json"
        serialize.write_json(path, doc)
        assert path.read_text(encoding="utf-8") == _reference_json(doc) == written

    @pytest.mark.parametrize("block", [1, 3, 4, 8, 64])
    @pytest.mark.parametrize(
        "name",
        [
            "rows span blocks",
            "run crosses block edge",
            "run and non-run blocks",
            "one column",
            "all equal",
            "signed zeros and NaN payloads",
        ],
    )
    def test_blocks_match_tolist(self, tmp_path, monkeypatch, block, name):
        # Small blocks put every kind of block edge inside a few rows.
        monkeypatch.setattr(serialize, "_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(17)
        if name == "rows span blocks":
            values = rng.standard_normal((21, 21))
        elif name == "run crosses block edge":
            values = rng.standard_normal((20, 20))
            values[1, 2:19] = 0.25
            values[2:4, :] = -0.0
            values[12:, :] = -0.0
        elif name == "run and non-run blocks":
            values = rng.standard_normal((12, 12))
            values[::3] = 1.5
            values[4:6, :4] = math.inf
        elif name == "one column":
            values = np.repeat([[0.5], [-0.0], [0.0]], 7, axis=0).repeat(21, axis=1)
            values[10:13, 0] = rng.standard_normal(3)
        elif name == "all equal":
            values = np.full((9, 9), -2.5e-10)
        else:
            nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000])
            nans = nans.astype(np.uint64).view(np.float64)
            values = np.zeros((10, 10))
            values[::2, 3:] = -0.0
            values[1] = nans[np.arange(10) % 3]
            values[3, :5] = nans[1]
            values[5, 4:] = nans[2]
        # Rotated, the imaginary part has its runs down the columns.
        for re in (values, values.T):
            entries = serialize._complex_array(re, np.rot90(re))
            self._assert_dump_matches_tolist(tmp_path, entries)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # one file, rewritten
    )
    @given(
        pool=st.lists(
            st.one_of(st.floats(), st.sampled_from(_SPECIAL_DOUBLES)), min_size=1, max_size=6
        ),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float_array_views_match_tolist(self, tmp_path, pool, n, seed):
        # A small pool of doubles gives heavy repeats; both parts are strided
        # views of the complex entries.
        rng = np.random.default_rng(seed)
        re, im = np.array(pool)[rng.integers(0, len(pool), (2, n, n))]
        self._assert_dump_matches_tolist(tmp_path, serialize._complex_array(re, im))

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # one file, rewritten
    )
    @given(
        pool=st.lists(st.sampled_from(_SPECIAL_DOUBLES + (0.5, -3.0)), min_size=1, max_size=4),
        n=st.integers(1, 12),
        run=st.integers(1, 12),
        block=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_runs_at_any_block_size_match_tolist(
        self, tmp_path, monkeypatch, pool, n, run, block, seed
    ):
        # Entries repeat in runs of up to `run`, so blocks take either emitter.
        monkeypatch.setattr(serialize, "_BLOCK_ENTRIES", block)
        rng = np.random.default_rng(seed)
        picks = np.repeat(rng.integers(0, len(pool), (2, n * n)), run, axis=1)[:, : n * n]
        re, im = np.array(pool)[picks.reshape(2, n, n)]
        self._assert_dump_matches_tolist(tmp_path, serialize._complex_array(re, im))

    @staticmethod
    def _assert_dump_matches_tolist(tmp_path, entries):
        path = tmp_path / "matrix.json"
        serialize.dump_matrix(path, OperatorMatrix(entries))
        doc = {"n": entries.shape[0], "re": entries.real.tolist(), "im": entries.imag.tolist()}
        assert path.read_text(encoding="utf-8") == _reference_json(doc)

    @pytest.mark.parametrize(
        "bad",
        [
            np.arange(3),
            {(1, 2): 0.5},
            {"x": object()},
            {"x": np.array(0.5)},
            {"x": [np.zeros(3)]},
            {"x": np.zeros((2, 2))},
        ],
    )
    def test_unserializable_raises_type_error(self, tmp_path, bad):
        # The document is encoded before the file is opened, so an earlier
        # artifact at the path is kept.
        path = tmp_path / "bad.json"
        path.write_text("{}\n")
        with pytest.raises(TypeError):
            serialize.write_json(path, bad)
        assert path.read_text() == "{}\n"


class TestMatrixDocuments:
    def test_round_trip_exact(self, tmp_path):
        top = build_time_operator(build_spectrum("box", 6, scale=0.9))
        path = tmp_path / "matrix.json"
        serialize.dump_matrix(path, top)
        back = serialize.load_matrix(path)
        np.testing.assert_array_equal(back.entries, top.entries)

    def test_round_trip_keeps_bit_patterns(self, tmp_path):
        # Signed zeros beside either sign of the other part, infinities and
        # json's one NaN reload bit for bit.
        entries = build_time_operator(build_spectrum("box", 4)).entries.copy()
        entries[0, 1] = complex(-0.0, 2.0)
        entries[1, 0] = complex(1.0, -0.0)
        entries[2, 2] = complex(-0.0, -0.0)
        entries[3, 1] = complex(0.5, math.inf)
        entries[1, 3] = complex(-math.inf, math.nan)
        path = tmp_path / "matrix.json"
        serialize.dump_matrix(path, OperatorMatrix(entries))
        back = serialize.load_matrix(path)
        np.testing.assert_array_equal(back.entries.view(np.int64), entries.view(np.int64))

    @pytest.mark.parametrize(
        "entries",
        [
            np.zeros((1, 1), dtype=complex),
            build_time_operator(build_spectrum("box", 2)).entries,
            build_time_operator(build_spectrum("box", 9, scale=0.3)).entries,
            _salted_matrix(64, 5),
        ],
        ids=["n1", "box2", "box9", "salted64"],
    )
    def test_dump_matches_json_dump(self, tmp_path, entries):
        path = tmp_path / "matrix.json"
        serialize.dump_matrix(path, OperatorMatrix(entries))
        doc = {"n": entries.shape[0], "re": entries.real.tolist(), "im": entries.imag.tolist()}
        assert path.read_text(encoding="utf-8") == _reference_json(doc)

    def test_dump_memory_stays_near_matrix_size(self, tmp_path):
        # Whole-matrix Python lists would take about 4x the entries' bytes.
        top = build_time_operator(build_spectrum("harmonic", 512))
        tracemalloc.start()
        try:
            serialize.dump_matrix(tmp_path / "matrix.json", top)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * top.entries.nbytes

    def test_dump_builds_no_whole_matrix_index(self, tmp_path):
        # Beside T only the sorted bit patterns (half of T's bytes) and a
        # mask are held; an N^2 index and a contiguous copy of the bits
        # would take the peak to 1.56 times T.
        top = build_time_operator(build_spectrum("harmonic", 512))
        tracemalloc.start()
        try:
            serialize.dump_matrix(tmp_path / "matrix.json", top)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * top.entries.nbytes

    def test_dump_of_run_rows_builds_no_whole_matrix_text(self, tmp_path):
        # Every row is one run, so every block takes the run emitter; its
        # text is one block's, not the whole matrix's (about 4x T).
        n = 512
        row = np.arange(n) - 255.5
        entries = np.empty((n, n), dtype=complex)
        entries.real = row[:, np.newaxis]
        entries.imag = -1.0 / row[:, np.newaxis]
        top = OperatorMatrix(entries)
        tracemalloc.start()
        try:
            serialize.dump_matrix(tmp_path / "matrix.json", top)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * top.entries.nbytes
        doc = {"n": n, "re": entries.real.tolist(), "im": entries.imag.tolist()}
        same = (tmp_path / "matrix.json").read_text(encoding="utf-8") == _reference_json(doc)
        assert same, "dump differs from json.dump"  # a bool: pytest would diff 10 MB texts

    @pytest.mark.parametrize("bad", [True, False, "1", None, [1.0], {"x": 1.0}])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_entries_must_be_numbers(self, part, bad):
        # A bool among floats still makes a float64 array, so each entry is checked.
        doc = {"n": 2, "re": [[0.0, 1.0], [2.0, 3.0]], "im": [[0.0, -1.0], [0.5, 0.0]]}
        doc[part][1][0] = bad
        with pytest.raises(SchemaError, match=f"matrix.{part}"):
            serialize.matrix_from_dict(doc)

    def test_integer_entries_load_as_floats(self):
        doc = {"n": 2, "re": [[0, 1], [2, 3.5]], "im": [[0, -1], [1, 0]]}
        op = serialize.matrix_from_dict(doc)
        np.testing.assert_array_equal(op.entries, [[0, 1 - 1j], [2 + 1j, 3.5]])

    def test_load_hands_its_buffer_to_the_operator(self, monkeypatch):
        made = []

        def spy(re, im):
            made.append(complex_array(re, im))
            return made[-1]

        complex_array = serialize._complex_array
        monkeypatch.setattr(serialize, "_complex_array", spy)
        op = serialize.matrix_from_dict(
            {"n": 2, "re": [[0.0, -0.0], [1.0, 2.0]], "im": [[0.0, 1.0], [math.inf, 0.5]]}
        )
        assert op.entries is made[0]
        assert not op.entries.flags.writeable

    def test_shape_validation(self):
        with pytest.raises(SchemaError):
            serialize.matrix_from_dict({"n": 2, "re": [[0.0, 1.0]], "im": [[0.0, 0.0]]})


class TestCsv:
    def test_series_csv_header_and_values(self, tmp_path):
        spec = build_spectrum("harmonic", 2)
        psi = QuantumState(np.array([1.0, 1.0]) / math.sqrt(2.0))
        series = covariance_deviation(spec, psi, np.linspace(0.0, 2.0, 5))
        rows = list(zip(series.taus, series.values))
        path = tmp_path / "series.csv"
        serialize.write_csv(path, ("tau", "value"), rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,value"
        assert lines[1:] == [f"{tau:.17g},{value:.17g}" for tau, value in rows]
        taus = [float(line.split(",")[0]) for line in lines[1:]]
        np.testing.assert_array_equal(taus, series.taus)

    def test_integers_stay_integers(self, tmp_path):
        path = tmp_path / "table.csv"
        serialize.write_csv(path, ("N", "x"), [(4, 0.25)])
        assert path.read_text().splitlines()[1] == "4,0.25"

    def test_booleans_are_lowercase_words(self, tmp_path):
        path = tmp_path / "table.csv"
        serialize.write_csv(path, ("x", "ok"), [(0.5, True), (1.0, False)])
        assert path.read_text().splitlines()[1:] == ["0.5,true", "1,false"]
