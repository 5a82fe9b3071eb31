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

_VIEWS = {
    "real": lambda z: z.real,
    "imag": lambda z: z.imag,
    "real.T": lambda z: z.real.T,
    "imag strided": lambda z: z.imag[::2, ::-1],
    "real row slice": lambda z: z.real[1::3],
    "imag column": lambda z: z.imag[:, 0] if z.shape[1] else z.imag.ravel(),
}


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

    @pytest.mark.parametrize(
        "shape",
        [(), (0,), (4,), (3, 0), (0, 3), (2, 3, 2)],
        ids=["0d", "empty", "4", "3x0", "0x3", "2x3x2"],
    )
    def test_float_arrays_match_tolist(self, tmp_path, shape):
        values = np.random.default_rng(3).standard_normal(shape)
        if values.size:
            values.flat[0] = -0.0
        path = tmp_path / "array.json"
        serialize.write_json(path, {"a": values})
        assert path.read_text(encoding="utf-8") == _reference_json({"a": values.tolist()})

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # one file, rewritten
    )
    @given(
        pool=st.lists(
            st.one_of(st.floats(), st.sampled_from(_SPECIAL_DOUBLES)), min_size=1, max_size=6
        ),
        shape=st.tuples(st.integers(0, 9), st.integers(0, 9)),
        seed=st.integers(0, 2**32 - 1),
        view=st.sampled_from(sorted(_VIEWS)),
    )
    def test_float_array_views_match_tolist(self, tmp_path, pool, shape, seed, view):
        # A small pool of doubles gives heavy repeats; the views are non-contiguous.
        rng = np.random.default_rng(seed)
        pool = np.array(pool)
        z = np.empty(shape, dtype=complex)
        z.real = pool[rng.integers(0, pool.size, shape)]
        z.imag = pool[rng.integers(0, pool.size, shape)]
        values = _VIEWS[view](z)
        path = tmp_path / "array.json"
        serialize.write_json(path, {"a": values})
        assert path.read_text(encoding="utf-8") == _reference_json({"a": values.tolist()})

    @pytest.mark.parametrize("bad", [np.arange(3), {(1, 2): 0.5}, {"x": object()}])
    def test_unserializable_raises_type_error(self, tmp_path, bad):
        with pytest.raises(TypeError):
            serialize.write_json(tmp_path / "bad.json", bad)


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

    def test_shape_validation(self):
        with pytest.raises(SchemaError):
            serialize.matrix_from_dict({"n": 2, "re": [[0.0, 1.0]], "im": [[0.0, 0.0]]})


class TestCsv:
    def test_series_csv_header_and_values(self, tmp_path):
        spec = build_spectrum("harmonic", 2)
        psi = QuantumState(np.array([1.0, 1.0]) / math.sqrt(2.0))
        series = covariance_deviation(spec, psi, np.linspace(0.0, 2.0, 5))
        path = tmp_path / "series.csv"
        serialize.dump_series(path, series)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau,value"
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
