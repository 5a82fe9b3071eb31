"""JSON and CSV readers/writers.

JSON floats go through Python repr (shortest exact round-trip form); CSV cells
use 17 significant digits.  Both reparse to the identical double, so emitted
artifacts re-read into equal in-memory values.

`write_json` is the one JSON writer.  A document of plain Python values goes
through `json.dumps(obj, indent=2, sort_keys=True)` plus a newline.  An
`OperatorMatrix` gives the same bytes as json would for its {"im", "n",
"re"} document of nested lists, but its two parts are streamed a block of
about `_BLOCK_ENTRIES` entries at a time.  One sort of a part's bit patterns
gives its distinct doubles, each formatted once, and one binary search per
block maps that block's entries to their texts.  A block with few runs of
equal bit patterns writes each run as one repeated string.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError
from .operators import OperatorMatrix
from .spectral import SPECTRUM_KINDS, EnergySpectrum, QuantumState, build_spectrum

SPECTRUM_KEY = "spectrum"
STATE_KEY = "state"


def fmt17(x: float) -> str:
    """17-significant-digit decimal form; reparses to the same double."""
    return format(float(x), ".17g")


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise SchemaError(f"{context}: missing required key {key!r}")
    return doc[key]


def _as_number(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{context}: expected a number, got {type(value).__name__}")
    return float(value)


def _as_int(value, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{context}: expected an integer, got {type(value).__name__}")
    return value


def _as_number_list(value, context: str) -> list[float]:
    if not isinstance(value, list):
        raise SchemaError(f"{context}: expected a list of numbers")
    return [_as_number(v, context) for v in value]


def spectrum_to_dict(spectrum: EnergySpectrum) -> dict:
    """Explicit-levels form of the spectrum schema; loses no information."""
    return {
        "kind": "custom",
        "levels": [float(e) for e in spectrum.levels],
        "n": spectrum.size,
        "hbar": float(spectrum.hbar),
        "label": spectrum.label,
    }


def spectrum_from_dict(doc: dict) -> EnergySpectrum:
    if not isinstance(doc, dict):
        raise SchemaError("spectrum: expected an object")
    kind = _require(doc, "kind", "spectrum")
    if kind not in SPECTRUM_KINDS:
        raise SchemaError(f"spectrum.kind: unknown kind {kind!r}")
    hbar = _as_number(doc.get("hbar", 1.0), "spectrum.hbar")
    if kind == "custom":
        levels = _as_number_list(_require(doc, "levels", "spectrum"), "spectrum.levels")
        label = doc.get("label", "custom")
        if not isinstance(label, str):
            raise SchemaError("spectrum.label: expected a string")
        spec = build_spectrum("custom", len(levels), levels=levels, hbar=hbar)
        return EnergySpectrum(spec.levels, hbar=spec.hbar, label=label)
    n = _as_int(_require(doc, "n", "spectrum"), "spectrum.n")
    knob = "omega" if kind == "harmonic" else "scale"
    value = _as_number(doc.get(knob, 1.0), f"spectrum.{knob}")
    return build_spectrum(kind, n, hbar=hbar, **{knob: value})


def state_to_dict(state: QuantumState) -> dict:
    return {
        "re": [float(v) for v in state.coeffs.real],
        "im": [float(v) for v in state.coeffs.imag],
    }


def state_from_dict(doc: dict) -> QuantumState:
    if not isinstance(doc, dict):
        raise SchemaError("state: expected an object")
    re = _as_number_list(_require(doc, "re", "state"), "state.re")
    im = _as_number_list(_require(doc, "im", "state"), "state.im")
    if len(re) != len(im):
        raise SchemaError("state: re and im must have equal length")
    return QuantumState(_complex_array(re, im))


def load_problem(path) -> tuple[EnergySpectrum, QuantumState | None]:
    """Read a {"spectrum": ..., "state": ...} document; the state is optional."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaError("problem document: expected a top-level object")
    spectrum = spectrum_from_dict(_require(doc, SPECTRUM_KEY, "problem document"))
    state = None
    if STATE_KEY in doc and doc[STATE_KEY] is not None:
        state = state_from_dict(doc[STATE_KEY])
        if state.size != spectrum.size:
            raise SchemaError(
                f"problem document: state length {state.size} does not match "
                f"spectrum length {spectrum.size}"
            )
    return spectrum, state


def dump_problem(path, spectrum: EnergySpectrum, state: QuantumState | None = None) -> None:
    doc: dict = {SPECTRUM_KEY: spectrum_to_dict(spectrum)}
    if state is not None:
        doc[STATE_KEY] = state_to_dict(state)
    write_json(path, doc)


def matrix_from_dict(doc: dict) -> OperatorMatrix:
    if not isinstance(doc, dict):
        raise SchemaError("matrix: expected an object")
    n = _as_int(_require(doc, "n", "matrix"), "matrix.n")
    re = _require(doc, "re", "matrix")
    im = _require(doc, "im", "matrix")
    for name, rows in (("re", re), ("im", im)):
        if not isinstance(rows, list) or len(rows) != n:
            raise SchemaError(f"matrix.{name}: expected {n} rows")
        for row in rows:
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(f"matrix.{name}: expected square {n} x {n} data")
            # json gives float and int entries; anything else (a bool, a
            # string, null) is checked one by one, as `_as_number` does.
            if not {float, int}.issuperset(map(type, row)):
                _as_number_list(row, f"matrix.{name}")
    return OperatorMatrix(_complex_array(re, im))


def _complex_array(re, im) -> np.ndarray:
    """Fresh read-only complex array with exactly the given parts.

    `re + 1j*im` is not exact: the product 1j*im gets a real part 0*im, NaN
    for an infinite im, and the sum turns a -0.0 part into 0.0.  The array
    is frozen so that `OperatorMatrix` keeps it without a copy.
    """
    re = np.array(re, dtype=float)
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = np.array(im, dtype=float)
    out.setflags(write=False)
    return out


def load_matrix(path) -> OperatorMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_dict(json.load(fh))


def dump_matrix(path, op: OperatorMatrix) -> None:
    """{"n", "re", "im"} document; reloads through `load_matrix` exactly."""
    write_json(path, op)


def write_json(path, obj) -> None:
    """Write `obj` as indented JSON with sorted keys and a final newline.

    The bytes are `json.dumps(obj, indent=2, sort_keys=True)` followed by a
    newline, so what json cannot encode, such as a float64 array, raises
    `TypeError` before the file is opened.  An `OperatorMatrix` gives the
    bytes of its {"im", "n", "re"} document of nested lists, each part
    streamed by `_matrix_chunks`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not isinstance(obj, OperatorMatrix):
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "im": ')
        fh.writelines(_matrix_chunks(obj.entries.imag))
        fh.write(f',\n  "n": {obj.basis_size},\n  "re": ')
        fh.writelines(_matrix_chunks(obj.entries.real))
        fh.write("\n}\n")


_BLOCK_ENTRIES = 2**14


def _matrix_chunks(values: np.ndarray):
    """Text of square float64 matrix `values` as a value at depth 1, in blocks.

    The bit patterns keep -0.0 apart from 0.0 and make NaN comparable.  They
    are sorted once; the patterns that differ from their sorted neighbour are
    the distinct doubles, each formatted once, and the sorted copy is
    dropped.  The rows are then written in blocks of about `_BLOCK_ENTRIES`
    entries, one row at least: one `np.searchsorted` per block finds its
    texts, so beside the matrix at most the sorted copy and its mask are
    held, and then only the distinct patterns, their texts and one block's
    index and text.
    """
    bits = values.view(np.int64)
    ordered = np.sort(bits, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    del ordered, first
    texts = np.array([_float_text(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    n = bits.shape[0]
    sep, row_sep = ",\n      ", "\n    ],\n    [\n      "
    height = max(1, _BLOCK_ENTRIES // n)
    yield "[\n    [\n      "
    for r0 in range(0, n, height):
        last = row_sep if r0 + height < n else "\n    ]\n  ]"
        index = np.searchsorted(distinct, bits[r0 : r0 + height])
        yield _block_text(texts, index, sep, row_sep, last)


def _block_text(texts, index: np.ndarray, sep: str, row_sep: str, last: str) -> str:
    """Text of one block of rows of indices into `texts`, ending with `last`.

    A run is a stretch of equal indices inside one row.  When the block has
    at most a quarter as many runs as entries, each run is written as its
    text and separator repeated; otherwise each row is joined entry by entry.
    """
    flat = index.ravel()
    new_run = np.empty(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new_run[1:])
    new_run[:: index.shape[1]] = True
    if 4 * np.count_nonzero(new_run) > flat.size:
        return row_sep.join([sep.join(row) for row in texts[index].tolist()]) + last
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], flat.size)
    tails = np.where(ends % index.shape[1] == 0, row_sep, sep).tolist()
    tails[-1] = last
    return "".join(
        [
            (text + sep) * (count - 1) + text + tail
            for text, count, tail in zip(
                texts[flat[starts]].tolist(), (ends - starts).tolist(), tails
            )
        ]
    )


_JSON_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_SPECIAL_FLOATS.get(text, text)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Plain CSV: 17-significant-digit floats, integers as is, booleans true/false."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    return fmt17(value)
