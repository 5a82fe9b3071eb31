"""JSON and CSV readers/writers.

JSON floats go through Python repr (shortest exact round-trip form); CSV cells
use 17 significant digits.  Both reparse to the identical double, so emitted
artifacts re-read into equal in-memory values.

`write_json` is the one JSON writer.  Its output is byte-identical to
`json.dump(obj, fh, indent=2, sort_keys=True)` plus a newline, and it also
takes float64 arrays, which it streams row by row.  One sort of an array's
bit patterns gives its distinct doubles, each formatted once, and a binary
search maps every entry to its text.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError
from .operators import OperatorMatrix
from .spectral import EnergySpectrum, QuantumState, build_spectrum

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
    if kind == "harmonic":
        n = _as_int(_require(doc, "n", "spectrum"), "spectrum.n")
        omega = _as_number(doc.get("omega", 1.0), "spectrum.omega")
        hbar = _as_number(doc.get("hbar", 1.0), "spectrum.hbar")
        return build_spectrum("harmonic", n, omega=omega, hbar=hbar)
    if kind == "box":
        n = _as_int(_require(doc, "n", "spectrum"), "spectrum.n")
        scale = _as_number(doc.get("scale", 1.0), "spectrum.scale")
        hbar = _as_number(doc.get("hbar", 1.0), "spectrum.hbar")
        return build_spectrum("box", n, scale=scale, hbar=hbar)
    if kind == "custom":
        levels = _as_number_list(_require(doc, "levels", "spectrum"), "spectrum.levels")
        hbar = _as_number(doc.get("hbar", 1.0), "spectrum.hbar")
        label = doc.get("label", "custom")
        if not isinstance(label, str):
            raise SchemaError("spectrum.label: expected a string")
        spec = build_spectrum("custom", len(levels), levels=levels, hbar=hbar)
        return EnergySpectrum(spec.levels, hbar=spec.hbar, label=label)
    raise SchemaError(f"spectrum.kind: unknown kind {kind!r}")


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
    return OperatorMatrix(_complex_array(re, im))


def _complex_array(re, im) -> np.ndarray:
    """Complex array with exactly the given parts.

    `re + 1j*im` is not exact: the product 1j*im gets a real part 0*im, NaN
    for an infinite im, and the sum turns a -0.0 part into 0.0.
    """
    re = np.array(re, dtype=float)
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = np.array(im, dtype=float)
    return out


def load_matrix(path) -> OperatorMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_dict(json.load(fh))


def dump_matrix(path, op: OperatorMatrix) -> None:
    """{"n", "re", "im"} document; reloads through `load_matrix` exactly."""
    entries = op.entries
    write_json(path, {"n": op.basis_size, "re": entries.real, "im": entries.imag})


def write_json(path, obj) -> None:
    """Write `obj` as indented JSON with sorted keys and a final newline.

    The bytes equal `json.dump(obj, fh, indent=2, sort_keys=True)` followed by
    a newline, where a float64 array is written as its `tolist()`.  Such
    arrays are streamed one row at a time.  Their bit patterns are sorted
    once; the patterns that differ from their sorted neighbour are the
    distinct doubles, each formatted once, and `np.searchsorted` finds every
    entry's text.  Other arrays raise `TypeError`, as json does.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(obj, ""))
        fh.write("\n")


def _json_chunks(obj, indent: str):
    """Yield the text of `obj` at nesting `indent`, as json's indent=2 encoder."""
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64:
        # Bit patterns keep -0.0 apart from 0.0 and make NaN comparable.
        bits = obj.view(np.int64)
        ordered = np.sort(bits, axis=None)
        first = np.ones(ordered.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        distinct = ordered[first]
        index = np.searchsorted(distinct, bits)
        texts = np.array(
            [_float_text(v) for v in distinct.view(np.float64).tolist()], dtype=object
        )
        yield from _array_chunks(texts, index, indent)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for value in obj:
            yield sep
            yield from _json_chunks(value, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in sorted(obj.items()):
            yield sep + _key_text(key) + ": "
            yield from _json_chunks(value, inner)
            sep = ",\n" + inner
        yield "\n" + indent + "}"
    else:
        yield json.dumps(obj)


def _array_chunks(texts: np.ndarray, index: np.ndarray, indent: str):
    """Nested lists of `texts[index]`, one chunk per innermost row."""
    if index.ndim == 0:
        yield texts[index]
        return
    if index.shape[0] == 0:
        yield "[]"
        return
    inner = indent + "  "
    if index.ndim == 1:
        yield "[\n" + inner + (",\n" + inner).join(texts[index].tolist())
    else:
        sep = "[\n" + inner
        for sub in index:
            yield sep
            yield from _array_chunks(texts, sub, inner)
            sep = ",\n" + inner
    yield "\n" + indent + "]"


_JSON_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_SPECIAL_FLOATS.get(text, text)


def _key_text(key) -> str:
    """json's object-key text: str keys quoted, int/float/bool/None coerced."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = json.dumps(key)
    return json.dumps(key)


def dump_series(path, series) -> None:
    """DeviationSeries (or any taus/values pair) as CSV with columns tau, value."""
    write_csv(path, ("tau", "value"), zip(series.taus, series.values))


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
