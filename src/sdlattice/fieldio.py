"""JSON field files.

A field file is a single JSON document:

    {
      "format_version": 1,
      "rank": 0 | 1 | 2,
      "dims": [N1, N2, N3, N4],
      "boundary": "periodic" | "zero",
      "metric": "euclid" | "mink" | null,
      "algebra": "su2" | "sl2c" | "general",
      "data": [[re, im], [re, im], ...]
    }

Data entries are float-64 pairs in canonical order: sites row-major over
(k1, k2, k3, k4), then the component axis (rank 1) or the canonical plane
order 12, 13, 14, 23, 24, 34 (rank 2), then row-major 2x2 matrix entries.
Round-trips are bitwise exact, signed zeros included (Python's JSON float
text is shortest round-trip decimal and writes -0.0 as `-0.0`).  `save`
builds the whole JSON text in memory before it opens the file, about 4 MB
for an 8^4 curvature.  Data must be finite numbers: JSON has no NaN or
Infinity, so `save` refuses such fields.  `load` refuses a format_version
or rank that is not exactly an int, checks dims and boundary by building
the `Window`, refuses the labels `save` does, and refuses data unless
every entry decodes to exactly int or float (numpy would convert "1.5",
true and null) and is finite.
"""
from __future__ import annotations

import itertools
import json

import numpy as np

from .cochain import ALGEBRA_KINDS, ConnectionField, CurvatureField, Field, GaugeField
from .lattice import METRICS, Window

FORMAT_VERSION = 1

_RANK_TO_CLASS = {0: GaugeField, 1: ConnectionField, 2: CurvatureField}


class FieldIOError(Exception):
    """Base class for field file errors."""


class FieldFormatError(FieldIOError):
    """Malformed document: missing or ill-typed metadata."""


class FieldVersionError(FieldIOError):
    """Unsupported format_version."""


class FieldShapeError(FieldIOError):
    """Metadata and data length disagree."""


def save(field: Field, path) -> None:
    # Checked before the file is opened, so a refused save leaves no file.
    _check_labels(field.metric, field.algebra)
    if not np.all(np.isfinite(field.data)):
        raise FieldFormatError("cannot save non-finite data (NaN or Infinity)")
    flat = np.ascontiguousarray(field.data).reshape(-1)
    doc = {
        "format_version": FORMAT_VERSION,
        "rank": field.rank,
        "dims": list(field.window.dims),
        "boundary": field.window.boundary,
        "metric": field.metric,
        "algebra": field.algebra,
        "data": flat.view(np.float64).reshape(-1, 2).tolist(),
    }
    # json.dumps runs the C encoder (json.dump streams through the Python
    # one); encoding before the open leaves no partial file on a failure.
    # The document holds only fresh lists, so no cycle check is needed.
    text = json.dumps(doc, check_circular=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load(path) -> Field:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise FieldFormatError(f"not valid JSON: {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FieldFormatError("document root must be a JSON object")

    version = _require(doc, "format_version")
    if type(version) is not int:  # true decodes to a bool, 1.0 to a float
        raise FieldFormatError(f"format_version must be an integer, got {version!r}")
    if version != FORMAT_VERSION:
        raise FieldVersionError(
            f"format_version {version!r} unsupported (expected {FORMAT_VERSION})"
        )
    rank = _require(doc, "rank")
    if type(rank) is not int or rank not in _RANK_TO_CLASS:  # true decodes to a bool
        raise FieldFormatError(f"rank must be 0, 1 or 2, got {rank!r}")
    dims, boundary = _require(doc, "dims"), _require(doc, "boundary")
    try:
        window = Window(dims, boundary)
    except ValueError as exc:
        raise FieldFormatError(str(exc)) from exc
    metric = doc.get("metric")
    algebra = _require(doc, "algebra")
    _check_labels(metric, algebra)
    raw = _require(doc, "data")
    if not isinstance(raw, list):
        raise FieldFormatError("data must be a list of [re, im] pairs")

    cls = _RANK_TO_CLASS[rank]
    n_expected = window.n_sites * (cls.slots or 1) * 4
    if len(raw) != n_expected:
        raise FieldShapeError(
            f"data length {len(raw)} does not match dims {dims} for rank {rank} "
            f"(expected {n_expected} entries)"
        )
    try:
        pairs = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FieldFormatError(f"data entries must be numbers: {exc}") from exc
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise FieldFormatError("data entries must be [re, im] pairs")
    # float() takes "1.5", true and false, and null becomes NaN: only the
    # exact types int and float are numbers (bool subclasses int)
    kinds = set(map(type, itertools.chain.from_iterable(raw)))
    if bool in kinds:
        raise FieldFormatError("data entries must be numbers, not booleans")
    if not kinds <= {int, float}:
        raise FieldFormatError("data entries must be numbers, not strings or null")
    if not np.all(np.isfinite(pairs)):
        raise FieldFormatError("data entries must be finite (no NaN or Infinity)")
    # A view keeps every bit; re + 1j*im can drop the sign of a zero part.
    values = pairs.view(complex)
    shape = window.dims + ((cls.slots, 2, 2) if cls.slots else (2, 2))
    return cls(window, values.reshape(shape), algebra=algebra, metric=metric)


def _check_labels(metric, algebra) -> None:
    if metric is not None and metric not in METRICS:
        raise FieldFormatError(f"metric must be one of {METRICS} or null, got {metric!r}")
    if algebra not in ALGEBRA_KINDS:
        raise FieldFormatError(f"algebra must be one of {ALGEBRA_KINDS}, got {algebra!r}")


def _require(doc: dict, key: str):
    if key not in doc:
        raise FieldFormatError(f"missing metadata key {key!r}")
    return doc[key]

