"""Field files: a JSON header line and a raw binary payload.

A version-3 field file is one line of ASCII JSON metadata, a newline, and
then the data as raw bytes:

    {"format_version": 3, "rank": 0 | 1 | 2, "dims": [N1, N2, N3, N4],
     "boundary": "periodic" | "zero", "metric": "euclid" | "mink" | null,
     "algebra": "su2" | "sl2c" | "general"}   (on one line)
    <16 bytes of little-endian complex128 (`<c16`) per entry>

Data entries are complex numbers in canonical order: sites row-major over
(k1, k2, k3, k4), then the component axis (rank 1) or the canonical plane
order 12, 13, 14, 23, 24, 34 (rank 2), then row-major 2x2 matrix entries.
`json.dumps` escapes newlines, so the first newline ends the header even
when the payload holds 0x0A bytes; nothing follows the payload.
Round-trips are bitwise exact, signed zeros included, and an 8^4
curvature file is about 1.57 MB.  `save` builds the header and the
payload before it opens the file.  Data must be finite, so `save` refuses
NaN or Infinity.

`load` reads version 3 only.  It refuses a header that is not UTF-8 JSON,
a format_version or rank that is not exactly an int, and versions 1 and 2,
the single-JSON-document formats that `save` wrote before version 3, with
a `FieldVersionError` (one spread over several lines is not valid JSON
on its first line).  It checks dims and boundary by building the
`Window`, refuses the labels `save` does and a header that carries `data`,
and needs a payload of exactly 16 bytes an entry, every value finite.
"""
from __future__ import annotations

import json

import numpy as np

from .cochain import ALGEBRA_KINDS, ConnectionField, CurvatureField, Field, GaugeField
from .lattice import METRICS, Window

FORMAT_VERSION = 3
_ENTRY = np.dtype("<c16")

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
    payload = field.data.astype(_ENTRY, copy=False).tobytes()  # C order
    head = json.dumps({
        "format_version": FORMAT_VERSION,
        "rank": field.rank,
        "dims": list(field.window.dims),
        "boundary": field.window.boundary,
        "metric": field.metric,
        "algebra": field.algebra,
    }).encode("ascii") + b"\n"
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(payload)


def load(path) -> Field:
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"\n")
    if end < 0:  # no newline: the whole file is the header
        end = len(raw)
    try:  # decoded explicitly: json.loads(bytes) would also take UTF-16 and UTF-32
        doc = json.loads(raw[:end].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FieldFormatError(f"not UTF-8 text: {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # an int over 4 300 digits, or nested too deep
        raise FieldFormatError(f"not valid JSON: {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FieldFormatError("document root must be a JSON object")

    version = _require(doc, "format_version")
    if type(version) is not int:  # true decodes to a bool, 3.0 to a float
        raise FieldFormatError(f"format_version must be an integer, got {version!r}")
    if version in (1, 2):
        raise FieldVersionError(
            f"format_version {version} is no longer read: re-save the file with a "
            f"checkout that still reads it (f405433 or earlier)"
        )
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
    if "data" in doc:
        raise FieldFormatError("a version-3 header carries no 'data' key: "
                               "the payload follows the header line")

    cls = _RANK_TO_CLASS[rank]
    n_bytes = _ENTRY.itemsize * window.n_sites * (cls.slots or 1) * 4
    payload = memoryview(raw)[end + 1:]  # a view, not a copy
    if len(payload) != n_bytes:
        raise FieldShapeError(
            f"data holds {len(payload)} bytes, which does not match dims {dims} for "
            f"rank {rank} (expected {n_bytes} bytes)"
        )
    values = np.frombuffer(payload, dtype=_ENTRY)
    if not np.all(np.isfinite(values)):
        raise FieldFormatError("data entries must be finite (no NaN or Infinity)")
    shape = window.dims + ((cls.slots, 2, 2) if cls.slots else (2, 2))
    field = cls(window, values.reshape(shape), algebra=algebra, metric=metric)
    if not field.buf.flags.writeable:  # one site: the buffer is still a view of the file bytes
        field.buf = field.buf.copy()
    return field


def _check_labels(metric, algebra) -> None:
    if metric is not None and metric not in METRICS:
        raise FieldFormatError(f"metric must be one of {METRICS} or null, got {metric!r}")
    if algebra not in ALGEBRA_KINDS:
        raise FieldFormatError(f"algebra must be one of {ALGEBRA_KINDS}, got {algebra!r}")


def _require(doc: dict, key: str):
    if key not in doc:
        raise FieldFormatError(f"missing metadata key {key!r}")
    return doc[key]
