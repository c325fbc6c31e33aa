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
curvature file is about 1.57 MB.  `save` writes version 3 only and builds
the header and the payload before it opens the file.  Data must be
finite, so `save` refuses NaN or Infinity.

`load` also reads the earlier single-JSON-document formats, with the same
metadata keys and a `data` key: version 2, whose `data` is one base64
string of the `<c16` bytes, and version 1, whose `data` is a list of
[re, im] number pairs.

`load` refuses a file whose header or document is not UTF-8 JSON, a
format_version or rank that is not exactly an int, checks dims and
boundary by building the `Window`, and refuses the labels `save` does.  A
version-3 header must not carry `data`, and its payload must be exactly
16 bytes an entry; a version-2 payload must be strict base64 (no
whitespace) of exactly 16 bytes an entry; a version-1 entry must decode to
exactly int or float (numpy would convert "1.5", true and null).  Either
way every value must be finite.
"""
from __future__ import annotations

import base64
import itertools
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
    payload = memoryview(raw)[end + 1:] if end >= 0 else b""  # a view, not a copy
    doc = None
    if payload:  # a header line, or the first line of a longer document
        try:
            doc = _parse(raw[:end], path)
        except FieldFormatError:
            pass
    version = None if doc is None else doc.get("format_version")
    if doc is None or type(version) is int and version in (1, 2):
        # no header line: the file is one JSON document, versions 1 and 2
        # over one line or several
        doc, payload = _parse(raw, path), b""

    version = _require(doc, "format_version")
    if type(version) is not int:  # true decodes to a bool, 3.0 to a float
        raise FieldFormatError(f"format_version must be an integer, got {version!r}")
    if version not in (1, 2, 3):
        raise FieldVersionError(
            f"format_version {version!r} unsupported (expected 1, 2 or {FORMAT_VERSION})"
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

    cls = _RANK_TO_CLASS[rank]
    n_expected = window.n_sites * (cls.slots or 1) * 4
    if version == 3:
        if "data" in doc:
            raise FieldFormatError("a version-3 header carries no 'data' key: "
                                   "the payload follows the header line")
        values = _decode_v3(payload, n_expected, dims, rank)
    else:
        data = _require(doc, "data")
        values = (_decode_v2 if version == 2 else _decode_v1)(data, n_expected, dims, rank)
    if not np.all(np.isfinite(values)):
        raise FieldFormatError("data entries must be finite (no NaN or Infinity)")
    shape = window.dims + ((cls.slots, 2, 2) if cls.slots else (2, 2))
    field = cls(window, values.reshape(shape), algebra=algebra, metric=metric)
    if not field.buf.flags.writeable:  # one site: the buffer is still a view of the file bytes
        field.buf = field.buf.copy()
    return field


def _parse(text: bytes, path) -> dict:
    # decoded explicitly: json.loads(bytes) would also take UTF-16 and UTF-32
    try:
        doc = json.loads(text.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FieldFormatError(f"not UTF-8 text: {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise FieldFormatError(f"not valid JSON: {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FieldFormatError("document root must be a JSON object")
    return doc


def _decode_v3(payload, n_expected: int, dims, rank: int) -> np.ndarray:
    if len(payload) != _ENTRY.itemsize * n_expected:
        raise FieldShapeError(
            f"data holds {len(payload)} bytes, which does not match dims {dims} for "
            f"rank {rank} (expected {_ENTRY.itemsize * n_expected} bytes)"
        )
    return np.frombuffer(payload, dtype=_ENTRY)


def _decode_v2(raw, n_expected: int, dims, rank: int) -> np.ndarray:
    if not isinstance(raw, str):
        raise FieldFormatError("data must be a base64 string")
    try:
        payload = base64.b64decode(raw, validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise FieldFormatError(f"data is not valid base64: {exc}") from exc
    return _decode_v3(payload, n_expected, dims, rank)


def _decode_v1(raw, n_expected: int, dims, rank: int) -> np.ndarray:
    if not isinstance(raw, list):
        raise FieldFormatError("data must be a list of [re, im] pairs")
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
    # A view keeps every bit; re + 1j*im can drop the sign of a zero part.
    return pairs.view(complex)


def _check_labels(metric, algebra) -> None:
    if metric is not None and metric not in METRICS:
        raise FieldFormatError(f"metric must be one of {METRICS} or null, got {metric!r}")
    if algebra not in ALGEBRA_KINDS:
        raise FieldFormatError(f"algebra must be one of {ALGEBRA_KINDS}, got {algebra!r}")


def _require(doc: dict, key: str):
    if key not in doc:
        raise FieldFormatError(f"missing metadata key {key!r}")
    return doc[key]
