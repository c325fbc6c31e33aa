"""Field files: a JSON header line and a raw binary payload.

A version-4 field file is one line of ASCII JSON metadata, a newline, and
then the bytes of the field's buffer `Field.buf`:

    {"format_version": 4, "rank": 0 | 1 | 2, "dims": [N1, N2, N3, N4],
     "boundary": "periodic" | "zero", "metric": "euclid" | "mink" | null,
     "algebra": "su2" | "sl2c" | "general"}   (on one line)
    <16 bytes of little-endian complex128 (`<c16`) per entry>

The entries are in the C order of `Field.buf`, shape (slots, 2, 2) + dims
(rank 0: (2, 2) + dims), so neither `save` nor `load` transposes them.
`json.dumps` escapes newlines, so the first newline ends the header even
when the payload holds 0x0A bytes; nothing follows the payload.
Round-trips are bitwise exact, signed zeros included.  `save` refuses
NaN, Infinity and labels that `load` refuses before it opens the file.

`load` reads version 4 only.  It refuses a header that is not UTF-8 JSON,
a format_version or rank that is not exactly an int, and versions 1 and 2
(one JSON document: spread over several lines, its first line is not
JSON) and 3 (the payload dims-first) with a `FieldVersionError` naming
the last commit that reads them.  It checks dims and boundary by building
the `Window`, refuses the labels `save` does and a header that carries
`data`, and needs a payload of exactly 16 bytes an entry, every value
finite.  A regular file's size is checked before the buffer is allocated.
"""
from __future__ import annotations

import json
import os
import stat

import numpy as np

from .cochain import ALGEBRA_KINDS, ConnectionField, CurvatureField, Field, GaugeField
from .lattice import METRICS, Window

FORMAT_VERSION = 4
_ENTRY = np.dtype("<c16")

_RANK_TO_CLASS = {0: GaugeField, 1: ConnectionField, 2: CurvatureField}

_LAST_READ_AT = {1: "f405433", 2: "f405433", 3: "93c4f3e"}  # the last commit reading each


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
    if not np.all(np.isfinite(field.buf)):
        raise FieldFormatError("cannot save non-finite data (NaN or Infinity)")
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
        fh.write(np.ascontiguousarray(field.buf, dtype=_ENTRY))  # buf itself on little-endian hosts


def load(path) -> Field:
    with open(path, "rb") as fh:
        head = fh.readline()  # with no newline, the whole file is the header
        try:  # decoded explicitly: json.loads(bytes) would also take UTF-16 and UTF-32
            doc = json.loads(head.removesuffix(b"\n").decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FieldFormatError(f"not UTF-8 text: {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # an int over 4 300 digits, or nested too deep
            raise FieldFormatError(f"not valid JSON: {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise FieldFormatError("document root must be a JSON object")

        version = _require(doc, "format_version")
        if type(version) is not int:  # true decodes to a bool, 4.0 to a float
            raise FieldFormatError(f"format_version must be an integer, got {version!r}")
        if version in _LAST_READ_AT:
            raise FieldVersionError(
                f"format_version {version} is no longer read: re-save the file with a "
                f"checkout that still reads it ({_LAST_READ_AT[version]} or earlier)"
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
            raise FieldFormatError("a version-4 header carries no 'data' key: "
                                   "the payload follows the header line")

        cls = _RANK_TO_CLASS[rank]
        shape = ((cls.slots, 2, 2) if cls.slots else (2, 2)) + window.dims
        n_bytes = _ENTRY.itemsize * window.n_sites * (cls.slots or 1) * 4
        info = os.fstat(fh.fileno())  # a pipe has no size to check before reading it
        held = info.st_size - fh.tell() if stat.S_ISREG(info.st_mode) else n_bytes
        if held == n_bytes:
            try:  # a pipe's header, checked against no size, can claim too much to allocate
                buf = np.empty(shape, dtype=_ENTRY)
            except (MemoryError, ValueError) as exc:
                raise FieldShapeError(f"dims {dims} need {n_bytes} bytes: {exc}") from exc
            held = fh.readinto(buf) + len(fh.read())  # short, or followed by more bytes
    if held != n_bytes:
        raise FieldShapeError(
            f"data holds {held} bytes, which does not match dims {dims} for "
            f"rank {rank} (expected {n_bytes} bytes)"
        )
    if not np.all(np.isfinite(buf)):
        raise FieldFormatError("data entries must be finite (no NaN or Infinity)")
    return cls._from_buf(window, buf.astype(complex, copy=False), algebra, metric)


def _check_labels(metric, algebra) -> None:
    if metric is not None and metric not in METRICS:
        raise FieldFormatError(f"metric must be one of {METRICS} or null, got {metric!r}")
    if algebra not in ALGEBRA_KINDS:
        raise FieldFormatError(f"algebra must be one of {ALGEBRA_KINDS}, got {algebra!r}")


def _require(doc: dict, key: str):
    if key not in doc:
        raise FieldFormatError(f"missing metadata key {key!r}")
    return doc[key]
