"""A writer of version-2 field documents, for the tests that edit a base64
payload and for checking that `load` still reads version 2.

Version 2 is one JSON document with the version-3 metadata keys and `data`,
one base64 string of the little-endian complex128 (`<c16`) bytes in
canonical order.  `save` writes version 3 only;
`json.dumps(v2_document(field))` plus a newline is what it wrote before,
byte for byte, so the committed version-2 goldens in tests/data/v2 are
reproduced from their loaded fields.
"""
from __future__ import annotations

import base64

import numpy as np


def v2_document(field) -> dict:
    payload = np.ascontiguousarray(field.data, dtype="<c16").tobytes()
    return {
        "format_version": 2,
        "rank": field.rank,
        "dims": list(field.window.dims),
        "boundary": field.window.boundary,
        "metric": field.metric,
        "algebra": field.algebra,
        "data": base64.b64encode(payload).decode("ascii"),
    }
