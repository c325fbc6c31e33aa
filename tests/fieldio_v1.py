"""A writer of version-1 field documents, for the tests that edit data
entry by entry and for checking that `load` still reads version 1.

Version 1 stores `data` as a list of [re, im] float pairs in canonical
order.  `save` writes version 3 only; `json.dumps(v1_document(field))`
plus a newline is what it wrote before, byte for byte, so the committed
version-1 goldens in tests/data are reproduced from their loaded fields.
"""
from __future__ import annotations

import numpy as np


def v1_document(field) -> dict:
    flat = np.ascontiguousarray(field.data).reshape(-1)
    return {
        "format_version": 1,
        "rank": field.rank,
        "dims": list(field.window.dims),
        "boundary": field.window.boundary,
        "metric": field.metric,
        "algebra": field.algebra,
        "data": flat.view(np.float64).reshape(-1, 2).tolist(),
    }
