"""Per-site reference helpers the tests compare the whole-field kernels against.

Sites are 4-tuples, axes 1-based.  Reads resolve a possibly-outside site
the way the window does: periodic windows wrap, zero windows read the zero
matrix (the identity for a gauge field).
"""
from __future__ import annotations

import numpy as np

from sdlattice.algebra import as_rng, dagger, from_coefficients, random_coefficients
from sdlattice.cochain import CurvatureField, GaugeField

AXES = (1, 2, 3, 4)


def _step(direction: str) -> int:
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    return 1 if direction == "up" else -1


def _moved(k, axes, step: int):
    out = list(k)
    for axis in axes:
        if axis not in AXES:
            raise ValueError(f"axis must be in 1..4, got {axis!r}")
        out[axis - 1] += step
    return tuple(out)


def shift_up(k, axis: int):
    """tau_i: increment component `axis` of k."""
    return _moved(k, (axis,), 1)


def shift_down(k, axis: int):
    """sigma_i: decrement component `axis` of k."""
    return _moved(k, (axis,), -1)


def shift_pair(k, i: int, j: int, direction: str = "up"):
    """tau_ij / sigma_ij: shift two distinct components one step."""
    if i == j:
        raise ValueError(f"shift_pair axes must differ, got i=j={i}")
    return _moved(k, (i, j), _step(direction))


def shift_diag(k, direction: str = "up"):
    """tau / sigma on all four components at once."""
    return _moved(k, AXES, _step(direction))


def wrap(window, k):
    """The stored site read at k: wrapped (periodic), or None outside a zero window."""
    if window.boundary == "periodic":
        return tuple(int(c) % n for c, n in zip(k, window.dims))
    return tuple(k) if all(0 <= c < n for c, n in zip(k, window.dims)) else None


def at(field, k, *slot):
    """Boundary-resolved read of one slot at site k.

    A_k^axis for a connection (slot = axis), F_k^{ij} for a curvature
    (slot = i, j; j < i reads -F_k^{ji}), g_k for a gauge field (no slot).
    """
    site = wrap(field.window, k)
    if isinstance(field, GaugeField):
        return np.eye(2, dtype=complex) if site is None else field.data[site]
    if isinstance(field, CurvatureField):
        i, j = slot
        if i == j:
            raise ValueError("plane axes must differ")
        if i > j:
            return -at(field, k, j, i)
        return np.zeros((2, 2), dtype=complex) if site is None else field.plane(i, j)[site]
    (axis,) = slot
    return np.zeros((2, 2), dtype=complex) if site is None else field.component(axis)[site]


def delta(conn, diff_axis: int, comp_axis: int, k):
    """Forward difference A_{tau_i k}^j - A_k^j at one site (i = diff_axis, j = comp_axis)."""
    return at(conn, shift_up(k, diff_axis), comp_axis) - at(conn, k, comp_axis)


def is_special_unitary(g, tol: float = 1e-12) -> bool:
    unitary = np.max(np.abs(dagger(g) @ g - np.eye(2))) <= tol
    return bool(unitary) and has_unit_determinant(g, tol)


def has_unit_determinant(g, tol: float = 1e-12) -> bool:
    return abs(np.linalg.det(g) - 1.0) <= tol


def random_curvature(window, seed, scale: float = 1.0, kind: str = "general") -> CurvatureField:
    """Free-standing random 2-cochain (not the curvature of any connection).

    kind 'general' fills slots with complex normal entries; 'su2'/'sl2c'
    fill them with random algebra elements.
    """
    rng = as_rng(seed)
    out = CurvatureField.zeros(window, algebra=kind)
    shape = window.dims + (6, 2, 2)
    if kind == "general":
        out.data[...] = scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    elif kind in ("su2", "sl2c"):
        out.data[...] = from_coefficients(random_coefficients(rng, kind, scale, window.dims + (6,)))
    else:
        raise ValueError(f"unknown curvature kind {kind!r}")
    return out
