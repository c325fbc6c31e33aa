"""Discrete curvature of a connection and constructors for special fields.

The curvature of a 1-cochain A is the 2-cochain with plane components

    F_k^{ij} = Delta_i A_k^j - Delta_j A_k^i + A_k^i A_{tau_i k}^j
               - A_k^j A_{tau_j k}^i,    i < j,

with Delta_i X_k = X_{tau_i k} - X_k.  The product order is implemented
exactly as written.  Also provided: pure-gauge connections built from a
group-valued 0-cochain, and diagonal-shift-invariant generator slices for
the synthetic dual fields of `duality.synthetic_dual_curvature`.
"""
from __future__ import annotations

import numpy as np

from . import algebra
from .cochain import (
    PLANES,
    ConnectionField,
    CurvatureField,
    GaugeField,
    shifted_read,
)
from .lattice import Window


def plane_curvature(conn: ConnectionField, i: int, j: int, base=(0, 0, 0, 0)) -> np.ndarray:
    """The curvature expression for plane (i, j), every read offset by `base`:

        Delta_i A^j - Delta_j A^i + A^i A^j(+e_i) - A^j A^i(+e_j)

    Offsets compose on Z^4 before the boundary mode resolves them, matching
    the printed composite subscripts (e.g. A^4 at sigma_34 k + e_3 reads at
    sigma_4 k); `base=0` gives the F^{ij} slot of `curvature`.
    """
    w = conn.window
    ai, aj = conn.component(i), conn.component(j)
    if any(base):
        ai, aj = shifted_read(ai, w, base), shifted_read(aj, w, base)
    up_i, up_j = list(base), list(base)
    up_i[i - 1] += 1
    up_j[j - 1] += 1
    aj_up_i = shifted_read(conn.component(j), w, up_i)
    ai_up_j = shifted_read(conn.component(i), w, up_j)
    return (aj_up_i - aj) - (ai_up_j - ai) + ai @ aj_up_i - aj @ ai_up_j


def curvature(conn: ConnectionField) -> CurvatureField:
    """Curvature 2-cochain of a connection, same window and boundary mode."""
    # product terms leave su(2)/sl(2,C), so curvature values are general
    out = CurvatureField.zeros(conn.window, algebra="general")
    out.metric = conn.metric
    for i, j in PLANES:
        out.plane(i, j)[...] = plane_curvature(conn, i, j)
    return out


def pure_gauge(gauge: GaugeField) -> ConnectionField:
    """Connection A_k^j = -(Delta_j g_k) g_k^{-1} from a gauge 0-cochain.

    On zero windows, reads outside the box use the identity group element,
    so the connection vanishes beyond the support of g - I.

    Measured behaviour: the curvature of a pure-gauge connection vanishes
    when g is constant (both difference terms and both product terms cancel)
    but is generally nonzero for site-dependent g in this difference
    calculus, so flatness is not asserted as an invariant here.
    """
    w = gauge.window
    g = gauge.data
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    if np.any(np.abs(det) < 1e-14):
        raise ValueError("singular gauge element (|det| < 1e-14)")
    g_inv = np.linalg.inv(g)
    out = ConnectionField.zeros(w, algebra="general")
    for j in (1, 2, 3, 4):
        offsets = [0, 0, 0, 0]
        offsets[j - 1] = 1
        g_up = shifted_read(g, w, offsets, fill=algebra.identity())
        out.component(j)[...] = -((g_up - g) @ g_inv)
    return out


def zero_connection(window: Window, algebra_kind: str = "su2") -> ConnectionField:
    return ConnectionField.zeros(window, algebra=algebra_kind)


def constant_connection(window: Window, components, algebra_kind: str = "su2") -> ConnectionField:
    """Connection with site-independent components.

    `components` is either a single 2x2 matrix (used for all four axes) or
    a sequence of four matrices.
    """
    components = np.asarray(components, dtype=complex)
    if components.shape == (2, 2):
        components = np.broadcast_to(components, (4, 2, 2))
    if components.shape != (4, 2, 2):
        raise ValueError("components must be one 2x2 matrix or four of them")
    out = ConnectionField.zeros(window, algebra=algebra_kind)
    out.data[...] = components
    return out


def random_connection(window: Window, algebra_kind: str, seed, scale: float = 1.0) -> ConnectionField:
    """Connection with basis coefficients uniform in [-scale, scale].

    su2 draws 3 real coefficients per (site, axis); sl2c draws real and
    imaginary parts.  Deterministic in the seed.
    """
    rng = algebra.as_rng(seed)
    coeff = algebra.random_coefficients(rng, algebra_kind, scale, window.dims + (4,))
    return ConnectionField(window, algebra.from_coefficients(coeff), algebra=algebra_kind)


def random_gauge(window: Window, group_kind: str, seed) -> GaugeField:
    """Gauge 0-cochain of independent random group elements."""
    rng = algebra.as_rng(seed)
    out = GaugeField.identity(window, algebra=group_kind)
    for site in window.sites():
        out.data[site] = algebra.random_group(rng, group_kind)
    return out


def diag_invariant_slice(window: Window, seed, scale: float = 1.0, kind: str = "su2") -> np.ndarray:
    """Random matrix-per-site array invariant under the diagonal shift.

    Values are drawn once per diagonal orbit and copied bitwise along it,
    so G_k == G_{sigma k} holds exactly on the periodic window.
    """
    if window.boundary != "periodic":
        raise ValueError("diagonal-invariant slices require a periodic window")
    rng = algebra.as_rng(seed)
    out = np.zeros(window.dims + (2, 2), dtype=complex)
    seen = np.zeros(window.dims, dtype=bool)
    for site in window.sites():
        if seen[site]:
            continue
        if kind == "general":
            value = scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        else:
            value = algebra.random_algebra(rng, kind, scale)
        cursor = site
        while not seen[cursor]:
            seen[cursor] = True
            out[cursor] = value
            cursor = tuple((c + 1) % n for c, n in zip(cursor, window.dims))
    return out
