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

import functools

import numpy as np

from . import algebra
from .cochain import (
    PLANES,
    ConnectionField,
    CurvatureField,
    GaugeField,
    _for_tiles,
    shifted_read,
)
from .lattice import Window


def _planes_curvature(buf, window, planes, rows=None, out=None, bases=None, linear=...):
    """The curvature expression of each plane (i, j) of `planes` of the
    connection buffer `buf` (`_plane_stacks`), every read offset by its
    entry of `bases` (default all zero):

        Delta_i A^j - Delta_j A^i + A^i A^j(+e_i) - A^j A^i(+e_j)

    Offsets compose on Z^4 before the boundary mode resolves them, matching
    the printed composite subscripts (e.g. A^4 at sigma_34 k + e_3 reads at
    sigma_4 k); a zero base gives the F^{ij} slot of `curvature`.  The
    result is a sites-last stack (plane,) + buf.shape[1:-4] + dims, like
    slots of `Field.buf`, cut to first indices [lo, hi) by rows=(lo, hi);
    it goes to `out` or a new array, each term one numpy call over the
    stack.  The difference terms go to index `linear` of the stack only,
    so linear=(slice(None), 1) on two connections stacked on axis 1 leaves
    the first one's product terms alone.
    """
    ai, aj, ai_up_j, aj_up_i = _plane_stacks(buf, window, planes, rows, bases)
    out = algebra.mul(ai, aj_up_i, out)
    # aj_up_i is a fresh read: after its product it holds the difference
    # terms, summed as printed, and then the second product
    diff = aj_up_i[linear]
    diff -= aj[linear]
    diff -= ai_up_j[linear] - ai[linear]
    out[linear] += diff
    out -= algebra.mul(aj, ai_up_j, aj_up_i)
    return out


def _plane_stacks(buf, window, planes, rows=None, bases=None):
    """A^i, A^j, A^i(+e_j) and A^j(+e_i) of each plane (i, j), read at its
    base (default all zero), as stacks of the slots of `buf` from one stacked
    read; one unshifted plane reads the last two only and takes A^i and A^j
    as views of `buf`: one connection's (4, 2, 2) + dims, or two on axis 1
    of (4, 2, 2, 2) + dims, the axes between the first and the sites
    carried along."""
    slots, offsets = _stack_reads(tuple(planes), bases or ((0, 0, 0, 0),) * len(planes))
    read = shifted_read(buf, window, offsets, rows=rows, slots=slots)
    if len(slots) == 2:
        (i, j), = planes
        cut = (..., slice(*rows) if rows else slice(None), slice(None), slice(None), slice(None))
        return buf[i - 1:i][cut], buf[j - 1:j][cut], read[1:], read[:1]
    n = len(planes)
    return read[2 * n:3 * n], read[3 * n:], read[n:2 * n], read[:n]


@functools.lru_cache(maxsize=256)
def _stack_reads(planes: tuple, bases: tuple) -> tuple:
    """(slots, offsets) of the read of `_plane_stacks`: A^j(+e_i), A^i(+e_j),
    A^i and A^j of every plane in turn, the last two left out for one
    unshifted plane."""
    si, sj = tuple(i - 1 for i, _ in planes), tuple(j - 1 for _, j in planes)
    up_i = tuple(b[:i - 1] + (b[i - 1] + 1,) + b[i:] for (i, _), b in zip(planes, bases))
    up_j = tuple(b[:j - 1] + (b[j - 1] + 1,) + b[j:] for (_, j), b in zip(planes, bases))
    if len(planes) == 1 and not any(bases[0]):
        return sj + si, up_i + up_j
    return sj + si + si + sj, up_i + up_j + bases + bases


def _curvature(buf, window, linear=...):
    """The curvature stack (6,) + buf.shape[1:] of the connection buffer
    `buf`, written tile by tile (`cochain._for_tiles`); the difference terms
    go to index `linear` of each plane slot only (`_planes_curvature`)."""
    out = np.empty((6,) + buf.shape[1:], dtype=complex)
    _for_tiles(window.dims, lambda rows, index, group: _planes_curvature(
        buf, window, PLANES[group], rows, out[index][group], linear=linear))
    return out


def curvature(conn: ConnectionField) -> CurvatureField:
    """Curvature 2-cochain of a connection, same window and boundary mode."""
    # product terms leave su(2)/sl(2,C), so curvature values are general
    return CurvatureField._from_buf(conn.window, _curvature(conn.buf, conn.window), "general",
                                    conn.metric)


def pure_gauge(gauge: GaugeField) -> ConnectionField:
    """Connection A_k^j = -(Delta_j g_k) g_k^{-1} from a gauge 0-cochain.

    On zero windows, reads outside the box use the identity group element,
    so the connection vanishes beyond the support of g - I.

    The curvature vanishes when g is constant (both difference terms and
    both product terms cancel), but this formula, the discrete -dg g^-1, is
    not flat in general: for random_gauge(seed 1) on (3,4,2,5) and 4^4,
    max |F| is about 7.  The link form g_k^-1 g_{k+e_j} - I is flat to
    rounding on the same gauges (max |F| <= 1.8e-15).
    """
    w = gauge.window
    g = gauge.buf
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if np.any(np.abs(det) < 1e-14):
        raise ValueError("singular gauge element (|det| < 1e-14)")
    # np.linalg.inv wants the matrices last: invert the dims-first view
    g_inv = np.linalg.inv(gauge.data).transpose(4, 5, 0, 1, 2, 3)
    out = ConnectionField.zeros(w, algebra="general")
    for j in (1, 2, 3, 4):
        g_up = shifted_read(g, w, tuple(int(k == j) for k in (1, 2, 3, 4)), fill=algebra.identity())
        out.buf[j - 1] = -algebra.mul(g_up - g, g_inv)
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
    return ConnectionField.from_coefficients(window, coeff, algebra_kind)


def random_gauge(window: Window, group_kind: str, seed) -> GaugeField:
    """Gauge 0-cochain of independent random group elements, drawn site by
    site in row-major order (see `algebra.random_group`)."""
    return GaugeField(window, algebra.random_group(seed, group_kind, window.dims), algebra=group_kind)


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
