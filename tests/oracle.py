"""Per-site reference helpers the tests compare the whole-field kernels against,
and the difference form of the diagonal relation (relation 13) checked on A.

Also the closed form of the Hessian symbol at A = 0 that the solver's
preconditioner reads off the kernels, and the two-pass forms of the
solver's line-search residuals and exact step that it computes faster.

Sites are 4-tuples, axes 1-based.  Reads resolve a possibly-outside site
the way the window does: periodic windows wrap, zero windows read the zero
matrix (the identity for a gauge field).
"""
from __future__ import annotations

import numpy as np

from sdlattice.algebra import as_rng, dagger, from_coefficients, mul, random_coefficients
from sdlattice.cochain import PLANES, ConnectionField, CurvatureField, GaugeField, shifted_read
from sdlattice.curvature import _planes_curvature, curvature
from sdlattice.duality import DualityProblem, RelationReport, residual
from sdlattice.hodge import star_moves

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


def check_difference_form_13(conn: ConnectionField, tol: float = 1e-12) -> RelationReport:
    """Difference analog of the diagonal relation, evaluated directly on A.

    For every plane (j, r): the curvature expression at k equals the same
    expression with every read shifted diagonally down.  Agrees with
    check_diagonal_relation(curvature(A)).
    """
    if conn.window.boundary != "periodic":
        raise ValueError("difference-form check requires a periodic window")
    violation = 0.0
    for plane in PLANES:
        lhs = _planes_curvature(conn.buf, conn.window, (plane,))[0]
        rhs = _planes_curvature(conn.buf, conn.window, (plane,), bases=((-1, -1, -1, -1),))[0]
        violation = max(violation, float(np.max(np.abs(lhs - rhs))))
    return RelationReport(holds=violation <= tol, max_violation=violation)


def hessian_symbol_closed_form(dims, problem: DualityProblem, algebra_kind: str) -> np.ndarray:
    """Hessian of the solver objective at A = 0 per momentum p, shape
    dims + (4, 4), written out in Fourier space.

    Momentum p_i = 2 pi n_i / N_i is the transform x(p) = sum_k x_k e^{-i p.k},
    under which a read at offset o multiplies by e^{i p.o}.  C(p) = (a + b S(p))
    D(p): the curl D has entries +/-(e^{i p_i} - 1), and S is the star's signed
    move table with phase e^{-i (p_a + p_b)} for source plane (a, b).  M = C^H C
    acts on complex coefficients (sl2c); for real su2 coefficients the Hessian
    is Re M, whose symbol is (M(p) + conj M(-p)) / 2.
    """
    dims = tuple(dims)
    p = np.meshgrid(*(2 * np.pi * np.arange(n) / n for n in dims), indexing="ij")
    d = np.zeros(dims + (6, 4), dtype=complex)
    for n, (i, j) in enumerate(PLANES):
        d[..., n, j - 1] = np.exp(1j * p[i - 1]) - 1
        d[..., n, i - 1] = 1 - np.exp(1j * p[j - 1])
    a, b = problem.coefficients
    c = a * d
    for source, target, sign, offsets in star_moves(problem.metric):
        phase = sign * np.exp(1j * sum(o * pk for o, pk in zip(offsets, p)))
        c[..., target, :] += b * phase[..., None] * d[..., source, :]
    m = c.conj().swapaxes(-1, -2) @ c
    if algebra_kind == "su2":
        m = 0.5 * (m + m[np.ix_(*((-np.arange(n)) % n for n in dims))].conj())
    return m


def line_residuals_two_pass(conn: ConnectionField, step: ConnectionField, res: CurvatureField,
                            problem: DualityProblem):
    """r1, r2 of the solver's line search by two residual evaluations: r2 is
    the residual of the product terms d^i d^j(+e_i) - d^j d^i(+e_j) of
    d = step alone, and r1 = residual(curvature(A + d)) - res.buf - r2, in
    that order of operations."""
    w, d = conn.window, step.buf
    products = CurvatureField.zeros(w)
    for n, (i, j) in enumerate(PLANES):
        dj_up_i = shifted_read(d[j - 1], w, tuple(int(k == i) for k in AXES))
        di_up_j = shifted_read(d[i - 1], w, tuple(int(k == j) for k in AXES))
        products.buf[n] = mul(d[i - 1], dj_up_i) - mul(d[j - 1], di_up_j)
    r2 = residual(products, problem).buf
    r1 = residual(curvature(conn + step), problem).buf - res.buf
    r1 -= r2
    return r1, r2


def exact_step_by_np_roots(c) -> float:
    """The solver's exact step with the critical points of the quartic R
    (coefficients c, lowest first) from np.roots: the positive real root of
    R' with the lowest R, 1 if there is none."""
    c0, c1, c2, c3, c4 = c
    ts = [r.real for r in np.roots([4 * c4, 3 * c3, 2 * c2, c1]) if r.imag == 0 and r.real > 0]
    return min(ts, key=lambda t: c0 + t * (c1 + t * (c2 + t * (c3 + t * c4))), default=1.0)
