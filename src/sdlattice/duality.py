"""Self-dual / anti-self-dual residuals, synthetic dual fields, the
diagonal-shift relation, and the compact-support triviality check.

The four residual operators are one linear map a F + b *F; a vanishing
residual characterizes a dual solution:

    euclid, self_dual:       F - *F        (a, b) = (1, -1)     (F = *F)
    euclid, anti_self_dual:  F + *F        (a, b) = (1, +1)     (F = -*F)
    mink,   self_dual:       *F - iF       (a, b) = (-i, 1)     (*F = iF)
    mink,   anti_self_dual:  *F + iF       (a, b) = (+i, 1)     (*F = -iF)

`residual_componentwise` evaluates the six long difference equations for a
connection directly, one per plane, without building the curvature field
first; on periodic windows it agrees with the two-stage path slotwise.

The residual is not gauge covariant.  Under U^j_k -> h_k U^j_k h^-1_{k+e_j}
(U = I + A) the curvature moves to h_k F^{ij}_k h^-1_{k+e_i+e_j}, but *F at
k reads F at k - e_i - e_j, which transforms with h there instead.  On the
periodic (3,4,2,5) window, random_connection(seed 0, scale 0.5) under
random_gauge(seed 1) moves |residual| (euclid, self_dual) from 26.81 to
26.60 for su2 and from 38.8 to 60.2 for sl2c.  A constant gauge leaves
|residual|^2 unchanged for su2 (to 2e-16 relative) but not for sl2c (x2.5):
SL(2,C) is not unitary.  For su2 on the Minkowski problems |residual|^2 =
2 |F|^2 (see `solver`), which a unitary gauge keeps: 26.835 before and after.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cochain import (
    PLANE_INDEX,
    PLANES,
    ConnectionField,
    CurvatureField,
    _for_tiles,
    diagonal_shift,
    max_entry,
    shifted_read,
)
from .curvature import _planes_curvature
from .hodge import _READS, _moved, star_moves
from .lattice import METRICS, Window

ORIENTATIONS = ("self_dual", "anti_self_dual")

# (a, b) of the residual a F + b *F, per (metric, orientation).
_COEFFICIENTS = {
    ("euclid", "self_dual"): (1, -1),
    ("euclid", "anti_self_dual"): (1, 1),
    ("mink", "self_dual"): (-1j, 1),
    ("mink", "anti_self_dual"): (1j, 1),
}

# verify_triviality_theorem verdicts
CONSISTENT = "consistent"
VIOLATES_SUPPORT = "violates_support"
VIOLATES_DUALITY = "violates_duality"
NONZERO_CONTRADICTION = "nonzero_contradiction"


@dataclass(frozen=True)
class DualityProblem:
    metric: str
    orientation: str = "self_dual"

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.orientation not in ORIENTATIONS:
            raise ValueError(
                f"orientation must be one of {ORIENTATIONS}, got {self.orientation!r}"
            )

    @property
    def coefficients(self) -> tuple[complex, complex]:
        """(a, b) with residual = a F + b *F (table in the module docstring)."""
        return _COEFFICIENTS[self.metric, self.orientation]


def residual(field: CurvatureField, problem: DualityProblem) -> CurvatureField:
    """Residual 2-cochain a F + b *F of the duality operator; zero iff F is a solution."""
    a, b = problem.coefficients
    buf = _residual(field.buf, field.window, problem.metric, a, b)
    return CurvatureField._from_buf(field.window, buf, field.algebra, problem.metric)


def _residual(data, window, metric, a, b, transpose=False):
    """a X + b S X of the sites-last `data`, S the star (or a X + b S^T X
    with transpose=True), tile by tile (`cochain._for_tiles`): `data` is one
    field's (6, 2, 2) + dims, or two on axis 1 of (6, 2, 2, 2) + dims
    (`hodge._moved`).  b S X is scaled in place, so a X is the one
    temporary, tile-sized."""
    out = np.empty_like(data)

    def tile(rows, index, group):
        moved = _moved(data, window, metric, transpose, group, rows, out[index][group])
        moved *= b
        moved += a * data[index][group]
    _for_tiles(window.dims, tile)
    return out


def scalar_residual(field: CurvatureField, problem: DualityProblem) -> float:
    return float(np.linalg.norm(residual(field, problem).buf))


def residual_componentwise(conn: ConnectionField, problem: DualityProblem) -> CurvatureField:
    """Evaluate the six long difference equations directly in terms of A.

    Each plane's residual is (left side) - (right side) of the displayed
    equation for that plane.  On periodic windows this equals
    residual(curvature(A), problem) slotwise; on zero windows the two
    paths differ near the boundary because composite shift subscripts are
    resolved before zero-padding.
    """
    a, b = problem.coefficients
    # product terms leave su(2)/sl(2,C), so residual values are general
    out = CurvatureField.zeros(conn.window, algebra="general")
    out.metric = problem.metric
    # per star move, target-ordered: a own plane + b sign (source plane at the offsets)
    slots, offsets, signs = _READS[problem.metric, False]
    sources = tuple(PLANES[s] for s in slots)

    def body(rows, index, group):
        own = _planes_curvature(conn.buf, conn.window, PLANES[group], rows, out.buf[index][group])
        np.multiply(a, own, out=own)
        other = _planes_curvature(conn.buf, conn.window, sources[group], rows, bases=offsets[group])
        np.multiply(signs[group], other, out=other)
        own += np.multiply(b, other, out=other)
    _for_tiles(conn.window.dims, body)
    return out


def synthetic_dual_curvature(
    slice12: np.ndarray,
    metric: str,
    window: Window,
    orientation: str = "self_dual",
) -> CurvatureField:
    """Curvature field solving the duality equations exactly.

    F^{12} is the given diagonal-shift-invariant slice G; F^{34} is
    c G_{sigma_12 k} with c = -b s_12 / a (s_12 the star sign of plane 12),
    which cancels a F^{34} + b (*F)^{34}: +/-1 (euclid) or +/-i (mink).  The
    four remaining planes are zero.  All six component relations then hold
    bitwise, as does the diagonal-shift relation F_k = F_{sigma k}.
    """
    if window.boundary != "periodic":
        raise ValueError("synthetic dual fields require a periodic window")
    a, b = DualityProblem(metric, orientation).coefficients
    slice12 = np.asarray(slice12, dtype=complex)
    if slice12.shape != window.dims + (2, 2):
        raise ValueError(f"slice shape {slice12.shape} != {window.dims + (2, 2)}")
    out = CurvatureField.zeros(window, algebra="general")
    out.metric = metric
    out.plane(1, 2)[...] = slice12
    g = out.buf[PLANE_INDEX[(1, 2)]]  # the sites-last view of slice12 that shifted_read takes
    if not np.array_equal(g, shifted_read(g, window, (-1, -1, -1, -1))):
        raise ValueError("generator slice is not diagonal-shift invariant")
    _, target, sign12, offsets = star_moves(metric)[PLANE_INDEX[(1, 2)]]
    companion = -b * sign12 / a
    out.buf[target] = companion * shifted_read(g, window, offsets)
    return out


@dataclass(frozen=True)
class RelationReport:
    holds: bool
    max_violation: float


def check_diagonal_relation(field: CurvatureField, tol: float = 1e-12) -> RelationReport:
    """Check F_k^{ij} = F_{sigma k}^{ij} for every plane and site."""
    if field.window.boundary != "periodic":
        raise ValueError("diagonal relation check requires a periodic window")
    violation = max_entry(field - diagonal_shift(field, "down"))
    return RelationReport(holds=violation <= tol, max_violation=violation)


def verify_triviality_theorem(
    field: CurvatureField,
    support_bound,
    problem: DualityProblem,
    tol: float = 1e-12,
) -> str:
    """Decide whether F is consistent with duality plus compact support.

    The support condition requires F_k = 0 whenever max_i k_i >= max_i N_i
    (max-norm reading of the bound).  A field that passes it and has zero
    duality residual must vanish identically: the diagonal relation forces
    every slot to equal a slot outside the support bound.  The support
    check runs first so that a field with unbounded support (e.g. a
    constant one) is reported as such rather than as a boundary duality
    violation.  On the zero N^4 window the theorem holds with a constant:
    |residual(F)| >= 2 sin(pi / (8N - 2)) |F|, the smallest singular value
    of a F + b *F (chains of length 2N - 1 along the diagonal).
    """
    window = field.window
    if window.boundary != "zero":
        raise ValueError("the triviality check requires a zero-boundary window")
    bound = max(abs(int(n)) for n in np.atleast_1d(support_bound))
    if bound > min(window.dims) - 1:
        raise ValueError(
            f"window dims {window.dims} too small for support bound {bound}"
        )
    site_max = np.maximum.reduce(
        np.meshgrid(*(np.arange(n) for n in window.dims), indexing="ij")
    )
    slot_mag = np.max(np.abs(field.data), axis=(-3, -2, -1))
    outside = site_max >= bound
    if np.any(slot_mag[outside] > tol):
        return VIOLATES_SUPPORT
    if max_entry(residual(field, problem)) > tol:
        return VIOLATES_DUALITY
    # Diagonal propagation budget: each sigma step toward the empty region
    # can change a slot by at most ~2 tol once the residual passes.
    if np.max(slot_mag) <= tol * (2 * min(window.dims) + 1):
        return CONSISTENT
    return NONZERO_CONTRADICTION
