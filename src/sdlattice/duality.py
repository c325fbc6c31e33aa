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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cochain import (
    PLANES,
    ConnectionField,
    CurvatureField,
    diagonal_shift,
    max_entry,
    shifted_read,
)
from .curvature import plane_curvature
from .hodge import METRICS, complement_plane, star, star_table
from .lattice import Window

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
    # b *F is scaled in place, so a F is the only other full-size temporary.
    out = star(field, problem.metric)
    out.data *= b
    out.data += a * field.data
    return out


def scalar_residual(field: CurvatureField, problem: DualityProblem) -> float:
    return float(np.linalg.norm(residual(field, problem).data))


def residual_componentwise(conn: ConnectionField, problem: DualityProblem) -> CurvatureField:
    """Evaluate the six long difference equations directly in terms of A.

    Each plane's residual is (left side) - (right side) of the displayed
    equation for that plane.  On periodic windows this equals
    residual(curvature(A), problem) slotwise; on zero windows the two
    paths differ near the boundary because composite shift subscripts are
    resolved before zero-padding.
    """
    table = star_table(problem.metric)
    a, b = problem.coefficients
    out = CurvatureField.zeros(conn.window, algebra=conn.algebra)
    out.metric = problem.metric
    for plane in PLANES:
        source = complement_plane(plane)
        base_src = [0, 0, 0, 0]
        base_src[source[0] - 1] = -1
        base_src[source[1] - 1] = -1
        own = plane_curvature(conn, *plane)
        other = table.sign(source) * plane_curvature(conn, *source, base=base_src)
        out.plane(*plane)[...] = a * own + b * other
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
    shifted = shifted_read(slice12, window, (-1, -1, -1, -1))
    if not np.array_equal(slice12, shifted):
        raise ValueError("generator slice is not diagonal-shift invariant")
    out = CurvatureField.zeros(window, algebra="general")
    out.metric = metric
    out.plane(1, 2)[...] = slice12
    companion = -b * star_table(metric).sign((1, 2)) / a
    out.plane(3, 4)[...] = companion * shifted_read(slice12, window, (-1, -1, 0, 0))
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
        lhs = plane_curvature(conn, *plane)
        rhs = plane_curvature(conn, *plane, base=(-1, -1, -1, -1))
        violation = max(violation, float(np.max(np.abs(lhs - rhs))))
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
    violation.
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
