"""Self-dual / anti-self-dual residuals, the diagonal-shift relation, and
the compact-support triviality check.

Residual operators (vanishing residual characterizes a dual solution):

    euclid, self_dual:       F - *F        (F = *F)
    euclid, anti_self_dual:  F + *F        (F = -*F)
    mink,   self_dual:       *F - iF       (*F = iF)
    mink,   anti_self_dual:  *F + iF       (*F = -iF)

`residual_componentwise` evaluates the six long difference equations for a
connection directly, one per plane, without building the curvature field
first; on periodic windows it agrees with the two-stage path slotwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cochain import PLANES, ConnectionField, CurvatureField, diagonal_shift, max_entry
from .curvature import plane_curvature
from .hodge import METRICS, complement_plane, star, star_table

ORIENTATIONS = ("self_dual", "anti_self_dual")

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


def residual(field: CurvatureField, problem: DualityProblem) -> CurvatureField:
    """Residual 2-cochain of the duality operator; zero iff F is a solution."""
    starred = star(field, problem.metric)
    sign = 1.0 if problem.orientation == "anti_self_dual" else -1.0
    if problem.metric == "euclid":
        data = field.data + sign * starred.data
    else:
        data = starred.data + sign * 1j * field.data
    out = CurvatureField(field.window, data, algebra=field.algebra)
    out.metric = problem.metric
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
    out = CurvatureField.zeros(conn.window, algebra=conn.algebra)
    out.metric = problem.metric
    asd = problem.orientation == "anti_self_dual"
    for plane in PLANES:
        source = complement_plane(plane)
        sign = table.sign(source)
        base_src = [0, 0, 0, 0]
        base_src[source[0] - 1] = -1
        base_src[source[1] - 1] = -1
        own = plane_curvature(conn, *plane)
        other = sign * plane_curvature(conn, *source, base=base_src)
        if problem.metric == "euclid":
            slot = own + other if asd else own - other
        else:
            slot = other + 1j * own if asd else other - 1j * own
        out.plane(*plane)[...] = slot
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
