"""Residual-minimizing search for discrete (anti-)self-dual connections.

The objective is R(A) = ||residual(curvature(A), problem)||_F^2, a smooth
real functional of the basis coefficients of A (3 real coordinates per
su(2) slot, 6 per sl(2,C) slot).  The gradient is computed analytically by
running the chain rule backwards through the residual operator, the star
permutation, and the four terms of the curvature formula.  Convergence
(SolveConfig.tol, SolveReport.final_residual, the trace) is measured on the
objective R itself.  Only periodic windows are supported (shifts must be
bijections for the adjoints to be exact).

`solve` is L-BFGS with Armijo backtracking.  The landscape has
quartic-flat valleys (constant-mode directions whose curvature enters only
through commutators); the quasi-Newton scaling crosses them in tens of
iterations where fixed or spectral gradient steps take thousands.  Each
line-search trial keeps its residual, and the gradient at the accepted
point reuses it instead of recomputing the curvature.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .algebra import BASIS, MEMBERSHIP, dagger, from_coefficients, sl2c_coefficients
from .cochain import PLANES, ConnectionField, diagonal_shift, shifted_read
from .curvature import curvature
from .duality import DualityProblem, residual
from .hodge import star, star_table
from .lattice import Window

# (s, y) pairs kept by the L-BFGS two-loop recursion.
LBFGS_MEMORY = 10


@dataclass
class SolveConfig:
    """Options for `solve`.

    tol is the target value of the residual objective R(A) (the squared
    Frobenius norm of the residual cochain); step0 the gradient step taken
    when the L-BFGS memory is empty; backtrack the Armijo shrink factor.
    """

    problem: DualityProblem
    max_iter: int = 1000
    tol: float = 1e-8
    step0: float = 1.0
    backtrack: float = 0.5
    trace_every: int = 1

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")
        if not 0 < self.backtrack < 1:
            raise ValueError("backtrack factor must be in (0, 1)")
        if not (math.isfinite(self.step0) and self.step0 > 0):
            raise ValueError("step0 must be finite and positive")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")


@dataclass
class SolveReport:
    """Outcome of `solve`; residual figures are objective values R(A).

    stop_reason: "converged", "max_iter", "step_underflow" or "stationary".
    """

    iterations: int
    final_residual: float
    residual_trace: list[tuple[int, float, float]] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = "max_iter"


def objective(conn: ConnectionField, problem: DualityProblem) -> float:
    """Squared residual norm; zero iff the curvature is exactly dual."""
    _require_periodic(conn.window)
    return _objective_and_residual(conn, problem)[0]


def _objective_and_residual(conn: ConnectionField, problem: DualityProblem):
    res = residual(curvature(conn), problem)
    return float(np.sum(np.abs(res.data) ** 2)), res


def connection_coefficients(conn: ConnectionField) -> np.ndarray:
    """Real coordinate array of shape dims + (4, n), n = 3 (su2) or 6 (sl2c)."""
    c = sl2c_coefficients(conn.data)
    if conn.algebra == "su2":
        return np.ascontiguousarray(c.real)
    if conn.algebra == "sl2c":
        return np.concatenate([c.real, c.imag], axis=-1)
    raise ValueError("solver requires an su2 or sl2c connection")


def connection_from_coefficients(
    coeff: np.ndarray, window: Window, algebra_kind: str
) -> ConnectionField:
    """Inverse of connection_coefficients."""
    coeff = np.asarray(coeff, dtype=float)
    if algebra_kind == "su2":
        data = from_coefficients(coeff)
    elif algebra_kind == "sl2c":
        data = from_coefficients(coeff[..., :3] + 1j * coeff[..., 3:])
    else:
        raise ValueError("solver requires an su2 or sl2c connection")
    return ConnectionField(window, data, algebra=algebra_kind)


def gradient_coefficients(conn: ConnectionField, problem: DualityProblem) -> np.ndarray:
    """Analytic gradient of the objective in the real coordinates of A.

    Matches central finite differences of `objective` to relative error
    well below 1e-6 for step 1e-6.
    """
    return _coefficient_gradient(_gradient_matrices(conn, problem), conn.algebra)


def _coefficient_gradient(g_slots: np.ndarray, algebra_kind: str) -> np.ndarray:
    """Project matrix gradients onto the real coordinates of the algebra."""
    z = np.einsum("...ij,aij->...a", g_slots.conj(), BASIS)
    if algebra_kind == "su2":
        return np.ascontiguousarray(z.real)
    if algebra_kind == "sl2c":
        return np.concatenate([z.real, -z.imag], axis=-1)
    raise ValueError("solver requires an su2 or sl2c connection")


def _require_periodic(window: Window) -> None:
    if window.boundary != "periodic":
        raise ValueError("solver operations require a periodic window")


def _gradient_matrices(conn: ConnectionField, problem: DualityProblem, res=None) -> np.ndarray:
    """dR as 2x2 matrices per (site, axis): dR = Re sum conj(G) dA entrywise.

    res, if given, is residual(curvature(conn), problem), reused as is."""
    _require_periodic(conn.window)
    w = conn.window
    if res is None:
        res = residual(curvature(conn), problem)
    # Adjoint of the residual operator a F + b S F applied to the residual
    # itself: 2 (conj(a) res + conj(b) S^T res).  The star S is a signed
    # permutation, so S^T = S^-1 = epsilon tau S by the double-star identity
    # (epsilon = +1 euclid, -1 mink; tau the diagonal up-shift).  The star
    # term is taken first, while no other full-size temporary is alive, and
    # scaled in place.
    a, b = problem.coefficients
    g_f = diagonal_shift(star(res, problem.metric), "up").data
    g_f *= b.conjugate() * star_table(problem.metric).square_sign
    g_f += a.conjugate() * res.data
    g_f *= 2.0

    comps = {i: conn.component(i) for i in (1, 2, 3, 4)}
    grad = np.zeros_like(conn.data)

    def up(arr, axis):
        offsets = [0, 0, 0, 0]
        offsets[axis - 1] = 1
        return shifted_read(arr, w, offsets)

    def down(arr, axis):
        offsets = [0, 0, 0, 0]
        offsets[axis - 1] = -1
        return shifted_read(arr, w, offsets)

    for n, (i, j) in enumerate(PLANES):
        g = g_f[..., n, :, :]
        gi = grad[..., i - 1, :, :]
        gj = grad[..., j - 1, :, :]
        # difference terms: F gets Delta_i A^j - Delta_j A^i
        gj += down(g, i) - g
        gi -= down(g, j) - g
        # product term  A^i_k A^j_{tau_i k}
        gi += g @ dagger(up(comps[j], i))
        gj += down(dagger(comps[i]) @ g, i)
        # product term -A^j_k A^i_{tau_j k}
        gj -= g @ dagger(up(comps[i], j))
        gi -= down(dagger(comps[j]) @ g, j)
    return grad


def solve(conn0: ConnectionField, cfg: SolveConfig) -> tuple[ConnectionField, SolveReport]:
    """L-BFGS with Armijo backtracking on the residual objective.

    Directions come from the two-loop recursion over the last LBFGS_MEMORY
    pairs (step s, gradient change y) with s.y > 0; with none stored, or if
    the recursion gives no descent direction (the memory is then cleared),
    the direction is -cfg.step0 times the gradient.  The fraction t of the
    direction starts at 1 and shrinks by cfg.backtrack until the Armijo
    condition (slope 1e-4) holds and the objective strictly decreases.
    Stops at cfg.tol, at max_iter, when t underflows below 1e-16, or at a
    zero gradient (SolveReport.stop_reason).  Trace rows are (iteration,
    objective, accepted t); deterministic in (conn0, cfg).  Raises
    ValueError if the values of conn0 are not in its algebra.
    """
    _require_periodic(conn0.window)
    window, kind, problem = conn0.window, conn0.algebra, cfg.problem
    if kind in MEMBERSHIP and not MEMBERSHIP[kind](conn0.data):
        # the coordinates below would project them onto the algebra
        raise ValueError(f"connection values are not in {kind}")
    coeff = connection_coefficients(conn0)
    conn = connection_from_coefficients(coeff, window, kind)
    obj, res = _objective_and_residual(conn, problem)
    trace = [(0, obj, 0.0)]
    report = SolveReport(iterations=0, final_residual=obj, residual_trace=trace)
    if obj <= cfg.tol:
        report.converged, report.stop_reason = True, "converged"
        return conn, report

    history = deque(maxlen=LBFGS_MEMORY)
    g = _coefficient_gradient(_gradient_matrices(conn, problem, res), kind)
    for it in range(1, cfg.max_iter + 1):
        g_sq = float(np.sum(g * g))
        if g_sq == 0.0:
            report.stop_reason = "stationary"
            break
        d = _lbfgs_direction(g, history) if history else -cfg.step0 * g
        slope = float(np.sum(g * d))
        if not slope < 0.0:
            history.clear()
            d, slope = -cfg.step0 * g, -cfg.step0 * g_sq
        t = 1.0
        while t >= 1e-16:
            trial = coeff + t * d
            trial_conn = connection_from_coefficients(trial, window, kind)
            trial_obj, trial_res = _objective_and_residual(trial_conn, problem)
            if trial_obj < obj and trial_obj <= obj + 1e-4 * t * slope:
                break
            t *= cfg.backtrack
        else:
            report.stop_reason = "step_underflow"
            break
        coeff, conn, obj = trial, trial_conn, trial_obj
        report.iterations = it
        converged = obj <= cfg.tol
        if it % cfg.trace_every == 0 or converged:
            trace.append((it, obj, t))
        if converged:
            report.converged, report.stop_reason = True, "converged"
            break
        g_new = _coefficient_gradient(_gradient_matrices(conn, problem, trial_res), kind)
        s, y = t * d, g_new - g
        sy = float(np.sum(s * y))
        if sy > 0.0:
            history.append((s, y, sy))
        g = g_new
    report.final_residual = obj
    return conn, report


def _lbfgs_direction(g: np.ndarray, history: deque) -> np.ndarray:
    """-H g by the two-loop recursion (Nocedal & Wright, Algorithm 7.4)."""
    q = g.copy()
    alphas = []
    for s, y, sy in reversed(history):
        alpha = float(np.sum(s * q)) / sy
        q -= alpha * y
        alphas.append(alpha)
    _, y, sy = history[-1]
    q *= sy / float(np.sum(y * y))
    for (s, y, sy), alpha in zip(history, reversed(alphas)):
        q += (alpha - float(np.sum(y * q)) / sy) * s
    return -q
