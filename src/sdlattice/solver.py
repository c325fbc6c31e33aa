"""Least-squares search for connections whose curvature is (anti-)self-dual.

The objective is R(A) = ||residual(curvature(A), problem)||_F^2, a smooth
real functional of the basis coefficients of A (3 real coordinates per
su(2) slot, 6 per sl(2,C) slot).  The gradient is computed analytically by
running the chain rule backwards through the residual operator, the star
permutation, and the four terms of the curvature formula.  Convergence
(SolveConfig.tol, SolveReport.final_residual, the trace) is measured on the
objective R itself.  Only periodic windows are supported: the
preconditioner P below is the symbol of the translation-invariant Hessian
at A = 0, and solves on zero windows are not yet characterised (there the
gradient matches central differences as well).  R = 0 holds for every flat
connection too, and from small random starts su2 (either metric) and sl2c
euclid reach tol by flattening A, with R / ||F||^2 left near 2; only sl2c
mink ends with R well below ||F||^2.  For su2 on either Minkowski problem
R = 2 ||F||^2 exactly: su(2) plus the real multiples of I is closed under
products, so F lies in it and <F, *F> is real; with conj(a) b = +-i the
cross term 2 Re(conj(a) b <F, *F>) of R vanishes, and ||*F|| = ||F|| (the
star moves and signs slots).

`solve` is L-BFGS with an exact line search, preconditioned in Fourier
space.  At A = 0 the residual r = C A is linear and commutes with
translations, so per momentum p the Hessian of R is M(p) = C(p)^H C(p),
C(p) a 6x4 matrix that `_hessian_symbol` reads off the kernels' responses
to unit impulses.  The initial inverse Hessian of the two-loop recursion
is H0 = gamma P with P = (M + mu I)^-1 taken per momentum,
gamma = s.y / y.P y of the newest pair, and the first direction is -P g
(Davies et al., Phys. Rev. D 37, 1581 (1988); Nocedal & Wright, Numerical
Optimization, section 7.2); P is applied once per iteration, to the
stack [q, y] of the recursion's vector and the newest y.
mu = PRECONDITIONER_SHIFT times the largest eigenvalue of the symbol
stands in for its null space: constant modes, pure-gauge directions and
the kernel of F -> a F + b *F.  Real su(2) coordinates meeting complex
(a, b) pair p with -p, so for su2 the symbol is symmetrised to
(M(p) + conj M(-p)) / 2, the symbol of Re M.  P is built at the first
solve on a window and cached per (dims, problem, algebra).
The curvature is quadratic in A, so along a direction d the residual is
r0 + t r1 + t^2 r2 and R is a quartic in t (Nocedal & Wright, section 3.5
on exact line searches): the step minimises it, and the gradient at the
new point takes its interpolated residual instead of a new curvature.
r1 and r2 come from one curvature pass over d and A + d held as one
stack, which leaves out the difference terms of d, and one residual pass
over both.
R is summed as one np.vdot(r, r).real of the residual r (a BLAS dot
product, no field-sized temporaries), in `objective` as in the quartic's
constant term, so the line search starts from R(A) bitwise.
"""
from __future__ import annotations

import functools
import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .algebra import BASIS, MEMBERSHIP, mul, sl2c_coefficients
from .cochain import (
    PLANES,
    ConnectionField,
    CurvatureField,
    _for_slabs,
    _for_tiles,
    shifted_read,
)
from .curvature import _curvature, curvature
from .duality import DualityProblem, _residual, residual
from .lattice import Window

# (s, y) pairs kept by the L-BFGS two-loop recursion.
LBFGS_MEMORY = 10

# mu of the preconditioner (M + mu I)^-1, relative to the largest eigenvalue of M.
PRECONDITIONER_SHIFT = 1e-2

# Unit read offsets +e_i and -e_i per axis i.
_UP = {i: tuple(int(k == i) for k in (1, 2, 3, 4)) for i in (1, 2, 3, 4)}
_DOWN = {i: tuple(-int(k == i) for k in (1, 2, 3, 4)) for i in (1, 2, 3, 4)}


@dataclass
class SolveConfig:
    """Options for `solve`.

    tol is the target value of the residual objective R(A) (the squared
    Frobenius norm of the residual cochain).  The line search is exact, so
    there is no step length to set.
    """

    problem: DualityProblem
    max_iter: int = 1000
    tol: float = 1e-8

    def __post_init__(self):
        if not isinstance(self.problem, DualityProblem):
            raise ValueError(f"problem must be a DualityProblem, got {self.problem!r}")
        value = self.max_iter
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {value!r}")
        real = isinstance(self.tol, numbers.Real) and not isinstance(self.tol, bool)
        if not (real and math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a finite positive real number, got {self.tol!r}")


@dataclass
class SolveReport:
    """Outcome of `solve`; residual figures are objective values R(A).

    stop_reason: "converged", "max_iter", "no_decrease" or "stationary".
    evaluations counts full objective evaluations (curvature and residual
    of a connection): one at the start, one per iteration and one per
    recompute of an interpolated residual.  The line search of an
    iteration counts as its one evaluation: its stacked pass computes
    F(A + d) together with the product terms of d (`_line_residuals`).
    gradient_evaluations counts gradients (a converged run takes one per
    iteration).  wall_s spans the whole call; grad_norm is the Euclidean
    norm of the last gradient computed (0.0 if none was taken).
    """

    iterations: int
    final_residual: float
    residual_trace: list[tuple[int, float, float]] = field(default_factory=list)
    converged: bool = False
    stop_reason: str = "max_iter"
    evaluations: int = 0
    gradient_evaluations: int = 0
    wall_s: float = 0.0
    grad_norm: float = 0.0


def objective(conn: ConnectionField, problem: DualityProblem) -> float:
    """Squared residual norm; zero iff the curvature is exactly dual."""
    _require_periodic(conn.window)
    return _objective_and_residual(conn, problem)[0]


def _objective_and_residual(conn: ConnectionField, problem: DualityProblem):
    res = residual(curvature(conn), problem)
    return float(np.vdot(res.buf, res.buf).real), res


def _real(z: np.ndarray, algebra_kind: str) -> np.ndarray:
    """C-order real coordinates of basis coefficients z (last axis 3): the
    real parts, then for sl2c the imaginary parts."""
    if algebra_kind == "su2":
        return np.ascontiguousarray(z.real)
    if algebra_kind == "sl2c":
        # out= keeps the coordinates C-order whatever the memory order of z
        return np.concatenate([z.real, z.imag], axis=-1, out=np.empty(z.shape[:-1] + (6,)))
    raise ValueError(f"solver requires algebra su2 or sl2c, got {algebra_kind!r}")


def _complex(x: np.ndarray, algebra_kind: str) -> np.ndarray:
    """Basis coefficients of real coordinates x, the inverse of `_real`
    (su2 coordinates are returned as they are)."""
    if algebra_kind == "su2":
        return x
    if algebra_kind == "sl2c":
        return x[..., :3] + 1j * x[..., 3:]
    raise ValueError(f"solver requires algebra su2 or sl2c, got {algebra_kind!r}")


def connection_coefficients(conn: ConnectionField) -> np.ndarray:
    """Real coordinate array of shape dims + (4, n), n = 3 (su2) or 6 (sl2c)."""
    return _real(sl2c_coefficients(conn.data), conn.algebra)


def connection_from_coefficients(
    coeff: np.ndarray, window: Window, algebra_kind: str
) -> ConnectionField:
    """Inverse of connection_coefficients."""
    coeff = _complex(np.asarray(coeff, dtype=float), algebra_kind)
    return ConnectionField.from_coefficients(window, coeff, algebra_kind)


def gradient_coefficients(conn: ConnectionField, problem: DualityProblem) -> np.ndarray:
    """Analytic gradient of the objective in the real coordinates of A.

    Matches central finite differences of `objective` to relative error
    well below 1e-6 for step 1e-6.
    """
    _require_periodic(conn.window)
    return _coefficient_gradient(_gradient_matrices(conn, problem), conn.algebra)


def _coefficient_gradient(g_slots: np.ndarray, algebra_kind: str) -> np.ndarray:
    """Project sites-last matrix gradients onto the real coordinates of the
    algebra: dR/dc = Re(conj(G) l) along coefficient c of basis element l,
    and Re(i conj(G) l) along i c, so the gradient is `_real` of G conj(l)."""
    out = np.empty(g_slots.shape[-4:] + (4, 3 if algebra_kind == "su2" else 6))

    def body(rows, index):
        z = np.einsum("sij...,aij->...sa", g_slots[index], BASIS.conj())
        out[slice(*rows) if rows else ...] = _real(z, algebra_kind)
    _for_slabs(g_slots.shape[-4:], body)
    return out


def _require_periodic(window: Window) -> None:
    if window.boundary != "periodic":
        raise ValueError("solver operations require a periodic window")


def _gradient_matrices(conn: ConnectionField, problem: DualityProblem, res=None) -> np.ndarray:
    """dR as 2x2 matrices per (axis, site), sites last like `conn.buf`:
    dR = Re sum conj(G) dA entrywise.

    res, if given, is residual(curvature(conn), problem), reused as is."""
    w = conn.window
    if res is None:
        res = residual(curvature(conn), problem)
    # Adjoint of the residual operator a F + b S F applied to the residual
    # itself: 2 (conj(a) res + conj(b) S^T res), S^T the star moves read
    # backwards; the factor 2 is exact in the coefficients.
    a, b = problem.coefficients
    g_f = _residual(res.buf, w, problem.metric, 2 * a.conjugate(), 2 * b.conjugate(), True)
    grad = np.zeros_like(conn.buf)

    def pull_back(rows, index, group):
        planes, g_s, n = PLANES[group], g_f[index][group], group.stop - group.start
        (a_slots, a_offsets), (g_slots, g_offsets) = _pull_back_reads(group.start, group.stop)
        # A^dag is conj(A) with its entry axes swapped (a shifted dagger is the
        # dagger of the shift)
        dag = shifted_read(conn.buf, w, a_offsets, rows=rows, slots=a_slots)
        np.conjugate(dag, out=dag)
        g_down = shifted_read(g_f, w, g_offsets, rows=rows, slots=g_slots)
        # F gets Delta_i A^j - Delta_j A^i + A^i A^j(+e_i) - A^j A^i(+e_j).  A
        # difference term and the product term's shifted factor pull back
        # through the same down-shift into the same component: (g + A^k^dag g)
        # at -e_k, minus g_s, for k = i into component j and k = j into i.
        # Component j also takes -g_s A^i(+e_j)^dag and component i
        # g_s A^j(+e_i)^dag.  Every component is j in all its planes before
        # it is i in any, so a group's j terms go before its i terms and each
        # component sums its terms in plane order.
        for side, k, up, first, second in ((1, 0, dag[n:2 * n], np.add, np.subtract),
                                           (0, 1, dag[:n], np.subtract, np.add)):
            a_down, g_d = dag[(2 + k) * n:(3 + k) * n], g_down[k * n:(k + 1) * n]
            t = mul(a_down.swapaxes(-6, -5), g_d)
            t += g_d
            t -= g_s
            u = mul(g_s, up.swapaxes(-6, -5))
            for m, plane in enumerate(planes):
                target = grad[index][plane[side] - 1]
                first(target, t[m], target)
                second(target, u[m], target)
    _for_tiles(w.dims, pull_back)
    return grad


@functools.lru_cache(maxsize=16)
def _pull_back_reads(lo: int, hi: int) -> tuple:
    """(slots, offsets) of the two stacked reads of a pull-back tile of
    planes [lo, hi): A^j(+e_i), A^i(+e_j), A^i(-e_i) and A^j(-e_j) of each
    plane in turn from the connection, g(-e_i) and g(-e_j) from the plane
    slots of g."""
    i, j = zip(*PLANES[lo:hi])
    si, sj = tuple(k - 1 for k in i), tuple(k - 1 for k in j)
    down = tuple(_DOWN[k] for k in i + j)
    return (sj + si + si + sj, tuple(_UP[k] for k in i + j) + down), (tuple(range(lo, hi)) * 2, down)


def solve(conn0: ConnectionField, cfg: SolveConfig) -> tuple[ConnectionField, SolveReport]:
    """Fourier-preconditioned L-BFGS with an exact line search on the
    residual objective.

    Directions come from the two-loop recursion over the last LBFGS_MEMORY
    pairs (step s, gradient change y) with s.y > 0, started from H0 = gamma P
    (module docstring); with none stored, or if the recursion gives no
    descent direction (the memory is then cleared), the direction is -P g.
    The step t minimises the quartic R(A + t d) (`_exact_step`) and is taken
    if it lowers R, else the solve stops ("no_decrease").  The residual at
    the new point is interpolated; it is recomputed from the connection
    when the interpolated R reaches cfg.tol, at max_iter and at any other
    stop, so final_residual is objective(solved) bitwise.  Trace rows are
    (iteration, objective, t); deterministic in (conn0, cfg).  Raises
    ValueError if the values of conn0 are not in its algebra.
    """
    start = time.perf_counter()
    _require_periodic(conn0.window)
    window, kind, problem = conn0.window, conn0.algebra, cfg.problem
    if kind in MEMBERSHIP and not MEMBERSHIP[kind](conn0.data):
        # the coordinates below would project them onto the algebra
        raise ValueError(f"connection values are not in {kind}")
    coeff = connection_coefficients(conn0)
    shape = coeff.shape
    conn = connection_from_coefficients(coeff, window, kind)
    obj, res = _objective_and_residual(conn, problem)
    trace = [(0, obj, 0.0)]
    report = SolveReport(iterations=0, final_residual=obj, residual_trace=trace, evaluations=1)
    if obj <= cfg.tol:
        report.converged, report.stop_reason = True, "converged"
        report.wall_s = time.perf_counter() - start
        return conn, report

    # gradients and directions are flat, so every dot product is one BLAS
    # call; the iterate moves by the matrices of each step
    precondition = _preconditioner(window.dims, problem, kind)
    history = deque(maxlen=LBFGS_MEMORY)
    g = _coefficient_gradient(_gradient_matrices(conn, problem, res), kind).ravel()
    report.gradient_evaluations += 1
    for it in range(1, cfg.max_iter + 1):
        if float(g @ g) == 0.0:
            report.stop_reason = "stationary"
            break
        d = _lbfgs_direction(g, history, precondition) if history else None
        if d is None or not float(g @ d) < 0.0:
            history.clear()
            d = -precondition(g)
        step = connection_from_coefficients(d.reshape(shape), window, kind)
        r1, r2 = _line_residuals(conn, step, res, problem)
        report.evaluations += 1
        t = _exact_step(_quartic(res.buf, r1, r2))
        new_res = res.buf + t * r1 + (t * t) * r2
        new_obj = float(np.vdot(new_res, new_res).real)
        if not new_obj < obj:
            report.stop_reason = "no_decrease"
            break
        conn = conn + t * step
        obj, res = new_obj, CurvatureField._from_buf(window, new_res, "general")
        report.iterations = it
        if obj <= cfg.tol or it == cfg.max_iter:
            # the interpolated residual carries the rounding of every step
            obj, res = _objective_and_residual(conn, problem)
            report.evaluations += 1
        trace.append((it, obj, t))
        if obj <= cfg.tol:
            report.converged, report.stop_reason = True, "converged"
            break
        g_new = _coefficient_gradient(_gradient_matrices(conn, problem, res), kind).ravel()
        report.gradient_evaluations += 1
        s, y = t * d, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            history.append((s, y, sy))
        g = g_new
    if report.stop_reason in ("stationary", "no_decrease"):
        obj = _objective_and_residual(conn, problem)[0]
        report.evaluations += 1
    report.final_residual = obj
    report.grad_norm = float(np.linalg.norm(g))
    report.wall_s = time.perf_counter() - start
    return conn, report


def _line_residuals(conn: ConnectionField, step: ConnectionField, res, problem: DualityProblem):
    """r1, r2 with residual(curvature(A + t d)) = res.buf + t r1 + t^2 r2 for
    A = conn, d = step.  The curvature is quadratic in A: r2 is the residual
    of the product terms of d alone, d^i d^j(+e_i) - d^j d^i(+e_j) per
    plane, and r1 = r(1) - res.buf - r2, r(1) the residual at A + d.

    The curvature pass (`curvature._curvature`) over both[k] = (d^k,
    (A + d)^k), with the difference terms in the second half only, gives
    (products of d, F(A + d)) per plane, and one residual pass
    (`duality._residual`) over both halves follows.  Every product and sum
    is elementwise the one `curvature` and `residual` take, so r1 and r2 are
    bitwise those of two residual evaluations; the line search counts as one
    evaluation (`SolveReport.evaluations`)."""
    w = conn.window
    both = np.empty((4, 2) + step.buf.shape[1:], dtype=complex)
    both[:, 0] = step.buf
    np.add(conn.buf, step.buf, out=both[:, 1])
    a, b = problem.coefficients
    residuals = _residual(_curvature(both, w, linear=(slice(None), 1)), w, problem.metric, a, b)
    r2 = np.ascontiguousarray(residuals[:, 0])
    r1 = residuals[:, 1] - res.buf
    r1 -= r2
    return r1, r2


def _quartic(r0: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> tuple:
    """Coefficients c0..c4 (lowest first) of R(t) = ||r0 + t r1 + t^2 r2||^2."""
    def dot(x, y):
        return float(np.vdot(x, y).real)

    return (dot(r0, r0), 2 * dot(r0, r1), dot(r1, r1) + 2 * dot(r0, r2),
            2 * dot(r1, r2), dot(r2, r2))


def _exact_step(c: tuple) -> float:
    """The positive real root of R'(t) with the lowest R(t), for the quartic
    R with coefficients c (lowest first); 1 if there is none."""
    if not all(map(math.isfinite, c)):
        return 1.0
    c0, c1, c2, c3, c4 = c
    p0 = 4 * c4
    if p0 == 0 or c1 == 0:  # np.roots trims leading and trailing zeros
        roots = np.roots([p0, 3 * c3, 2 * c2, c1])
    else:  # the companion matrix that np.roots builds
        roots = np.linalg.eigvals(np.array([[-(3 * c3) / p0, -(2 * c2) / p0, -c1 / p0],
                                            [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    ts = [r.real for r in roots if r.imag == 0 and r.real > 0]
    return min(ts, key=lambda t: c0 + t * (c1 + t * (c2 + t * (c3 + t * c4))), default=1.0)


def _lbfgs_direction(g: np.ndarray, history: deque, precondition) -> np.ndarray:
    """-H g by the two-loop recursion (Nocedal & Wright, Algorithm 7.4) on
    flat vectors, from H0 = gamma P with P = `precondition` and
    gamma = s.y / y.P y of the newest pair."""
    q = g.copy()
    alphas = []
    for s, y, sy in reversed(history):
        alpha = float(s @ q) / sy
        q -= alpha * y
        alphas.append(alpha)
    _, y, sy = history[-1]
    q, p_y = precondition(np.stack([q, y]))
    q *= sy / float(y @ p_y)
    for (s, y, sy), alpha in zip(history, reversed(alphas)):
        q += (alpha - float(y @ q) / sy) * s
    return -q


def _hessian_symbol(dims: tuple, problem: DualityProblem, algebra_kind: str) -> np.ndarray:
    """Hessian of the objective at A = 0 per momentum p, shape dims + (4, 4).

    Column c of C(p) is the transform (`_dft`) of the response of
    `residual(curvature(.))` to a unit impulse in component c at the origin:
    an impulse in one component meets no product term, and the kernels act
    on each matrix entry alike, so entry (0, 0) of the response is enough.
    It lives on offsets -1..1 per axis, so it is taken on a window of
    min(n, 3) sites per axis, whose site k is offset k, or -1 at k = 2.
    M = C^H C acts on complex coefficients (sl2c); for real su2 coefficients
    the Hessian is Re M, whose symbol is (M(p) + conj M(-p)) / 2.
    """
    window = Window(tuple(min(n, 3) for n in dims), "periodic")
    response = np.zeros((6, 4) + dims, dtype=complex)
    at = (slice(None),) + np.ix_(*([0, 1, n - 1][: min(n, 3)] for n in dims))
    for axis in range(4):
        impulse = ConnectionField.zeros(window, "general")
        impulse.buf[axis, 0, 0, 0, 0, 0, 0] = 1.0
        response[:, axis][at] = residual(curvature(impulse), problem).buf[:, 0, 0]
    c = _dft(dims[:2]) @ (response.reshape(24, -1, dims[2] * dims[3]) @ _dft(dims[2:]))
    c = c.reshape(response.shape)
    m = np.einsum("ta...,tb...->...ab", c.conj(), c)
    if algebra_kind == "su2":
        m = 0.5 * (m + m[np.ix_(*((-np.arange(n)) % n for n in dims))].conj())
    return m


def _dft(dims: tuple) -> np.ndarray:
    """Matrix e^{-i p.k} of the joint DFT over site axes `dims`, sites row-major."""
    f = np.ones((1, 1))
    for n in dims:
        k = np.arange(n)
        f = np.kron(f, np.exp(-2j * np.pi * np.outer(k, k) / n))
    return f


@functools.lru_cache(maxsize=16)
def _preconditioner(dims: tuple, problem: DualityProblem, algebra_kind: str):
    """P = (M + mu I)^-1 per momentum as a function on flat coordinate vectors.

    The transform is two matrix products, one per pair of site axes (the
    DFT matrices of axes 1-2 and 3-4), on the coordinates arranged
    components-first; P then meets each momentum as four broadcast
    products.  A window whose symbol vanishes (every axis of length 1)
    gets P = I.
    """
    lam, vec = np.linalg.eigh(_hessian_symbol(dims, problem, algebra_kind))
    top = float(lam.max())
    mu = PRECONDITIONER_SHIFT * top if top > 0.0 else 1.0
    n_sites, n12, n34 = math.prod(dims), dims[0] * dims[1], dims[2] * dims[3]
    inv = (vec / (lam + mu)[..., None, :]) @ vec.conj().swapaxes(-1, -2)
    # (row, column, 1, site): row i of P(p) meets column x[j] at every site
    inv = np.ascontiguousarray(inv.reshape(n_sites, 4, 4).transpose(1, 2, 0)[:, :, None, :])
    f12, f34 = _dft(dims[:2]), _dft(dims[2:])
    b12, b34 = f12.conj() / n12, f34.conj() / n34
    width = 3 if algebra_kind == "su2" else 6  # real coordinates per slot

    def apply(v: np.ndarray) -> np.ndarray:
        """P v of a flat vector v, or of each row of a stack (k, n) of them."""
        x = _complex(v.reshape(-1, n_sites, 4, width), algebra_kind).transpose(0, 2, 3, 1)
        # DFT matrices are symmetric, so the axes 3-4 product is x @ f34
        x = (f12 @ (x.reshape(-1, n34) @ f34).reshape(-1, n12, n34)).reshape(-1, 4, 3, n_sites)
        x = (inv[:, 0] * x[:, None, 0] + inv[:, 1] * x[:, None, 1] + inv[:, 2] * x[:, None, 2]
             + inv[:, 3] * x[:, None, 3])
        x = (b12 @ (x.reshape(-1, n34) @ b34).reshape(-1, n12, n34)).reshape(-1, 4, 3, n_sites)
        return _real(x.transpose(0, 3, 1, 2), algebra_kind).reshape(v.shape)

    return apply
