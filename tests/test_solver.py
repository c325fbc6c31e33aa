from __future__ import annotations

import math
import sys
from collections import deque

import numpy as np
import pytest

from oracle import exact_step_by_np_roots, hessian_symbol_closed_form, line_residuals_two_pass
from sdlattice.algebra import basis, is_sl2c, is_su2
from sdlattice.cochain import ConnectionField, shifted_read
from sdlattice.curvature import constant_connection, curvature, random_connection
from sdlattice.duality import DualityProblem, residual, scalar_residual
from sdlattice.hodge import star
from sdlattice import solver
from sdlattice.lattice import Window
from sdlattice.solver import (
    LBFGS_MEMORY,
    SolveConfig,
    SolveReport,
    connection_coefficients,
    connection_from_coefficients,
    gradient_coefficients,
    objective,
    solve,
)
from sdlattice.solver import _lbfgs_direction

EUCLID_SD = DualityProblem("euclid", "self_dual")
ALL_PROBLEMS = tuple(
    DualityProblem(m, o)
    for m in ("euclid", "mink")
    for o in ("self_dual", "anti_self_dual")
)


def test_objective_zero_connection():
    w = Window((3, 3, 3, 3), "periodic")
    a = ConnectionField.zeros(w)
    for p in ALL_PROBLEMS:
        assert objective(a, p) == 0.0


def test_objective_constant_equal_components():
    w = Window((3, 3, 3, 3), "periodic")
    a = constant_connection(w, basis(1))
    assert objective(a, EUCLID_SD) == 0.0


def test_objective_constant_pair_value():
    # A^1 = l1, A^2 = l2 on a 2^4 window, euclid self-dual:
    # F^{12} = l3 everywhere, residual planes 12 and 34 each carry
    # ||l3||^2 = 1/2 per site -> R = 16 * (1/2 + 1/2) = 16
    w = Window((2, 2, 2, 2), "periodic")
    zero = np.zeros((2, 2), dtype=complex)
    a = constant_connection(w, [basis(1), basis(2), zero, zero])
    assert objective(a, EUCLID_SD) == pytest.approx(16.0)


def test_objective_matches_scalar_residual_squared():
    w = Window((3, 3, 3, 3), "periodic")
    for seed, p in enumerate(ALL_PROBLEMS):
        kind = "su2" if p.metric == "euclid" else "sl2c"
        a = random_connection(w, kind, seed=seed, scale=0.3)
        assert objective(a, p) == pytest.approx(
            scalar_residual(curvature(a), p) ** 2, rel=1e-14
        )


def test_objective_requires_periodic_window():
    a = ConnectionField.zeros(Window((3, 3, 3, 3), "zero"))
    with pytest.raises(ValueError):
        objective(a, EUCLID_SD)
    with pytest.raises(ValueError):
        gradient_coefficients(a, EUCLID_SD)


def test_coefficient_round_trip():
    w = Window((3, 3, 3, 3), "periodic")
    for kind, n in (("su2", 3), ("sl2c", 6)):
        a = random_connection(w, kind, seed=2)
        c = connection_coefficients(a)
        assert c.shape == w.dims + (4, n)
        assert c.dtype == np.float64
        back = connection_from_coefficients(c, w, kind)
        assert np.allclose(back.data, a.data, atol=1e-15)
        member = is_su2 if kind == "su2" else is_sl2c
        assert member(back.data[0, 0, 0, 0, 0])
    general = ConnectionField.zeros(w, algebra="general")
    with pytest.raises(ValueError):
        connection_coefficients(general)
    with pytest.raises(ValueError):
        connection_from_coefficients(np.zeros(w.dims + (4, 3)), w, "general")


def test_gradient_zero_at_flat_connection():
    w = Window((3, 3, 3, 3), "periodic")
    a = ConnectionField.zeros(w)
    for p in ALL_PROBLEMS:
        assert not np.any(gradient_coefficients(a, p))


def test_gradient_matches_finite_differences():
    h = 1e-6
    rng = np.random.default_rng(3)
    w = Window((3, 3, 3, 3), "periodic")
    for p in (EUCLID_SD, DualityProblem("mink", "self_dual")):
        kind = "su2" if p.metric == "euclid" else "sl2c"
        a = random_connection(w, kind, seed=11, scale=0.4)
        coeff = connection_coefficients(a)
        g = gradient_coefficients(a, p)
        flat_g = g.reshape(-1)
        flat_c = coeff.reshape(-1)
        picks = rng.choice(flat_c.size, size=12, replace=False)
        for idx in picks:
            cp = flat_c.copy()
            cp[idx] += h
            up = objective(connection_from_coefficients(cp.reshape(coeff.shape), w, kind), p)
            cp[idx] -= 2 * h
            dn = objective(connection_from_coefficients(cp.reshape(coeff.shape), w, kind), p)
            fd = (up - dn) / (2 * h)
            scale = max(abs(fd), abs(flat_g[idx]), 1e-6)
            assert abs(fd - flat_g[idx]) / scale <= 1e-6


def test_gradient_directional_derivative():
    w = Window((3, 3, 3, 3), "periodic")
    a = random_connection(w, "su2", seed=6, scale=0.3)
    d = random_connection(w, "su2", seed=7, scale=1.0)
    ca = connection_coefficients(a)
    cd = connection_coefficients(d)
    g = gradient_coefficients(a, EUCLID_SD)
    analytic = float(np.sum(g * cd))
    h = 1e-6

    def at(t):
        return objective(connection_from_coefficients(ca + t * cd, w, "su2"), EUCLID_SD)

    fd = (at(h) - at(-h)) / (2 * h)
    assert fd == pytest.approx(analytic, rel=1e-6)


def test_gradient_field_shape():
    w = Window((3, 3, 3, 3), "periodic")
    a = random_connection(w, "sl2c", seed=9, scale=0.2)
    coeff = gradient_coefficients(a, DualityProblem("mink", "anti_self_dual"))
    g = connection_from_coefficients(coeff, w, "sl2c")
    assert isinstance(g, ConnectionField)
    assert g.algebra == "sl2c"
    assert is_sl2c(g.data[1, 2, 0, 1, 3])


def test_gradient_read_budget(monkeypatch):
    # on 3^4 every kernel takes its six planes as one stack (one slab, one
    # group of six), so one gradient reads five times: the curvature, the
    # star, the adjoint star, and the pull-back's reads of A and of g (each
    # read of g at -e_k serves a difference term and a product term); no
    # np.roll anywhere along the way
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return shifted_read(*args, **kwargs)

    def no_roll(*args, **kwargs):
        raise AssertionError("np.roll called")

    # rebind shifted_read wherever a module bound it by name (sys.modules:
    # the package re-exports names, so attribute access yields functions)
    for name, module in list(sys.modules.items()):
        if name.startswith("sdlattice.") and getattr(module, "shifted_read", None) is shifted_read:
            monkeypatch.setattr(module, "shifted_read", counted)
    monkeypatch.setattr(np, "roll", no_roll)
    w = Window((3, 3, 3, 3), "periodic")
    a = random_connection(w, "su2", seed=8, scale=0.3)
    gradient_coefficients(a, EUCLID_SD)
    assert calls == 5
    # every kernel's reads are counted: one each for curvature, star and residual
    calls = 0
    f = curvature(a)
    star(f, "euclid")
    residual(f, EUCLID_SD)
    assert calls == 3


def test_lbfgs_direction_matches_dense_bfgs_inverse_hessian():
    # the two-loop recursion applies the BFGS inverse-Hessian updates of its
    # (s, y) history, oldest first, to H0 = gamma P, gamma = s.y / y.P y of
    # the newest pair, P the preconditioner
    rng = np.random.default_rng(3)
    n = 48
    m = rng.normal(size=(n, n))
    hessian = m @ m.T + n * np.eye(n)  # positive definite, so every s.y > 0
    k = rng.normal(size=(n, n))
    p = k @ k.T / n + 0.1 * np.eye(n)  # a symmetric positive definite P
    history = deque(maxlen=LBFGS_MEMORY)
    for _ in range(LBFGS_MEMORY + 3):
        s = rng.normal(size=n)
        y = hessian @ s
        history.append((s, y, float(s @ y)))
    g = rng.normal(size=n)
    _, y_last, sy_last = history[-1]
    h = sy_last / float(y_last @ p @ y_last) * p
    for s, y, sy in history:
        v = np.eye(n) - np.outer(y, s) / sy
        h = v.T @ h @ v + np.outer(s, s) / sy
    # P takes a flat vector or a stack of them as rows; p is symmetric
    d = _lbfgs_direction(g, history, lambda x: x @ p)
    assert d.shape == (n,)
    np.testing.assert_allclose(d, -(h @ g), rtol=1e-12)


def _apply_symbol(symbol, v, dims, kind):
    """The operator with Fourier symbol `symbol` on flat real coordinates, by
    numpy.fft.  For su2 the result stays complex: a symbol that is not the
    symbol of a real operator shows as an imaginary part."""
    x = v.reshape(dims + (4, -1))
    if kind == "sl2c":
        x = x[..., :3] + 1j * x[..., 3:]
    y = np.fft.ifftn(symbol @ np.fft.fftn(x, axes=(0, 1, 2, 3)), axes=(0, 1, 2, 3))
    if kind == "su2":
        return y.ravel()
    return np.concatenate([y.real, y.imag], axis=-1).ravel()


@pytest.mark.parametrize("kind", ["su2", "sl2c"])
@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: f"{p.metric}-{p.orientation}")
def test_hessian_symbol_is_the_gradient_at_small_fields(kind, problem):
    # at A = eps v the gradient is eps H v + O(eps^2), H the Hessian at A = 0;
    # on the second window a read along axis 3 wraps onto the site itself
    for dims in ((3, 2, 3, 2), (3, 2, 1, 2)):
        w = Window(dims, "periodic")
        v = connection_coefficients(random_connection(w, kind, seed=12, scale=1.0)).ravel()
        eps = 1e-7
        a = connection_from_coefficients(eps * v.reshape(dims + (4, -1)), w, kind)
        g = gradient_coefficients(a, problem).ravel() / eps
        hv = _apply_symbol(solver._hessian_symbol(dims, problem, kind), v, dims, kind)
        assert np.linalg.norm(g - hv) <= 1e-6 * np.linalg.norm(hv)


@pytest.mark.parametrize("kind", ["su2", "sl2c"])
@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: f"{p.metric}-{p.orientation}")
@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 2, 2, 1), (4, 3, 2, 5), (1, 1, 1, 1)])
def test_hessian_symbol_matches_the_closed_form(kind, problem, dims):
    # the symbol read off the kernels' impulse responses against the curl
    # and the star written out in Fourier space; on 1^4 both vanish exactly
    symbol = solver._hessian_symbol(dims, problem, kind)
    closed = hessian_symbol_closed_form(dims, problem, kind)
    assert symbol.shape == closed.shape == dims + (4, 4)
    assert np.abs(symbol - closed).max() <= 1e-14 * np.abs(closed).max()


def full_window_symbol(dims, problem, kind):
    """The Hessian symbol from impulse responses taken on the whole window."""
    window = Window(dims, "periodic")
    response = np.empty((6, 4) + dims, dtype=complex)
    for axis in range(4):
        impulse = ConnectionField.zeros(window, "general")
        impulse.buf[axis, 0, 0, 0, 0, 0, 0] = 1.0
        response[:, axis] = residual(curvature(impulse), problem).buf[:, 0, 0]
    dft = solver._dft
    c = dft(dims[:2]) @ (response.reshape(24, -1, dims[2] * dims[3]) @ dft(dims[2:]))
    c = c.reshape(response.shape)
    m = np.einsum("ta...,tb...->...ab", c.conj(), c)
    if kind == "su2":
        m = 0.5 * (m + m[np.ix_(*((-np.arange(n)) % n for n in dims))].conj())
    return m


@pytest.mark.parametrize("kind", ["su2", "sl2c"])
@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: f"{p.metric}-{p.orientation}")
def test_hessian_symbol_from_a_small_window_is_bitwise_the_full_window_one(kind, problem):
    # the responses live on offsets -1..1 per axis, so _hessian_symbol takes
    # them on min(n, 3) sites per axis; axes of 1 to 5 sites
    for dims in ((1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (5, 5, 5, 5),
                 (4, 3, 2, 5), (5, 1, 4, 2), (1, 5, 3, 4), (2, 4, 5, 1), (3, 5, 1, 4)):
        symbol = solver._hessian_symbol(dims, problem, kind)
        assert symbol.tobytes() == full_window_symbol(dims, problem, kind).tobytes(), dims


# Momenta p != 0 at which the sl2c/mink symbol has a null direction beyond the
# gauge one; on (2,3,5,7), whose dims are pairwise coprime, the only diagonal
# momentum is 0
MINK_EXTRA_NULL_MOMENTA = {(2, 2, 2, 2): 3, (3, 3, 3, 3): 6, (4, 4, 4, 4): 15, (4, 4, 2, 2): 5,
                           (2, 3, 5, 7): 0}


@pytest.mark.parametrize("kind", ["su2", "sl2c"])
@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: f"{p.metric}-{p.orientation}")
@pytest.mark.parametrize("dims", list(MINK_EXTRA_NULL_MOMENTA))
def test_hessian_symbol_null_space_counts(kind, problem, dims):
    # per momentum p, the Hessian at A = 0 vanishes on the four constants at
    # p = 0 and on the gauge direction (e^{ip_j} - 1)_j elsewhere; only
    # sl2c/mink has one more null direction, at some diagonal momenta
    # (sum_j k_j / N_j an integer), the modes the diagonal shift leaves fixed.
    # Null eigenvalues are at most 4.2e-16 of the top, the rest at least 3.6e-4.
    symbol = solver._hessian_symbol(dims, problem, kind)
    eig = np.linalg.eigvalsh(symbol)
    top = eig.max()
    null = eig < 1e-10 * top
    assert np.abs(eig[null]).max() <= 1e-14 * top
    assert eig[~null].min() >= 1e-4 * top
    counts = null.sum(axis=-1)
    k = np.stack(np.meshgrid(*map(np.arange, dims), indexing="ij"), axis=-1)
    gauge = np.exp(2j * np.pi * k / np.array(dims)) - 1
    assert np.abs(np.einsum("...ab,...b->...a", symbol, gauge)).max() <= 1e-14 * top
    extra = MINK_EXTRA_NULL_MOMENTA[dims] if (kind, problem.metric) == ("sl2c", "mink") else 0
    assert counts.reshape(-1)[0] == 4
    assert np.sort(counts.reshape(-1)[1:]).tolist() == [1] * (counts.size - 1 - extra) + [2] * extra
    diagonal = (k / np.array(dims)).sum(axis=-1)
    assert np.allclose(diagonal[counts == 2], np.round(diagonal[counts == 2]))


@pytest.mark.parametrize("kind", ["su2", "sl2c"])
@pytest.mark.parametrize("metric", ["euclid", "mink"])
@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 1, 2)])
def test_preconditioner_is_the_shifted_inverse_hessian(kind, metric, dims):
    # dense P: symmetric positive definite in the real coordinates, with
    # spectrum 1 / (lambda + mu), and P (H + mu) = I; the second window
    # tells every site axis apart
    problem = DualityProblem(metric, "self_dual")
    symbol = solver._hessian_symbol(dims, problem, kind)
    top = np.linalg.eigvalsh(symbol).max()
    mu = solver.PRECONDITIONER_SHIFT * top
    precondition = solver._preconditioner(dims, problem, kind)
    n = math.prod(dims) * 4 * (3 if kind == "su2" else 6)
    p = np.stack([precondition(e) for e in np.eye(n)], axis=1)
    np.testing.assert_allclose(p, p.T, rtol=0, atol=1e-12 / mu)
    eig = np.linalg.eigvalsh(p)
    assert eig.min() >= (1 - 1e-9) / (top + mu)
    assert eig.max() <= (1 + 1e-9) / mu
    v = np.random.default_rng(4).normal(size=n)
    hv = _apply_symbol(symbol, v, dims, kind).real
    np.testing.assert_allclose(precondition(hv + mu * v), v,
                               rtol=0, atol=1e-12 * np.abs(v).max())


@pytest.mark.parametrize("kind, problem", [("su2", EUCLID_SD),
                                           ("sl2c", DualityProblem("mink", "anti_self_dual"))],
                         ids=["su2-euclid-sd", "sl2c-mink-asd"])
@pytest.mark.parametrize("dims", [(2, 2, 2, 1), (2, 2, 2, 2), (3, 3, 3, 3), (3, 4, 2, 5),
                                  (4, 4, 4, 4), (2, 3, 5, 7), (8, 8, 8, 8)], ids=str)
def test_a_stacked_preconditioner_apply_is_the_single_applies(kind, problem, dims):
    # the solver applies P once per iteration, to the stack [q, y]; a BLAS
    # may round a stacked DFT product differently, so the bound is 1e-15
    precondition = solver._preconditioner(dims, problem, kind)
    n = math.prod(dims) * 4 * (3 if kind == "su2" else 6)
    v = np.random.default_rng(8).normal(size=(3, n))
    stacked = precondition(v)
    assert stacked.shape == v.shape
    for row, out in zip(v, stacked):
        single = precondition(row)
        assert single.shape == (n,)
        assert np.max(np.abs(out - single)) <= 1e-15 * np.max(np.abs(single))


def test_preconditioner_is_the_identity_on_a_one_site_window():
    # every momentum is 0 there, so the symbol vanishes and there is no mu
    v = np.random.default_rng(5).normal(size=4 * 3)
    assert np.array_equal(solver._preconditioner((1, 1, 1, 1), EUCLID_SD, "su2")(v), v)


# (algebra, metric, orientation, dims): iterations to tol 1e-8 from
# random_connection(seed 0, scale 1e-2) with H0 = (s.y / y.y) I; the first
# six are the benchmark's solve problems
UNPRECONDITIONED_ITERATIONS = {
    ("su2", "euclid", "self_dual", (3, 3, 3, 3)): 24,
    ("su2", "euclid", "anti_self_dual", (3, 3, 3, 3)): 25,
    ("sl2c", "mink", "self_dual", (2, 2, 2, 2)): 30,
    ("sl2c", "mink", "anti_self_dual", (2, 2, 2, 2)): 32,
    ("sl2c", "mink", "self_dual", (2, 2, 2, 1)): 21,
    ("sl2c", "mink", "anti_self_dual", (2, 2, 2, 1)): 22,
    ("su2", "mink", "self_dual", (3, 3, 3, 3)): 24,
    ("sl2c", "euclid", "self_dual", (3, 3, 3, 3)): 42,
    ("sl2c", "euclid", "anti_self_dual", (3, 3, 3, 3)): 41,
    ("su2", "euclid", "self_dual", (4, 4, 4, 4)): 56,
    ("sl2c", "mink", "self_dual", (3, 3, 3, 3)): 165,
}


def test_preconditioned_solve_takes_no_more_iterations():
    iterations = {}
    for (kind, metric, orientation, dims), before in UNPRECONDITIONED_ITERATIONS.items():
        a0 = random_connection(Window(dims, "periodic"), kind, seed=0, scale=1e-2)
        cfg = SolveConfig(DualityProblem(metric, orientation), max_iter=1000, tol=1e-8)
        # a cold preconditioner cache, then a warm one: the same run
        solver._preconditioner.cache_clear()
        out, report = solve(a0, cfg)
        out2, report2 = solve(a0, cfg)
        assert report.stop_reason == "converged"
        assert report.iterations <= before
        values = [r for _, r, _ in report.residual_trace]
        assert all(b < a for a, b in zip(values, values[1:]))
        report.wall_s = report2.wall_s = 0.0
        assert report == report2
        assert np.array_equal(out.buf, out2.buf)
        iterations[kind, metric, orientation, dims] = report.iterations
    # plain L-BFGS takes 154 iterations on the six benchmark problems, the
    # preconditioned solver with Armijo backtracking 70 and with the exact
    # line search 37
    assert sum(list(iterations.values())[:6]) <= 50


@pytest.mark.parametrize(
    "kind, problem, scale, max_iter",
    # Armijo backtracking stops at 3000 with R = 4.4e-8 on the first and
    # takes 389 iterations on the second
    [("su2", EUCLID_SD, 1.0, 3000),
     ("sl2c", DualityProblem("mink", "self_dual"), 0.1, 400)],
)
def test_solve_converges_from_a_far_start(kind, problem, scale, max_iter):
    # far from A = 0 the preconditioner is no longer the inverse Hessian
    a0 = random_connection(Window((3, 3, 3, 3), "periodic"), kind, seed=0, scale=scale)
    out, report = solve(a0, SolveConfig(problem, max_iter=max_iter, tol=1e-8))
    assert report.stop_reason == "converged"
    assert report.final_residual == objective(out, problem) <= 1e-8


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(EUCLID_SD, max_iter=0)
    with pytest.raises(ValueError):
        SolveConfig(EUCLID_SD, tol=0.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolveConfig(EUCLID_SD, tol=value)
    # counts are integers: a float max_iter used to fail inside solve, and
    # True ran one iteration
    for kwargs in ({"max_iter": 2.5}, {"max_iter": True}, {"max_iter": 3.0}):
        with pytest.raises(ValueError):
            SolveConfig(EUCLID_SD, **kwargs)
    # tol is a real number: True ran as tol 1.0 and "1e-8" raised TypeError
    for value in (True, "1e-8"):
        with pytest.raises(ValueError):
            SolveConfig(EUCLID_SD, tol=value)
    assert SolveConfig(EUCLID_SD, tol=np.float32(1e-8)).tol == np.float32(1e-8)
    # the problem is a DualityProblem: a metric name used to fail inside solve
    for problem in ("euclid", ("euclid", "self_dual"), None):
        with pytest.raises(ValueError, match="DualityProblem"):
            SolveConfig(problem)
    cfg = SolveConfig(EUCLID_SD, max_iter=np.int64(3), tol=np.float64(1e-8))
    a0 = random_connection(Window((2, 2, 2, 2), "periodic"), "su2", seed=0, scale=1e-2)
    assert solve(a0, cfg)[1].iterations <= 3


@pytest.mark.parametrize("orientation", ["self_dual", "anti_self_dual"])
def test_su2_minkowski_objective_is_twice_the_curvature_norm(orientation):
    # su(2) + R I is closed under products, so <F, *F> is real and the cross
    # term of |a F + b *F|^2 with conj(a) b = +-i vanishes: R = 2 |F|^2
    # (measured max |R / |F|^2 - 2| = 6.7e-16)
    problem = DualityProblem("mink", orientation)
    for dims in ((3, 3, 3, 3), (4, 3, 2, 5), (2, 2, 2, 1), (1, 2, 3, 2)):
        for seed in range(5):
            for scale in (0.01, 1.0, 10.0):
                a = random_connection(Window(dims, "periodic"), "su2", seed=seed, scale=scale)
                f2 = float(np.sum(np.abs(curvature(a).buf) ** 2))
                assert abs(objective(a, problem) - 2 * f2) <= 1e-14 * 2 * f2, (dims, seed, scale)


@pytest.mark.parametrize("kind", ["su2", "sl2c"])
@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: f"{p.metric}-{p.orientation}")
def test_solve_flattens_except_sl2c_mink(kind, problem):
    # from a small start, su2 (either metric) and sl2c/euclid reach tol by
    # flattening A: R / |F|^2 stays near 2, the value for a random F.  Only
    # sl2c/mink reaches tol with R well below |F|^2 (measured 1.98-2.00 and
    # 2.8e-5): along the extra null directions of its Hessian at A = 0, R
    # falls as |A|^4 and |F|^2 as |A|^2, so R meets tol first.  That is not a
    # non-flat dual field: |F|^2 falls as tol tightens (2^4: 3.7e-4, 2.6e-8
    # and 3.5e-11 at tol 1e-8, 1e-12 and 1e-16)
    a0 = random_connection(Window((3, 3, 3, 3), "periodic"), kind, seed=0, scale=1e-2)
    out, report = solve(a0, SolveConfig(problem, tol=1e-8))
    assert report.stop_reason == "converged"
    ratio = report.final_residual / float(np.sum(np.abs(curvature(out).buf) ** 2))
    if kind == "sl2c" and problem.metric == "mink":
        assert ratio < 1e-3
    else:
        assert ratio > 1.9


def test_solve_rejects_values_outside_the_algebra():
    # the coordinates would project them onto the algebra without a word
    w = Window((2, 1, 1, 1), "periodic")
    hermitian = np.diag([1.0, -1.0]).astype(complex)  # in sl2c, not in su2
    infinite = np.array([[0, np.inf], [0, 0]], dtype=complex)
    for kind, matrix in (("su2", hermitian), ("sl2c", np.eye(2, dtype=complex)),
                         ("su2", infinite)):
        a = constant_connection(w, matrix, algebra_kind=kind)
        with pytest.raises(ValueError, match=f"not in {kind}"):
            solve(a, SolveConfig(EUCLID_SD))
    # far from the origin the tolerance is relative to the entries: no error
    big = random_connection(w, "su2", seed=1, scale=1e6)
    big.data[..., 0, 0] += 1e-9
    solve(big, SolveConfig(EUCLID_SD, max_iter=1))


def test_solve_flat_start_returns_immediately():
    w = Window((3, 3, 3, 3), "periodic")
    a0 = ConnectionField.zeros(w)
    out, report = solve(a0, SolveConfig(EUCLID_SD, max_iter=50))
    assert report.converged
    assert report.iterations == 0
    assert report.final_residual == 0.0
    assert report.residual_trace == [(0, 0.0, 0.0)]
    assert report.stop_reason == "converged"
    assert (report.evaluations, report.gradient_evaluations) == (1, 0)
    assert not np.any(out.data)


def test_solve_reports_wall_time_and_gradient_norm():
    w = Window((3, 3, 3, 3), "periodic")
    _, flat = solve(ConnectionField.zeros(w), SolveConfig(EUCLID_SD))
    assert flat.grad_norm == 0.0
    assert math.isfinite(flat.wall_s) and flat.wall_s >= 0.0
    a0 = random_connection(w, "su2", seed=0, scale=1e-2)
    # one step short of convergence: the last gradient is taken at the output
    out, capped = solve(a0, SolveConfig(EUCLID_SD, max_iter=1))
    assert capped.stop_reason == "max_iter"
    assert capped.grad_norm == np.linalg.norm(gradient_coefficients(out, EUCLID_SD))
    _, done = solve(a0, SolveConfig(EUCLID_SD, max_iter=1000, tol=1e-8))
    assert done.converged
    for report in (capped, done):
        assert math.isfinite(report.grad_norm) and report.grad_norm > 0.0
        assert math.isfinite(report.wall_s) and report.wall_s >= 0.0


def test_solve_small_perturbation_converges():
    w = Window((3, 3, 3, 3), "periodic")
    a0 = random_connection(w, "su2", seed=0, scale=1e-2)
    cfg = SolveConfig(EUCLID_SD, max_iter=10000, tol=1e-8)
    out, report = solve(a0, cfg)
    assert report.converged
    assert report.final_residual <= 1e-8
    assert report.iterations <= 10000
    # reported figure matches a fresh objective evaluation
    assert objective(out, EUCLID_SD) == report.final_residual
    # iterates stayed in the algebra
    assert is_su2(out.data[1, 0, 2, 1, 2])


def test_solve_reports_evaluation_counts(monkeypatch):
    calls = {"objective": 0, "line": 0, "gradient": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "_objective_and_residual",
                        counted("objective", solver._objective_and_residual))
    monkeypatch.setattr(solver, "_line_residuals", counted("line", solver._line_residuals))
    monkeypatch.setattr(solver, "_gradient_matrices",
                        counted("gradient", solver._gradient_matrices))
    a0 = random_connection(Window((3, 3, 3, 3), "periodic"), "su2", seed=0, scale=1e-2)
    _, report = solve(a0, SolveConfig(EUCLID_SD, max_iter=1000, tol=1e-8))
    assert report.converged
    # the start point, one evaluation at t = 1 per iteration (in the line
    # search) and one recompute of the interpolated residual before the
    # converged stop
    assert report.evaluations >= report.iterations + 1
    assert calls["line"] == report.iterations
    assert report.evaluations == calls["objective"] + calls["line"]
    # one gradient at the start and one per accepted step but the last
    assert report.gradient_evaluations == report.iterations == calls["gradient"]


def test_solve_trace_is_non_increasing():
    # one row per iteration, the start included; the first run stops at
    # max_iter, the second converges and its last row is that iteration
    w = Window((3, 3, 3, 3), "periodic")
    for seed, scale, max_iter, tol, reason in ((1, 5e-2, 400, 1e-10, "max_iter"),
                                                (3, 1e-2, 10000, 1e-8, "converged")):
        a0 = random_connection(w, "su2", seed=seed, scale=scale)
        _, report = solve(a0, SolveConfig(EUCLID_SD, max_iter=max_iter, tol=tol))
        assert report.stop_reason == reason
        values = [r for _, r, _ in report.residual_trace]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert [i for i, _, _ in report.residual_trace] == list(range(report.iterations + 1))
        assert report.final_residual == values[-1]


def test_final_residual_is_the_objective_of_the_returned_field():
    # the solver carries interpolated residuals; it recomputes at every stop
    a0 = random_connection(Window((3, 3, 3, 3), "periodic"), "su2", seed=0, scale=1e-2)
    for max_iter, reason in ((1000, "converged"), (3, "max_iter")):
        out, report = solve(a0, SolveConfig(EUCLID_SD, max_iter=max_iter, tol=1e-8))
        assert report.stop_reason == reason
        assert report.final_residual == objective(out, EUCLID_SD)
        values = [r for _, r, _ in report.residual_trace]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] == report.final_residual


@pytest.mark.parametrize("kind", ["su2", "sl2c"])
@pytest.mark.parametrize("problem", ALL_PROBLEMS)
def test_line_residuals_interpolate_exactly(kind, problem):
    # the curvature is quadratic in A, so along A + t d the residual is
    # r0 + t r1 + t^2 r2 and R is the quartic with coefficients c
    w = Window((3, 2, 2, 2), "periodic")
    a = random_connection(w, kind, seed=6, scale=0.5)
    d = random_connection(w, kind, seed=7, scale=0.5)
    _, r0 = solver._objective_and_residual(a, problem)
    r1, r2 = solver._line_residuals(a, d, r0, problem)
    c = solver._quartic(r0.buf, r1, r2)
    for t in (-1.0, 0.5, 2.0, 3.0):
        a_t = a + t * d
        direct = residual(curvature(a_t), problem).buf
        interpolated = r0.buf + t * r1 + t * t * r2
        assert np.max(np.abs(interpolated - direct)) <= 1e-12 * np.max(np.abs(direct))
        assert np.polynomial.polynomial.polyval(t, c) == pytest.approx(
            objective(a_t, problem), rel=1e-12)


@pytest.mark.parametrize("kind, problem", [("su2", EUCLID_SD),
                                           ("sl2c", DualityProblem("mink", "anti_self_dual"))],
                         ids=["su2-euclid-sd", "sl2c-mink-asd"])
@pytest.mark.parametrize("dims, boundary", [
    *(pytest.param(dims, "periodic", id=str(dims))
      for dims in [(1, 1, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (3, 3, 3, 3), (3, 4, 2, 5),
                   (4, 4, 4, 4), (5, 5, 5, 5), (8, 8, 8, 8), (3, 16, 16, 8)]),
    *(pytest.param(dims, "zero", id=f"{dims}-zero")
      for dims in [(3, 2, 1, 4), (2, 2, 2, 2), (5, 5, 5, 5), (3, 16, 16, 16)])])
def test_line_residuals_are_bitwise_the_two_residual_formula(kind, problem, dims, boundary):
    # one stacked pass over d and A + d gives the bits of the product pass,
    # the curvature at A + d and two residuals: every product and sum is
    # elementwise the same; zero windows meet the zero-filled stacked read
    w = Window(dims, boundary)
    a = random_connection(w, kind, seed=12, scale=0.5)
    d = random_connection(w, kind, seed=13, scale=0.5)
    _, r0 = solver._objective_and_residual(a, problem)
    r1, r2 = solver._line_residuals(a, d, r0, problem)
    o1, o2 = line_residuals_two_pass(a, d, r0, problem)
    assert r1.tobytes() == o1.tobytes()
    assert r2.tobytes() == o2.tobytes()


def test_the_line_search_starts_from_the_objective():
    # R(0) of the quartic and the objective sum R the same way, bitwise
    problem = DualityProblem("mink", "self_dual")
    a = random_connection(Window((2, 2, 2, 2), "periodic"), "sl2c", seed=1)
    d = random_connection(a.window, "sl2c", seed=2)
    _, r0 = solver._objective_and_residual(a, problem)
    r1, r2 = solver._line_residuals(a, d, r0, problem)
    assert solver._quartic(r0.buf, r1, r2)[0] == objective(a, problem)


def test_exact_step_picks_the_lowest_positive_minimum():
    # (t^2 - 5 t + 4)^2 has minima at t = 1 and t = 4; a tilt e t picks one
    well = (16.0, -40.0, 33.0, -10.0, 1.0)
    for tilt, t_min in ((0.5, 1.0), (-0.5, 4.0)):
        c = (well[0], well[1] + tilt) + well[2:]
        assert solver._exact_step(c) == pytest.approx(t_min, abs=0.1)
    assert solver._exact_step((4.0, -4.0, 1.0, 0.0, 0.0)) == pytest.approx(2.0)  # (t - 2)^2
    # no positive critical point, or non-finite coefficients: t = 1
    assert solver._exact_step((1.0, 2.0, 1.0, 0.0, 0.0)) == 1.0
    assert solver._exact_step((1.0, -1.0, float("nan"), 0.0, 1.0)) == 1.0


def test_exact_step_chooses_the_np_roots_root():
    # the companion matrix's eigenvalues are np.roots' own roots; quartics
    # with c4 = 0 or c1 = 0, where np.roots trims zeros, go through it
    rng = np.random.default_rng(21)
    cases = [(1.0, 0.0, -2.0, 0.5, 1.0), (1.0, -3.0, 1.0, 2.0, 0.0), (2.0, 0.0, 1.0, -1.0, 0.0),
             (1.0, -1.0, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 0.0)]
    for n in range(10000):
        c = 10.0 ** rng.uniform(-12, 5, size=5) * np.r_[1, rng.choice([-1, 1], size=3), 1]
        c = [float(x) for x in c]
        if n % 10 == 0:
            c[1] = 0.0
        if n % 10 == 5:
            c[4] = 0.0
        cases.append(tuple(c))
    for c in cases:
        t = solver._exact_step(c)
        assert t == exact_step_by_np_roots(c), c


def test_solve_is_deterministic():
    w = Window((3, 3, 3, 3), "periodic")
    a0 = random_connection(w, "sl2c", seed=2, scale=1e-2)
    cfg = SolveConfig(DualityProblem("mink", "self_dual"), max_iter=200, tol=1e-9)
    out1, rep1 = solve(a0, cfg)
    out2, rep2 = solve(a0, cfg)
    assert np.array_equal(out1.data, out2.data)
    assert rep1.residual_trace == rep2.residual_trace
    assert rep1.final_residual == rep2.final_residual


def test_solve_rejects_zero_boundary():
    a0 = ConnectionField.zeros(Window((3, 3, 3, 3), "zero"))
    with pytest.raises(ValueError):
        solve(a0, SolveConfig(EUCLID_SD))


def test_solve_max_iter_is_respected():
    w = Window((3, 3, 3, 3), "periodic")
    a0 = random_connection(w, "su2", seed=4, scale=0.5)
    cfg = SolveConfig(EUCLID_SD, max_iter=3, tol=1e-30)
    _, report = solve(a0, cfg)
    assert not report.converged
    assert report.iterations <= 3
    assert report.stop_reason == "max_iter"
    assert isinstance(report, SolveReport)


@pytest.mark.parametrize(
    "kind, problem, dims",
    [("su2", EUCLID_SD, (3, 3, 3, 3)),
     ("sl2c", DualityProblem("mink", "self_dual"), (2, 2, 2, 2)),
     ("sl2c", DualityProblem("mink", "anti_self_dual"), (3, 2, 2, 1))],
)
def test_solve_converges_in_few_iterations(kind, problem, dims):
    # plain L-BFGS, H0 = (s.y / y.y) I, needed 24 (3^4), 30 (2^4) and 29
    # (3,2,2,1) iterations; the Fourier preconditioner 12, 13 and 12 with
    # Armijo backtracking and 6, 7 and 6 with the exact line search
    a0 = random_connection(Window(dims, "periodic"), kind, seed=0, scale=1e-2)
    out, report = solve(a0, SolveConfig(problem, max_iter=10000, tol=1e-8))
    assert report.converged
    assert report.stop_reason == "converged"
    assert report.iterations <= 100
    assert objective(out, problem) <= 1e-8


def test_solve_stops_when_no_step_decreases(monkeypatch):
    w = Window((2, 2, 2, 2), "periodic")
    # the quartic's coefficients overflow, so its roots cannot be taken
    huge = random_connection(w, "su2", seed=0, scale=1e60)
    with np.errstate(all="ignore"):
        overflowed = solve(huge, SolveConfig(EUCLID_SD))
    # P = -I turns the first direction uphill: near A = 0 the quartic then
    # has its only critical point at negative t, and t = 1 raises R
    near = random_connection(w, "su2", seed=0, scale=1e-2)
    monkeypatch.setattr(solver, "_preconditioner", lambda *key: np.negative)
    uphill = solve(near, SolveConfig(EUCLID_SD))
    for a0, (out, report) in ((huge, overflowed), (near, uphill)):
        assert report.stop_reason == "no_decrease"
        assert not report.converged
        assert report.iterations == 0
        with np.errstate(all="ignore"):
            assert report.final_residual == objective(a0, EUCLID_SD)
        assert np.array_equal(out.data, connection_from_coefficients(
            connection_coefficients(a0), w, "su2").data)


def test_solve_stops_at_a_stationary_point(monkeypatch):
    w = Window((2, 2, 2, 2), "periodic")
    a0 = random_connection(w, "su2", seed=0, scale=0.1)
    monkeypatch.setattr(solver, "_gradient_matrices",
                        lambda conn, problem, res=None: np.zeros_like(conn.buf))
    _, report = solve(a0, SolveConfig(EUCLID_SD))
    assert report.stop_reason == "stationary"
    assert not report.converged
    assert report.iterations == 0
    assert report.final_residual > 0.0


@pytest.mark.parametrize("kind, problem", [("su2", EUCLID_SD),
                                           ("sl2c", DualityProblem("mink", "self_dual"))])
def test_fused_gradient_is_bitwise_the_public_gradient(kind, problem):
    # solve takes the gradient from the residual its line search computed
    a = random_connection(Window((3, 2, 2, 2), "periodic"), kind, seed=5, scale=0.3)
    obj, res = solver._objective_and_residual(a, problem)
    fused = solver._coefficient_gradient(solver._gradient_matrices(a, problem, res), kind)
    assert obj == objective(a, problem)
    assert np.array_equal(fused, gradient_coefficients(a, problem))


@pytest.mark.parametrize("kind", ["su2", "sl2c"])
def test_coordinate_arrays_are_c_order(kind):
    # the L-BFGS sums walk memory order, so coordinates keep the C order of
    # dims + (4, n) whatever the order of the field buffer they come from
    a = random_connection(Window((3, 2, 1, 2), "periodic"), kind, seed=2, scale=0.3)
    for coeff in (connection_coefficients(a), gradient_coefficients(a, EUCLID_SD)):
        assert coeff.shape == a.window.dims + (4, 3 if kind == "su2" else 6)
        assert coeff.flags.c_contiguous
