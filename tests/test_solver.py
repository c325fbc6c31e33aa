from __future__ import annotations

import numpy as np
import pytest

from sdlattice.algebra import basis, is_sl2c, is_su2
from sdlattice.cochain import ConnectionField
from sdlattice.curvature import constant_connection, curvature, random_connection
from sdlattice.duality import DualityProblem, residual, scalar_residual
from sdlattice import solver
from sdlattice.lattice import Window
from sdlattice.solver import (
    SolveConfig,
    SolveReport,
    connection_coefficients,
    connection_from_coefficients,
    gradient_coefficients,
    objective,
    solve,
)

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


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(EUCLID_SD, max_iter=0)
    with pytest.raises(ValueError):
        SolveConfig(EUCLID_SD, tol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(EUCLID_SD, backtrack=1.0)
    with pytest.raises(ValueError):
        SolveConfig(EUCLID_SD, backtrack=0.0)
    with pytest.raises(ValueError):
        SolveConfig(EUCLID_SD, step0=-1.0)
    with pytest.raises(ValueError):
        SolveConfig(EUCLID_SD, trace_every=0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolveConfig(EUCLID_SD, tol=value)
        with pytest.raises(ValueError):
            SolveConfig(EUCLID_SD, step0=value)


def test_solve_rejects_values_outside_the_algebra():
    # the coordinates would project them onto the algebra without a word
    w = Window((2, 1, 1, 1), "periodic")
    hermitian = np.diag([1.0, -1.0]).astype(complex)  # in sl2c, not in su2
    for kind, matrix in (("su2", hermitian), ("sl2c", np.eye(2, dtype=complex))):
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
    assert not np.any(out.data)


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


def test_solve_trace_is_non_increasing():
    w = Window((3, 3, 3, 3), "periodic")
    a0 = random_connection(w, "su2", seed=1, scale=5e-2)
    cfg = SolveConfig(EUCLID_SD, max_iter=400, tol=1e-10)
    _, report = solve(a0, cfg)
    values = [r for _, r, _ in report.residual_trace]
    assert all(b < a for a, b in zip(values, values[1:]))
    iters = [i for i, _, _ in report.residual_trace]
    assert iters == sorted(iters)
    assert report.final_residual == values[-1]


def test_solve_is_deterministic():
    w = Window((3, 3, 3, 3), "periodic")
    a0 = random_connection(w, "sl2c", seed=2, scale=1e-2)
    cfg = SolveConfig(DualityProblem("mink", "self_dual"), max_iter=200, tol=1e-9)
    out1, rep1 = solve(a0, cfg)
    out2, rep2 = solve(a0, cfg)
    assert np.array_equal(out1.data, out2.data)
    assert rep1.residual_trace == rep2.residual_trace
    assert rep1.final_residual == rep2.final_residual


def test_solve_trace_every_thins_trace():
    w = Window((3, 3, 3, 3), "periodic")
    a0 = random_connection(w, "su2", seed=3, scale=1e-2)
    cfg = SolveConfig(EUCLID_SD, max_iter=10000, tol=1e-8, trace_every=25)
    _, report = solve(a0, cfg)
    interior = [i for i, _, _ in report.residual_trace[1:-1]]
    assert all(i % 25 == 0 for i in interior)
    # final entry is always recorded on convergence
    assert report.converged
    assert report.residual_trace[-1][0] == report.iterations


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
    # Barzilai-Borwein descent needed 147 (3^4) and 1 469 (2^4) iterations
    a0 = random_connection(Window(dims, "periodic"), kind, seed=0, scale=1e-2)
    out, report = solve(a0, SolveConfig(problem, max_iter=10000, tol=1e-8))
    assert report.converged
    assert report.stop_reason == "converged"
    assert report.iterations <= 100
    assert objective(out, problem) <= 1e-8


def test_solve_stops_on_step_underflow():
    # every trial step overshoots to a non-finite objective
    w = Window((2, 2, 2, 2), "periodic")
    a0 = random_connection(w, "su2", seed=0, scale=0.1)
    cfg = SolveConfig(EUCLID_SD, step0=1e300, backtrack=0.1)
    with np.errstate(all="ignore"):
        out, report = solve(a0, cfg)
    assert report.stop_reason == "step_underflow"
    assert not report.converged
    assert report.iterations == 0
    assert report.final_residual == objective(a0, EUCLID_SD)
    assert np.array_equal(out.data, connection_from_coefficients(
        connection_coefficients(a0), w, "su2").data)


def test_solve_stops_at_a_stationary_point(monkeypatch):
    w = Window((2, 2, 2, 2), "periodic")
    a0 = random_connection(w, "su2", seed=0, scale=0.1)
    monkeypatch.setattr(solver, "_gradient_matrices",
                        lambda conn, problem, res=None: np.zeros_like(conn.data))
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
