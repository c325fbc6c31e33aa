"""Acceptance gate: the nine primary criteria, each timed against its budget.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion (add ``-s`` to also see the timed summary lines).
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from oracle import random_curvature, wrap
from sdlattice.algebra import basis
from sdlattice.checks import compact_nonzero_field
from sdlattice.cochain import (
    PLANES,
    ConnectionField,
    CurvatureField,
    shifted_read,
)
from sdlattice.curvature import (
    curvature,
    diag_invariant_slice,
    random_connection,
    random_gauge,
)
from sdlattice.duality import (
    CONSISTENT,
    DualityProblem,
    check_diagonal_relation,
    residual,
    residual_componentwise,
    synthetic_dual_curvature,
    verify_triviality_theorem,
)
from sdlattice.fieldio import (
    FieldFormatError,
    FieldShapeError,
    FieldVersionError,
    load,
    save,
)
from sdlattice.hodge import double_star, star, star_basis_action
from sdlattice.lattice import Window
from sdlattice.solver import SolveConfig, solve

ALL_PROBLEMS = tuple(
    DualityProblem(m, o)
    for m in ("euclid", "mink")
    for o in ("self_dual", "anti_self_dual")
)


def _finish(number: int, label: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s < {budget:g}s)")
    assert elapsed < budget


def test_criterion_1_star_table_exactness():
    t0 = time.perf_counter()
    w = Window((4, 4, 4, 4), "periodic")
    k0 = (1, 2, 3, 0)
    m = basis(2)
    cases = 0
    for metric in ("euclid", "mink"):
        for plane in PLANES:
            f = CurvatureField.zeros(w)
            f.plane(*plane)[k0] = m
            target, site, sign = star_basis_action(plane, k0, metric)
            sf = star(f, metric)
            assert np.array_equal(sf.plane(*target)[wrap(w, site)], sign * m)
            sf.plane(*target)[wrap(w, site)] = 0.0
            assert not np.any(sf.data)
            cases += 1
    assert cases == 12
    _finish(1, "star table exactness", t0, 1.0)


def test_criterion_2_double_star_identities():
    t0 = time.perf_counter()
    w = Window((4, 4, 4, 4), "periodic")
    for seed in range(100):
        f = random_curvature(w, seed=seed)
        shifted = shifted_read(f.data, w, (-1, -1, -1, -1))
        assert np.array_equal(double_star(f, "euclid").data, shifted)
        assert np.array_equal(double_star(f, "mink").data, -shifted)
    _finish(2, "double-star identities, 100 random fields", t0, 5.0)


def test_criterion_3_double_star_fixes_synthetic_dual_family():
    t0 = time.perf_counter()
    w = Window((4, 4, 4, 4), "periodic")
    count = 0
    for n in range(25):
        for metric, orientation in (
            ("euclid", "self_dual"),
            ("euclid", "anti_self_dual"),
            ("mink", "self_dual"),
            ("mink", "anti_self_dual"),
        ):
            kind = "su2" if metric == "euclid" else "sl2c"
            gen = diag_invariant_slice(w, seed=97 * n + count, kind=kind)
            f = synthetic_dual_curvature(gen, metric, w, orientation)
            if metric == "euclid":
                assert np.array_equal(double_star(f, "euclid").data, f.data)
            else:
                premise = check_diagonal_relation(f, tol=0.0)
                assert premise.holds and premise.max_violation == 0.0
                assert np.array_equal(double_star(f, "mink").data, -f.data)
            count += 1
    assert count == 100
    _finish(3, "double-star fixes 100 synthetic dual fields", t0, 5.0)


def test_criterion_4_path_equivalence():
    t0 = time.perf_counter()
    count = 0
    for dims in ((3, 3, 3, 3), (4, 4, 4, 4)):
        w = Window(dims, "periodic")
        for kind in ("su2", "sl2c"):
            for n in range(25):
                conn = random_connection(w, kind, seed=1000 * count + n)
                staged_curv = curvature(conn)
                for p in ALL_PROBLEMS:
                    direct = residual_componentwise(conn, p)
                    staged = residual(staged_curv, p)
                    assert np.max(np.abs(direct.data - staged.data)) <= 1e-13
                count += 1
    assert count == 100
    _finish(4, "path equivalence, 100 connections x 4 problems", t0, 30.0)


def test_criterion_5_duality_implies_diagonal_relation():
    t0 = time.perf_counter()
    w = Window((4, 4, 4, 4), "periodic")
    count = 0
    for n in range(25):
        for metric, orientation in (
            ("euclid", "self_dual"),
            ("euclid", "anti_self_dual"),
            ("mink", "self_dual"),
            ("mink", "anti_self_dual"),
        ):
            kind = "su2" if metric == "euclid" else "sl2c"
            gen = diag_invariant_slice(w, seed=31 * n + count, kind=kind)
            f = synthetic_dual_curvature(gen, metric, w, orientation)
            report = check_diagonal_relation(f)
            assert report.holds
            assert report.max_violation == 0.0
            count += 1
    assert count == 100
    rng = np.random.default_rng(5)
    for n in range(20):
        f = CurvatureField.zeros(w)
        site = tuple(int(x) for x in rng.integers(0, 4, size=4))
        f.data[site + (n % 6,)] = basis(1 + n % 3)
        assert not check_diagonal_relation(f).holds
    _finish(5, "duality implies diagonal relation", t0, 5.0)


def test_criterion_6_triviality_theorem():
    t0 = time.perf_counter()
    w = Window((6, 6, 6, 6), "zero")
    zero = CurvatureField.zeros(w)
    for p in ALL_PROBLEMS:
        assert verify_triviality_theorem(zero, 4, p) == CONSISTENT
    for n in range(100):
        bound = 2 + n % 3
        f = compact_nonzero_field(w, seed=n, bound=bound)
        p = ALL_PROBLEMS[n % 4]
        assert np.any(f.data)
        assert verify_triviality_theorem(f, bound, p) != CONSISTENT
    _finish(6, "triviality theorem, 100 compact nonzero fields", t0, 10.0)


def test_criterion_7_gradient_check():
    from sdlattice.solver import (
        connection_coefficients,
        connection_from_coefficients,
        gradient_coefficients,
        objective,
    )

    t0 = time.perf_counter()
    h = 1e-6
    rng = np.random.default_rng(17)
    w = Window((3, 3, 3, 3), "periodic")
    probes = 0
    for metric in ("euclid", "mink"):
        for kind in ("su2", "sl2c"):
            p = DualityProblem(metric, "self_dual" if probes % 2 else "anti_self_dual")
            a = random_connection(w, kind, seed=50 + probes, scale=0.4)
            coeff = connection_coefficients(a)
            grad = gradient_coefficients(a, p).reshape(-1)
            flat = coeff.reshape(-1)
            for idx in rng.choice(flat.size, size=16, replace=False):
                cp = flat.copy()
                cp[idx] += h
                up = objective(
                    connection_from_coefficients(cp.reshape(coeff.shape), w, kind), p
                )
                cp[idx] -= 2 * h
                dn = objective(
                    connection_from_coefficients(cp.reshape(coeff.shape), w, kind), p
                )
                fd = (up - dn) / (2 * h)
                rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]))
                assert rel <= 1e-6
                probes += 1
    assert probes >= 30
    _finish(7, f"gradient vs central differences, {probes} coordinates", t0, 10.0)


def test_criterion_8_solver_sanity():
    t0 = time.perf_counter()
    w = Window((3, 3, 3, 3), "periodic")
    p = DualityProblem("euclid", "self_dual")

    a0 = random_connection(w, "su2", seed=0, scale=1e-2)
    cfg = SolveConfig(p, max_iter=10000, tol=1e-8)
    _, report = solve(a0, cfg)
    assert report.converged
    assert report.final_residual <= 1e-8
    assert report.iterations <= 10000
    values = [r for _, r, _ in report.residual_trace]
    assert all(b < a for a, b in zip(values, values[1:]))

    flat, flat_report = solve(ConnectionField.zeros(w), cfg)
    assert flat_report.converged
    assert flat_report.iterations == 0
    assert flat_report.final_residual == 0.0
    assert not np.any(flat.data)
    _finish(8, "solver reaches 1e-8 from scale-1e-2 start", t0, 60.0)


def test_criterion_9_serialization(tmp_path):
    t0 = time.perf_counter()
    w = Window((3, 2, 2, 3), "periodic")
    path = tmp_path / "rt.field"
    for n in range(20):
        fields = (
            random_gauge(w, "su2" if n % 2 else "sl2c", seed=n),
            random_connection(w, "su2" if n % 2 else "sl2c", seed=n),
            random_curvature(w, seed=n, kind=("general", "su2", "sl2c")[n % 3]),
        )
        for f in fields:
            save(f, path)
            back = load(path)
            assert type(back) is type(f)
            assert np.array_equal(back.data, f.data)
            assert back.window == f.window

    save(random_connection(w, "su2", seed=0), path)
    doc = json.loads(path.read_text())

    bad = dict(doc)
    del bad["rank"]
    path.write_text(json.dumps(bad))
    with pytest.raises(FieldFormatError):
        load(path)

    bad = dict(doc)
    bad["format_version"] = 99
    path.write_text(json.dumps(bad))
    with pytest.raises(FieldVersionError):
        load(path)

    bad = dict(doc)
    bad["data"] = doc["data"][:-1]
    path.write_text(json.dumps(bad))
    with pytest.raises(FieldShapeError):
        load(path)

    _finish(9, "serialization round-trips and error classes", t0, 5.0)
