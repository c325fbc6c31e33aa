from __future__ import annotations

import itertools

import numpy as np
import pytest

from oracle import at, check_difference_form_13, random_curvature, wrap
from sdlattice.algebra import basis
from sdlattice.cochain import (
    PLANE_INDEX,
    PLANES,
    ConnectionField,
    CurvatureField,
    shifted_read,
)
from sdlattice.curvature import (
    constant_connection,
    curvature,
    diag_invariant_slice,
    random_connection,
)
from sdlattice.duality import (
    CONSISTENT,
    VIOLATES_DUALITY,
    VIOLATES_SUPPORT,
    DualityProblem,
    check_diagonal_relation,
    residual,
    residual_componentwise,
    scalar_residual,
    synthetic_dual_curvature,
    verify_triviality_theorem,
)
from sdlattice.hodge import star
from sdlattice.lattice import Window

ALL_PROBLEMS = tuple(
    DualityProblem(m, o)
    for m in ("euclid", "mink")
    for o in ("self_dual", "anti_self_dual")
)


def test_problem_validation():
    with pytest.raises(ValueError):
        DualityProblem("lorentz", "self_dual")
    with pytest.raises(ValueError):
        DualityProblem("euclid", "dual")
    assert DualityProblem("mink").orientation == "self_dual"


def test_residual_zero_field():
    w = Window((3, 3, 3, 3), "periodic")
    f = CurvatureField.zeros(w)
    for p in ALL_PROBLEMS:
        assert not np.any(residual(f, p).data)
        assert scalar_residual(f, p) == 0.0


def test_residual_operator_definitions():
    # euclid: F -+ *F; mink: *F -+ iF, per orientation
    w = Window((3, 3, 3, 3), "periodic")
    rng = np.random.default_rng(0)
    f = CurvatureField(w, rng.normal(size=w.dims + (6, 2, 2))
                       + 1j * rng.normal(size=w.dims + (6, 2, 2)))
    se = star(f, "euclid").data
    sm = star(f, "mink").data
    assert np.array_equal(residual(f, DualityProblem("euclid", "self_dual")).data,
                          f.data - se)
    assert np.array_equal(residual(f, DualityProblem("euclid", "anti_self_dual")).data,
                          f.data + se)
    assert np.array_equal(residual(f, DualityProblem("mink", "self_dual")).data,
                          sm - 1j * f.data)
    assert np.array_equal(residual(f, DualityProblem("mink", "anti_self_dual")).data,
                          sm + 1j * f.data)


def test_synthetic_fields_have_exactly_zero_residual():
    for dims in ((3, 3, 3, 3), (4, 3, 2, 3)):
        w = Window(dims, "periodic")
        for n, p in enumerate(ALL_PROBLEMS):
            kind = "su2" if p.metric == "euclid" else "sl2c"
            gen = diag_invariant_slice(w, seed=n, kind=kind)
            f = synthetic_dual_curvature(gen, p.metric, w, p.orientation)
            assert not np.any(residual(f, p).data)
            assert scalar_residual(f, p) == 0.0


def test_single_plane_constant_residual_example():
    # constant F^{12} = l3 with all other planes zero, euclid self-dual:
    # residual plane 12 is l3 at every site (slot norm 1/sqrt(2)) and
    # plane 34 is -l3 (the star image of the populated plane)
    w = Window((3, 3, 3, 3), "periodic")
    f = CurvatureField.zeros(w)
    f.plane(1, 2)[...] = basis(3)
    r = residual(f, DualityProblem("euclid", "self_dual"))
    for k in w.sites():
        assert np.array_equal(at(r, k, 1, 2), basis(3))
        assert np.array_equal(at(r, k, 3, 4), -basis(3))
        assert np.linalg.norm(at(r, k, 1, 2)) == pytest.approx(1 / np.sqrt(2))
    for i, j in ((1, 3), (1, 4), (2, 3), (2, 4)):
        assert not np.any(r.plane(i, j))
    assert scalar_residual(f, DualityProblem("euclid", "self_dual")) == pytest.approx(
        np.sqrt(w.n_sites * 2 * 0.5)
    )


def test_componentwise_residual_zero_connection():
    w = Window((3, 3, 3, 3), "periodic")
    a = ConnectionField.zeros(w)
    for p in ALL_PROBLEMS:
        assert not np.any(residual_componentwise(a, p).data)


def test_componentwise_matches_staged_path():
    for dims in ((3, 3, 3, 3), (4, 4, 4, 4)):
        w = Window(dims, "periodic")
        for seed, kind in ((1, "su2"), (2, "sl2c")):
            a = random_connection(w, kind, seed=seed)
            staged_curv = curvature(a)
            for p in ALL_PROBLEMS:
                direct = residual_componentwise(a, p)
                staged = residual(staged_curv, p)
                # one curvature kernel, same operations in the same order
                assert np.array_equal(direct.data, staged.data)


def test_componentwise_matches_staged_for_constant_connection():
    w = Window((3, 3, 3, 3), "periodic")
    zero = np.zeros((2, 2), dtype=complex)
    a = constant_connection(w, [basis(1), zero, zero, zero])
    for p in ALL_PROBLEMS:
        direct = residual_componentwise(a, p)
        staged = residual(curvature(a), p)
        assert np.array_equal(direct.data, staged.data)


def test_diagonal_relation_constant_holds_exactly():
    w = Window((3, 3, 3, 3), "periodic")
    f = CurvatureField.zeros(w)
    for n, (i, j) in enumerate(PLANES):
        f.plane(i, j)[...] = basis(1 + n % 3)
    report = check_diagonal_relation(f)
    assert report.holds
    assert report.max_violation == 0.0


def test_diagonal_relation_impulse_fails():
    w = Window((3, 3, 3, 3), "periodic")
    f = CurvatureField.zeros(w)
    f.plane(1, 2)[1, 1, 1, 1] = basis(3)
    report = check_diagonal_relation(f)
    assert not report.holds
    assert report.max_violation == pytest.approx(0.5)


def test_diagonal_relation_tolerance_semantics():
    w = Window((2, 2, 2, 2), "periodic")
    f = CurvatureField.zeros(w)
    f.plane(1, 2)[0, 0, 0, 0] = 1e-13 * basis(3)
    assert check_diagonal_relation(f).holds  # below default 1e-12
    assert not check_diagonal_relation(f, tol=1e-15).holds
    with pytest.raises(ValueError):
        check_diagonal_relation(CurvatureField.zeros(Window((2, 2, 2, 2), "zero")))


def test_zero_residual_implies_diagonal_relation():
    w = Window((3, 3, 3, 3), "periodic")
    for n, p in enumerate(ALL_PROBLEMS):
        f = synthetic_dual_curvature(
            diag_invariant_slice(w, seed=40 + n, kind="sl2c"), p.metric, w, p.orientation
        )
        assert scalar_residual(f, p) == 0.0
        report = check_diagonal_relation(f)
        assert report.holds and report.max_violation == 0.0


def test_difference_form_13():
    w = Window((3, 3, 3, 3), "periodic")
    a0 = random_connection(w, "su2", seed=0)
    a0.data[...] = 0.0
    assert check_difference_form_13(a0).max_violation == 0.0
    a_const = constant_connection(w, basis(2))
    assert check_difference_form_13(a_const).max_violation == 0.0
    # random connections: agrees with the staged check, violation and all
    for seed in range(6):
        a = random_connection(w, "su2" if seed % 2 else "sl2c", seed=seed)
        direct = check_difference_form_13(a)
        staged = check_diagonal_relation(curvature(a))
        assert direct.holds == staged.holds
        assert direct.max_violation == staged.max_violation
    with pytest.raises(ValueError):
        check_difference_form_13(random_connection(Window((3, 3, 3, 3), "zero"), "su2", seed=1))


def test_mink_consistency_chain():
    # for a mink self-dual field: F^{34}_{sigma k} = i F^{12}_{sigma_12 sigma k}
    # = F^{34}_k, slot for slot
    w = Window((3, 3, 3, 3), "periodic")
    f = synthetic_dual_curvature(
        diag_invariant_slice(w, seed=7, kind="sl2c"), "mink", w
    )
    f34 = f.plane(3, 4)
    f12 = f.plane(1, 2)
    buf34 = f.buf[PLANE_INDEX[(3, 4)]]
    shifted34 = shifted_read(buf34, w, (-1, -1, -1, -1))
    assert np.array_equal(shifted34, buf34)
    for k in w.sites():
        src = wrap(w, (k[0] - 1, k[1] - 1, k[2], k[3]))
        assert np.array_equal(f34[k], 1j * f12[src])


def test_theorem_zero_field_consistent():
    w = Window((6, 6, 6, 6), "zero")
    f = CurvatureField.zeros(w)
    for p in ALL_PROBLEMS:
        for bound in (1, 3, 5):
            assert verify_triviality_theorem(f, bound, p) == CONSISTENT


def test_theorem_constant_field_violates_support():
    w = Window((6, 6, 6, 6), "zero")
    f = CurvatureField.zeros(w)
    f.plane(1, 2)[...] = basis(3)
    f.plane(3, 4)[...] = basis(3)
    p = DualityProblem("euclid", "self_dual")
    assert verify_triviality_theorem(f, 3, p) == VIOLATES_SUPPORT


def test_theorem_single_site_violates_duality():
    w = Window((6, 6, 6, 6), "zero")
    f = CurvatureField.zeros(w)
    f.plane(1, 2)[1, 1, 1, 1] = basis(3)
    for p in ALL_PROBLEMS:
        assert verify_triviality_theorem(f, 4, p) == VIOLATES_DUALITY


def test_theorem_window_validation():
    p = DualityProblem("euclid", "self_dual")
    small = CurvatureField.zeros(Window((3, 3, 3, 3), "zero"))
    with pytest.raises(ValueError):
        verify_triviality_theorem(small, 3, p)
    periodic = CurvatureField.zeros(Window((6, 6, 6, 6), "periodic"))
    with pytest.raises(ValueError):
        verify_triviality_theorem(periodic, 3, p)


def _impulse_matrix(window: Window, problem: DualityProblem) -> np.ndarray:
    # F -> a F + b *F acts on every matrix entry alike, so its matrix on
    # entry (0, 0) of each slot and site is the whole map, once per entry
    f = CurvatureField.zeros(window)
    entry = f.buf[:, 0, 0]  # a view, (6,) + dims
    columns = []
    for index in np.ndindex(entry.shape):
        entry[index] = 1.0
        columns.append(residual(f, problem).buf[:, 0, 0].reshape(-1))
        entry[index] = 0.0
    return np.stack(columns, axis=1)


def _chain_bound(length: int) -> float:
    # smallest singular value of a bidiagonal chain with |a| = |b| = 1
    return 2 * np.sin(np.pi / (2 * (2 * length + 1)))


@pytest.mark.parametrize("dims, length", [((1, 1, 1, 1), 1), ((2, 2, 2, 2), 3),
                                          ((3, 3, 3, 3), 5), ((2, 3, 4, 5), 4),
                                          ((3, 4, 2, 5), 4)])
def test_zero_window_residual_has_the_chain_singular_value(dims, length):
    # on a zero window the diagonal relation splits a F + b *F into chains
    # along the diagonal; the longest, of length L, gives the smallest
    # singular value 2 sin(pi / (2 (2L + 1))): on N^4, L = 2N - 1
    w = Window(dims, "zero")
    for p in ALL_PROBLEMS:
        m = _impulse_matrix(w, p)
        smallest = np.linalg.svd(m, compute_uv=False).min()
        assert smallest == pytest.approx(_chain_bound(length), rel=1e-12, abs=1e-12), p


@pytest.mark.parametrize("dims, length", [((2, 2, 2, 2), 3), ((3, 3, 3, 3), 5),
                                          ((4, 4, 4, 4), 7), ((3, 4, 2, 5), 4)])
def test_zero_window_residual_is_bounded_below(dims, length):
    # |residual(F)|^2 >= 4 sin^2(pi / (2 (2L + 1))) |F|^2: the triviality
    # theorem with a constant
    w = Window(dims, "zero")
    for seed in range(3):
        fields = (random_curvature(w, seed=seed), curvature(random_connection(w, "sl2c", seed)))
        for f, p in itertools.product(fields, ALL_PROBLEMS):
            res = residual(f, p).buf
            r = np.vdot(res, res).real
            assert r >= _chain_bound(length) ** 2 * np.vdot(f.buf, f.buf).real, (seed, p)


@pytest.mark.parametrize("dims", [(3, 4, 2, 5), (2, 2, 2, 2), (4, 4, 4, 4)])
@pytest.mark.parametrize("kind", ["su2", "sl2c"])
def test_periodic_residual_is_a_cauchy_schwarz_gap(dims, kind):
    # on periodic windows |*F| = |F|, so with |a| = |b| = 1,
    # R = |a F + b *F|^2 = 2 |F|^2 + 2 Re(conj(a) b <F, *F>): F is dual
    # exactly when Cauchy-Schwarz is tight
    f = curvature(random_connection(Window(dims, "periodic"), kind, seed=3, scale=0.7))
    norm2 = np.vdot(f.buf, f.buf).real
    for p in ALL_PROBLEMS:
        a, b = p.coefficients
        res = residual(f, p).buf
        pairing = np.vdot(f.buf, star(f, p.metric).buf)
        gap = 2 * norm2 + 2 * (np.conj(a) * b * pairing).real
        assert np.vdot(res, res).real == pytest.approx(gap, rel=1e-13), p


def test_componentwise_metadata():
    w = Window((3, 3, 3, 3), "periodic")
    a = random_connection(w, "sl2c", seed=5)
    out = residual_componentwise(a, DualityProblem("mink", "anti_self_dual"))
    assert out.metric == "mink"
    # its values hold products of sl2c matrices, so they are general
    assert out.algebra == "general"
    assert out.window == w


@pytest.mark.parametrize("kind", ["su2", "sl2c"])
@pytest.mark.parametrize("problem", ALL_PROBLEMS)
def test_both_residual_paths_carry_the_same_labels(kind, problem):
    a = random_connection(Window((3, 2, 2, 3), "periodic"), kind, seed=6)
    direct = residual_componentwise(a, problem)
    staged = residual(curvature(a), problem)
    assert (direct.algebra, direct.metric) == (staged.algebra, staged.metric) == (
        "general", problem.metric)
