from __future__ import annotations

import numpy as np
import pytest

from oracle import random_curvature, shift_pair, wrap
from sdlattice.algebra import basis
from sdlattice.cochain import PLANES, CurvatureField, diagonal_shift, shifted_read
from sdlattice.curvature import diag_invariant_slice
from sdlattice.duality import check_diagonal_relation, synthetic_dual_curvature
from sdlattice.hodge import (
    EUCLID_TABLE,
    MINK_TABLE,
    complement_plane,
    double_star,
    star,
    star_basis_action,
    star_table,
)
from sdlattice.lattice import Window

# source planes listed in the order (34, 24, 23, 14, 13, 12)
SOURCE_ORDER = ((3, 4), (2, 4), (2, 3), (1, 4), (1, 3), (1, 2))
EUCLID_SIGNS = (1, -1, 1, 1, -1, 1)
MINK_SIGNS = (1, -1, 1, -1, 1, -1)


def test_sign_tables():
    for src, se, sm in zip(SOURCE_ORDER, EUCLID_SIGNS, MINK_SIGNS):
        assert EUCLID_TABLE.sign(src) == se
        assert MINK_TABLE.sign(src) == sm
    assert star_table("euclid") is EUCLID_TABLE
    assert star_table("mink") is MINK_TABLE
    assert (EUCLID_TABLE.square_sign, MINK_TABLE.square_sign) == (1, -1)
    with pytest.raises(ValueError):
        star_table("lorentz")


def test_plane_permutation_is_a_bijection():
    for table in (EUCLID_TABLE, MINK_TABLE):
        targets = {table.target(p) for p in PLANES}
        assert targets == set(PLANES)
        for p in PLANES:
            assert complement_plane(p) == tuple(a for a in (1, 2, 3, 4) if a not in p)
            assert complement_plane(complement_plane(p)) == p
        rows = list(table.entries())
        assert {r[0] for r in rows} == set(PLANES)
        for source, target, sign, shift in rows:
            assert target == complement_plane(source)
            assert shift == source
            assert sign in (-1, 1)


def test_component_form_against_table():
    # (*F)^target_k = sign * F^source_{sigma_source k} for every source plane
    w = Window((3, 4, 3, 2), "periodic")
    f = random_curvature(w, seed=1)
    for metric in ("euclid", "mink"):
        table = star_table(metric)
        sf = star(f, metric)
        for source, target, sign, _ in table.entries():
            offsets = [0, 0, 0, 0]
            offsets[source[0] - 1] = -1
            offsets[source[1] - 1] = -1
            expected = sign * shifted_read(f.plane(*source), w, offsets)
            assert np.array_equal(sf.plane(*target), expected)


def test_impulse_examples():
    w = Window((4, 4, 4, 4), "periodic")
    m = basis(1) + 0.25 * basis(2)

    # constant F^{34} = M, euclid -> only (*F)^{12} = M
    f = CurvatureField.zeros(w)
    f.plane(3, 4)[...] = m
    sf = star(f, "euclid")
    assert np.array_equal(sf.plane(1, 2), f.plane(3, 4))
    for i, j in PLANES[1:]:
        assert not np.any(sf.plane(i, j))

    # impulse F^{24} = M at k0, euclid -> (*F)^{13} = -M at tau_24 k0
    k0 = (1, 2, 3, 0)
    f = CurvatureField.zeros(w)
    f.plane(2, 4)[k0] = m
    sf = star(f, "euclid")
    hit = shift_pair(k0, 2, 4, "up")
    assert np.array_equal(sf.plane(1, 3)[hit], -m)
    sf.plane(1, 3)[hit] = 0.0
    assert not np.any(sf.data)

    # impulse F^{14} = M at k0, mink -> (*F)^{23} = -M at tau_14 k0
    f = CurvatureField.zeros(w)
    f.plane(1, 4)[k0] = m
    sf = star(f, "mink")
    hit = shift_pair(k0, 1, 4, "up")
    assert np.array_equal(sf.plane(2, 3)[hit], -m)
    sf.plane(2, 3)[hit] = 0.0
    assert not np.any(sf.data)


def test_impulse_sweep_matches_basis_action():
    # 12 cases: every source plane in both metrics, exact slot/site/sign
    w = Window((4, 4, 4, 4), "periodic")
    k0 = (1, 2, 3, 0)
    m = basis(3)
    for metric in ("euclid", "mink"):
        for plane in PLANES:
            f = CurvatureField.zeros(w)
            f.plane(*plane)[k0] = m
            target, site, sign = star_basis_action(plane, k0, metric)
            sf = star(f, metric)
            assert np.array_equal(sf.plane(*target)[wrap(w, site)], sign * m)
            sf.plane(*target)[wrap(w, site)] = 0.0
            assert not np.any(sf.data)


def test_star_is_linear_exactly():
    w = Window((3, 3, 3, 3), "periodic")
    f = random_curvature(w, seed=2)
    g = random_curvature(w, seed=3)
    for metric in ("euclid", "mink"):
        lhs = star(2.0 * f + (-3.0) * g, metric)
        rhs = 2.0 * star(f, metric) + (-3.0) * star(g, metric)
        assert np.array_equal(lhs.data, rhs.data)


def test_star_preserves_entry_magnitudes():
    # the star permutes slots and flips signs, so the multiset of entry
    # magnitudes is preserved bitwise; the summed norm only up to
    # summation order
    w = Window((4, 4, 4, 4), "periodic")
    for seed in range(5):
        f = random_curvature(w, seed=seed)
        for metric in ("euclid", "mink"):
            sf = star(f, metric)
            assert np.array_equal(
                np.sort(np.abs(sf.data), axis=None), np.sort(np.abs(f.data), axis=None)
            )
            assert np.linalg.norm(sf.data) == pytest.approx(np.linalg.norm(f.data), rel=1e-14)


def test_double_star_identities_random_fields():
    w = Window((4, 4, 4, 4), "periodic")
    for seed in range(10):
        f = random_curvature(w, seed=seed)
        shifted = shifted_read(f.data, w, (-1, -1, -1, -1))
        assert np.array_equal(double_star(f, "euclid").data, shifted)
        assert np.array_equal(double_star(f, "mink").data, -shifted)


def test_double_star_constant_field_euclid_is_identity():
    w = Window((3, 3, 3, 3), "periodic")
    f = CurvatureField.zeros(w)
    for n, (i, j) in enumerate(PLANES):
        f.plane(i, j)[...] = basis(1 + n % 3)
    assert np.array_equal(double_star(f, "euclid").data, f.data)
    assert np.array_equal(double_star(f, "mink").data, -f.data)


def test_double_star_fixes_diagonal_invariant_fields():
    # any field satisfying the diagonal-shift relation: **F = F (euclid)
    # and **F = -F (mink), slot for slot
    w = Window((3, 3, 3, 3), "periodic")
    f = CurvatureField.zeros(w)
    for n in range(6):
        f.data[..., n, :, :] = diag_invariant_slice(w, seed=20 + n, kind="sl2c")
    report = check_diagonal_relation(f)
    assert report.holds and report.max_violation == 0.0
    assert np.array_equal(double_star(f, "euclid").data, f.data)
    assert np.array_equal(double_star(f, "mink").data, -f.data)


def test_double_star_fixes_synthetic_dual_fields():
    w = Window((4, 4, 4, 4), "periodic")
    for orientation in ("self_dual", "anti_self_dual"):
        fe = synthetic_dual_curvature(
            diag_invariant_slice(w, seed=4), "euclid", w, orientation
        )
        assert np.array_equal(double_star(fe, "euclid").data, fe.data)
        fm = synthetic_dual_curvature(
            diag_invariant_slice(w, seed=5, kind="sl2c"), "mink", w, orientation
        )
        assert np.array_equal(double_star(fm, "mink").data, -fm.data)


def test_star_adjoint_is_signed_diagonal_up_shift_of_star():
    # <*X, Y> = <X, s tau(*Y)> under Re sum conj(a) b, s = +1 (euclid) or
    # -1 (mink): the star's adjoint as the solver's gradient applies it
    for dims in ((2, 3, 4, 5), (1, 2, 3, 5)):
        w = Window(dims, "periodic")
        x = random_curvature(w, seed=4)
        y = random_curvature(w, seed=5)
        for metric, s in (("euclid", 1.0), ("mink", -1.0)):
            lhs = np.vdot(star(x, metric).data, y.data).real
            rhs = np.vdot(x.data, s * diagonal_shift(star(y, metric), "up").data).real
            assert abs(lhs) > 1.0  # so that a wrong sign s would fail
            assert rhs == pytest.approx(lhs, rel=1e-12, abs=0.0)


def test_star_zero_boundary_reads_outside_as_zero():
    w = Window((3, 3, 3, 3), "zero")
    m = basis(2)

    # impulse at the origin: sigma_34-read of plane (3,4) lands at k0 + e3 + e4
    f = CurvatureField.zeros(w)
    f.plane(3, 4)[0, 0, 0, 0] = m
    sf = star(f, "euclid")
    assert np.array_equal(sf.plane(1, 2)[0, 0, 1, 1], m)
    sf.plane(1, 2)[0, 0, 1, 1] = 0.0
    assert not np.any(sf.data)

    # impulse at the far corner: the shifted target site falls outside
    f = CurvatureField.zeros(w)
    f.plane(3, 4)[2, 2, 2, 2] = m
    assert not np.any(star(f, "euclid").data)


def test_star_metadata():
    w = Window((2, 2, 2, 2), "periodic")
    f = random_curvature(w, seed=0, kind="su2")
    sf = star(f, "mink")
    assert sf.metric == "mink"
    assert sf.window == w
    assert sf.algebra == f.algebra
