from __future__ import annotations

import numpy as np
import pytest

from oracle import (
    at,
    has_unit_determinant,
    is_special_unitary,
    random_curvature,
    shift_diag,
    shift_up,
    wrap,
)
from sdlattice.algebra import basis, identity, is_su2, sl2c_coefficients
from sdlattice.cochain import PLANES, GaugeField
from sdlattice.curvature import (
    constant_connection,
    curvature,
    diag_invariant_slice,
    pure_gauge,
    random_connection,
    random_gauge,
    zero_connection,
)
from sdlattice.duality import synthetic_dual_curvature
from sdlattice.lattice import Window


def eval_plane(conn, k, i, j):
    """Sitewise curvature component, product order exactly as in curvature()."""
    ai = at(conn, k, i)
    aj = at(conn, k, j)
    aj_up = at(conn, shift_up(k, i), j)
    ai_up = at(conn, shift_up(k, j), i)
    return (aj_up - aj) - (ai_up - ai) + ai @ aj_up - aj @ ai_up


def test_zero_connection_has_zero_curvature():
    for boundary in ("periodic", "zero"):
        f = curvature(zero_connection(Window((3, 3, 3, 3), boundary)))
        assert not np.any(f.data)


def test_constant_equal_components_have_zero_curvature():
    # differences vanish and X X - X X = 0
    for boundary in ("periodic", "zero"):
        w = Window((3, 3, 3, 3), boundary)
        f = curvature(constant_connection(w, basis(2)))
        if boundary == "periodic":
            assert not np.any(f.data)
        else:
            # on a zero window the constant field has a boundary jump
            interior = f.data[:-1, :-1, :-1, :-1]
            assert not np.any(interior)


def test_constant_basis_pair_gives_commutator():
    w = Window((3, 3, 3, 3), "periodic")
    zero = np.zeros((2, 2), dtype=complex)
    a = constant_connection(w, [basis(1), basis(2), zero, zero])
    f = curvature(a)
    oracle = basis(1) @ basis(2) - basis(2) @ basis(1)
    assert np.allclose(oracle, basis(3), atol=1e-15)
    for k in ((0, 0, 0, 0), (2, 1, 0, 2)):
        assert np.array_equal(at(f, k, 1, 2), oracle)
    for i, j in PLANES[1:]:
        assert not np.any(f.plane(i, j))


def test_curvature_matches_sitewise_oracle():
    for boundary in ("periodic", "zero"):
        for kind, seed in (("su2", 3), ("sl2c", 4)):
            w = Window((3, 2, 3, 2), boundary)
            conn = random_connection(w, kind, seed=seed)
            f = curvature(conn)
            for k in w.sites():
                for i, j in PLANES:
                    assert np.array_equal(at(f, k, i, j), eval_plane(conn, k, i, j))


def test_swapped_evaluation_negates_exactly():
    # grouping (difference part) + (product part): each part flips sign
    # bitwise under the swap, so the sum does too
    def balanced(conn, k, i, j):
        ai = at(conn, k, i)
        aj = at(conn, k, j)
        aj_up = at(conn, shift_up(k, i), j)
        ai_up = at(conn, shift_up(k, j), i)
        return ((aj_up - aj) - (ai_up - ai)) + (ai @ aj_up - aj @ ai_up)

    rng = np.random.default_rng(10)
    for trial in range(100):
        w = Window((3, 3, 3, 3), "periodic" if trial % 3 else "zero")
        conn = random_connection(w, "su2" if trial % 2 else "sl2c", seed=trial)
        k = tuple(int(x) for x in rng.integers(0, 3, size=4))
        i, j = sorted(int(v) for v in rng.choice([1, 2, 3, 4], size=2, replace=False))
        assert np.array_equal(balanced(conn, k, i, j), -balanced(conn, k, j, i))


def test_curvature_locality_stencil():
    # changing A at site s changes F only at s and its backward neighbours
    w = Window((4, 4, 4, 4), "periodic")
    conn = random_connection(w, "su2", seed=5)
    before = curvature(conn)
    s = (1, 2, 3, 0)
    conn.data[s] += basis(1)
    after = curvature(conn)
    changed = np.any(after.data != before.data, axis=(4, 5, 6))
    allowed = {s}
    for axis in (1, 2, 3, 4):
        down = list(s)
        down[axis - 1] -= 1
        allowed.add(wrap(w, tuple(down)))
    for k in w.sites():
        if k not in allowed:
            assert not np.any(changed[k])


def test_pure_gauge_identity_and_constant_are_flat():
    w = Window((3, 3, 3, 3), "periodic")
    assert not np.any(pure_gauge(GaugeField.identity(w)).data)
    g = GaugeField.identity(w)
    g.data[...] = np.array([[0, -1], [1, 0]], dtype=complex)
    a = pure_gauge(g)
    assert not np.any(a.data)
    assert not np.any(curvature(a).data)


def test_pure_gauge_single_site_formula():
    # g = I except g_{tau_1 k0} = G: then A_{k0}^1 = -(G - I) I^{-1} = I - G
    w = Window((4, 4, 4, 4), "zero")
    k0 = (1, 2, 0, 3)
    up1 = shift_up(k0, 1)
    G = np.array([[0, -1], [1, 0]], dtype=complex)
    g = GaugeField.identity(w)
    g.data[up1] = G
    a = pure_gauge(g)
    assert np.array_equal(at(a, k0, 1), identity() - G)
    # at up1 itself: A^1 = -(I - G) G^{-1}
    assert np.allclose(at(a, up1, 1), -(identity() - G) @ np.linalg.inv(G), atol=1e-15)
    # everywhere away from the varying site the connection vanishes
    touched = {k0, up1}
    for axis in (2, 3, 4):
        down = list(up1)
        down[axis - 1] -= 1
        touched.add(tuple(down))
    for k in w.sites():
        if k not in touched:
            assert not np.any(a.data[k])


def test_pure_gauge_zero_boundary_identity_padding():
    # reads beyond a zero window use the identity element, so a gauge field
    # equal to the identity near the boundary produces no spurious connection
    w = Window((3, 3, 3, 3), "zero")
    g = GaugeField.identity(w)
    a = pure_gauge(g)
    assert not np.any(a.data)


def test_pure_gauge_rejects_singular_elements():
    w = Window((2, 2, 2, 2))
    g = GaugeField.identity(w)
    g.data[0, 0, 0, 0] = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        pure_gauge(g)


def test_pure_gauge_curvature_not_flat_in_general():
    # documented measurement: for non-constant g the curvature of a
    # pure-gauge connection does not vanish in this difference calculus
    w = Window((3, 3, 3, 3), "periodic")
    f = curvature(pure_gauge(random_gauge(w, "su2", seed=11)))
    assert np.max(np.abs(f.data)) > 1.0


def test_random_connection_membership_and_determinism():
    w = Window((3, 3, 3, 3))
    a = random_connection(w, "su2", seed=8, scale=0.5)
    b = random_connection(w, "su2", seed=8, scale=0.5)
    assert np.array_equal(a.data, b.data)
    assert a.algebra == "su2"
    flat = a.data.reshape(-1, 2, 2)
    for m in flat[:32]:
        assert is_su2(m)
        assert np.max(np.abs(sl2c_coefficients(m).real)) <= 0.5
    c = random_connection(w, "sl2c", seed=8)
    assert not np.array_equal(c.data, a.data)
    assert np.allclose(np.trace(c.data, axis1=-2, axis2=-1), 0, atol=1e-15)
    with pytest.raises(ValueError):
        random_connection(w, "su2", seed=1, scale=0.0)
    with pytest.raises(ValueError):
        random_connection(w, "so3", seed=1)


def test_random_gauge_membership_and_determinism():
    w = Window((2, 2, 2, 2))
    g = random_gauge(w, "su2", seed=3)
    h = random_gauge(w, "su2", seed=3)
    assert np.array_equal(g.data, h.data)
    for k in w.sites():
        assert is_special_unitary(g.data[k])
    s = random_gauge(w, "sl2c", seed=3)
    for k in w.sites():
        assert has_unit_determinant(s.data[k])


def test_random_curvature_kinds():
    w = Window((2, 2, 2, 2))
    f = random_curvature(w, seed=2)
    assert np.array_equal(f.data, random_curvature(w, seed=2).data)
    assert np.any(f.data)
    g = random_curvature(w, seed=2, kind="su2")
    assert is_su2(g.data[0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        random_curvature(w, seed=2, kind="so3")


def test_diag_invariant_slice_is_invariant_bitwise():
    w = Window((3, 4, 3, 2), "periodic")
    s = diag_invariant_slice(w, seed=6)
    for k in w.sites():
        assert np.array_equal(s[k], s[wrap(w, shift_diag(k, "up"))])
        assert is_su2(s[k])
    again = diag_invariant_slice(w, seed=6)
    assert np.array_equal(s, again)
    with pytest.raises(ValueError):
        diag_invariant_slice(Window((3, 3, 3, 3), "zero"), seed=6)


def test_synthetic_constant_generator_euclid():
    w = Window((3, 3, 3, 3), "periodic")
    f = synthetic_dual_curvature(np.broadcast_to(basis(3), w.dims + (2, 2)), "euclid", w)
    for k in w.sites():
        assert np.array_equal(at(f, k, 1, 2), basis(3))
        assert np.array_equal(at(f, k, 3, 4), basis(3))
    for i, j in ((1, 3), (1, 4), (2, 3), (2, 4)):
        assert not np.any(f.plane(i, j))
    g = synthetic_dual_curvature(
        np.broadcast_to(basis(3), w.dims + (2, 2)), "euclid", w, orientation="anti_self_dual"
    )
    assert np.array_equal(g.plane(3, 4), -f.plane(3, 4))


def test_synthetic_constant_generator_mink():
    w = Window((3, 3, 3, 3), "periodic")
    m = basis(1) + 1j * basis(2)
    f = synthetic_dual_curvature(np.broadcast_to(m, w.dims + (2, 2)), "mink", w)
    for k in w.sites():
        assert np.array_equal(at(f, k, 3, 4), 1j * m)
    g = synthetic_dual_curvature(
        np.broadcast_to(m, w.dims + (2, 2)), "mink", w, orientation="anti_self_dual"
    )
    assert np.array_equal(g.plane(3, 4), -f.plane(3, 4))


def test_synthetic_general_generator_shift_structure():
    w = Window((4, 3, 2, 3), "periodic")
    s = diag_invariant_slice(w, seed=9, kind="sl2c")
    f = synthetic_dual_curvature(s, "euclid", w)
    assert np.array_equal(f.plane(1, 2), s)
    # F^{34}_k equals the generator read at sigma_12 k
    for k in w.sites():
        src = wrap(w, (k[0] - 1, k[1] - 1, k[2], k[3]))
        assert np.array_equal(at(f, k, 3, 4), s[src])


def test_synthetic_zero_generator_gives_zero_field():
    w = Window((3, 3, 3, 3), "periodic")
    f = synthetic_dual_curvature(np.zeros(w.dims + (2, 2), dtype=complex), "mink", w)
    assert not np.any(f.data)


def test_synthetic_validation_errors():
    w = Window((3, 3, 3, 3), "periodic")
    good = np.broadcast_to(basis(1), w.dims + (2, 2))
    with pytest.raises(ValueError):
        synthetic_dual_curvature(good, "euclid", Window((3, 3, 3, 3), "zero"))
    with pytest.raises(ValueError):
        synthetic_dual_curvature(good, "lorentz", w)
    with pytest.raises(ValueError):
        synthetic_dual_curvature(good, "euclid", w, orientation="dual")
    with pytest.raises(ValueError):
        synthetic_dual_curvature(good[0], "euclid", w)
    bad = good.copy()
    bad[0, 0, 0, 0] += basis(2)  # breaks diagonal invariance
    with pytest.raises(ValueError):
        synthetic_dual_curvature(bad, "euclid", w)


def test_constant_connection_shape_validation():
    w = Window((2, 2, 2, 2))
    with pytest.raises(ValueError):
        constant_connection(w, np.zeros((3, 2, 2)))
