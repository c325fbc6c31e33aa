from __future__ import annotations

import numpy as np
import pytest

from oracle import has_unit_determinant, is_special_unitary
from sdlattice import algebra as al

EPS = np.zeros((3, 3, 3))
for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[a, b, c] = 1.0
    EPS[b, a, c] = -1.0


def bracket(x, y):
    return x @ y - y @ x


def test_basis_element_values():
    l3 = al.basis(3)
    assert np.array_equal(l3, np.array([[-0.5j, 0], [0, 0.5j]]))
    l1 = al.basis(1)
    assert np.array_equal(l1, np.array([[0, -0.5j], [-0.5j, 0]]))


def test_basis_index_out_of_range():
    for bad in (0, 4, -1):
        with pytest.raises(ValueError):
            al.basis(bad)


def test_basis_membership_and_orthogonality():
    for a in (1, 2, 3):
        assert al.is_su2(al.basis(a))
        assert al.is_sl2c(al.basis(a))
    # <x, y> = tr(x^dag y) is np.vdot over the four entries
    assert np.vdot(al.basis(1), al.basis(2)) == 0
    for a in (1, 2, 3):
        assert np.vdot(al.basis(a), al.basis(a)) == pytest.approx(0.5)


def test_commutator_structure_constants():
    # [l_a, l_b] = eps_abc l_c, checked against a direct matmul oracle
    for a in range(3):
        for b in range(3):
            la, lb = al.BASIS[a], al.BASIS[b]
            oracle = bracket(la, lb)
            structural = sum(EPS[a, b, c] * al.BASIS[c] for c in range(3))
            assert np.max(np.abs(oracle - structural)) <= 1e-15


def test_commutator_antisymmetry():
    l1, l2, l3 = al.basis(1), al.basis(2), al.basis(3)
    assert np.max(np.abs(bracket(l1, l2) - l3)) <= 1e-15
    assert np.max(np.abs(bracket(l2, l1) + l3)) <= 1e-15
    x = al.random_algebra(5, "sl2c")
    assert np.array_equal(bracket(x, x), np.zeros((2, 2)))


def test_commutator_traceless_and_su2_closure():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = al.random_algebra(rng, "su2")
        y = al.random_algebra(rng, "su2")
        z = bracket(x, y)
        assert abs(np.trace(z)) <= 1e-12
        assert al.is_su2(z)


def test_product_decomposition_identity_part():
    # XY - (1/2)[X, Y] is a complex multiple of the identity for su(2) X, Y
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = al.random_algebra(rng, "su2")
        y = al.random_algebra(rng, "su2")
        rest = x @ y - 0.5 * bracket(x, y)
        c = np.trace(rest) / 2.0
        assert np.max(np.abs(rest - c * al.identity())) <= 1e-12


def test_coefficient_round_trip():
    rng = np.random.default_rng(2)
    c = rng.uniform(-2, 2, size=3)
    x = al.from_coefficients(c)
    assert np.allclose(al.sl2c_coefficients(x).real, c, atol=1e-14)
    z = rng.uniform(-2, 2, size=3) + 1j * rng.uniform(-2, 2, size=3)
    y = al.from_coefficients(z)
    assert np.allclose(al.sl2c_coefficients(y), z, atol=1e-14)


def test_random_algebra_membership_and_determinism():
    for seed in range(10):
        x = al.random_algebra(seed, "su2")
        assert al.is_su2(x)
        assert np.array_equal(x, al.random_algebra(seed, "su2"))
        y = al.random_algebra(seed, "sl2c")
        assert al.is_sl2c(y)
        assert np.array_equal(y, al.random_algebra(seed, "sl2c"))


def test_random_algebra_scale_bound():
    x = al.random_algebra(3, "su2", scale=1e-3)
    assert np.max(np.abs(al.sl2c_coefficients(x).real)) <= 1e-3
    for bad in (0.0, -1.0, float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError):
            al.random_algebra(3, "su2", scale=bad)


def test_membership_is_per_matrix_with_relative_tolerance():
    l1, eye = al.basis(1), al.identity()
    # a stack is a member only if every matrix is; the trace is taken per matrix
    assert al.is_su2(np.stack([l1, al.basis(2)]))
    assert not al.is_sl2c(np.stack([l1, eye, -eye]))
    assert not al.is_su2(np.stack([l1, 1j * al.PAULI[0] / 2 + al.PAULI[2]]))
    assert al.is_sl2c(np.stack([l1, al.PAULI[2]]))
    # 1e-9 of trace is an error at unit scale, rounding at scale 1e6
    off = 1e-9 * eye
    assert not al.is_sl2c(l1 + off)
    assert not al.is_su2(l1 + off)
    assert al.is_sl2c(1e6 * l1 + off)
    assert al.is_su2(1e6 * l1 + off)


def test_group_membership():
    rng = np.random.default_rng(4)
    for _ in range(25):
        g = al.random_group(rng, "su2")
        assert is_special_unitary(g)
        h = al.random_group(rng, "sl2c")
        assert has_unit_determinant(h)


def test_expm_traceless():
    # exp(t l_3) is diagonal with phases -t/2, +t/2
    t = 0.7
    e = al.expm_traceless(t * al.basis(3))
    assert np.allclose(e, np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]), atol=1e-14)
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = al.random_algebra(rng, "sl2c")
        e = al.expm_traceless(m)
        assert np.linalg.norm(e @ al.expm_traceless(-m) - al.identity()) <= 1e-12
        assert abs(np.linalg.det(e) - 1.0) <= 1e-12
    # small-norm series branch
    m = 1e-8 * al.basis(2)
    assert np.linalg.norm(al.expm_traceless(m) - (al.identity() + m)) <= 1e-15
    with pytest.raises(ValueError):
        al.expm_traceless(al.identity())
