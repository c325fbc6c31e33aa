from __future__ import annotations

import numpy as np
import pytest

from oracle import at, delta, wrap
from sdlattice.algebra import basis
from sdlattice.cochain import (
    PLANES,
    ConnectionField,
    CurvatureField,
    GaugeField,
    diagonal_shift,
    max_entry,
    shifted_read,
)
from sdlattice.curvature import constant_connection, random_connection
from sdlattice.lattice import Window


def delta_field(a, diff_axis, comp_axis):
    """Whole-field forward difference A_{tau_i k}^j - A_k^j by one shifted read."""
    comp = a.component(comp_axis)
    offsets = [0, 0, 0, 0]
    offsets[diff_axis - 1] = 1
    return shifted_read(comp, a.window, offsets) - comp


def test_shifted_read_periodic_matches_sitewise_wrap():
    w = Window((2, 3, 2, 2), "periodic")
    rng = np.random.default_rng(0)
    data = rng.normal(size=w.dims + (2, 2)) + 1j * rng.normal(size=w.dims + (2, 2))
    offsets = (1, -1, 0, 2)
    out = shifted_read(data, w, offsets)
    for k in w.sites():
        src = wrap(w, tuple(c + o for c, o in zip(k, offsets)))
        assert np.array_equal(out[k], data[src])


def test_shifted_read_zero_pads_outside():
    w = Window((2, 2, 2, 2), "zero")
    data = np.ones(w.dims + (2, 2), dtype=complex)
    out = shifted_read(data, w, (1, 0, 0, 0))
    # out[k] = data[k + e1]; row k1 = 1 reads outside -> zero
    assert np.all(out[0] == 1)
    assert np.all(out[1] == 0)
    far = shifted_read(data, w, (5, 0, 0, 0))
    assert not np.any(far)


def test_shifted_read_returns_copy_for_zero_offsets():
    w = Window((2, 2, 2, 2), "periodic")
    data = np.zeros(w.dims + (2, 2), dtype=complex)
    out = shifted_read(data, w, (0, 0, 0, 0))
    out[...] = 1.0
    assert not np.any(data)


def test_field_shape_and_kind_validation():
    w = Window((2, 2, 2, 2))
    with pytest.raises(ValueError):
        ConnectionField(w, np.zeros(w.dims + (6, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        ConnectionField(w, np.zeros(w.dims + (4, 2, 2), dtype=complex), algebra="so3")


def test_field_algebra_ops():
    w = Window((2, 2, 2, 2))
    rng = np.random.default_rng(1)
    f = CurvatureField(w, rng.normal(size=w.dims + (6, 2, 2)) + 0j)
    g = CurvatureField(w, rng.normal(size=w.dims + (6, 2, 2)) + 0j)
    assert not np.any((f - f).data)
    assert np.array_equal((1 * f).data, f.data)
    assert np.array_equal((f + g).data, f.data + g.data)
    assert np.array_equal((f - g).data, (f + (-1) * g).data)
    assert np.array_equal((-f).data, -f.data)
    assert np.array_equal((f * 2.5).data, 2.5 * f.data)


def test_field_mismatch_errors():
    f = CurvatureField.zeros(Window((2, 2, 2, 2)))
    g = CurvatureField.zeros(Window((2, 2, 2, 3)))
    a = ConnectionField.zeros(Window((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        f + a


def test_plane_accessor_antisymmetry():
    w = Window((2, 2, 2, 2))
    rng = np.random.default_rng(2)
    f = CurvatureField(w, rng.normal(size=w.dims + (6, 2, 2)) + 0j)
    k = (1, 0, 1, 0)
    for i, j in PLANES:
        assert np.array_equal(at(f, k, j, i), -at(f, k, i, j))
    with pytest.raises(ValueError):
        at(f, k, 2, 2)
    with pytest.raises(ValueError):
        f.plane(2, 1)


def test_connection_at_boundary_resolution():
    w = Window((2, 2, 2, 2), "zero")
    a = ConnectionField.zeros(w)
    a.component(1)[...] = basis(1)
    assert np.array_equal(at(a, (1, 1, 1, 1), 1), basis(1))
    assert not np.any(at(a, (2, 1, 1, 1), 1))
    g = GaugeField.identity(w)
    assert np.array_equal(at(g, (5, 0, 0, 0)), np.eye(2))


def test_delta_constant_field_is_zero():
    w = Window((3, 3, 3, 3))
    a = constant_connection(w, basis(2))
    for i in (1, 2, 3, 4):
        for j in (1, 2, 3, 4):
            assert not np.any(delta(a, i, j, (1, 2, 0, 1)))
            assert not np.any(delta_field(a, i, j))


def test_delta_linear_ramp_zero_boundary():
    # A_k^1 = k1 * l1 on a zero window: interior forward difference is l1
    w = Window((4, 4, 4, 4), "zero")
    a = ConnectionField.zeros(w)
    for k in w.sites():
        a.component(1)[k] = k[0] * basis(1)
    assert np.array_equal(delta(a, 1, 1, (1, 2, 3, 0)), basis(1))
    # at the top edge the shifted read leaves the window (zero): 0 - 3*l1
    assert np.array_equal(delta(a, 1, 1, (3, 0, 0, 0)), -3 * basis(1))


def test_delta_two_site_periodic_wraparound():
    w = Window((2, 1, 1, 1), "periodic")
    a = ConnectionField.zeros(w)
    x, y = basis(1), basis(2)
    a.component(1)[0, 0, 0, 0] = x
    a.component(1)[1, 0, 0, 0] = y
    assert np.array_equal(delta(a, 1, 1, (0, 0, 0, 0)), y - x)
    assert np.array_equal(delta(a, 1, 1, (1, 0, 0, 0)), x - y)


def test_delta_field_matches_sitewise_delta():
    w = Window((3, 2, 3, 2), "periodic")
    a = random_connection(w, "su2", seed=9)
    arr = delta_field(a, 2, 3)
    for k in w.sites():
        assert np.array_equal(arr[k], delta(a, 2, 3, k))


def test_delta_commutes_with_diagonal_shift():
    w = Window((3, 3, 3, 3), "periodic")
    a = random_connection(w, "su2", seed=4)
    for i, j in ((1, 1), (2, 3), (4, 2)):
        shifted_then = delta_field(
            ConnectionField(w, diagonal_shift(a, "down").data, algebra=a.algebra), i, j
        )
        then_shifted = shifted_read(delta_field(a, i, j), w, (-1, -1, -1, -1))
        assert np.array_equal(shifted_then, then_shifted)


def test_max_entry_values():
    w = Window((2, 2, 2, 2))
    f = CurvatureField.zeros(w)
    assert max_entry(f) == 0.0
    f.plane(1, 2)[0, 0, 0, 0] = basis(3)
    f.plane(3, 4)[1, 1, 1, 1] = 2 * basis(3)
    assert max_entry(f) == pytest.approx(1.0)


def test_diagonal_shift_round_trip():
    w = Window((3, 3, 3, 3), "periodic")
    rng = np.random.default_rng(7)
    f = CurvatureField(w, rng.normal(size=w.dims + (6, 2, 2)) + 0j)
    back = diagonal_shift(diagonal_shift(f, "down"), "up")
    assert np.array_equal(back.data, f.data)
    with pytest.raises(ValueError):
        diagonal_shift(f, "left")
