from __future__ import annotations

import itertools

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
from sdlattice.curvature import (
    constant_connection,
    curvature,
    diag_invariant_slice,
    pure_gauge,
    random_connection,
    random_gauge,
)
from sdlattice.duality import (
    DualityProblem,
    residual,
    residual_componentwise,
    synthetic_dual_curvature,
)
from sdlattice.fieldio import load, save
from sdlattice.hodge import star
from sdlattice.lattice import Window
from sdlattice.solver import SolveConfig, solve


def delta_field(a, diff_axis, comp_axis):
    """Whole-field forward difference A_{tau_i k}^j - A_k^j by one shifted read,
    sites last like a slot of `Field.buf`."""
    comp = a.buf[comp_axis - 1]
    offsets = [0, 0, 0, 0]
    offsets[diff_axis - 1] = 1
    return shifted_read(comp, a.window, offsets) - comp


def test_shifted_read_periodic_matches_sitewise_wrap():
    # Every offset in {-3..3}^4 on axes of length 1, 2 and 3, so offsets at or
    # beyond the axis length and negative ones are covered.  Two windows with
    # different dims take the same offsets (a cache keyed on the offsets alone
    # fails the second); buffer slots, whole buffers and strided sites-last
    # views of them are read as given.
    for dims in ((3, 1, 2, 3), (2, 3, 3, 1)):
        w = Window(dims, "periodic")
        a = random_connection(w, "sl2c", seed=0)
        f = CurvatureField(w, np.random.default_rng(1).normal(size=dims + (6, 2, 2)))
        inputs = (a.buf[2], f.buf[4, :, 1], f.buf, np.ascontiguousarray(a.buf[:, 1]))
        sites = list(w.sites())
        for offsets in itertools.product(range(-3, 4), repeat=4):
            src = [wrap(w, tuple(c + o for c, o in zip(k, offsets))) for k in sites]
            src = tuple(np.array(src).T)
            for data in inputs:
                out = shifted_read(data, w, offsets)
                assert not np.shares_memory(out, data)
                rolled = np.roll(data, [-o for o in offsets], axis=(-4, -3, -2, -1))
                assert np.array_equal(out, rolled)
                assert np.array_equal(out, data[(...,) + src].reshape(data.shape))


def test_shifted_read_zero_pads_outside():
    w = Window((2, 2, 2, 2), "zero")
    data = np.ones((2, 2) + w.dims, dtype=complex)
    out = shifted_read(data, w, (1, 0, 0, 0))
    # out[..., k] = data[..., k + e1]; row k1 = 1 reads outside -> zero
    assert np.all(out[:, :, 0] == 1)
    assert np.all(out[:, :, 1] == 0)
    far = shifted_read(data, w, (5, 0, 0, 0))
    assert not np.any(far)


def test_shifted_read_zero_matches_sitewise_padding():
    # every offset in {-3..3}^4, so each axis of length 1, 2 and 3 reads from
    # inside, across the edge and wholly outside the box; the one inside
    # block of the shared block table is all that is copied over the fill
    w = Window((3, 1, 2, 3), "zero")
    data = random_connection(w, "sl2c", seed=3).buf[1]
    fill = np.array([[1.0, 2.0j], [-3.0, 0.5]])
    sites = list(w.sites())
    for offsets in itertools.product(range(-3, 4), repeat=4):
        out = shifted_read(data, w, offsets, fill=fill)
        for k in sites:
            src = wrap(w, tuple(c + o for c, o in zip(k, offsets)))
            expected = fill if src is None else data[(...,) + src]
            assert np.array_equal(out[(...,) + k], expected)


def test_shifted_read_returns_copy_for_zero_offsets():
    w = Window((2, 2, 2, 2), "periodic")
    data = np.zeros((2, 2) + w.dims, dtype=complex)
    out = shifted_read(data, w, (0, 0, 0, 0))
    out[...] = 1.0
    assert not np.any(data)


def test_shifted_read_refuses_offsets_without_four_entries():
    # a short tuple would shift the wrong axis and a long one drop an entry
    w = Window((3, 3, 3, 3), "periodic")
    data = np.arange(81.0).reshape(w.dims)
    for offsets in ((1,), (0, 0, 0, 0, 1)):
        for window in (w, Window(w.dims, "zero")):
            with pytest.raises(ValueError):
                shifted_read(data, window, offsets)


def test_field_shape_and_kind_validation():
    w = Window((2, 2, 2, 2))
    with pytest.raises(ValueError):
        ConnectionField(w, np.zeros(w.dims + (6, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        ConnectionField(w, np.zeros(w.dims + (4, 2, 2), dtype=complex), algebra="so3")
    # a field file could not hold these labels
    for metric in ("lorentz", "Euclid", ""):
        with pytest.raises(ValueError, match="metric"):
            CurvatureField(w, np.zeros(w.dims + (6, 2, 2), dtype=complex), metric=metric)


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
        assert np.array_equal(arr[(...,) + k], delta(a, 2, 3, k))


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


def assert_buffer_layout(f):
    """f owns a C-contiguous complex (slots, 2, 2) + dims buffer and .data
    views it: what the constructor guarantees and `Field._from_buf` trusts
    the kernels to pass."""
    entries = (f.slots, 2, 2) if f.slots else (2, 2)
    assert f.buf.shape == entries + f.window.dims and f.buf.dtype == complex
    assert f.buf.flags.c_contiguous
    assert f.data.shape == f.window.dims + entries
    assert np.shares_memory(f.data, f.buf)


def test_every_returned_field_has_a_c_contiguous_sites_last_buffer(tmp_path):
    for dims in ((3, 1, 2, 2), (2, 2, 2, 2)):
        for boundary in ("periodic", "zero"):
            w = Window(dims, boundary)
            a = random_connection(w, "sl2c", seed=3, scale=0.3)
            g = random_gauge(w, "su2", seed=4)
            f = curvature(a)
            problem = DualityProblem("mink", "self_dual")
            fields = [
                ConnectionField.zeros(w), CurvatureField.zeros(w), GaugeField.identity(w),
                a, g, pure_gauge(g), f, star(f, "mink"), residual(f, problem),
                residual_componentwise(a, problem),
                diagonal_shift(a), diagonal_shift(f, "up"), diagonal_shift(g),
                a + a, f - f, 2.0 * f, f * 1j, f * np.clongdouble(0.5), -g, a.copy(),
            ]
            if boundary == "periodic":
                slice12 = diag_invariant_slice(w, seed=5)
                fields.append(synthetic_dual_curvature(slice12, "euclid", w))
                fields.append(solve(a, SolveConfig(problem, max_iter=2))[0])
            for n, field in enumerate(fields):
                assert_buffer_layout(field)
                save(field, tmp_path / f"f{n}.field")
                assert_buffer_layout(load(tmp_path / f"f{n}.field"))


def test_field_from_c_order_array_keeps_values_and_writes_land():
    w = Window((3, 2, 1, 2))
    rng = np.random.default_rng(6)
    raw = rng.normal(size=w.dims + (4, 2, 2)) + 1j * rng.normal(size=w.dims + (4, 2, 2))
    raw[raw.real > 1.0] = complex(-0.0, -0.0)
    a = ConnectionField(w, raw)
    assert_buffer_layout(a)
    assert np.ascontiguousarray(a.data).tobytes() == raw.tobytes()
    # a dims-first view of another field's buffer is taken without a copy
    assert np.shares_memory(ConnectionField(w, a.data).buf, a.buf)
    m = basis(2)
    a.component(3)[2, 1, 0, 1] = m
    assert np.array_equal(a.buf[2, :, :, 2, 1, 0, 1], m)
    assert np.array_equal(a.data[2, 1, 0, 1, 2], m)
    f = CurvatureField.zeros(w)
    f.plane(2, 4)[...] = m
    assert np.array_equal(f.buf[4], np.broadcast_to(m[:, :, None, None, None, None], (2, 2) + w.dims))
    assert max_entry(f) == np.max(np.abs(m))
