"""Property tests of the exact identities on random periodic windows, and
of the shifted read against an index reference on periodic and zero ones.

The seeded checks run on cubic windows; here every axis has 1 to 5 sites,
so windows are mostly non-cubic and include one-site axes.  Examples are
derandomized, so a run is reproducible.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import random_curvature
from sdlattice.checks import (
    ALL_PROBLEMS,
    check_path_equivalence,
    check_prop1,
    check_prop2,
    check_relation_13,
)
from sdlattice.cochain import (
    ConnectionField,
    CurvatureField,
    GaugeField,
    diagonal_shift,
    shifted_read,
)
from sdlattice.curvature import diag_invariant_slice
from sdlattice.duality import residual, synthetic_dual_curvature
from sdlattice.hodge import star
from sdlattice.lattice import Window

DIMS = st.tuples(*[st.integers(1, 5)] * 4)
OFFSETS = st.tuples(*[st.integers(-5, 5)] * 4)
SEEDS = st.integers(0, 2**31 - 1)
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)


@PROPERTY
@given(DIMS, SEEDS)
def test_prop1_double_star_fixes_euclidean_dual_fields(dims, seed):
    result = check_prop1(seed=seed, dims=dims, count=2)
    assert result.ok, result.details


@PROPERTY
@given(DIMS, SEEDS)
def test_prop2_double_star_negates_minkowski_dual_fields(dims, seed):
    result = check_prop2(seed=seed, dims=dims, count=2)
    assert result.ok, result.details


@PROPERTY
@given(DIMS, SEEDS)
def test_relation_13_family_is_exactly_dual_and_diagonal_invariant(dims, seed):
    result = check_relation_13(seed=seed, dims=dims, count=4)
    assert result.ok, result.details
    w = Window(dims, "periodic")
    for n, problem in enumerate(ALL_PROBLEMS):
        kind = "su2" if problem.metric == "euclid" else "sl2c"
        gen = diag_invariant_slice(w, seed + n, kind=kind)
        f = synthetic_dual_curvature(gen, problem.metric, w, problem.orientation)
        assert not np.any(residual(f, problem).data)


@PROPERTY
@given(DIMS, SEEDS)
def test_path_equivalence(dims, seed):
    result = check_path_equivalence(seed=seed, dims_list=(dims,), count=1, tol=1e-13)
    assert result.ok, result.details


@PROPERTY
@given(DIMS, SEEDS)
def test_star_adjoint_is_signed_diagonal_up_shift_of_star(dims, seed):
    # <*X, Y> = <X, s tau(*Y)> under Re sum conj(a) b, s = +1 (euclid), -1 (mink)
    w = Window(dims, "periodic")
    x = random_curvature(w, seed=seed)
    y = random_curvature(w, seed=seed + 1)
    bound = 1e-12 * np.linalg.norm(x.data) * np.linalg.norm(y.data)
    for metric, s in (("euclid", 1.0), ("mink", -1.0)):
        lhs = np.vdot(star(x, metric).data, y.data).real
        rhs = np.vdot(x.data, s * diagonal_shift(star(y, metric), "up").data).real
        assert abs(lhs - rhs) <= bound


def reference_read(data, window, offsets, fill=None):
    """out[..., k] = data[..., k + offsets] over the last four axes, by np.roll
    (periodic) or modular indexing with the reads outside the box set to the
    2x2 matrix `fill` (zero windows)."""
    if window.boundary == "periodic":
        return np.roll(data, [-o for o in offsets], axis=(-4, -3, -2, -1))
    if fill is None:
        out = np.zeros_like(data)
    else:
        out = np.broadcast_to(fill[:, :, None, None, None, None], data.shape).copy()
    src = np.meshgrid(*(np.arange(n) + o for n, o in zip(window.dims, offsets)), indexing="ij")
    inside = np.logical_and.reduce([(k >= 0) & (k < n) for k, n in zip(src, window.dims)])
    out[..., inside] = data[(...,) + tuple(k[inside] for k in src)]
    return out


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.tuples(*[st.integers(1, 4)] * 4),
    OFFSETS,
    st.sampled_from(["periodic", "zero"]),
    st.sampled_from([GaugeField, ConnectionField, CurvatureField]),
    st.sampled_from(["raw", "buf", "slot"]),
    st.booleans(),
    SEEDS,
)
def test_shifted_read_matches_roll_and_modular_index_reference(
    dims, offsets, boundary, cls, view, with_fill, seed
):
    # raw C-order sites-last arrays, Field.buf and single buffer slots must
    # read alike, zero signs included; the last four axes are the sites
    w = Window(dims, boundary)
    rng = np.random.default_rng(seed)
    shape = ((cls.slots, 2, 2) if cls.slots else (2, 2)) + dims
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    raw[raw.real > 1.0] = complex(-0.0, -0.0)
    data = raw
    if view != "raw":
        # the constructor takes dims-first data and copies it into its buffer
        data = cls(w, np.moveaxis(raw, (-4, -3, -2, -1), (0, 1, 2, 3))).buf
        assert data.tobytes() == raw.tobytes()
    if view == "slot" and cls.slots:
        data = data[int(rng.integers(cls.slots))]
    fill = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) if with_fill else None
    out = shifted_read(data, w, offsets, fill=fill)
    expected = reference_read(data, w, offsets, fill)
    assert out.shape == data.shape
    assert not np.shares_memory(out, data)
    assert np.ascontiguousarray(out).tobytes() == expected.tobytes()
    # data whose last four axes are not the window dims is refused
    with pytest.raises(ValueError):
        shifted_read(np.zeros(data.shape[:-1] + (dims[-1] + 1,), complex), w, offsets, fill=fill)
