"""Property tests of the exact identities on random periodic windows.

The seeded checks run on cubic windows; here every axis has 1 to 5 sites,
so windows are mostly non-cubic and include one-site axes.  Examples are
derandomized, so a run is reproducible.
"""
from __future__ import annotations

import numpy as np
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
from sdlattice.cochain import diagonal_shift
from sdlattice.curvature import diag_invariant_slice
from sdlattice.duality import residual, synthetic_dual_curvature
from sdlattice.hodge import star
from sdlattice.lattice import Window

DIMS = st.tuples(*[st.integers(1, 5)] * 4)
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
