"""The whole-field kernels give the same bits whether a window is swept as
one slab of the first site axis or as several (`cochain._slabs`)."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from sdlattice import cochain
from sdlattice.cochain import shifted_read
from sdlattice.curvature import curvature, random_connection
from sdlattice.duality import DualityProblem, residual, residual_componentwise
from sdlattice.hodge import star
from sdlattice.lattice import Window
from sdlattice.solver import gradient_coefficients, objective

ALL_PROBLEMS = tuple(
    DualityProblem(m, o) for m in ("euclid", "mink") for o in ("self_dual", "anti_self_dual")
)


@pytest.fixture
def slab_sites(monkeypatch):
    """Set cochain.SLAB_SITES; the slab list is cached per window, so the
    cache is cleared on every change and once more before the patch is undone."""
    def set_sites(sites):
        monkeypatch.setattr(cochain, "SLAB_SITES", sites)
        cochain._slabs.cache_clear()

    yield set_sites
    cochain._slabs.cache_clear()


def kernel_outputs(w, kind):
    conn = random_connection(w, kind, seed=sum(w.dims), scale=0.8)
    f = curvature(conn)
    out = {"curvature": f.buf}
    for p in ALL_PROBLEMS:
        name = f"{p.metric}-{p.orientation}"
        out["star " + name] = star(f, p.metric).buf
        out["residual " + name] = residual(f, p).buf
        out["residual_componentwise " + name] = residual_componentwise(conn, p).buf
        if w.boundary == "periodic":
            out["objective " + name] = np.float64(objective(conn, p))
            out["gradient_coefficients " + name] = gradient_coefficients(conn, p)
    return out


@pytest.mark.parametrize("boundary", ["periodic", "zero"])
@pytest.mark.parametrize("kind", ["su2", "sl2c"])
@pytest.mark.parametrize("dims", [(5, 3, 2, 4), (3, 4, 2, 5)])
def test_multi_slab_kernels_are_bitwise_equal_to_one_slab(slab_sites, dims, kind, boundary):
    w = Window(dims, boundary)
    assert cochain._slabs(dims) == ((None, ...),)
    whole = kernel_outputs(w, kind)
    # every row its own slab, then two rows per slab (uneven on N1 = 5 and 3)
    rest = dims[1] * dims[2] * dims[3]
    for sites, step in ((1, 1), (2 * rest, 2)):
        slab_sites(sites)
        rows = [(lo, min(lo + step, dims[0])) for lo in range(0, dims[0], step)]
        assert [r for r, _ in cochain._slabs(dims)] == rows
        sliced = kernel_outputs(w, kind)
        assert sliced.keys() == whole.keys()
        for name, value in whole.items():
            assert sliced[name].tobytes() == value.tobytes(), (sites, name)


@pytest.mark.parametrize("boundary, fill", [
    ("periodic", None), ("zero", None), ("zero", np.array([[1.0, 2.0j], [-3.0, 0.5]]))])
def test_shifted_read_rows_are_rows_of_the_full_read(boundary, fill):
    # every offset in {-3..3}^4 and every row range of a five-row first axis;
    # zero windows read over zeros or a fill, and a read into out= overwrites
    # all of it
    dims = (5, 3, 1, 2)
    w = Window(dims, boundary)
    data = random_connection(w, "sl2c", seed=4).buf
    row_ranges = [(lo, hi) for lo in range(5) for hi in range(lo + 1, 6)]
    for offsets in itertools.product(range(-3, 4), repeat=4):
        full = shifted_read(data, w, offsets, fill=fill)
        for lo, hi in row_ranges:
            part = shifted_read(data, w, offsets, fill=fill, rows=(lo, hi))
            assert np.array_equal(part, full[..., lo:hi, :, :, :])
            out = np.full_like(part, np.nan)
            assert shifted_read(data, w, offsets, fill=fill, rows=(lo, hi), out=out) is out
            assert np.array_equal(out, part)


@pytest.mark.parametrize("boundary", ["periodic", "zero"])
def test_shifted_read_refuses_rows_outside_the_window(boundary):
    # (0, 10) on five rows used to return ten rows, the last five never
    # written; (-2, 3) returned five misplaced rows
    w = Window((5, 3, 1, 2), boundary)
    data = random_connection(w, "su2", seed=1).buf
    out = np.full(data.shape[:-4] + (3,) + data.shape[-3:], 7.0 + 0j)
    for rows in ((0, 10), (-2, 3), (3, 3), (4, 2), (5, 6)):
        with pytest.raises(ValueError, match="rows"):
            shifted_read(data, w, (1, 0, 0, 0), rows=rows)
        with pytest.raises(ValueError, match="rows"):
            shifted_read(data, w, (1, 0, 0, 0), rows=rows, out=out)
        assert np.all(out == 7.0)  # refused before anything is written
