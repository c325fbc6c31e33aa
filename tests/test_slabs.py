"""The whole-field kernels give the same bits whether a window is swept as
one slab of the first site axis or as several (`cochain._slabs`), whatever
number of planes they take at once (`cochain._plane_groups`), and whether
the slabs run inline or on threads that each call starts and joins
(`cochain._for_slabs`), and whether a small periodic window reads by one
gather or by block copies (`cochain.GATHER_SITES`)."""
from __future__ import annotations

import dataclasses
import itertools
import math
import multiprocessing
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sdlattice import cochain
from sdlattice.cochain import shifted_read
from sdlattice.curvature import curvature, random_connection
from sdlattice.duality import DualityProblem, residual, residual_componentwise
from sdlattice.hodge import star
from sdlattice.lattice import Window
from sdlattice.solver import SolveConfig, _line_residuals, gradient_coefficients, objective, solve

JOIN_TIMEOUT_S = 120

ALL_PROBLEMS = tuple(
    DualityProblem(m, o) for m in ("euclid", "mink") for o in ("self_dual", "anti_self_dual")
)


@pytest.fixture
def slab_sites(monkeypatch):
    """Set cochain.SLAB_SITES; the slab list and the plane groups are cached
    per window, so the caches are cleared on every change and once more
    before the patch is undone."""
    def clear():
        cochain._slabs.cache_clear()
        cochain._plane_groups.cache_clear()

    def set_sites(sites):
        monkeypatch.setattr(cochain, "SLAB_SITES", sites)
        clear()

    yield set_sites
    clear()


@pytest.fixture
def slab_cpus(monkeypatch):
    """Set the CPUs the process may use, as `cochain._for_slabs` reads them:
    "cpus" keeps the usable ones, None leaves one, so that every slab runs
    inline, and a number n gives n."""
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set(range(os.cpu_count() or 1))

    def set_cpus(cpus):
        chosen = usable if cpus == "cpus" else set(range(cpus or 1))
        monkeypatch.setattr(cochain.os, "sched_getaffinity", lambda pid: chosen, raising=False)

    return set_cpus


def kernel_outputs(w, kind):
    conn = random_connection(w, kind, seed=sum(w.dims), scale=0.8)
    step = random_connection(w, kind, seed=sum(w.dims) + 1, scale=0.3)
    f = curvature(conn)
    out = {"curvature": f.buf}
    for p in ALL_PROBLEMS:
        name = f"{p.metric}-{p.orientation}"
        out["star " + name] = star(f, p.metric).buf
        res = residual(f, p)
        out["residual " + name] = res.buf
        out["residual_componentwise " + name] = residual_componentwise(conn, p).buf
        if w.boundary == "periodic":
            out["objective " + name] = np.float64(objective(conn, p))
            out["gradient_coefficients " + name] = gradient_coefficients(conn, p)
            out["line_residuals r1 " + name], out["line_residuals r2 " + name] = (
                _line_residuals(conn, step, res, p))
    return out


@pytest.mark.parametrize("boundary", ["periodic", "zero"])
@pytest.mark.parametrize("kind", ["su2", "sl2c"])
@pytest.mark.parametrize("dims", [(5, 3, 2, 4), (3, 4, 2, 5)])
def test_multi_slab_kernels_are_bitwise_equal_to_one_slab(slab_sites, dims, kind, boundary):
    w = Window(dims, boundary)
    assert cochain._slabs(dims) == ((None, ...),)
    assert cochain._plane_groups(dims) == (slice(0, 6),)
    whole = kernel_outputs(w, kind)
    # one slab taking three, two and one planes at once; then every row its own
    # slab and two rows per slab (uneven on N1 = 5 and 3), one plane at once
    sites = math.prod(dims)
    rest = sites // dims[0]
    for slab, step, height in ((12 * sites, None, 3), (8 * sites, None, 2), (sites, None, 1),
                               (1, 1, 1), (2 * rest, 2, 1)):
        slab_sites(slab)
        rows = [None] if step is None else [(lo, min(lo + step, dims[0])) for lo in range(0, dims[0], step)]
        assert [r for r, _ in cochain._slabs(dims)] == rows
        assert cochain._plane_groups(dims) == tuple(slice(lo, lo + height) for lo in range(0, 6, height))
        sliced = kernel_outputs(w, kind)
        assert sliced.keys() == whole.keys()
        for name, value in whole.items():
            assert sliced[name].tobytes() == value.tobytes(), (slab, name)


@pytest.mark.parametrize("dims, kind, metric, orientation", [
    ((3, 3, 3, 3), "su2", "euclid", "self_dual"), ((2, 2, 2, 2), "sl2c", "mink", "anti_self_dual")])
def test_a_seeded_solve_is_the_same_one_plane_at_a_time(slab_sites, slab_cpus, dims, kind, metric,
                                                        orientation):
    # six planes at once (the default on these windows) against one, the
    # preconditioner's kernel-built symbol included, on one slab and then
    # with every row its own slab, run on two threads
    conn0 = random_connection(Window(dims, "periodic"), kind, seed=0, scale=1e-2)
    cfg = SolveConfig(DualityProblem(metric, orientation), max_iter=200)
    solver = sys.modules["sdlattice.solver"]
    row = math.prod(dims[1:])
    results = []
    for slab, height, rows in ((cochain.SLAB_SITES, 6, [None]), (math.prod(dims), 1, [None]),
                               (row, 1, [(n, n + 1) for n in range(dims[0])])):
        slab_sites(slab)
        slab_cpus(2 if len(rows) > 1 else None)
        assert [r for r, _ in cochain._slabs(dims)] == rows
        assert cochain._plane_groups(dims)[0] == slice(0, height)
        solver._preconditioner.cache_clear()
        results.append(solve(conn0, cfg))
    six, six_report = results[0]
    assert six_report.converged
    reports = [dataclasses.asdict(report) for _, report in results]
    for report in reports:
        del report["wall_s"]
    for (conn, _), report in zip(results[1:], reports[1:]):
        assert conn.buf.tobytes() == six.buf.tobytes()
        assert report == reports[0]


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


@pytest.mark.parametrize("boundary, fill", [
    ("periodic", None), ("zero", None), ("zero", np.array([[1.0, 2.0j], [-3.0, 0.5]]))])
def test_a_stacked_read_is_the_stack_of_its_slot_reads(monkeypatch, boundary, fill):
    # runs of one slot, of consecutive slots and of any slots, each run at one
    # offset, whole and cut to rows, on axes of four, three, one and two sites,
    # from slots of 2x2 matrices and from slots that carry one more axis, as
    # the line search's (4, 2, 2, 2) + dims and (6, 2, 2, 2) + dims arrays do;
    # this periodic window reads by gather, and a cutoff of 0 sends the same
    # reads through the block copies of `_stacked_blocks`
    for gather_sites in (cochain.GATHER_SITES, 0):
        monkeypatch.setattr(cochain, "GATHER_SITES", gather_sites)
        before = gathers()
        check_stacked_reads(boundary, fill)
        assert (gathers() > before) == (boundary == "periodic" and gather_sites > 0)


def check_stacked_reads(boundary, fill):
    dims = (4, 3, 1, 2)
    w = Window(dims, boundary)
    rng = np.random.default_rng(5)
    for carried in ((), (2,)):
        shape = (6,) + carried + (2, 2) + dims
        data = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for _ in range(60):
            slots, offsets = [], []
            while len(slots) < 7:
                step, first, off = rng.integers(0, 3), rng.integers(0, 6), tuple(rng.integers(-3, 4, size=4))
                for k in range(rng.integers(1, 4)):
                    slot = first + k * step if step < 2 else rng.integers(0, 6)
                    if slot < 6:
                        slots.append(int(slot))
                        offsets.append(off)
            slots, offsets = tuple(slots), tuple(offsets)  # hashable, for the block cache
            for rows in (None, (0, 4), (1, 3), (3, 4)):
                expected = np.stack([shifted_read(data[s], w, o, fill=fill, rows=rows)
                                     for s, o in zip(slots, offsets)]).tobytes()
                read = shifted_read(data, w, offsets, fill=fill, rows=rows, slots=slots)
                assert read.tobytes() == expected
                out = np.full((len(slots),) + shape[1:-4] + (4 if rows is None else rows[1] - rows[0],)
                              + dims[1:], np.nan + 0j)
                assert shifted_read(data, w, offsets, fill=fill, rows=rows, out=out, slots=slots) is out
                assert out.tobytes() == expected


@pytest.mark.parametrize("boundary", ["periodic", "zero"])
def test_a_stacked_read_needs_one_offset_per_slot_and_slots_of_the_data(boundary):
    w = Window((3, 2, 1, 2), boundary)
    data = random_connection(w, "su2", seed=3).buf
    for slots, offsets in (((0, 1), ((1, 0, 0, 0),)), ((2,), ((0, 0, 0, 0), (1, 0, 0, 0))),
                           ((), ((0, 0, 0, 0),)), ((4,), ((0, 0, 0, 0),)), ((-1,), ((0, 0, 0, 0),))):
        with pytest.raises(ValueError, match="slot"):
            shifted_read(data, w, offsets, slots=slots)
    with pytest.raises(ValueError, match="4 entries"):
        shifted_read(data, w, ((1, 0, 0),), slots=(0,))


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


def test_shifted_read_takes_rows_as_a_list_or_a_tuple_of_integers():
    w = Window((3, 2, 2, 2), "periodic")
    data = random_connection(w, "su2", seed=2).buf
    full = shifted_read(data, w, (1, 0, 0, 1))
    for rows in ([0, 2], (0, 2), (np.int64(0), np.int64(2))):
        assert np.array_equal(shifted_read(data, w, (1, 0, 0, 1), rows=rows), full[..., 0:2, :, :, :])
    for rows in ((True, 2), (0, 2.0), (0.0, 2), "02", (0, 1, 2), 2):
        with pytest.raises(ValueError, match="rows"):
            shifted_read(data, w, (1, 0, 0, 1), rows=rows)


def gathers():
    """Gathered reads so far: calls of the cached gather index."""
    info = cochain._gather_index.cache_info()
    return info.hits + info.misses


@pytest.mark.parametrize("kind", ["su2", "sl2c"])
@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (1, 2, 3, 4),
                                  (3, 3, 3, 3), (3, 4, 2, 5), (4, 4, 4, 4)])
def test_gathered_kernels_are_bitwise_the_block_copies(monkeypatch, dims, kind):
    # periodic windows of at most GATHER_SITES sites read by one gather; a
    # cutoff of 0 sends the same reads through the block copies
    w = Window(dims, "periodic")
    before = gathers()
    gathered = kernel_outputs(w, kind)
    assert gathers() > before
    monkeypatch.setattr(cochain, "GATHER_SITES", 0)
    before = gathers()
    copied = kernel_outputs(w, kind)
    assert gathers() == before
    assert copied.keys() == gathered.keys()
    for name, value in gathered.items():
        assert value.tobytes() == copied[name].tobytes(), name


@pytest.mark.parametrize("dims", [(3, 4, 2, 5), (2, 2, 2, 1)])
def test_a_gathered_read_is_bitwise_the_block_copy(monkeypatch, dims):
    # plain, stacked and row-cut reads of contiguous and strided data, at
    # offsets up to three window lengths either way, into a new array, a
    # contiguous out= and a strided out=
    w = Window(dims, "periodic")
    rng = np.random.default_rng(8)

    def draw(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    buf = draw((6, 2, 2) + dims)
    spread = draw((6, 2, 2) + dims[:3] + (3 * dims[3],))[..., ::3]
    n = np.array(dims)
    offsets = [tuple(map(int, rng.integers(-3 * n, 3 * n + 1))) for _ in range(6)]
    offsets += [(0, 0, 0, 0), tuple(map(int, n)), tuple(map(int, -2 * n - 1))]
    reads = [(data, off, {"rows": rows})
             for data in (buf, buf[4], buf[2, 1, 0], buf.transpose(0, 2, 1, 3, 4, 5, 6), spread)
             for off in offsets for rows in (None, (dims[0] - 1, dims[0]))]
    reads += [(data, tuple(offsets[:5]), {"rows": rows, "slots": slots})
              for data, slots in ((buf, (0, 3, 3, 5, 1)), (spread, range(1, 6)))
              for rows in (None, (1, dims[0]))]
    cutoff = cochain.GATHER_SITES
    for data, off, kwargs in reads:
        monkeypatch.setattr(cochain, "GATHER_SITES", 0)
        copied = shifted_read(data, w, off, **kwargs).tobytes()
        monkeypatch.setattr(cochain, "GATHER_SITES", cutoff)
        before = gathers()
        gathered = shifted_read(data, w, off, **kwargs)
        assert gathers() == before + 1
        into = np.full_like(gathered, np.nan)
        strided = np.full(gathered.shape[:-1] + (2 * dims[3],), np.nan + 0j)[..., ::2]
        for out in (into, strided):
            assert shifted_read(data, w, off, out=out, **kwargs) is out
        for read in (gathered, into, strided):
            assert read.tobytes() == copied, (off, kwargs)


def test_zero_large_and_other_dtype_reads_keep_the_block_copies():
    # a zero window, a periodic window of more than GATHER_SITES sites, and
    # real data read into a complex out=, which np.take would refuse
    before = gathers()
    for dims, boundary in (((2, 2, 2, 2), "zero"), ((4, 4, 4, 5), "periodic")):
        data = random_connection(Window(dims, boundary), "su2", seed=1).buf
        shifted_read(data, Window(dims, boundary), (1, 0, 0, 0))
    real = np.arange(16.0).reshape(2, 2, 2, 2)
    out = np.empty((2, 2, 2, 2), dtype=complex)
    assert shifted_read(real, Window((2, 2, 2, 2)), (1, 0, 0, 0), out=out) is out
    assert gathers() == before
    assert np.array_equal(out, np.roll(real, -1, axis=0))


# A (5, 6, 6, 8) window of 2-row slabs: rows [0, 2), [2, 4), [4, 5).  A slab
# holds 576 sites, enough for numpy to release the interpreter lock.
SLABBED = (5, 6, 6, 8)


def run_kernels(conn, p):
    f = curvature(conn)
    return {"curvature": f.buf, "star": star(f, p.metric).buf, "residual": residual(f, p).buf,
            "residual_componentwise": residual_componentwise(conn, p).buf,
            "gradient_coefficients": gradient_coefficients(conn, p)}


def kernel_bits(case):
    return {k: v.tobytes() for k, v in run_kernels(*case).items()}


@pytest.fixture
def slabbed(slab_sites, slab_cpus):
    """Connections and problems on SLABBED, swept in 2-row slabs, and each
    kernel's bytes from inline slabs."""
    slab_sites(2 * 6 * 6 * 8)
    assert [r for r, _ in cochain._slabs(SLABBED)] == [(0, 2), (2, 4), (4, 5)]
    w = Window(SLABBED, "periodic")
    cases = [(random_connection(w, kind, seed=9, scale=0.8), DualityProblem(metric, "self_dual"))
             for kind, metric in (("su2", "euclid"), ("sl2c", "mink"))]
    slab_cpus(None)
    serial = [kernel_bits(case) for case in cases]
    return cases, serial


@pytest.mark.parametrize("workers", ["cpus", 4])
def test_pooled_kernels_repeat_the_inline_bits(slabbed, slab_cpus, workers):
    cases, serial = slabbed
    slab_cpus(workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for case, expected in zip(cases, serial):
            for _ in range(3):
                assert kernel_bits(case) == expected
    finally:
        sys.setswitchinterval(interval)


class SlabFailure(Exception):
    pass


@pytest.mark.parametrize("workers", ["cpus", 4])
def test_a_failing_slab_raises_from_the_kernel(slabbed, slab_cpus, monkeypatch, workers):
    # every kernel reads through shifted_read; the read fails on the middle slab only
    cases, serial = slabbed
    slab_cpus(workers)

    def failing(*args, rows=None, **kwargs):
        if rows == (2, 4):
            raise SlabFailure(rows)
        return shifted_read(*args, rows=rows, **kwargs)

    conn, p = cases[1]
    f = curvature(conn)
    kernels = [lambda: curvature(conn), lambda: star(f, p.metric), lambda: residual(f, p),
               lambda: residual_componentwise(conn, p), lambda: gradient_coefficients(conn, p)]
    modules = [sys.modules[f"sdlattice.{name}"] for name in ("curvature", "hodge", "solver")]
    for module in modules:
        monkeypatch.setattr(module, "shifted_read", failing)
    for kernel in kernels:
        with pytest.raises(SlabFailure):
            kernel()
    for module in modules:
        monkeypatch.setattr(module, "shifted_read", shifted_read)
    assert kernel_bits(cases[1]) == serial[1]


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_a_call_runs_its_slabs_on_threads_it_joins(slabbed, slab_cpus, monkeypatch, cpus):
    # three slabs on min(cpus, 3) threads, or inline on one CPU; every read
    # sleeps, so that no slab ends before the last is submitted (an executor
    # hands work to an idle thread before it starts one)
    cases, serial = slabbed
    slab_cpus(cpus)
    ran = {}

    def recording(*args, rows=None, **kwargs):
        ran.setdefault(rows, set()).add(threading.current_thread())
        time.sleep(0.01)
        return shifted_read(*args, rows=rows, **kwargs)

    monkeypatch.setattr(sys.modules["sdlattice.curvature"], "shifted_read", recording)
    f = curvature(cases[0][0])
    assert sorted(ran) == [(0, 2), (2, 4), (4, 5)]
    assert all(len(threads) == 1 for threads in ran.values())
    threads = set().union(*ran.values())
    if cpus == 1:
        assert threads == {threading.current_thread()}
    else:
        assert len(threads) == min(cpus, 3)
        assert threading.current_thread() not in threads
        assert not any(thread.is_alive() for thread in threads)
    assert f.buf.tobytes() == serial[0]["curvature"]


def test_kernels_from_two_threads_and_from_a_worker_give_the_inline_bits(slabbed, slab_cpus):
    cases, serial = slabbed
    slab_cpus(4)
    pool = ThreadPoolExecutor(4)
    results = {}

    def call(key, case):
        results[key] = kernel_bits(case)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(n, case)) for n, case in enumerate(cases)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(JOIN_TIMEOUT_S)
            assert not caller.is_alive()
        # kernels called from the threads of a busy executor start threads of their own
        inside = [pool.submit(call, ("worker", n), case) for n, case in enumerate(cases) for _ in range(4)]
        for future in inside:
            future.result(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=False, cancel_futures=True)  # a stalled worker must not stall the test
    assert [results[n] for n in range(2)] == serial
    assert [results["worker", n] for n in range(2)] == serial


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_runs_its_slabs_on_a_pool_of_its_own(slabbed, slab_cpus):
    # the child inherits none of the parent's threads
    cases, serial = slabbed
    slab_cpus("cpus")
    assert kernel_bits(cases[0]) == serial[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        with multiprocessing.get_context("fork").Pool(1) as children:
            assert children.apply_async(kernel_bits, (cases[0],)).get(JOIN_TIMEOUT_S) == serial[0]
