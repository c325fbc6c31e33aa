"""Matrix-valued 0-, 1- and 2-cochains over a Window.

A connection (1-cochain) stores four 2x2 matrices per site, one per axis;
a curvature (2-cochain) stores six, one per coordinate plane in the
canonical order (12, 13, 14, 23, 24, 34); a gauge field (0-cochain) stores
one group element per site.

Shape and memory order differ.  `Field.data` has shape dims + (slots, 2, 2)
(rank 0: dims + (2, 2)), sites in row-major order.  It is a view of
`Field.buf`, one C-contiguous array of shape (slots, 2, 2) + dims (rank 0:
(2, 2) + dims): matrix entries outermost, so each entry of each slot is one
contiguous run over the sites.  The kernels work on `buf`, where every
whole-field operation is one contiguous sweep; their one site read,
`shifted_read`, takes any array whose last four axes are the sites, such
as `buf` or one of its slots, and copies blocks of one cached table: all
of them on periodic windows, only the one inside the box on zero windows;
with slots= it reads a stack of slots, each at its own offsets, in one call.
On periodic windows of at most GATHER_SITES sites a read is one np.take.
Every kernel is the body of one tile, which `_for_tiles` calls for each
slab of first-axis rows (`_slabs`) and each group of planes
(`_plane_groups`: 6 on 2^4-3^4, 3 on 4^4, 1 from 5^4 on), each term of a
tile one numpy call; the slabs of a window run on threads that each
`_for_slabs` call starts and joins, one per usable CPU and at most one per
slab, and results are bitwise the same for any slab size, group and thread
count.
"""
from __future__ import annotations

import functools
import numbers
import operator
import os

import numpy as np

from .algebra import BASIS, identity
from .lattice import METRICS, Window

PLANES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
PLANE_INDEX = {p: n for n, p in enumerate(PLANES)}

ALGEBRA_KINDS = ("su2", "sl2c", "general")

# Sites up to which a periodic read is one gather: on 2 vCPUs a star read took 3.5/5.1/6.3
# us at 2^4/3^4/4^4 against 24.4/28.0/19.6 us as block copies; from 5^4 on it is mixed.
GATHER_SITES = 256


# Axis orders from a sites-last array to its dims-first view and back, by ndim.
_TO_SITES_FIRST = {n: tuple(range(n - 4, n)) + tuple(range(n - 4)) for n in range(4, 8)}
_TO_SITES_LAST = {n: tuple(range(4, n)) + (0, 1, 2, 3) for n in range(4, 8)}


def _sites_first(x: np.ndarray) -> np.ndarray:
    return x.transpose(_TO_SITES_FIRST[x.ndim])


def _sites_last(x: np.ndarray) -> np.ndarray:
    return x.transpose(_TO_SITES_LAST[x.ndim])


def shifted_read(data: np.ndarray, window: Window, offsets, fill=None, rows=None, out=None,
                 slots=None):
    """Whole-field shifted read over the trailing site axes:
    out[..., k] = data[..., k + offsets].

    The last four axes of `data` are the sites (`Field.buf`, or one of its
    slots); any leading axes are carried along.  Both boundaries follow one
    cached block table (`_blocks`): periodic windows copy every block, so
    reads wrap, or on at most GATHER_SITES sites take it as one cached
    index for np.take unless `out` has another dtype; zero windows copy
    the block inside the box over `fill` (default zeros), a 2x2 matrix
    broadcast over the sites.  rows=(lo, hi) reads first indices [lo, hi)
    only, into `out` (not overlapping `data`) or a new array.
    slots=(s_0, s_1, ...), a tuple or range, reads a stack in one call, with
    `offsets` a tuple of one offset tuple per slot: out[n] is slot s_n of
    `data` (its first axis) read at offsets[n], any axes between the first
    and the sites carried along.
    Raises ValueError if the last four axes of `data` are not the window
    dims, if an offset does not have four entries, if `rows` is not a pair
    of integers (bools refused) or unless 0 <= lo < hi <= N1, and if
    `slots` and `offsets` differ in length or a slot is not an index of the
    first axis of `data`.
    """
    if data.shape[-4:] != window.dims:
        raise ValueError(f"data shape {data.shape} does not end in the window dims {window.dims}")
    if rows is not None:  # a tuple of ints, so that the block cache can take it
        try:
            lo, hi = rows
            if isinstance(lo, bool) or isinstance(hi, bool):
                raise TypeError
            rows = (operator.index(lo), operator.index(hi))
        except (TypeError, ValueError):
            raise ValueError(f"rows must be a pair of integers (lo, hi), got {rows!r}") from None
    offsets = tuple(offsets) if slots is None else offsets
    periodic = window.boundary == "periodic"
    if periodic and window.n_sites <= GATHER_SITES and (out is None or out.dtype == data.dtype):
        index = _gather_index(data.shape, offsets, rows, slots)
        return np.take(data.reshape(-1), index, out=out, mode="wrap")
    return _copy_blocks(data, periodic, offsets, fill, rows, out, slots)


# 8 B per entry read: at most 96 KiB (4^4: 12 slots x 4 x 256 sites), 6 MiB in all.
@functools.lru_cache(maxsize=64)
def _gather_index(shape: tuple, offsets: tuple, rows, slots) -> np.ndarray:
    """Read-only periodic read of the flat indices of C-ordered `shape` data."""
    flat = np.arange(np.prod(shape), dtype=np.intp).reshape(shape)
    index = _copy_blocks(flat, True, offsets, None, rows, None, slots)
    index.flags.writeable = False
    return index


def _copy_blocks(data, periodic, offsets, fill, rows, out, slots):
    """`shifted_read` as copies of the blocks of `_blocks` or `_stacked_blocks`."""
    shape = data.shape if rows is None else data.shape[:-4] + (rows[1] - rows[0],) + data.shape[-3:]
    if slots is None:
        blocks = _blocks(data.shape[-4:], offsets, rows)
    else:
        blocks = _stacked_blocks(data.shape[-4:], slots, offsets, rows, len(data))
        shape = (len(slots),) + shape[1:]
    if out is None:
        like = np.empty_like if periodic or fill is not None else np.zeros_like
        out = like(data) if shape == data.shape else like(data, shape=shape)
    elif not periodic and fill is None:
        out[...] = 0
    if not periodic and fill is not None:
        out[...] = np.asarray(fill)[..., None, None, None, None]
    for dst, src, inside in blocks:
        if periodic or inside:
            out[dst] = data[src]
    return out


@functools.lru_cache(maxsize=4096)
def _blocks(dims: tuple, offsets: tuple, rows=None) -> tuple:
    """(destination, source, inside) rows whose copies make a periodic read;
    destination and source are an Ellipsis then one slice per site axis.

    Along an axis shifted by s = offset mod n > 0, sites [0, n - s) read
    [s, n) and sites [n - s, n) read [0, s); an unshifted axis is one block.
    rows=(lo, hi) cuts destinations to [lo, hi) on the first axis, counted
    from lo.  A block is inside if no read wraps (source = destination +
    offset): one at most, none if |offset| >= n.  Raises ValueError unless
    there is one offset per axis and 0 <= lo < hi <= dims[0].
    """
    if len(offsets) != len(dims):
        raise ValueError(f"offsets must have {len(dims)} entries, got {offsets!r}")
    if rows is not None and not 0 <= rows[0] < rows[1] <= dims[0]:
        raise ValueError(f"rows must satisfy 0 <= lo < hi <= {dims[0]}, got {rows!r}")
    blocks = [((...,), (...,), True)]
    for n, off, (lo, hi) in zip(dims, offsets, [rows or (0, dims[0])] + [(0, n) for n in dims[1:]]):
        s = off % n
        # destinations [d, e) read [d + sh, e + sh), cut to [lo, hi)
        runs = [(max(d, lo), min(e, hi), sh) for d, e, sh in ((0, n - s, s), (n - s, n, s - n))
                if max(d, lo) < min(e, hi)]
        blocks = [(dst + (slice(d - lo, e - lo),), src + (slice(d + sh, e + sh),),
                   inside and sh == off) for dst, src, inside in blocks for d, e, sh in runs]
    return tuple(blocks)


@functools.lru_cache(maxsize=1024)
def _stacked_blocks(dims: tuple, slots: tuple, offsets: tuple, rows, n_slots: int) -> tuple:
    """The blocks of a stacked read (`shifted_read` with slots=) from data of
    `n_slots` slots, each led by its output and source slots: slot n reads
    slot slots[n] at offsets[n].  A run of output slots that read one slot,
    or consecutive slots, at the same offsets is one block per `_blocks`
    entry.  Raises ValueError unless there is one offset per slot and every
    slot is in [0, n_slots)."""
    slots = tuple(map(operator.index, slots))
    if len(slots) != len(offsets) or not all(0 <= slot < n_slots for slot in slots):
        raise ValueError(f"need one offset per slot, each slot in [0, {n_slots}), "
                         f"got slots {slots!r} and offsets {offsets!r}")
    runs = []  # (first output slot, source slots, offsets)
    for n, (slot, off) in enumerate(zip(slots, offsets)):
        if runs and runs[-1][2] == off:
            src = runs[-1][1] + (slot,)
            if src[1] - src[0] in (0, 1) and src[-1] - src[-2] == src[1] - src[0]:
                runs[-1] = (runs[-1][0], src, off)
                continue
        runs.append((n, (slot,), off))
    return tuple(((slice(n, n + len(src)),) + dst,
                  (src[0] if src[1:2] == src[:1] else slice(src[0], src[-1] + 1),) + source, inside)
                 for n, src, off in runs
                 for dst, source, inside in _blocks(dims, off, rows))


# Sites per slab: a slot of 4 096 sites is 256 KiB, so a plane's intermediates stay
# in a 2 MiB L2.  One kernels-16 op pair took 833 ms at 4 096 (1 row), 824 at 8 192,
# 886 at 16 384 and 1 173 as one slab; at 8^4, 51 ms as one slab, 67 at 2 048.
SLAB_SITES = 4096


@functools.lru_cache(maxsize=64)
def _slabs(dims: tuple) -> tuple:
    """((lo, hi) of the first site axis, its sites-last index) per slab."""
    step = max(1, SLAB_SITES // (dims[1] * dims[2] * dims[3]))
    if step >= dims[0]:
        return ((None, ...),)
    return tuple(((lo, min(lo + step, dims[0])), (..., slice(lo, lo + step)) + (slice(None),) * 3)
                 for lo in range(0, dims[0], step))


@functools.lru_cache(maxsize=64)
def _plane_groups(dims: tuple) -> tuple:
    """Slices of the six plane slots that a kernel takes at once: the most
    planes, a divisor of 6, whose reads (four slots a plane) hold at most
    SLAB_SITES site-slots, so a window of several slabs takes one plane."""
    sites = dims[0] * dims[1] * dims[2] * dims[3]
    height = max(h for h in (1, 2, 3, 6) if h == 1 or 4 * h * sites <= SLAB_SITES)
    return tuple(slice(lo, lo + height) for lo in range(0, 6, height))


def _for_slabs(dims: tuple, body) -> None:
    """body(rows, index) for every slab of `_slabs(dims)`: inline for one slab
    or on one usable CPU, else on threads this call starts, one per usable CPU
    and at most one per slab, all joined before the first slab's exception,
    if any, is raised."""
    slabs = _slabs(dims)
    threads = 1
    if len(slabs) > 1:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        threads = min(cpus, len(slabs))
    if threads == 1:
        for rows, index in slabs:
            body(rows, index)
        return
    from concurrent.futures import ThreadPoolExecutor  # 7-9 ms to import, for multi-slab windows only
    with ThreadPoolExecutor(threads) as pool:
        futures = [pool.submit(body, rows, index) for rows, index in slabs]
    for future in futures:
        future.result()


def _for_tiles(dims: tuple, body) -> None:
    """body(rows, index, group) for every tile: per slab of `_for_slabs`,
    every plane group of `_plane_groups(dims)` in order, in one thread."""
    groups = _plane_groups(dims)

    def slab(rows, index):
        for group in groups:
            body(rows, index, group)
    _for_slabs(dims, slab)


def _check_labels(algebra: str, metric: str | None) -> None:
    if algebra not in ALGEBRA_KINDS:
        raise ValueError(f"unknown algebra kind {algebra!r}")
    if metric is not None and metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS} or None, got {metric!r}")


class Field:
    """Common storage and sitewise arithmetic for all cochain ranks.

    The constructor copies `data` into `buf` only if its sites-last
    transpose is not C-contiguous; otherwise `buf` shares its memory.
    """

    rank: int
    slots: int

    def __init__(self, window: Window, data: np.ndarray, algebra: str = "general",
                 metric: str | None = None):
        expected = window.dims + ((self.slots, 2, 2) if self.slots else (2, 2))
        data = np.asarray(data, dtype=complex)
        if data.shape != expected:
            raise ValueError(f"data shape {data.shape} != expected {expected}")
        _check_labels(algebra, metric)
        self.window = window
        self.buf = np.ascontiguousarray(_sites_last(data))
        self.algebra = algebra
        self.metric = metric

    @property
    def data(self) -> np.ndarray:
        """Dims-first view of `buf`: shape dims + (slots, 2, 2)."""
        return _sites_first(self.buf)

    @classmethod
    def _from_buf(cls, window: Window, buf: np.ndarray, algebra: str,
                  metric: str | None = None) -> "Field":
        """The field on `buf` itself: the caller passes a fresh C-contiguous
        complex array of shape (slots, 2, 2) + dims (rank 0: (2, 2) + dims),
        which is not checked; the labels are, as in the constructor."""
        _check_labels(algebra, metric)
        field = object.__new__(cls)
        field.window, field.buf, field.algebra, field.metric = window, buf, algebra, metric
        return field

    def _like(self, buf: np.ndarray) -> "Field":
        return self._from_buf(self.window, buf, self.algebra, self.metric)

    def _check_compatible(self, other: "Field") -> None:
        if not isinstance(other, Field) or other.rank != self.rank:
            raise ValueError("field rank mismatch")
        if other.window != self.window:
            raise ValueError("field window mismatch")

    def __add__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return self._like(self.buf + other.buf)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return self._like(self.buf - other.buf)

    def __mul__(self, c) -> "Field":
        if not isinstance(c, numbers.Number):
            return NotImplemented
        return self._like(np.multiply(self.buf, c, dtype=complex))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return self._like(-self.buf)

    def copy(self) -> "Field":
        return self._like(self.buf.copy())


class ConnectionField(Field):
    """1-cochain: components A_k^i on (site, axis) slots."""

    rank = 1
    slots = 4

    @classmethod
    def zeros(cls, window: Window, algebra: str = "su2") -> "ConnectionField":
        return cls._from_buf(window, np.zeros((4, 2, 2) + window.dims, dtype=complex), algebra)

    @classmethod
    def from_coefficients(cls, window: Window, coeff: np.ndarray, algebra: str) -> "ConnectionField":
        """Connection sum_a c_a l_a per (site, axis); coeff has shape
        dims + (4, 3), real or complex.  The sum is written into the buffer
        from a sites-last copy of coeff, so every operand sweeps contiguous
        sites."""
        buf = np.empty((4, 2, 2) + window.dims, dtype=complex)
        np.einsum("sa...,aij->sij...", np.ascontiguousarray(_sites_last(coeff)), BASIS, out=buf)
        return cls._from_buf(window, buf, algebra)

    def component(self, axis: int) -> np.ndarray:
        """Array view of component A^axis over all sites."""
        if axis not in (1, 2, 3, 4):
            raise ValueError(f"axis must be in 1..4, got {axis!r}")
        return self.data[..., axis - 1, :, :]


class CurvatureField(Field):
    """2-cochain: components F_k^{ij} on (site, plane) slots, i < j."""

    rank = 2
    slots = 6

    @classmethod
    def zeros(cls, window: Window, algebra: str = "general") -> "CurvatureField":
        return cls._from_buf(window, np.zeros((6, 2, 2) + window.dims, dtype=complex), algebra)

    def plane(self, i: int, j: int) -> np.ndarray:
        """Array view of the F^{ij} slot, i < j canonical."""
        if (i, j) not in PLANE_INDEX:
            raise ValueError(f"plane must be one of {PLANES}, got ({i}, {j})")
        return self.data[..., PLANE_INDEX[(i, j)], :, :]


class GaugeField(Field):
    """0-cochain of group elements g_k."""

    rank = 0
    slots = 0

    @classmethod
    def identity(cls, window: Window, algebra: str = "su2") -> "GaugeField":
        buf = np.empty((2, 2) + window.dims, dtype=complex)
        buf[...] = identity()[:, :, None, None, None, None]
        return cls._from_buf(window, buf, algebra)


def max_entry(field: Field) -> float:
    """Largest entry magnitude over all sites and slots."""
    return float(np.max(np.abs(field.buf))) if field.buf.size else 0.0


def diagonal_shift(field: Field, direction: str = "down") -> Field:
    """Field read at diagonally shifted sites: out_k = field_{sigma k} (down)."""
    if direction == "down":
        offsets = (-1, -1, -1, -1)
    elif direction == "up":
        offsets = (1, 1, 1, 1)
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    fill = identity() if isinstance(field, GaugeField) else None
    return field._like(shifted_read(field.buf, field.window, offsets, fill=fill))
