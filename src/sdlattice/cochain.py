"""Matrix-valued 0-, 1- and 2-cochains over a Window.

A connection (1-cochain) stores four 2x2 matrices per site, one per axis;
a curvature (2-cochain) stores six, one per coordinate plane in the
canonical order (12, 13, 14, 23, 24, 34); a gauge field (0-cochain) stores
one group element per site.  Data lives in dense complex arrays of shape
dims + (slots, 2, 2), sites in row-major order.
"""
from __future__ import annotations

import numbers

import numpy as np

from .algebra import identity
from .lattice import Index, Window

PLANES = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
PLANE_INDEX = {p: n for n, p in enumerate(PLANES)}

ALGEBRA_KINDS = ("su2", "sl2c", "general")


def shifted_read(data: np.ndarray, window: Window, offsets, fill=None) -> np.ndarray:
    """Whole-field shifted read: out[k] = data[k + offsets].

    Periodic windows wrap; zero windows fill reads outside the box with
    `fill` (default zeros).  The first four array axes index the site.
    """
    offsets = tuple(int(o) for o in offsets)
    if window.boundary == "periodic":
        return np.roll(data, tuple(-o for o in offsets), axis=(0, 1, 2, 3))
    if fill is None:
        out = np.zeros_like(data)
    else:
        out = np.empty_like(data)
        out[...] = fill
    src = []
    dst = []
    for n, off in zip(window.dims, offsets):
        lo, hi = max(0, -off), min(n, n - off)
        if lo >= hi:
            return out
        dst.append(slice(lo, hi))
        src.append(slice(lo + off, hi + off))
    out[tuple(dst)] = data[tuple(src)]
    return out


class Field:
    """Common storage and sitewise arithmetic for all cochain ranks."""

    rank: int
    slots: int

    def __init__(self, window: Window, data: np.ndarray, algebra: str = "general",
                 metric: str | None = None):
        expected = window.dims + ((self.slots, 2, 2) if self.slots else (2, 2))
        data = np.asarray(data, dtype=complex)
        if data.shape != expected:
            raise ValueError(f"data shape {data.shape} != expected {expected}")
        if algebra not in ALGEBRA_KINDS:
            raise ValueError(f"unknown algebra kind {algebra!r}")
        self.window = window
        self.data = data
        self.algebra = algebra
        self.metric = metric

    def _like(self, data: np.ndarray) -> "Field":
        return type(self)(self.window, data, algebra=self.algebra, metric=self.metric)

    def _check_compatible(self, other: "Field") -> None:
        if not isinstance(other, Field) or other.rank != self.rank:
            raise ValueError("field rank mismatch")
        if other.window != self.window:
            raise ValueError("field window mismatch")

    def __add__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return self._like(self.data + other.data)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return self._like(self.data - other.data)

    def __mul__(self, c) -> "Field":
        if not isinstance(c, numbers.Number):
            return NotImplemented
        return self._like(self.data * c)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return self._like(-self.data)

    def copy(self) -> "Field":
        return self._like(self.data.copy())


class ConnectionField(Field):
    """1-cochain: components A_k^i on (site, axis) slots."""

    rank = 1
    slots = 4

    @classmethod
    def zeros(cls, window: Window, algebra: str = "su2") -> "ConnectionField":
        return cls(window, np.zeros(window.dims + (4, 2, 2), dtype=complex), algebra)

    def component(self, axis: int) -> np.ndarray:
        """Array view of component A^axis over all sites."""
        if axis not in (1, 2, 3, 4):
            raise ValueError(f"axis must be in 1..4, got {axis!r}")
        return self.data[..., axis - 1, :, :]

    def at(self, k: Index, axis: int) -> np.ndarray:
        """Boundary-resolved read of A_k^axis (zero matrix outside)."""
        site = self.window.wrap(k)
        if site is None:
            return np.zeros((2, 2), dtype=complex)
        return self.component(axis)[site]


class CurvatureField(Field):
    """2-cochain: components F_k^{ij} on (site, plane) slots, i < j."""

    rank = 2
    slots = 6

    @classmethod
    def zeros(cls, window: Window, algebra: str = "general") -> "CurvatureField":
        return cls(window, np.zeros(window.dims + (6, 2, 2), dtype=complex), algebra)

    def plane(self, i: int, j: int) -> np.ndarray:
        """Array view of the F^{ij} slot, i < j canonical."""
        if (i, j) not in PLANE_INDEX:
            raise ValueError(f"plane must be one of {PLANES}, got ({i}, {j})")
        return self.data[..., PLANE_INDEX[(i, j)], :, :]

    def at(self, k: Index, i: int, j: int) -> np.ndarray:
        """Boundary-resolved read of F_k^{ij}; j < i returns -F_k^{ji}."""
        if i == j:
            raise ValueError("plane axes must differ")
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -1.0
        site = self.window.wrap(k)
        if site is None:
            return np.zeros((2, 2), dtype=complex)
        return sign * self.plane(i, j)[site]


class GaugeField(Field):
    """0-cochain of group elements g_k."""

    rank = 0
    slots = 0

    @classmethod
    def identity(cls, window: Window, algebra: str = "su2") -> "GaugeField":
        data = np.empty(window.dims + (2, 2), dtype=complex)
        data[...] = identity()
        return cls(window, data, algebra)

    def at(self, k: Index) -> np.ndarray:
        """Boundary-resolved read of g_k (identity outside a zero window)."""
        site = self.window.wrap(k)
        if site is None:
            return identity()
        return self.data[site]


def delta(field: ConnectionField, diff_axis: int, comp_axis: int, k: Index) -> np.ndarray:
    """Forward difference at a site: A_{tau_i k}^j - A_k^j.

    diff_axis is i (the shifted direction), comp_axis is j (the component
    read).  Reads are boundary-resolved, so on zero windows sites outside
    the box contribute the zero matrix.
    """
    up = list(k)
    up[diff_axis - 1] += 1
    return field.at(tuple(up), comp_axis) - field.at(k, comp_axis)


def delta_field(field: ConnectionField, diff_axis: int, comp_axis: int) -> np.ndarray:
    """Forward difference of one component over all sites at once."""
    comp = field.component(comp_axis)
    offsets = [0, 0, 0, 0]
    offsets[diff_axis - 1] = 1
    return shifted_read(comp, field.window, offsets) - comp


def field_norm(field: Field) -> float:
    """sqrt of the summed squared Frobenius norms of every slot."""
    return float(np.linalg.norm(field.data))


def max_entry(field: Field) -> float:
    """Largest entry magnitude over all sites and slots."""
    return float(np.max(np.abs(field.data))) if field.data.size else 0.0


def diagonal_shift(field: Field, direction: str = "down") -> Field:
    """Field read at diagonally shifted sites: out_k = field_{sigma k} (down)."""
    if direction == "down":
        offsets = (-1, -1, -1, -1)
    elif direction == "up":
        offsets = (1, 1, 1, 1)
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    fill = identity() if isinstance(field, GaugeField) else None
    return field._like(shifted_read(field.data, field.window, offsets, fill=fill))
