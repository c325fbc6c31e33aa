"""Multi-index arithmetic on Z^4 and finite computation windows.

Sites are 4-tuples of integers.  Axes are 1-based throughout the public
interface.  A Window truncates Z^4 to dims (N1, N2, N3, N4) with either
periodic wrapping or zero-padded reads outside the box.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

AXES = (1, 2, 3, 4)

Index = tuple[int, int, int, int]

BOUNDARIES = ("periodic", "zero")


def _check_axis(axis: int) -> None:
    if axis not in AXES:
        raise ValueError(f"axis must be in 1..4, got {axis!r}")


def _check_direction(direction: str) -> int:
    if direction == "up":
        return 1
    if direction == "down":
        return -1
    raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")


def shift_up(k: Index, axis: int) -> Index:
    """tau_i: increment component `axis` of k."""
    _check_axis(axis)
    out = list(k)
    out[axis - 1] += 1
    return tuple(out)


def shift_down(k: Index, axis: int) -> Index:
    """sigma_i: decrement component `axis` of k."""
    _check_axis(axis)
    out = list(k)
    out[axis - 1] -= 1
    return tuple(out)


def shift_pair(k: Index, i: int, j: int, direction: str = "up") -> Index:
    """tau_ij / sigma_ij: shift two distinct components one step."""
    _check_axis(i)
    _check_axis(j)
    if i == j:
        raise ValueError(f"shift_pair axes must differ, got i=j={i}")
    step = _check_direction(direction)
    out = list(k)
    out[i - 1] += step
    out[j - 1] += step
    return tuple(out)


def shift_diag(k: Index, direction: str = "up") -> Index:
    """tau / sigma on all four components at once."""
    step = _check_direction(direction)
    return tuple(c + step for c in k)


@dataclass(frozen=True)
class Window:
    """Finite truncation of Z^4: dims (N1..N4) plus a boundary mode."""

    dims: tuple[int, int, int, int]
    boundary: str = "periodic"

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        if len(dims) != 4 or any(n < 1 for n in dims):
            raise ValueError(f"dims must be four positive integers, got {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        if self.boundary not in BOUNDARIES:
            raise ValueError(
                f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}"
            )

    @property
    def n_sites(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def sites(self) -> Iterator[Index]:
        """All sites in row-major order over (k1, k2, k3, k4)."""
        return itertools.product(*(range(n) for n in self.dims))

    def contains(self, k: Index) -> bool:
        return all(0 <= c < n for c, n in zip(k, self.dims))

    def wrap(self, k: Index) -> Optional[Index]:
        """Resolve a possibly-outside index.

        Periodic mode wraps componentwise modulo dims; zero mode returns
        None (the Outside marker) for indices beyond the box.
        """
        if self.boundary == "periodic":
            return tuple(int(c) % n for c, n in zip(k, self.dims))
        return tuple(k) if self.contains(k) else None

    @classmethod
    def parse(cls, dims_text: str, boundary: str = "periodic") -> "Window":
        """Window from the CLI/file syntax "N1,N2,N3,N4" plus boundary."""
        parts = dims_text.split(",")
        if len(parts) != 4:
            raise ValueError(f"dims must be 'N1,N2,N3,N4', got {dims_text!r}")
        try:
            dims = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"dims must be integers, got {dims_text!r}") from exc
        return cls(dims, boundary)
