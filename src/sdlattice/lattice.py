"""Finite computation windows on Z^4.

Sites are 4-tuples of integers.  Axes are 1-based throughout the public
interface.  A Window truncates Z^4 to dims (N1, N2, N3, N4) with either
periodic wrapping or zero-padded reads outside the box.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

Index = tuple[int, int, int, int]

BOUNDARIES = ("periodic", "zero")


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
