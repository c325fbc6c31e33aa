"""Discrete Hodge star on 2-cochains, Euclidean and Minkowski.

The star permutes plane components with a sign and a pair shift.  Component
form (used by `star`): for each source plane (i, j) with complementary
target plane,

    (*F)^target_k = sign(i, j) * F^{ij}_{sigma_ij k}.

Euclidean signs on sources (34, 24, 23, 14, 13, 12) are (+, -, +, +, -, +);
Minkowski signs are (+, -, +, -, +, -).  The equivalent basis action is
``* eps^k_ij = sign(i, j) * eps^{tau_ij k}_target`` (up-shift instead of the
down-shift that appears when components are collected at a fixed site).
Applying the star twice shifts every slot diagonally down, with an overall
minus sign in the Minkowski case.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cochain import PLANE_INDEX, CurvatureField, shifted_read
from .lattice import METRICS, Index

_EUCLID_SIGNS = {
    (3, 4): 1, (2, 4): -1, (2, 3): 1,
    (1, 4): 1, (1, 3): -1, (1, 2): 1,
}
_MINK_SIGNS = {
    (3, 4): 1, (2, 4): -1, (2, 3): 1,
    (1, 4): -1, (1, 3): 1, (1, 2): -1,
}


def complement_plane(plane: tuple[int, int]) -> tuple[int, int]:
    """The two axes not in `plane`, in increasing order."""
    i, j = plane
    return tuple(a for a in (1, 2, 3, 4) if a not in (i, j))


@dataclass(frozen=True)
class StarTable:
    """Signed plane permutation defining the star for one metric.

    Each source plane maps to its complementary target plane; the shift
    accompanying the move is over the source plane's own axes (tau for the
    basis action, sigma when reading components into a fixed site).
    """

    metric: str
    signs: tuple[tuple[tuple[int, int], int], ...]

    def sign(self, source_plane: tuple[int, int]) -> int:
        return dict(self.signs)[source_plane]

    def target(self, source_plane: tuple[int, int]) -> tuple[int, int]:
        return complement_plane(source_plane)

    @functools.cached_property
    def square_sign(self) -> int:
        """epsilon in ** = epsilon (diagonal down-shift): +1 euclid, -1 mink.

        A plane and its complement are each other's source, so the star
        taken twice multiplies every slot by the product of their signs.
        """
        return self.sign((1, 2)) * self.sign((3, 4))

    def entries(self):
        """(source, target, sign, shift_plane) rows, one per source plane."""
        for plane, s in self.signs:
            yield plane, complement_plane(plane), s, plane

    @functools.cached_property
    def moves(self) -> tuple:
        """`entries` as buffer moves, built once: (source slot, target slot,
        sign, offsets) rows, offsets -1 on the source plane's axes.  Slot
        `target` of the star is `sign` times slot `source` read at `offsets`."""
        return tuple(
            (PLANE_INDEX[source], PLANE_INDEX[target], sign,
             tuple(-1 if axis in shift else 0 for axis in (1, 2, 3, 4)))
            for source, target, sign, shift in self.entries()
        )


EUCLID_TABLE = StarTable("euclid", tuple(_EUCLID_SIGNS.items()))
MINK_TABLE = StarTable("mink", tuple(_MINK_SIGNS.items()))


def star_table(metric: str) -> StarTable:
    if metric == "euclid":
        return EUCLID_TABLE
    if metric == "mink":
        return MINK_TABLE
    raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")


def star_basis_action(plane: tuple[int, int], k: Index, metric: str):
    """Star on a basis 2-element: (target plane, shifted site, sign).

    ``* eps^k_plane = sign * eps^{tau_plane k}_target``.
    """
    table = star_table(metric)
    shifted = tuple(c + 1 if axis in plane else c for axis, c in enumerate(k, start=1))
    return table.target(plane), shifted, table.sign(plane)


def star(field: CurvatureField, metric: str) -> CurvatureField:
    """Apply the Hodge star to a curvature field.

    On periodic windows every identity below is exact; zero windows read
    missing neighbors as zero.
    """
    w = field.window
    buf = np.empty_like(field.buf)
    for source, target, sign, offsets in star_table(metric).moves:
        np.multiply(shifted_read(field.buf[source], w, offsets), sign, out=buf[target])
    return CurvatureField._from_buf(w, buf, field.algebra, metric)


def double_star(field: CurvatureField, metric: str) -> CurvatureField:
    """star applied twice: the diagonal down-shift (euclid) or its negative (mink)."""
    return star(star(field, metric), metric)
