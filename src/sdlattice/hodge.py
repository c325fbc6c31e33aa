"""Discrete Hodge star on 2-cochains, Euclidean and Minkowski.

The star is one signed permutation of the six plane slots with a pair
shift, written once as a move table (`star_moves`): one row per source
plane (i, j), in `PLANES` order,

    (source slot, target slot, sign, offsets),

with target the complementary plane and offsets -1 on axes i and j.  In
component form (used by `star`),

    (*F)^target_k = sign(i, j) * F^{ij}_{sigma_ij k}.

Source (i, j) has sign eps(i, j, k, l), (k, l) the target, negated under
eta = diag(-, +, +, +) (Minkowski) when axis 1 is in it: (+, -, +, +, -, +)
and (-, +, -, +, -, +) in plane order.  The equivalent basis action is
``* eps^k_ij = sign(i, j) * eps^{tau_ij k}_target`` (up-shift instead of the
down-shift that appears when components are collected at a fixed site).
The transpose reads each row backwards: slot source of S^T r is sign times
slot target of r read at -offsets.  Applying the star twice shifts every
slot diagonally down, with an overall minus sign in the Minkowski case.
"""
from __future__ import annotations

import numpy as np

from .cochain import PLANE_INDEX, PLANES, CurvatureField, _for_tiles, shifted_read
from .lattice import METRICS, Index

def _moves(metric):
    """The rows of `star_moves(metric)`, in `PLANES` order."""
    for source, plane in enumerate(PLANES):
        target = tuple(a for a in (1, 2, 3, 4) if a not in plane)
        order = plane + target  # eps(order) is -1 to the number of its inversions
        flips = sum(a > b for n, a in enumerate(order) for b in order[n + 1:])
        flips += metric == "mink" and 1 in plane
        yield source, PLANE_INDEX[target], (-1) ** flips, tuple(-int(a in plane) for a in (1, 2, 3, 4))


_MOVES = {metric: tuple(_moves(metric)) for metric in METRICS}


def _stacked(moves, transpose):
    """The star (or with transpose=True its transpose) as one stacked read:
    slot n of the result is signs[n] times slot slots[n] read at offsets[n]."""
    order = moves if transpose else sorted(moves, key=lambda move: move[1])
    slots = tuple(move[1 if transpose else 0] for move in order)
    offsets = tuple(tuple(-o if transpose else o for o in move[3]) for move in order)
    signs = np.array([move[2] for move in order], complex)
    return slots, offsets, signs.reshape(6, 1, 1, 1, 1, 1, 1)


_READS = {(metric, transpose): _stacked(moves, transpose)
          for metric, moves in _MOVES.items() for transpose in (False, True)}


def star_moves(metric: str) -> tuple:
    """(source slot, target slot, sign, offsets) rows of the star, one per
    source slot in `PLANES` order: slot `target` of the star is `sign`
    times slot `source` read at `offsets`."""
    if metric not in _MOVES:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    return _MOVES[metric]


def star_basis_action(plane: tuple[int, int], k: Index, metric: str):
    """Star on a basis 2-element: (target plane, shifted site, sign).

    ``* eps^k_plane = sign * eps^{tau_plane k}_target``.
    """
    _, target, sign, offsets = star_moves(metric)[PLANE_INDEX[plane]]
    return PLANES[target], tuple(c - o for c, o in zip(k, offsets)), sign


def star(field: CurvatureField, metric: str) -> CurvatureField:
    """Apply the Hodge star to a curvature field.

    On periodic windows every identity below is exact; zero windows read
    missing neighbors as zero.
    """
    star_moves(metric)  # refuses an unknown metric
    w = field.window
    buf = np.empty_like(field.buf)
    _for_tiles(w.dims, lambda rows, index, group: _moved(
        field.buf, w, metric, False, group, rows, buf[index][group]))
    return CurvatureField._from_buf(w, buf, field.algebra, metric)


def _moved(data, window, metric, transpose, group, rows, out):
    """Slots `group` of the star (or with transpose=True its transpose) of
    the sites-last `data`, cut to `rows`, written to `out`: `data` is one
    field's (6, 2, 2) + dims, or two on axis 1 of (6, 2, 2, 2) + dims, the
    axes between the first and the sites carried along."""
    slots, offsets, signs = _READS[metric, transpose]
    read = shifted_read(data, window, offsets[group], rows=rows, out=out, slots=slots[group])
    return np.multiply(read, signs[group].reshape((-1,) + (1,) * (read.ndim - 1)), out=read)


def double_star(field: CurvatureField, metric: str) -> CurvatureField:
    """star applied twice: the diagonal down-shift (euclid) or its negative (mink)."""
    return star(star(field, metric), metric)
