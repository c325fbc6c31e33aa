from __future__ import annotations

import itertools

import numpy as np
import pytest

from oracle import shift_diag, shift_down, shift_pair, shift_up, wrap
from sdlattice.lattice import Window


def test_shift_up_examples():
    assert shift_up((0, 0, 0, 0), 1) == (1, 0, 0, 0)
    assert shift_up((2, 5, 1, 3), 4) == (2, 5, 1, 4)
    assert shift_down(shift_up((3, -1, 2, 0), 2), 2) == (3, -1, 2, 0)


def test_shift_down_examples():
    assert shift_down((1, 0, 0, 0), 1) == (0, 0, 0, 0)
    assert shift_down((2, 5, 1, 3), 2) == (2, 4, 1, 3)
    assert shift_up(shift_down((0, 0, 7, 0), 3), 3) == (0, 0, 7, 0)


def test_shift_pair_examples():
    assert shift_pair((0, 0, 0, 0), 1, 2, "up") == (1, 1, 0, 0)
    assert shift_pair((2, 5, 1, 3), 1, 4, "down") == (1, 5, 1, 2)
    k = (4, 3, 2, 1)
    assert shift_pair(shift_pair(k, 2, 3, "up"), 2, 3, "down") == k


def test_shift_pair_rejects_equal_axes():
    with pytest.raises(ValueError):
        shift_pair((0, 0, 0, 0), 2, 2, "up")


def test_shift_diag_examples():
    assert shift_diag((1, 1, 1, 1), "down") == (0, 0, 0, 0)
    assert shift_diag((0, 0, 0, 0), "up") == (1, 1, 1, 1)
    k = (2, -1, 0, 5)
    assert shift_diag(k, "down") == shift_pair(shift_pair(k, 1, 2, "down"), 3, 4, "down")


def test_shift_maps_commute():
    for k in itertools.product(range(-1, 2), repeat=4):
        for i in (1, 2, 3, 4):
            for j in (1, 2, 3, 4):
                assert shift_up(shift_up(k, i), j) == shift_up(shift_up(k, j), i)


def test_invalid_axis_and_direction():
    with pytest.raises(ValueError):
        shift_up((0, 0, 0, 0), 5)
    with pytest.raises(ValueError):
        shift_diag((0, 0, 0, 0), "sideways")


def test_wrap_examples():
    periodic = Window((4, 4, 4, 4), "periodic")
    zero = Window((4, 4, 4, 4), "zero")
    assert wrap(periodic, (4, 0, 0, 0)) == (0, 0, 0, 0)
    assert wrap(zero, (4, 0, 0, 0)) is None
    assert wrap(periodic, (3, 3, 3, 3)) == (3, 3, 3, 3)
    assert wrap(periodic, (-1, 0, 0, 0)) == (3, 0, 0, 0)
    assert wrap(zero, (0, 0, 0, 0)) == (0, 0, 0, 0)


def test_periodic_shifts_are_bijections():
    w = Window((3, 3, 3, 3), "periodic")
    for i in (1, 2, 3, 4):
        image = {wrap(w, shift_up(k, i)) for k in w.sites()}
        assert len(image) == w.n_sites
    image = {wrap(w, shift_diag(k, "down")) for k in w.sites()}
    assert len(image) == w.n_sites


def test_window_validation():
    with pytest.raises(ValueError):
        Window((0, 4, 4, 4))
    with pytest.raises(ValueError):
        Window((4, 4, 4))
    with pytest.raises(ValueError):
        Window((4, 4, 4, 4), "open")
    # dims are integers: no truncation of floats and no bools standing in for 1
    for dims in ((2, 2, 2, 2.7), (2, 2, 2, 2.0), (2, 2, 2, True), (2, 2, 2, "2")):
        with pytest.raises(ValueError):
            Window(dims)
    w = Window((np.int64(2), np.int32(3), 1, np.uint8(4)))
    assert w.dims == (2, 3, 1, 4)
    assert all(type(n) is int for n in w.dims)


def test_window_refuses_dims_that_are_not_a_sequence():
    # a non-iterable dims gets the ValueError of any other bad dims
    for dims in (4, None, 2.5):
        with pytest.raises(ValueError, match="dims must be four positive integers"):
            Window(dims)


def test_window_parse():
    w = Window.parse("2,3,4,5", "zero")
    assert w.dims == (2, 3, 4, 5)
    assert w.boundary == "zero"
    with pytest.raises(ValueError):
        Window.parse("2,3,4")
    with pytest.raises(ValueError):
        Window.parse("2,3,4,x")


def test_sites_row_major():
    w = Window((1, 1, 2, 2))
    assert list(w.sites()) == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1),
    ]
    assert w.n_sites == 4
