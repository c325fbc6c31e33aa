from __future__ import annotations

import numpy as np

from sdlattice.checks import (
    CHECKS,
    CheckResult,
    check_path_equivalence,
    check_prop1,
    check_relation_13,
    check_star_table,
    check_theorem,
    compact_nonzero_field,
)
from sdlattice.lattice import Window


def test_registry_contents():
    assert set(CHECKS) == {
        "star-table",
        "prop1",
        "prop2",
        "13",
        "theorem",
        "path-equivalence",
    }


def test_every_registered_check_passes():
    for name, fn in sorted(CHECKS.items()):
        result = fn(seed=0)
        assert isinstance(result, CheckResult)
        assert result.name == name
        assert result.ok, f"{name} failed: {result.details}"
        assert result.details


def test_checks_are_deterministic_in_the_seed():
    a = check_star_table(seed=3)
    b = check_star_table(seed=3)
    assert (a.ok, a.details) == (b.ok, b.details)
    c = check_prop1(seed=1, count=4)
    d = check_prop1(seed=1, count=4)
    assert (c.ok, c.details) == (d.ok, d.details)


def test_count_override_shrinks_work():
    result = check_theorem(seed=2, count=3)
    assert result.ok
    # one line per field plus the zero-field case
    assert len(result.details) == 4


def test_path_equivalence_reports_each_case():
    result = check_path_equivalence(seed=0, count=4)
    assert result.ok
    assert all("ok" in line for line in result.details)


def test_relation_13_impulse_control_needs_two_sites():
    # on one site every field is diagonal-invariant, so the control is n/a
    result = check_relation_13(seed=0, dims=(1, 1, 1, 1), count=4)
    assert result.ok, result.details
    assert len(result.details) == 5
    assert result.details[-1] == "single impulse fails: n/a (one-site window)"
    result = check_relation_13(seed=0, dims=(1, 1, 1, 2), count=4)
    assert result.ok, result.details
    assert result.details[-1] == "single impulse fails: ok"


def test_compact_nonzero_field_support_and_content():
    w = Window((6, 6, 6, 6), "zero")
    for seed in range(10):
        bound = 2 + seed % 3
        f = compact_nonzero_field(w, seed=seed, bound=bound)
        assert np.any(f.data)
        mags = np.max(np.abs(f.data), axis=(-3, -2, -1))
        site_max = np.maximum.reduce(
            np.meshgrid(*(np.arange(n) for n in w.dims), indexing="ij")
        )
        assert not np.any(mags[site_max >= bound])
