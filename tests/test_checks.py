from __future__ import annotations

import numpy as np

from sdlattice import checks
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
from sdlattice.duality import RelationReport
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


def test_check_details_are_pinned():
    # the printed lines of `sdlat check`, written out; path-equivalence is
    # left out because its .3e diffs depend on rounding
    assert check_star_table(seed=0).details == [
        "euclid *eps_12 -> +eps_34 at tau-shifted site: ok",
        "euclid *eps_13 -> -eps_24 at tau-shifted site: ok",
        "euclid *eps_14 -> +eps_23 at tau-shifted site: ok",
        "euclid *eps_23 -> +eps_14 at tau-shifted site: ok",
        "euclid *eps_24 -> -eps_13 at tau-shifted site: ok",
        "euclid *eps_34 -> +eps_12 at tau-shifted site: ok",
        "mink *eps_12 -> -eps_34 at tau-shifted site: ok",
        "mink *eps_13 -> +eps_24 at tau-shifted site: ok",
        "mink *eps_14 -> -eps_23 at tau-shifted site: ok",
        "mink *eps_23 -> +eps_14 at tau-shifted site: ok",
        "mink *eps_24 -> -eps_13 at tau-shifted site: ok",
        "mink *eps_34 -> +eps_12 at tau-shifted site: ok",
    ]
    expected = {
        "prop1": [
            "euclid self_dual seed 0: ok",
            "euclid anti_self_dual seed 1: ok",
            "euclid self_dual seed 2: ok",
        ],
        "prop2": [
            "mink self_dual seed 0: ok",
            "mink anti_self_dual seed 1: ok",
            "mink self_dual seed 2: ok",
        ],
        "13": [
            "euclid self_dual: violation 0.000e+00 ok",
            "euclid anti_self_dual: violation 0.000e+00 ok",
            "mink self_dual: violation 0.000e+00 ok",
            "single impulse fails: ok",
        ],
        "theorem": [
            "nonzero bound 2 euclid self_dual: violates_duality ok",
            "nonzero bound 3 euclid anti_self_dual: violates_duality ok",
            "nonzero bound 4 mink self_dual: violates_duality ok",
            "zero field: consistent ok",
        ],
    }
    for name, details in expected.items():
        result = CHECKS[name](seed=0, count=3)
        assert result.ok and result.details == details, name


def test_check_result_record_folds_verdicts():
    result = CheckResult("x")
    for ok, case in ((True, "a:"), (False, "b:"), (True, "c:")):
        result.record(ok, case)
    assert not result.ok
    assert result.details == ["a: ok", "b: FAIL", "c: ok"]


def test_double_star_checks_report_a_failed_premise(monkeypatch):
    # both double-star checks first check the diagonal-shift relation exactly
    seen = []

    def no_relation(field, tol=1e-12):
        seen.append(tol)
        return RelationReport(holds=False, max_violation=1.0)

    monkeypatch.setattr(checks, "check_diagonal_relation", no_relation)
    for name, metric in (("prop1", "euclid"), ("prop2", "mink")):
        result = CHECKS[name](seed=5, count=2)
        assert not result.ok
        assert result.details == [f"{metric} self_dual seed 5: FAIL (premise)",
                                  f"{metric} anti_self_dual seed 6: FAIL (premise)"]
    assert seen == [0.0] * 4
