"""Seeded, self-contained identity checks behind the CLI's `check` command.

Each check returns a CheckResult with one detail line per verified case;
all are deterministic in the seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import curvature, diag_invariant_slice, random_connection
from .cochain import PLANES, CurvatureField, max_entry
from .duality import (
    CONSISTENT,
    DualityProblem,
    check_diagonal_relation,
    residual,
    residual_componentwise,
    synthetic_dual_curvature,
    verify_triviality_theorem,
)
from .hodge import double_star, star, star_basis_action
from .lattice import Window

ALL_PROBLEMS = tuple(
    DualityProblem(metric, orientation)
    for metric in ("euclid", "mink")
    for orientation in ("self_dual", "anti_self_dual")
)


@dataclass
class CheckResult:
    name: str
    ok: bool = True
    details: list[str] = field(default_factory=list)

    def record(self, ok: bool, case: str) -> None:
        """Fold one verdict into `ok` and add the line "<case> ok|FAIL"."""
        self.ok &= ok
        self.details.append(f"{case} {'ok' if ok else 'FAIL'}")


def _impulse(window: Window, plane, site, matrix) -> CurvatureField:
    out = CurvatureField.zeros(window)
    out.plane(*plane)[site] = matrix
    return out


def check_star_table(seed: int = 0) -> CheckResult:
    """Single-slot impulses map to the predicted slot, site and sign (12 cases)."""
    window = Window((4, 4, 4, 4), "periodic")
    rng = np.random.default_rng(seed)
    site = (1, 2, 3, 0)
    result = CheckResult("star-table")
    for metric in ("euclid", "mink"):
        for plane in PLANES:
            matrix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            target, shifted_site, sign = star_basis_action(plane, site, metric)
            wrapped = tuple(c % n for c, n in zip(shifted_site, window.dims))
            expected = _impulse(window, target, wrapped, sign * matrix)
            got = star(_impulse(window, plane, site, matrix), metric)
            case = (f"{metric} *eps_{plane[0]}{plane[1]} -> "
                    f"{'+' if sign > 0 else '-'}eps_{target[0]}{target[1]} at tau-shifted site:")
            result.record(np.array_equal(got.data, expected.data), case)
    return result


def _synthetic_family(seed: int, dims, count: int):
    """Synthetic dual fields cycling through metric/orientation and generators."""
    for n in range(count):
        problem = ALL_PROBLEMS[n % len(ALL_PROBLEMS)]
        window = Window(tuple(dims), "periodic")
        kind = "su2" if problem.metric == "euclid" else "sl2c"
        slice12 = diag_invariant_slice(window, seed + 7 * n, scale=1.0, kind=kind)
        yield problem, synthetic_dual_curvature(
            slice12, problem.metric, window, problem.orientation
        )


def _check_double_star(name, metric, kind, sign, seed, dims, count) -> CheckResult:
    """double_star(F) == sign F exactly for synthetic dual fields of `metric`
    in algebra `kind`, each first checked to satisfy the diagonal-shift relation."""
    result = CheckResult(name)
    window = Window(tuple(dims), "periodic")
    for n in range(count):
        orientation = "self_dual" if n % 2 == 0 else "anti_self_dual"
        slice12 = diag_invariant_slice(window, seed + n, scale=1.0, kind=kind)
        f = synthetic_dual_curvature(slice12, metric, window, orientation)
        case = f"{metric} {orientation} seed {seed + n}:"
        if not check_diagonal_relation(f, tol=0.0).holds:
            result.ok = False
            result.details.append(f"{case} FAIL (premise)")
            continue
        result.record(np.array_equal(double_star(f, metric).data, sign * f.data), case)
    return result


def check_prop1(seed: int = 0, dims=(4, 4, 4, 4), count: int = 20) -> CheckResult:
    """double_star(F) == F exactly for Euclidean dual solutions."""
    return _check_double_star("prop1", "euclid", "su2", 1, seed, dims, count)


def check_prop2(seed: int = 0, dims=(4, 4, 4, 4), count: int = 20) -> CheckResult:
    """double_star(F) == -F exactly for Minkowski fields satisfying the
    diagonal-shift relation."""
    return _check_double_star("prop2", "mink", "sl2c", -1, seed, dims, count)


def check_relation_13(seed: int = 0, dims=(4, 4, 4, 4), count: int = 20) -> CheckResult:
    """Dual solutions satisfy F_k = F_{sigma k} exactly; impulses do not.

    The impulse control needs a second site: on a one-site window every
    field is diagonal-invariant, so the control is reported as n/a.
    """
    result = CheckResult("13")
    for problem, f in _synthetic_family(seed, dims, count):
        report = check_diagonal_relation(f)
        case = f"{problem.metric} {problem.orientation}: violation {report.max_violation:.3e}"
        result.record(report.holds and report.max_violation == 0.0, case)
    window = Window(tuple(dims), "periodic")
    if window.n_sites == 1:
        result.details.append("single impulse fails: n/a (one-site window)")
        return result
    impulse = _impulse(window, (1, 2), (0,) * 4, np.eye(2))
    result.record(not check_diagonal_relation(impulse).holds, "single impulse fails:")
    return result


def compact_nonzero_field(window: Window, seed: int, bound: int) -> CurvatureField:
    """Random nonzero curvature supported inside the max-norm bound."""
    rng = np.random.default_rng(seed)
    out = CurvatureField.zeros(window)
    box = tuple(slice(0, bound) for _ in range(4))
    shape = (bound,) * 4 + (6, 2, 2)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # keep a random subset of slots, but never all-zero
    mask = rng.random(shape[:5]) < 0.5
    values[~mask] = 0.0
    if not np.any(values):
        values[(0,) * 5] = np.eye(2)
    out.data[box] = values
    return out


def check_theorem(seed: int = 0, dims=(6, 6, 6, 6), count: int = 20) -> CheckResult:
    """Compactly supported nonzero fields are never `consistent`; zero is."""
    window = Window(tuple(dims), "zero")
    result = CheckResult("theorem")
    for n in range(count):
        problem = ALL_PROBLEMS[n % len(ALL_PROBLEMS)]
        bound = 2 + (n % 3)
        f = compact_nonzero_field(window, seed + n, bound)
        verdict = verify_triviality_theorem(f, (bound,) * 4, problem)
        result.record(verdict != CONSISTENT,
                      f"nonzero bound {bound} {problem.metric} {problem.orientation}: {verdict}")
    zero_verdict = verify_triviality_theorem(
        CurvatureField.zeros(window), (2, 2, 2, 2), ALL_PROBLEMS[0]
    )
    result.record(zero_verdict == CONSISTENT, f"zero field: {zero_verdict}")
    return result


def check_path_equivalence(
    seed: int = 0, dims_list=((3, 3, 3, 3), (4, 4, 4, 4)), count: int = 12,
    tol: float = 1e-13,
) -> CheckResult:
    """The six long difference equations match the two-stage residual path."""
    result = CheckResult("path-equivalence")
    n = 0
    for dims in dims_list:
        window = Window(tuple(dims), "periodic")
        for kind in ("su2", "sl2c"):
            for _ in range(count):
                conn = random_connection(window, kind, seed + n, scale=1.0)
                n += 1
                worst = 0.0
                for problem in ALL_PROBLEMS:
                    direct = residual_componentwise(conn, problem)
                    staged = residual(curvature(conn), problem)
                    worst = max(worst, max_entry(direct - staged))
                result.record(worst <= tol,
                              f"dims {dims} {kind} seed {seed + n - 1}: max diff {worst:.3e}")
    return result


CHECKS = {
    "star-table": check_star_table,
    "prop1": check_prop1,
    "prop2": check_prop2,
    "13": check_relation_13,
    "theorem": check_theorem,
    "path-equivalence": check_path_equivalence,
}
