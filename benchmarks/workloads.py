"""The benchmark's workloads: seeded op lists, each op with its own check.

A workload is built from the run seed into a list of `Op`s (one *cycle*).
The runner repeats cycles in a closed loop: each op starts only after the
previous one has finished and been checked.  Ops reach the library through
module attributes looked up at call time, so the tracer's rebinding of
those names sees every call.

solve
    `solver.solve` to tol 1e-8 from random_connection(seed 0, scale 1e-2)
    on the fixed problem list `SOLVE_PROBLEMS`.  The start points are fixed
    rather than drawn from the run seed because the iteration count of the
    Barzilai-Borwein descent swings several-fold between start points (83 to
    803 iterations on 3^4 su2/euclid/asd over seeds 0-7), which would swamp
    any change in per-iteration cost; the run seed sets the op order.  A
    cycle takes about 10 s, so a 30 s run times every problem two or three
    times.
kernels-16
    One whole-field evaluation pass per op on a 16^4 periodic field,
    alternating su2/euclid/sd and sl2c/mink/sd; field values come from the
    run seed.
cli-pipeline
    One in-process `sdlat gen -> curv -> star -> residual` pass per op on an
    8^4 field, cycling random su2, random sl2c and pure-gauge su2; generator
    seeds come from the run seed.  Files go to a temporary directory.
"""
from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import sdlattice.cli  # noqa: F401  (loads the module; it is used via sys.modules)
from sdlattice.duality import DualityProblem
from sdlattice.lattice import Window
from sdlattice.solver import SolveConfig

solver = sys.modules["sdlattice.solver"]
curv_mod = sys.modules["sdlattice.curvature"]
duality = sys.modules["sdlattice.duality"]
hodge = sys.modules["sdlattice.hodge"]
fieldio = sys.modules["sdlattice.fieldio"]
cli = sys.modules["sdlattice.cli"]

WORKLOADS = ("solve", "kernels-16", "cli-pipeline")

# (algebra, metric, orientation, dims).  Every problem converges within
# SOLVE_MAX_ITER from SOLVE_START_SEED; the slowest, 2^4 mink sd, takes
# 1 469 iterations.  The non-cubic mink window is (2,2,2,1): on (3,3,2,2)
# one solve takes 11-15 s, so a 30 s run would time each problem once.
SOLVE_PROBLEMS = (
    ("su2", "euclid", "self_dual", (3, 3, 3, 3)),
    ("su2", "euclid", "anti_self_dual", (3, 3, 3, 3)),
    ("sl2c", "mink", "self_dual", (2, 2, 2, 2)),
    ("sl2c", "mink", "anti_self_dual", (2, 2, 2, 2)),
    ("sl2c", "mink", "self_dual", (2, 2, 2, 1)),
    ("sl2c", "mink", "anti_self_dual", (2, 2, 2, 1)),
)
SOLVE_START_SEED = 0
SOLVE_SCALE = 1e-2
SOLVE_TOL = 1e-8
SOLVE_MAX_ITER = 6000

KERNEL_DIMS = 16
CLI_DIMS = 8
# Smoke mode keeps every op and check but shrinks the lattices.
SMOKE_SOLVE_DIMS = (2, 2, 1, 1)
SMOKE_DIMS = 2

# Bound of check_path_equivalence on the componentwise vs staged residual.
PATH_TOL = 1e-13
# Relative bound on objective vs the recomputed squared residual norm.
OBJECTIVE_RTOL = 1e-12

ORIENTATION_FLAG = {"self_dual": "sd", "anti_self_dual": "asd"}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def build(workload: str, seed: int, smoke: bool = False, workdir: Path | None = None) -> list[Op]:
    """One cycle of ops for `workload`, every input derived from `seed`."""
    if workload == "solve":
        return _build_solve(seed, smoke)
    if workload == "kernels-16":
        return _build_kernels(seed, smoke)
    if workload == "cli-pipeline":
        if workdir is None:
            raise ValueError("cli-pipeline needs a working directory")
        return _build_cli(seed, smoke, Path(workdir))
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _sub_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=n)]


def _build_solve(seed: int, smoke: bool) -> list[Op]:
    ops = []
    for i in np.random.default_rng(seed).permutation(len(SOLVE_PROBLEMS)):
        algebra, metric, orientation, dims = SOLVE_PROBLEMS[i]
        if smoke:
            dims = SMOKE_SOLVE_DIMS
        conn0 = curv_mod.random_connection(
            Window(dims, "periodic"), algebra, SOLVE_START_SEED, scale=SOLVE_SCALE
        )
        cfg = SolveConfig(
            problem=DualityProblem(metric, orientation),
            max_iter=SOLVE_MAX_ITER,
            tol=SOLVE_TOL,
        )

        def run(conn0=conn0, cfg=cfg):
            return solver.solve(conn0, cfg)

        def check(out, cfg=cfg):
            solved, report = out
            # A capped run fails even if it happens to sit below tol.
            return report.converged and solver.objective(solved, cfg.problem) <= cfg.tol

        name = f"{algebra}/{metric}/{ORIENTATION_FLAG[orientation]}/{'x'.join(map(str, dims))}"
        ops.append(Op(name, run, check))
    return ops


def _build_kernels(seed: int, smoke: bool) -> list[Op]:
    n = SMOKE_DIMS if smoke else KERNEL_DIMS
    window = Window((n,) * 4, "periodic")
    ops = []
    for (algebra, metric), field_seed in zip(
        (("su2", "euclid"), ("sl2c", "mink")), _sub_seeds(seed, 2)
    ):
        conn = curv_mod.random_connection(window, algebra, field_seed, scale=1.0)
        problem = DualityProblem(metric, "self_dual")

        def run(conn=conn, problem=problem):
            staged = duality.residual(curv_mod.curvature(conn), problem)
            direct = duality.residual_componentwise(conn, problem)
            obj = solver.objective(conn, problem)
            grad = solver.gradient_coefficients(conn, problem)
            return staged, direct, obj, grad

        def check(out, conn=conn):
            staged, direct, obj, grad = out
            width = 3 if conn.algebra == "su2" else 6
            expected = float(np.sum(np.abs(staged.data) ** 2))
            return bool(
                np.max(np.abs(direct.data - staged.data)) <= PATH_TOL
                and abs(obj - expected) <= OBJECTIVE_RTOL * expected
                and grad.shape == conn.window.dims + (4, width)
                and np.all(np.isfinite(grad))
            )

        ops.append(Op(f"{algebra}/{metric}/sd/{n}^4", run, check))
    return ops


def _build_cli(seed: int, smoke: bool, workdir: Path) -> list[Op]:
    n = SMOKE_DIMS if smoke else CLI_DIMS
    window = Window((n,) * 4, "periodic")
    dims_arg = ",".join([str(n)] * 4)
    ops = []
    specs = (("random", "su2", "euclid"), ("random", "sl2c", "mink"), ("pure-gauge", "su2", "euclid"))
    for index, ((kind, algebra, metric), gen_seed) in enumerate(zip(specs, _sub_seeds(seed, 3))):
        # In-memory recomputation of everything the pipeline writes or prints.
        if kind == "random":
            conn = curv_mod.random_connection(window, algebra, gen_seed, scale=1.0)
        else:
            conn = curv_mod.pure_gauge(curv_mod.random_gauge(window, algebra, gen_seed))
        curv = curv_mod.curvature(conn)
        expected = {
            "conn": conn.data,
            "curv": curv.data,
            "star": hodge.star(curv, metric).data,
        }
        norm = float(np.linalg.norm(duality.residual(curv, DualityProblem(metric)).data))
        paths = {key: workdir / f"op{index}-{key}.json" for key in expected}
        argvs = (
            ["gen", "--kind", kind, "--dims", dims_arg, "--algebra", algebra,
             "--seed", str(gen_seed), "-o", str(paths["conn"])],
            ["curv", str(paths["conn"]), "-o", str(paths["curv"])],
            ["star", "--metric", metric, str(paths["curv"]), "-o", str(paths["star"])],
            ["residual", "--metric", metric, "--dual", "sd", str(paths["curv"])],
        )

        def run(argvs=argvs):
            out = io.StringIO()
            with redirect_stdout(out):
                codes = [cli.main(argv) for argv in argvs]
            return codes, out.getvalue()

        def check(out, paths=paths, expected=expected, norm=norm):
            codes, text = out
            if any(code != 0 for code in codes):
                return False
            for key, data in expected.items():
                if not np.array_equal(fieldio.load(paths[key]).data, data):
                    return False
            printed = [line.split()[1] for line in text.splitlines() if line.startswith("residual ")]
            return len(printed) == 1 and float(printed[0]) == norm

        ops.append(Op(f"{kind}/{algebra}/{metric}/{n}^4", run, check))
    return ops
