"""Command-line interface: gen, curv, star, residual, check, solve.

Exit codes: 0 on success or check pass, 1 on check failure, 2 on usage
errors (bad flags, malformed or non-finite files, metadata conflicts,
unwritable outputs).  Numeric output uses 17 significant digits so printed
values round-trip float64.
"""
from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .algebra import MEMBERSHIP, random_algebra
from .checks import CHECKS
from .cochain import PLANES
from .curvature import (
    constant_connection,
    curvature,
    pure_gauge,
    random_connection,
    random_gauge,
    zero_connection,
)
from .duality import DualityProblem, residual
from .fieldio import FieldIOError, load, save
from .hodge import star
from .lattice import Window
from .solver import SolveConfig, solve

ORIENTATION_FLAG = {"sd": "self_dual", "asd": "anti_self_dual"}


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_window(args) -> Window:
    try:
        return Window.parse(args.dims, args.boundary)
    except ValueError as exc:
        raise UsageError(f"--dims: {exc}") from exc


def _parse_matrix(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 8:
        raise UsageError(
            "--matrix expects 8 comma-separated reals (re,im per entry, row-major)"
        )
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"--matrix: {exc}") from exc
    return np.array(
        [[complex(vals[0], vals[1]), complex(vals[2], vals[3])],
         [complex(vals[4], vals[5]), complex(vals[6], vals[7])]]
    )


def _load(path, rank=None):
    try:
        field = load(path)
    except FieldIOError as exc:
        raise UsageError(str(exc)) from exc
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if rank is not None and field.rank != rank:
        raise UsageError(f"{path}: expected a rank-{rank} field, got rank {field.rank}")
    return field


def _check_metric(field, metric: str, path) -> None:
    if field.metric is not None and field.metric != metric:
        raise UsageError(
            f"--metric {metric} conflicts with metric {field.metric!r} recorded in {path}"
        )


def cmd_gen(args) -> int:
    window = _parse_window(args)
    if args.kind == "zero":
        field = zero_connection(window, args.algebra)
    elif args.kind == "constant":
        if args.matrix is not None:
            matrix = _parse_matrix(args.matrix)
            if not MEMBERSHIP[args.algebra](matrix):
                raise UsageError(f"--matrix is not an element of {args.algebra}")
        else:
            matrix = random_algebra(args.seed, args.algebra, args.scale)
        field = constant_connection(window, matrix, args.algebra)
    elif args.kind == "random":
        field = random_connection(window, args.algebra, args.seed, args.scale)
    elif args.kind == "pure-gauge":
        field = pure_gauge(random_gauge(window, args.algebra, args.seed))
        field.algebra = "general"
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"--kind: unknown kind {args.kind!r}")
    save(field, args.output)
    print(f"wrote rank-1 field {args.output}")
    return 0


def cmd_curv(args) -> int:
    conn = _load(args.input, rank=1)
    save(curvature(conn), args.output)
    print(f"wrote rank-2 field {args.output}")
    return 0


def cmd_star(args) -> int:
    field = _load(args.input, rank=2)
    _check_metric(field, args.metric, args.input)
    save(star(field, args.metric), args.output)
    print(f"wrote rank-2 field {args.output}")
    return 0


def cmd_residual(args) -> int:
    field = _load(args.input)
    if field.rank == 1:
        field = curvature(field)
    elif field.rank != 2:
        raise UsageError(f"{args.input}: residual needs a rank-1 or rank-2 field")
    _check_metric(field, args.metric, args.input)
    problem = DualityProblem(args.metric, ORIENTATION_FLAG[args.dual])
    res = residual(field, problem)
    print(f"residual {_fmt(float(np.linalg.norm(res.data)))}")
    for i, j in PLANES:
        print(f"plane {i}{j} max {_fmt(float(np.max(np.abs(res.plane(i, j)))))}")
    if args.output:
        save(res, args.output)
    return 0


def cmd_check(args) -> int:
    kwargs = {"seed": args.seed}
    if args.trials < 0:
        raise UsageError("--trials must be >= 1 (0 keeps each check's default)")
    if args.trials:
        if args.relation == "star-table":
            raise UsageError("--trials: star-table has a fixed set of 12 cases")
        kwargs["count"] = args.trials
    result = CHECKS[args.relation](**kwargs)
    for line in result.details:
        print(line)
    print(f"check {result.name}: {'PASS' if result.ok else 'FAIL'}")
    return 0 if result.ok else 1


def cmd_solve(args) -> int:
    conn = _load(args.input, rank=1)
    _check_metric(conn, args.metric, args.input)
    if conn.window.boundary != "periodic":
        raise UsageError(f"{args.input}: solve requires a periodic window")
    if conn.algebra not in ("su2", "sl2c"):
        raise UsageError(
            f"{args.input}: solve requires algebra su2 or sl2c, got {conn.algebra!r}"
        )
    cfg = SolveConfig(
        problem=DualityProblem(args.metric, ORIENTATION_FLAG[args.dual]),
        max_iter=args.max_iter,
        tol=args.tol,
        step0=args.step0,
        backtrack=args.backtrack,
        trace_every=args.trace_every,
    )
    solved, report = solve(conn, cfg)
    solved.metric = args.metric
    # The trace goes first, so an unwritable trace path leaves no output field.
    if args.trace:
        with open(args.trace, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "residual", "step"])
            for it, res_norm, step in report.residual_trace:
                writer.writerow([it, _fmt(res_norm), _fmt(step)])
    save(solved, args.output)
    print(f"converged {str(report.converged).lower()}")
    print(f"iterations {report.iterations}")
    print(f"final_residual {_fmt(report.final_residual)}")
    print(f"stop_reason {report.stop_reason}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdlat",
        description="Discrete self-dual / anti-self-dual lattice fields on Z^4",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a connection field")
    p.add_argument("--kind", required=True,
                   choices=["zero", "constant", "random", "pure-gauge"])
    p.add_argument("--dims", required=True, help="window dims N1,N2,N3,N4")
    p.add_argument("--boundary", default="periodic", choices=["periodic", "zero"])
    p.add_argument("--algebra", default="su2", choices=["su2", "sl2c"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--matrix", help="constant kind: 8 reals re,im per entry, row-major")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("curv", help="curvature of a connection field")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_curv)

    p = sub.add_parser("star", help="Hodge star of a curvature field")
    p.add_argument("--metric", required=True, choices=["euclid", "mink"])
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("residual", help="duality residual of a field")
    p.add_argument("--metric", required=True, choices=["euclid", "mink"])
    p.add_argument("--dual", required=True, choices=["sd", "asd"])
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("check", help="run a seeded identity check")
    p.add_argument("--relation", required=True, choices=sorted(CHECKS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=0,
                   help="override the number of randomized cases "
                        "(refused by star-table, which has 12 fixed cases)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="minimize the duality residual over connections")
    p.add_argument("--metric", required=True, choices=["euclid", "mink"])
    p.add_argument("--dual", required=True, choices=["sd", "asd"])
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--step0", type=float, default=1.0)
    p.add_argument("--backtrack", type=float, default=0.5)
    p.add_argument("--trace-every", type=int, default=1)
    p.add_argument("--trace", help="write the residual trace to this CSV file")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (UsageError, FieldIOError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
