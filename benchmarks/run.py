"""sdlattice benchmark.

    python3 benchmarks/run.py --workload {solve,kernels-16,cli-pipeline} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  One single-threaded process drives
the public API in a closed loop.  It runs the workload's op list (one
cycle) once, then further ops in cycle order while the next should still
end within --seconds, checks every op's output, and prints an environment
block, a human-readable summary and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: setup_s (the median import time
of numpy and sdlattice over seven fresh interpreters plus the median of
seven builds of the seeded inputs), wall_s and op_p50_s (the sum and the
median, over the cycle's ops, of each op's median latency in the run) and
peak_rss_mb.  --trace 1 wraps the library's layer functions (see
tracer.py), alternates untraced and traced cycles, and reports per-layer
metrics for one set-up plus one cycle, plus the tracing overhead; its
spans are written to .bench_trace/.  --smoke shrinks every lattice for a
quick check of the harness itself.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}

# name -> unit, in the order they are printed.
PER_LAYER_UNITS = {
    "solver.iterations": "count",
    "solver.objective.calls": "count",
    "solver.gradient_coefficients.calls": "count",
    "solver.accept_ratio": "ratio",
    "solver.solve.self_s": "s",
    "solver.objective.self_s": "s",
    "solver.connection_coefficients.self_s": "s",
    "solver.connection_from_coefficients.self_s": "s",
    "solver.gradient_coefficients.self_s": "s",
    "curvature.curvature.calls": "count",
    "curvature.curvature.self_s": "s",
    "curvature.curvature.bytes_computed": "bytes",
    "cochain.shifted_read.calls": "count",
    "cochain.shifted_read.self_s": "s",
    "cochain.shifted_read.bytes_computed": "bytes",
    "hodge.star.self_s": "s",
    "duality.residual.self_s": "s",
    "duality.residual_componentwise.self_s": "s",
    "fieldio.save.self_s": "s",
    "fieldio.save.bytes": "bytes",
    "fieldio.load.self_s": "s",
    "fieldio.load.bytes": "bytes",
    "cli.main.self_s": "s",
    "curvature.random_connection.self_s": "s",
    "curvature.random_gauge.self_s": "s",
    "curvature.pure_gauge.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tally:
    """Op latencies (by position in the cycle), traced-run cycle times and
    failures of one run."""

    def __init__(self):
        self.latencies: defaultdict[int, list[float]] = defaultdict(list)
        self.cycles: list[float] = []
        self.attempted = 0
        self.failed = 0


def run_op(op_index: int, op, tally: Tally, tracer=None) -> float:
    """Run one op and check its output; return its latency."""
    if tracer is not None:
        tracer.op_id = tally.attempted
        tracer.active = True
    start = perf_counter()
    try:
        out = op.run()
        error = None
    except Exception:  # an op that raises is a failed op, not a crash
        out, error = None, traceback.format_exc()
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    ok = False
    if error is None:
        try:
            ok = bool(op.check(out))
        except Exception:
            error = traceback.format_exc()
    if not ok:
        tally.failed += 1
        print(f"op {op_index} {op.name}: FAILED\n{error or 'check rejected the output'}",
              file=sys.stderr)
    tally.attempted += 1
    tally.latencies[op_index].append(elapsed)
    return elapsed


def run_cycle(ops, tally: Tally, tracer=None) -> float:
    """Run every op once, checking each; return the summed op time."""
    return sum(run_op(op_index, op, tally, tracer) for op_index, op in enumerate(ops))


def run_round_robin(seconds: float, ops, tally: Tally) -> None:
    """Run one whole cycle, then further ops in cycle order while the next
    one, judged by its last latency, should still end within `seconds`."""
    start = perf_counter()
    run_cycle(ops, tally)
    for index in itertools.count():
        op_index = index % len(ops)
        if perf_counter() - start + tally.latencies[op_index][-1] > seconds:
            return
        run_op(op_index, ops[op_index], tally)


def repeat_within(seconds: float, body) -> None:
    """Call body() once, then again while the next call should still end
    within `seconds` of the start, judged by the last call's duration."""
    start = perf_counter()
    while True:
        before = perf_counter()
        body()
        now = perf_counter()
        if now - start + (now - before) > seconds:
            return


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cache_bytes(level: int) -> int | None:
    """Size of the unified cache at `level` of cpu0, or None if unknown."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level) and (
                index / "type"
            ).read_text().strip() in ("Unified", "Data"):
                text = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
                return int(text.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def environment_lines(np, kernel_dims: int) -> list[str]:
    l2, l3 = cache_bytes(2), cache_bytes(3)

    def mib(n):
        return "unknown" if n is None else f"{n / 2**20:g} MiB"

    largest = kernel_dims**4 * 6 * 4 * 16  # one curvature array, complex128
    lines = [
        f"env python {platform.python_version()}",
        f"env numpy {np.__version__}",
        f"env cpu_count {os.cpu_count()}",
        f"env cpu_model {cpu_model()}",
        f"env l2 {mib(l2)}",
        f"env l3 {mib(l3)}",
        "env blas_threads 1 (OMP/OPENBLAS/MKL pinned before numpy import)",
    ]
    if l3 is None or largest < 4 * l3:
        lines.append(
            f"env note: no bandwidth ratio reported; the largest array "
            f"({largest / 2**20:.1f} MiB, a {kernel_dims}^4 curvature field) is not "
            f"above 4x the L3 ({mib(l3)}), so kernels-16 does not measure DRAM bandwidth"
        )
    return lines


# Imports can be timed only once per process, so each sample is a fresh one.
_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import numpy, sdlattice, sdlattice.cli
print(time.perf_counter() - start)
"""


def import_seconds() -> float:
    """Median time to import numpy and sdlattice in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def measure(args, workloads, workdir) -> tuple[Tally, dict]:
    import_s = import_seconds()
    build_times = []
    for _ in range(SETUP_REPEATS):
        ops = None  # release the previous build before making the next
        start = perf_counter()
        ops = workloads.build(args.workload, args.seed, args.smoke, workdir)
        build_times.append(perf_counter() - start)
    tally = Tally()
    run_round_robin(args.seconds, ops, tally)
    # A slow spell of the host moves a median of samples spread over the
    # whole run less than any single cycle.  The ops of a cycle differ
    # several-fold in cost, so a median over all samples would fall between
    # two ops and take the extreme sample of each; hence op_p50_s is the
    # median of per-op medians.
    op_medians = [statistics.median(samples) for samples in tally.latencies.values()]
    metrics = {
        "setup_s": import_s + statistics.median(build_times),
        "wall_s": sum(op_medians),
        "op_p50_s": statistics.median(op_medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return tally, metrics


def measure_traced(args, workloads, workdir) -> tuple[Tally, dict]:
    from tracer import Tracer  # noqa: PLC0415

    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        tracer.active = True
        ops = workloads.build(args.workload, args.seed, args.smoke, workdir)
        tracer.active = False
        setup_calls, setup_self, setup_bytes = (
            Counter(tracer.calls), Counter(tracer.self_s), Counter(tracer.nbytes)
        )
        untraced, traced = Tally(), Tally()

        def pair():
            untraced.cycles.append(run_cycle(ops, untraced))
            traced.cycles.append(run_cycle(ops, traced, tracer))

        repeat_within(args.seconds, pair)
    finally:
        tracer.uninstall()
    n = len(traced.cycles)

    def per_run(counter, setup, name):
        # one set-up plus the mean traced cycle
        return setup[name] + (counter[name] - setup[name]) / n

    metrics = {}
    for key in PER_LAYER_UNITS:
        func, _, stat = key.rpartition(".")
        if stat == "calls":
            metrics[key] = per_run(tracer.calls, setup_calls, func)
        elif stat == "self_s":
            metrics[key] = per_run(tracer.self_s, setup_self, func)
        elif stat in ("bytes_computed", "bytes"):
            metrics[key] = per_run(tracer.nbytes, setup_bytes, func)
    line_search = (
        tracer.calls_by_parent[("solver.objective", "solver.solve")]
        - tracer.calls["solver.solve"]
    )
    metrics["solver.iterations"] = tracer.solver_iterations / n
    metrics["solver.accept_ratio"] = (
        tracer.solver_iterations / line_search if line_search else 0.0
    )
    untraced_wall = statistics.median(untraced.cycles)
    traced_wall = statistics.median(traced.cycles)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.spans"] = tracer.n_spans
    metrics = {key: metrics[key] for key in PER_LAYER_UNITS}

    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"{args.workload}-seed{args.seed}.npz"
    tracer.write(span_file)
    print(f"spans {tracer.n_spans} written to {span_file.relative_to(ROOT)}")
    print("layer table (set-up plus one cycle): name calls self_s bytes")
    for name in tracer.names:
        if tracer.calls[name]:
            print(f"  {name} {per_run(tracer.calls, setup_calls, name):g} "
                  f"{per_run(tracer.self_s, setup_self, name):.6f} "
                  f"{per_run(tracer.nbytes, setup_bytes, name):.0f}")

    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    return traced, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve", "kernels-16", "cli-pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest lattices, for testing the harness")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sdlattice" / "__init__.py").is_file():
        print(f"error: no sdlattice sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np  # noqa: PLC0415

    import sdlattice  # noqa: PLC0415
    import workloads  # noqa: PLC0415
    if Path(sdlattice.__file__).resolve().parent != SRC / "sdlattice":
        print(f"error: imported sdlattice from {sdlattice.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    for line in environment_lines(np, workloads.KERNEL_DIMS):
        print(line)
    with tempfile.TemporaryDirectory(prefix=".bench-cli-", dir=ROOT) as workdir:
        if args.trace:
            tally, metrics = measure_traced(args, workloads, workdir)
            units = PER_LAYER_UNITS
        else:
            tally, metrics = measure(args, workloads, workdir)
            units = END_TO_END_UNITS

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"ops {tally.attempted} ({len(tally.latencies)} per cycle)")
    if args.workload == "solve":
        print(f"solve max_iter {workloads.SOLVE_MAX_ITER} tol {workloads.SOLVE_TOL}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_frac {tally.failed / tally.attempted:g} ({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
