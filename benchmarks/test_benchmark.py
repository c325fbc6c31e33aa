"""Tests of the benchmark harness itself (run: python -m pytest benchmarks).

Smoke runs use --smoke, which keeps every op and check but shrinks the
lattices, and assert that every metric named in BENCHMARK.json is emitted
for every workload.  Negative controls perturb op outputs and require the
checks to count them as failed.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from sdlattice.cochain import ConnectionField  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd, timeout=120):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_spec_names_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    proc = _run(
        ["--workload", workload, "--seed", "5", "--seconds", "0.2",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for line in ("env python", "env numpy", "env cpu_count", "env cpu_model", "env l3"):
        assert line in proc.stdout
    assert "failed_frac 0 " in proc.stdout


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "solve", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _perturb_connection(conn: ConnectionField) -> ConnectionField:
    rng = np.random.default_rng(0)
    noise = 1e-2 * rng.normal(size=conn.data.shape)
    return ConnectionField(conn.window, conn.data + noise, algebra=conn.algebra)


def _solve_perturbations(out):
    solved, report = out
    yield _perturb_connection(solved), report
    capped = type(report)(**{**vars(report), "converged": False})
    yield solved, capped


def _kernel_perturbations(out):
    staged, direct, obj, grad = out
    shifted = direct.copy()
    shifted.data[(0,) * 6] += 1e-12
    yield staged, shifted, obj, grad
    yield staged, direct, obj * (1 + 1e-9), grad
    yield staged, direct, obj, grad[..., :-1]
    bad = grad.copy()
    bad[(0,) * 5] = np.nan
    yield staged, direct, obj, bad


def _cli_perturbations(out, curv_path):
    codes, text = out
    yield [0, 0, 0, 1], text
    line = next(line for line in text.splitlines() if line.startswith("residual "))
    wrong = f"residual {float(line.split()[1]) * (1 + 1e-12)!r}"
    yield codes, text.replace(line, wrong)
    # Overwrite a pipeline file with slightly wrong data; restore afterwards.
    original = curv_path.read_bytes()
    field = workloads.fieldio.load(curv_path)
    field.data[(0,) * 7] += 1e-9
    workloads.fieldio.save(field, curv_path)
    try:
        yield codes, text
    finally:
        curv_path.write_bytes(original)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_perturbed_outputs_count_as_failed(workload, tmp_path):
    ops = workloads.build(workload, seed=1, smoke=True, workdir=tmp_path)
    for index, op in enumerate(ops):
        out = op.run()
        assert op.check(out), op.name
        if workload == "solve":
            variants = _solve_perturbations(out)
        elif workload == "kernels-16":
            variants = _kernel_perturbations(out)
        else:
            variants = _cli_perturbations(out, tmp_path / f"op{index}-curv.json")
        for variant in variants:
            assert not op.check(variant), op.name


def test_runner_counts_perturbed_ops_as_failed(tmp_path):
    ops = workloads.build("kernels-16", seed=2, smoke=True, workdir=tmp_path)
    broken = [
        workloads.Op(op.name, lambda run=op.run: _perturb_objective(run()), op.check)
        for op in ops
    ]
    broken.append(workloads.Op("raises", lambda: 1 / 0, lambda out: True))
    tally = run.Tally()
    run.run_cycle(ops + broken, tally)
    assert tally.attempted == 2 * len(ops) + 1
    assert tally.failed == len(ops) + 1


def _perturb_objective(out):
    staged, direct, obj, grad = out
    return staged, direct, obj + 1.0, grad


def test_tracer_rebinds_names_imported_by_other_modules():
    solver = workloads.solver
    original = solver.curvature
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.curvature is not original
        assert sys.modules["sdlattice"].curvature is solver.curvature
        ops = workloads.build("kernels-16", seed=0, smoke=True)
        tracer.active = True
        ops[0].run()
        tracer.active = False
    finally:
        tracer.uninstall()
    assert solver.curvature is original
    names = tracer.names
    # curvature is called from inside solver.objective and gradient_coefficients
    parents = {
        names[tracer.span_name[tracer.span_id.index(p)]]
        for n, p in zip(tracer.span_name, tracer.span_parent)
        if names[n] == "curvature.curvature" and p >= 0
    }
    assert {"solver.objective", "solver.gradient_coefficients"} <= parents
    assert tracer.calls["cochain.shifted_read"] > 0
    assert tracer.nbytes["curvature.curvature"] > 0
    # self time never exceeds the wall time of the spans
    total = sum(e - s for e, s, p in zip(tracer.span_end, tracer.span_start,
                                         tracer.span_parent) if p < 0)
    assert sum(tracer.self_s.values()) <= total + 1e-9
