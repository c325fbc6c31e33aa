from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from sdlattice.cli import main
from sdlattice.cochain import ConnectionField, CurvatureField, GaugeField
from sdlattice.curvature import random_connection
from sdlattice.fieldio import load, save
from sdlattice.lattice import Window

DATA = Path(__file__).resolve().parent / "data"

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zero_connection_pipeline(tmp_path, capsys):
    a = tmp_path / "a.field"
    f = tmp_path / "f.field"
    code, out, _ = run(capsys, "gen", "--kind", "zero", "--dims", "4,4,4,4",
                       "--algebra", "su2", "-o", str(a))
    assert code == 0
    code, out, _ = run(capsys, "curv", str(a), "-o", str(f))
    assert code == 0
    code, out, _ = run(capsys, "residual", "--metric", "euclid", "--dual", "sd", str(f))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "residual 0"
    assert len(lines) == 7
    for line, (i, j) in zip(lines[1:], ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))):
        assert line == f"plane {i}{j} max 0"


def test_residual_accepts_connection_files_directly(tmp_path, capsys):
    a = tmp_path / "a.field"
    f = tmp_path / "f.field"
    run(capsys, "gen", "--kind", "random", "--dims", "3,3,3,3", "--seed", "5",
        "--scale", "0.1", "-o", str(a))
    run(capsys, "curv", str(a), "-o", str(f))
    code1, out1, _ = run(capsys, "residual", "--metric", "euclid", "--dual", "asd", str(a))
    code2, out2, _ = run(capsys, "residual", "--metric", "euclid", "--dual", "asd", str(f))
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_random_is_deterministic_byte_for_byte(tmp_path, capsys):
    p1, p2, p3 = (tmp_path / n for n in ("r1.field", "r2.field", "r3.field"))
    for p in (p1, p2):
        assert run(capsys, "gen", "--kind", "random", "--dims", "3,3,3,3",
                   "--algebra", "sl2c", "--seed", "9", "-o", str(p))[0] == 0
    assert run(capsys, "gen", "--kind", "random", "--dims", "3,3,3,3",
               "--algebra", "sl2c", "--seed", "10", "-o", str(p3))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() != p3.read_bytes()


def test_gen_constant_with_matrix(tmp_path, capsys):
    p = tmp_path / "c.field"
    code, _, _ = run(capsys, "gen", "--kind", "constant", "--dims", "2,2,2,2",
                     "--matrix", "0,-0.5,0,0,0,0,0,0.5", "-o", str(p))
    assert code == 0
    f = load(p)
    expected = np.array([[-0.5j, 0], [0, 0.5j]])
    for axis in range(4):
        assert np.array_equal(f.data[0, 0, 0, 0, axis], expected)


def test_gen_constant_without_matrix_is_seeded(tmp_path, capsys):
    p1, p2 = tmp_path / "c1.field", tmp_path / "c2.field"
    for p in (p1, p2):
        run(capsys, "gen", "--kind", "constant", "--dims", "2,2,2,2",
            "--seed", "4", "-o", str(p))
    assert p1.read_bytes() == p2.read_bytes()


def test_gen_pure_gauge(tmp_path, capsys):
    p = tmp_path / "pg.field"
    code, _, _ = run(capsys, "gen", "--kind", "pure-gauge", "--dims", "2,2,2,2",
                     "--seed", "3", "-o", str(p))
    assert code == 0
    f = load(p)
    assert f.rank == 1
    assert f.algebra == "general"
    assert np.any(f.data)


def test_gen_usage_errors(tmp_path, capsys):
    p = tmp_path / "x.field"
    code, _, err = run(capsys, "gen", "--kind", "zero", "--dims", "4,4,4", "-o", str(p))
    assert code == 2
    assert "--dims" in err
    for matrix in ("1,2,3", "0,x,0,0,0,0,0,0"):
        code, _, err = run(capsys, "gen", "--kind", "constant", "--dims", "2,2,2,2",
                           "--matrix", matrix, "-o", str(p))
        assert code == 2, matrix
        assert "--matrix" in err


def test_gen_refuses_matrix_unless_the_kind_is_constant(tmp_path, capsys):
    # a matrix was ignored, malformed or not, by the other kinds
    out = tmp_path / "x.field"
    for kind in ("random", "zero", "pure-gauge"):
        for matrix in ("1,2", "0,-0.5,0,0,0,0,0,0.5"):
            code, _, err = run(capsys, "gen", "--kind", kind, "--dims", "2,2,2,2",
                               "--matrix", matrix, "-o", str(out))
            assert code == 2, (kind, matrix)
            assert err.startswith("error: ") and "--matrix" in err
            assert not out.exists()


def test_gen_refuses_seed_and_scale_that_the_kind_does_not_use(tmp_path, capsys):
    # each of these used to exit 0 and write a field that ignored the flag
    out = tmp_path / "x.field"
    matrix = ["--matrix", "0,-0.5,0,0,0,0,0,0.5"]
    for kind, extra, flag in (("zero", ["--scale", "nan"], "--scale"),
                              ("zero", ["--seed", "9"], "--seed"),
                              ("zero", ["--seed", "0", "--scale", "1"], "--seed"),
                              ("pure-gauge", ["--scale", "-5"], "--scale"),
                              ("pure-gauge", ["--seed", "1", "--scale", "1"], "--scale"),
                              ("constant", matrix + ["--scale", "nan", "--seed", "3"], "--seed"),
                              ("constant", matrix + ["--scale", "0.5"], "--scale")):
        code, _, err = run(capsys, "gen", "--kind", kind, "--dims", "1,1,1,1", *extra, "-o", str(out))
        assert code == 2, (kind, extra)
        assert err.startswith("error: ") and flag in err, (kind, extra)
        assert not out.exists()
    for kind, extra in (("random", ["--seed", "3", "--scale", "0.5"]), ("pure-gauge", ["--seed", "3"]),
                        ("constant", ["--seed", "3", "--scale", "0.5"]), ("constant", matrix),
                        ("zero", [])):
        assert run(capsys, "gen", "--kind", kind, "--dims", "1,1,1,1", *extra, "-o", str(out))[0] == 0


def test_gen_scale_must_be_finite_with_finite_width(tmp_path, capsys):
    # 1e308 is finite, but the draw interval [-scale, scale] is not
    out = tmp_path / "a.field"
    for kind in ("random", "constant"):
        for scale in ("inf", "nan", "1e308"):
            code, _, err = run(capsys, "gen", "--kind", kind, "--dims", "1,1,1,1",
                               "--scale", scale, "-o", str(out))
            assert code == 2, (kind, scale)
            assert err.startswith("error: ") and "scale" in err
            assert not out.exists()


def test_gen_window_too_large_to_allocate_exits_2(tmp_path, capsys):
    # 10^12 sites ask for 233 TiB, which numpy refuses at once; this used to
    # end in a MemoryError traceback and exit 1
    out = tmp_path / "x.field"
    code, _, err = run(capsys, "gen", "--kind", "zero", "--dims", "1000,1000,1000,1000",
                       "-o", str(out))
    assert code == 2
    assert err.startswith("error: ")
    assert not out.exists()


def test_gen_matrix_must_lie_in_the_algebra(tmp_path, capsys):
    out = tmp_path / "c.field"
    identity = "1,0,0,0,0,0,1,0"
    hermitian = "1,0,0,0,0,0,-1,0"  # traceless, so sl2c but not su2
    infinite = "0,0,inf,0,0,0,0,0"
    for matrix, algebra in ((identity, "su2"), (identity, "sl2c"), (hermitian, "su2"),
                            (infinite, "su2")):
        code, _, err = run(capsys, "gen", "--kind", "constant", "--dims", "1,1,1,1",
                           "--matrix", matrix, "--algebra", algebra, "-o", str(out))
        assert code == 2, (matrix, algebra)
        assert "--matrix" in err
        assert not out.exists()
    code, _, _ = run(capsys, "gen", "--kind", "constant", "--dims", "1,1,1,1",
                     "--matrix", hermitian, "--algebra", "sl2c", "-o", str(out))
    assert code == 0


def test_curv_rejects_rank_mismatch(tmp_path, capsys):
    f = tmp_path / "f.field"
    save(CurvatureField.zeros(Window((2, 2, 2, 2))), f)
    code, _, err = run(capsys, "curv", str(f), "-o", str(tmp_path / "g.field"))
    assert code == 2
    assert "rank" in err


def test_star_writes_output_and_respects_metric(tmp_path, capsys):
    f = tmp_path / "f.field"
    field = CurvatureField.zeros(Window((2, 2, 2, 2)))
    field.data[..., 5, :, :] = np.array([[1.0, 0.0], [0.0, -1.0]])
    save(field, f)
    out = tmp_path / "sf.field"
    code, _, _ = run(capsys, "star", "--metric", "euclid", str(f), "-o", str(out))
    assert code == 0
    sf = load(out)
    assert sf.metric == "euclid"
    assert np.array_equal(sf.data[..., 0, :, :], field.data[..., 5, :, :])

    # conflicting metric metadata is a usage error
    code, _, err = run(capsys, "star", "--metric", "mink", str(out),
                       "-o", str(tmp_path / "sff.field"))
    assert code == 2
    assert "metric" in err


@pytest.mark.parametrize("metric", ["euclid", "mink"])
def test_star_writes_the_golden_bytes(tmp_path, capsys, metric):
    # the star only moves entries and flips signs, so its output bytes do not
    # depend on kernel rounding
    out = tmp_path / "star.field"
    code, _, _ = run(capsys, "star", "--metric", metric, str(DATA / "v4" / "curv_su2.field"),
                     "-o", str(out))
    assert code == 0
    assert out.read_bytes() == (DATA / "v4" / f"star_{metric}_su2.field").read_bytes()


def test_residual_refuses_a_gauge_field(tmp_path, capsys):
    g = tmp_path / "g.field"
    save(GaugeField.identity(Window((2, 2, 2, 2))), g)
    code, _, err = run(capsys, "residual", "--metric", "euclid", "--dual", "sd", str(g))
    assert code == 2
    assert "residual needs a rank-1 or rank-2 field" in err


def test_residual_writes_optional_output(tmp_path, capsys):
    a = tmp_path / "a.field"
    r = tmp_path / "r.field"
    run(capsys, "gen", "--kind", "random", "--dims", "2,2,2,2", "--seed", "1",
        "-o", str(a))
    code, out, _ = run(capsys, "residual", "--metric", "mink", "--dual", "sd",
                       str(a), "-o", str(r))
    assert code == 0
    res = load(r)
    norm = float(out.splitlines()[0].split()[1])
    assert norm == pytest.approx(float(np.linalg.norm(res.data)))


def test_check_prop1_passes(capsys):
    code, out, _ = run(capsys, "check", "--relation", "prop1", "--seed", "7")
    assert code == 0
    assert out.strip().splitlines()[-1] == "check prop1: PASS"


def test_check_trials_override(capsys):
    code, out, _ = run(capsys, "check", "--relation", "13", "--seed", "1",
                       "--trials", "3")
    assert code == 0
    assert "check 13: PASS" in out


def test_check_trials_reaches_path_equivalence(capsys):
    code, out, _ = run(capsys, "check", "--relation", "path-equivalence",
                       "--trials", "1")
    assert code == 0
    # one case per window size and algebra, then the verdict
    assert len(out.strip().splitlines()) == 2 * 2 * 1 + 1


def test_check_trials_refused_where_it_cannot_apply(capsys):
    code, out, err = run(capsys, "check", "--relation", "star-table", "--trials", "3")
    assert code == 2
    assert out == ""
    assert "star-table" in err
    code, _, err = run(capsys, "check", "--relation", "prop1", "--trials", "-1")
    assert code == 2
    assert "--trials" in err


def test_check_is_deterministic(capsys):
    a = run(capsys, "check", "--relation", "star-table")
    b = run(capsys, "check", "--relation", "star-table")
    assert a == b
    assert a[0] == 0


def test_solve_pipeline_with_trace(tmp_path, capsys):
    a = tmp_path / "a.field"
    out_field = tmp_path / "solved.field"
    trace = tmp_path / "trace.csv"
    run(capsys, "gen", "--kind", "random", "--dims", "2,2,2,2", "--seed", "0",
        "--scale", "0.01", "-o", str(a))
    code, out, _ = run(capsys, "solve", "--metric", "euclid", "--dual", "sd",
                       "--tol", "1e-8", "--trace", str(trace), str(a),
                       "-o", str(out_field))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "converged true"
    assert lines[1].startswith("iterations ")
    assert lines[2].startswith("final_residual ")
    assert float(lines[2].split()[1]) <= 1e-8
    assert lines[3] == "stop_reason converged"
    assert len(lines) == 4

    solved = load(out_field)
    assert solved.rank == 1
    assert solved.metric == "euclid"

    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "residual", "step"]
    residuals = [float(r[1]) for r in rows[1:]]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] <= 1e-8
    assert int(rows[-1][0]) == int(lines[1].split()[1])


def test_solve_rejects_zero_boundary_and_general_algebra(tmp_path, capsys):
    a = tmp_path / "a.field"
    run(capsys, "gen", "--kind", "zero", "--dims", "2,2,2,2", "--boundary", "zero",
        "-o", str(a))
    code, _, err = run(capsys, "solve", "--metric", "euclid", "--dual", "sd",
                       str(a), "-o", str(tmp_path / "s.field"))
    assert code == 2
    assert "periodic" in err
    assert not (tmp_path / "s.field").exists()

    pg = tmp_path / "pg.field"
    run(capsys, "gen", "--kind", "pure-gauge", "--dims", "2,2,2,2", "-o", str(pg))
    code, _, err = run(capsys, "solve", "--metric", "euclid", "--dual", "sd",
                       str(pg), "-o", str(tmp_path / "s.field"))
    assert code == 2
    assert "algebra" in err
    assert not (tmp_path / "s.field").exists()


def test_undecodable_field_files_exit_2_and_write_nothing(tmp_path, capsys):
    # nesting too deep to decode, and an integer too long to convert
    deep = tmp_path / "deep.field"
    deep.write_text("[" * 200_000)
    long = tmp_path / "long.field"
    long.write_text('{"format_version": ' + "3" * 5000 + "}")
    for path in (deep, long):
        out = tmp_path / "out.field"
        code, _, err = run(capsys, "curv", str(path), "-o", str(out))
        assert code == 2, path
        assert "not valid JSON" in err
        assert not out.exists()


def test_version_1_2_and_3_goldens_exit_2_and_write_nothing(tmp_path, capsys):
    for version, folder in ((1, DATA), (2, DATA / "v2"), (3, DATA / "v3")):
        for name in ("conn_su2.field", "curv_su2.field", "star_mink_su2.field"):
            out = tmp_path / "out.field"
            code, _, err = run(capsys, "curv", str(folder / name), "-o", str(out))
            assert code == 2, (version, name)
            assert err.startswith(f"error: format_version {version} is no longer read")
            assert not out.exists()


def test_malformed_version_4_files_exit_2_and_write_nothing(tmp_path, capsys):
    a = tmp_path / "a.field"
    run(capsys, "gen", "--kind", "random", "--dims", "2,1,1,1", "--scale", "0.01",
        "-o", str(a))
    head, payload = a.read_bytes().split(b"\n", 1)
    header = json.loads(head.decode("ascii"))
    assert header["format_version"] == 4
    nan = np.frombuffer(payload, dtype="<f8").copy()
    nan[0] = float("nan")
    cases = [
        (header, payload[:-1], "bytes"),
        (header, payload + b"\0", "bytes"),
        (header, nan.tobytes(), "finite"),
        (dict(header, format_version=4.0), payload, "format_version"),
        (dict(header, format_version=5), payload, "format_version 5 unsupported"),
        (dict(header, data=""), payload, "'data'"),
    ]
    for doc, body, message in cases:
        bad = tmp_path / "bad.field"
        bad.write_bytes(json.dumps(doc).encode("ascii") + b"\n" + body)
        out = tmp_path / "out.field"
        code, _, err = run(capsys, "curv", str(bad), "-o", str(out))
        assert code == 2, message
        assert message in err
        assert not out.exists()
    bad.write_bytes(b"\xff" + head + b"\n" + payload)
    code, _, err = run(capsys, "curv", str(bad), "-o", str(out))
    assert code == 2
    assert err.startswith("error: not UTF-8")
    assert str(bad) in err
    assert not out.exists()


def test_main_calls_share_no_state(tmp_path, capsys):
    # main parses with one parser per process: a usage error between two
    # calls, and a seed given to the first, leave nothing to the third
    a, b = tmp_path / "a.field", tmp_path / "b.field"
    code, _, _ = run(capsys, "gen", "--kind", "random", "--dims", "2,1,1,1", "--seed", "5",
                     "-o", str(a))
    assert code == 0
    code, _, err = run(capsys, "gen", "--kind", "random", "--dims", "2,1,1,1",
                       "--seed", "x", "-o", str(b))
    assert code == 2
    assert "--seed" in err
    assert not b.exists()
    code, _, _ = run(capsys, "gen", "--kind", "random", "--dims", "2,1,1,1", "-o", str(b))
    assert code == 0
    w = Window((2, 1, 1, 1))
    assert load(a).data.tobytes() == random_connection(w, "su2", 5).data.tobytes()
    assert load(b).data.tobytes() == random_connection(w, "su2", 0).data.tobytes()


def test_non_utf8_field_file_exits_2_and_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "utf16.field"
    bad.write_bytes(b"\xff\xfe" + '{"format_version": 2}'.encode("utf-16-le"))
    out = tmp_path / "out.field"
    code, _, err = run(capsys, "curv", str(bad), "-o", str(out))
    assert code == 2
    assert err.startswith("error: not UTF-8")
    assert str(bad) in err
    assert not out.exists()


def test_solve_rejects_connections_outside_their_algebra(tmp_path, capsys):
    a = tmp_path / "a.field"
    w = Window((1, 1, 1, 1), "periodic")
    save(ConnectionField(w, np.broadcast_to(np.eye(2), (1, 1, 1, 1, 4, 2, 2)), "su2"), a)
    code, _, err = run(capsys, "solve", "--metric", "euclid", "--dual", "sd",
                       str(a), "-o", str(tmp_path / "s.field"))
    assert code == 2
    assert "not in su2" in err
    assert not (tmp_path / "s.field").exists()


def test_solve_rejects_non_finite_tol_and_step0(tmp_path, capsys):
    a = tmp_path / "a.field"
    run(capsys, "gen", "--kind", "random", "--dims", "2,2,2,2", "--scale", "0.01",
        "-o", str(a))
    for value in ("nan", "inf"):
        code, _, err = run(capsys, "solve", "--metric", "euclid", "--dual", "sd",
                           "--tol", value, str(a), "-o", str(tmp_path / "s.field"))
        assert code == 2, value
        assert "tol" in err
        assert not (tmp_path / "s.field").exists()
    # the line search is exact: there is no step length or backtrack factor;
    # and the trace holds every iteration, so there is no thinning
    for flag, value in (("--step0", "0.5"), ("--backtrack", "0.5"), ("--trace-every", "5")):
        code, _, err = run(capsys, "solve", "--metric", "euclid", "--dual", "sd",
                           flag, value, str(a), "-o", str(tmp_path / "s.field"))
        assert code == 2, flag
        assert flag in err
        assert not (tmp_path / "s.field").exists()


def test_solve_has_no_seed_flag(tmp_path, capsys):
    a = tmp_path / "a.field"
    run(capsys, "gen", "--kind", "random", "--dims", "2,2,2,2", "--scale", "0.01",
        "-o", str(a))
    code, _, err = run(capsys, "solve", "--metric", "euclid", "--dual", "sd",
                       "--seed", "0", str(a), "-o", str(tmp_path / "s.field"))
    assert code == 2
    assert "--seed" in err


def test_non_finite_and_boolean_metadata_files_exit_2(tmp_path, capsys):
    a = tmp_path / "a.field"
    run(capsys, "gen", "--kind", "random", "--dims", "2,2,2,2", "--scale", "0.01",
        "-o", str(a))
    head, payload = a.read_bytes().split(b"\n", 1)
    header = json.loads(head.decode("ascii"))
    nan, inf = (np.frombuffer(payload, dtype="<f8").copy() for _ in range(2))
    nan[0], inf[3] = float("nan"), float("inf")
    cases = [(header, nan.tobytes()), (header, inf.tobytes()),
             (dict(header, rank=True), payload), (dict(header, dims=[True, 2, 2, 2]), payload)]
    for doc, body in cases:
        bad = tmp_path / "bad.field"
        bad.write_bytes(json.dumps(doc).encode("ascii") + b"\n" + body)
        code, _, err = run(capsys, "residual", "--metric", "euclid", "--dual", "sd",
                           str(bad))
        assert code == 2, doc
        assert err.startswith("error: ")
        code, _, err = run(capsys, "solve", "--metric", "euclid", "--dual", "sd",
                           str(bad), "-o", str(tmp_path / "s.field"))
        assert code == 2, doc
        assert err.startswith("error: ")
        assert not (tmp_path / "s.field").exists()


def test_unwritable_outputs_exit_2(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    code, _, err = run(capsys, "gen", "--kind", "zero", "--dims", "2,2,2,2",
                       "-o", str(missing / "a.field"))
    assert code == 2
    assert err.startswith("error: ")
    a = tmp_path / "a.field"
    run(capsys, "gen", "--kind", "random", "--dims", "2,2,2,2", "--scale", "0.01",
        "-o", str(a))
    code, _, err = run(capsys, "solve", "--metric", "euclid", "--dual", "sd",
                       "--max-iter", "2", "--trace", str(missing / "t.csv"), str(a),
                       "-o", str(tmp_path / "s.field"))
    assert code == 2
    assert err.startswith("error: ")
    assert not (tmp_path / "s.field").exists()


def test_solve_reports_stop_reason_at_max_iter(tmp_path, capsys):
    a = tmp_path / "a.field"
    run(capsys, "gen", "--kind", "random", "--dims", "2,2,2,2", "--scale", "0.5",
        "-o", str(a))
    code, out, _ = run(capsys, "solve", "--metric", "euclid", "--dual", "sd",
                       "--max-iter", "1", "--tol", "1e-300", str(a),
                       "-o", str(tmp_path / "s.field"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:2] == ["converged false", "iterations 1"]
    assert lines[2].startswith("final_residual ")
    assert lines[3] == "stop_reason max_iter"


def test_gen_non_finite_field_exits_2_without_output(tmp_path, capsys):
    out = tmp_path / "nan.field"
    code, _, err = run(capsys, "gen", "--kind", "constant", "--algebra", "sl2c",
                       "--matrix", "0,0,nan,0,0,0,0,0", "--dims", "1,1,1,1",
                       "-o", str(out))
    assert code == 2
    assert err.startswith("error: ")
    assert not out.exists()


def test_missing_and_malformed_files(tmp_path, capsys):
    code, _, err = run(capsys, "curv", str(tmp_path / "nope.field"),
                       "-o", str(tmp_path / "out.field"))
    assert code == 2
    bad = tmp_path / "bad.field"
    bad.write_text("{not json")
    code, _, err = run(capsys, "residual", "--metric", "euclid", "--dual", "sd", str(bad))
    assert code == 2


def test_bad_arguments_exit_2(capsys):
    assert main(["bogus-command"]) == 2
    assert main(["gen", "--kind", "nope", "--dims", "2,2,2,2", "-o", "x"]) == 2
    assert main(["residual", "--metric", "taxicab", "--dual", "sd", "x"]) == 2
    capsys.readouterr()


def test_gen_records_no_metric(tmp_path, capsys):
    p = tmp_path / "a.field"
    run(capsys, "gen", "--kind", "zero", "--dims", "2,2,2,2", "-o", str(p))
    head = p.read_bytes().split(b"\n", 1)[0]
    assert json.loads(head.decode("ascii"))["metric"] is None
