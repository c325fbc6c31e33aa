from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from sdlattice.cochain import ConnectionField, CurvatureField
from oracle import random_curvature
from sdlattice.curvature import curvature, random_connection, random_gauge, zero_connection
from sdlattice.fieldio import (
    FORMAT_VERSION,
    FieldFormatError,
    FieldIOError,
    FieldShapeError,
    FieldVersionError,
    load,
    save,
)
from sdlattice.hodge import star
from sdlattice.lattice import Window

DATA = Path(__file__).resolve().parent / "data"


def _signed_zeros(w):
    # +-0.0 in both the real and the imaginary part of neighbouring entries
    f = CurvatureField.zeros(w)
    values = np.empty(f.data.shape, dtype=complex)
    flat = values.reshape(-1)
    flat[0::4] = complex(-0.0, 0.0)
    flat[1::4] = complex(0.0, -0.0)
    flat[2::4] = complex(-0.0, -0.0)
    flat[3::4] = 0.5 - 0.0j
    f.data[...] = values
    return f


def test_round_trip_all_ranks_bitwise(tmp_path):
    # tobytes, not np.array_equal: array_equal treats -0.0 and +0.0 as equal
    w = Window((3, 2, 3, 2), "periodic")
    fields = [
        random_gauge(w, "su2", seed=0),
        random_connection(w, "sl2c", seed=1),
        random_curvature(w, seed=2),
        _signed_zeros(w),
        star(curvature(zero_connection(Window((2, 2, 2, 2)))), "euclid"),
    ]
    assert np.signbit(fields[3].data.real).any() and np.signbit(fields[3].data.imag).any()
    assert np.signbit(fields[4].data.real).any()
    for n, f in enumerate(fields):
        path = tmp_path / f"field{n}.field"
        save(f, path)
        back = load(path)
        assert type(back) is type(f)
        assert back.window == f.window
        assert back.algebra == f.algebra
        assert back.data.tobytes() == f.data.tobytes()


# Golden files on the window (2,1,2,1), written by `sdlat gen --kind random
# --algebra su2 --seed 7`, then `sdlat curv` and `sdlat star --metric mink`.
# They are not regenerated here: that would test the kernels' last bits.
GOLDEN = ("conn_su2.field", "curv_su2.field", "star_mink_su2.field")


@pytest.mark.parametrize("name", GOLDEN)
def test_save_reproduces_golden_bytes(tmp_path, name):
    # load keeps every bit, signed zeros included, so a re-save is identical
    path = tmp_path / name
    save(load(DATA / name), path)
    assert path.read_bytes() == (DATA / name).read_bytes()


def test_non_contiguous_data_saves_like_its_contiguous_copy(tmp_path):
    f = random_curvature(Window((2, 3, 1, 2)), seed=4)
    rev = (slice(None, None, -1),) * f.data.ndim
    reversed_data = np.ascontiguousarray(f.data[rev])[rev]
    # a fully reversed array flattens to a view with a negative stride
    assert reversed_data.reshape(-1).strides == (-reversed_data.itemsize,)
    g = CurvatureField(f.window, reversed_data)
    save(f, tmp_path / "a.field")
    save(g, tmp_path / "b.field")
    assert (tmp_path / "a.field").read_bytes() == (tmp_path / "b.field").read_bytes()


def test_round_trip_preserves_metric_and_boundary(tmp_path):
    w = Window((2, 2, 2, 2), "zero")
    f = CurvatureField.zeros(w)
    f.metric = "mink"
    path = tmp_path / "m.field"
    save(f, path)
    back = load(path)
    assert back.metric == "mink"
    assert back.window.boundary == "zero"
    g = ConnectionField.zeros(Window((2, 2, 2, 2)))
    save(g, path)
    assert load(path).metric is None


def test_file_is_json_with_expected_metadata(tmp_path):
    w = Window((2, 2, 2, 2))
    path = tmp_path / "a.field"
    save(ConnectionField.zeros(w), path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["rank"] == 1
    assert doc["dims"] == [2, 2, 2, 2]
    assert doc["boundary"] == "periodic"
    assert doc["algebra"] == "su2"
    assert len(doc["data"]) == 16 * 4 * 4


def _doc(tmp_path):
    w = Window((2, 2, 2, 2))
    path = tmp_path / "base.field"
    save(random_connection(w, "su2", seed=3), path)
    return json.loads(path.read_text())


def _write(tmp_path, doc):
    path = tmp_path / "mutated.field"
    path.write_text(json.dumps(doc))
    return path


def test_missing_key_names_the_key(tmp_path):
    for key in ("format_version", "rank", "dims", "boundary", "algebra", "data"):
        doc = _doc(tmp_path)
        del doc[key]
        with pytest.raises(FieldFormatError, match=key):
            load(_write(tmp_path, doc))


def test_version_mismatch(tmp_path):
    doc = _doc(tmp_path)
    doc["format_version"] = 2
    with pytest.raises(FieldVersionError):
        load(_write(tmp_path, doc))


def test_truncated_data_is_a_shape_error(tmp_path):
    doc = _doc(tmp_path)
    doc["data"] = doc["data"][:-5]
    with pytest.raises(FieldShapeError):
        load(_write(tmp_path, doc))


def test_dims_data_disagreement_is_a_shape_error(tmp_path):
    doc = _doc(tmp_path)
    doc["dims"] = [2, 2, 2, 3]
    with pytest.raises(FieldShapeError):
        load(_write(tmp_path, doc))


def test_bad_metadata_values(tmp_path):
    bad = [
        ("format_version", 1.0),
        ("rank", 3),
        ("dims", [2, 2, 2]),
        ("dims", "2,2,2,2"),
        ("dims", {"a": 1}),
        ("dims", 4),
        ("dims", None),
        ("dims", [2.0, 2, 2, 2]),
        ("boundary", "open"),
        ("boundary", ["periodic"]),
        ("boundary", None),
        ("metric", "lorentz"),
        ("algebra", "so3"),
    ]
    for key, value in bad:
        doc = _doc(tmp_path)
        doc[key] = value
        with pytest.raises(FieldFormatError, match=key):
            load(_write(tmp_path, doc))


def test_boolean_metadata_rejected(tmp_path):
    # JSON true decodes to a bool, which Python treats as the integer 1
    for key, value in (("format_version", True), ("rank", True), ("dims", [True, 2, 2, 2])):
        doc = _doc(tmp_path)
        doc[key] = value
        with pytest.raises(FieldFormatError, match=key):
            load(_write(tmp_path, doc))


def test_non_finite_data_rejected(tmp_path):
    for value in (float("nan"), float("inf"), float("-inf")):
        doc = _doc(tmp_path)
        doc["data"][5] = [0.25, value]
        with pytest.raises(FieldFormatError, match="finite"):
            load(_write(tmp_path, doc))


def test_save_refuses_non_finite_data(tmp_path):
    # JSON has no NaN or Infinity: load would refuse what save wrote
    for value in (float("nan"), float("inf")):
        f = ConnectionField.zeros(Window((1, 1, 1, 1)))
        f.data[0, 0, 0, 0, 2, 1, 0] = value
        path = tmp_path / "bad.field"
        with pytest.raises(FieldFormatError, match="non-finite"):
            save(f, path)
        assert not path.exists()


def test_save_refuses_labels_that_load_refuses(tmp_path):
    # a field relabelled after construction: save would write a file that
    # load rejects, so it refuses before it opens the file
    for attr, value in (("metric", "Euclid"), ("metric", "lorentz"), ("algebra", "so3")):
        f = random_curvature(Window((2, 1, 1, 2)), seed=0)
        setattr(f, attr, value)
        path = tmp_path / "bad.field"
        with pytest.raises(FieldFormatError, match=attr):
            save(f, path)
        assert not path.exists()


def test_boolean_data_entries_rejected(tmp_path):
    # JSON true/false would otherwise load as 1.0/0.0
    for pair in ([True, False], [0.5, True], [False, 0.25]):
        doc = _doc(tmp_path)
        doc["data"][3] = pair
        with pytest.raises(FieldFormatError, match="boolean"):
            load(_write(tmp_path, doc))
    doc = _doc(tmp_path)
    doc["data"][3] = [1.0, 0.0]
    assert load(_write(tmp_path, doc)).data.reshape(-1)[3] == 1.0


def test_non_numeric_data_rejected(tmp_path):
    # float() of a 401-digit integer overflows
    for pair in (["x", "y"], [10 ** 400, 0.0]):
        doc = _doc(tmp_path)
        doc["data"][0] = pair
        with pytest.raises(FieldFormatError, match="must be numbers"):
            load(_write(tmp_path, doc))
    doc = _doc(tmp_path)
    doc["data"] = [[1.0, 2.0, 3.0]] * (len(doc["data"]))
    with pytest.raises(FieldFormatError):
        load(_write(tmp_path, doc))
    for data in ({"0": [1.0, 2.0]}, "1,2", 1.0, None):
        doc["data"] = data
        with pytest.raises(FieldFormatError, match="data must be a list"):
            load(_write(tmp_path, doc))


def test_string_and_null_data_entries_rejected(tmp_path):
    # float() parses "1.5" and turns null into NaN, so these loaded as numbers
    # or were refused as non-finite
    for pair in (["1.5", "-0.25"], [0.5, "2"], ["nan", 0.0], [None, 0.0], [0.25, None]):
        doc = _doc(tmp_path)
        doc["data"][7] = pair
        with pytest.raises(FieldFormatError, match="must be numbers, not strings or null"):
            load(_write(tmp_path, doc))


def test_quoted_metadata_does_not_hide_or_fake_a_string_entry(tmp_path):
    # escaped quotes in metadata, written as \" or \u0022, decide nothing:
    # only the decoded type of each data entry does
    doc = _doc(tmp_path)
    doc["note"] = ['say "hi"', {"k": None}]
    text = json.dumps(doc)
    path = tmp_path / "quoted.field"
    for spelled in (text, text.replace('\\"', "\\u0022")):
        path.write_text(spelled)
        assert np.array_equal(load(path).data.reshape(-1).view(float), np.ravel(doc["data"]))
    doc["data"][2] = [0.5, "1"]
    path.write_text(json.dumps(doc).replace('\\"', "\\u0022"))
    with pytest.raises(FieldFormatError, match="not strings"):
        load(path)


def test_malformed_json_is_a_format_error(tmp_path):
    path = tmp_path / "broken.field"
    path.write_text("{not json")
    with pytest.raises(FieldFormatError):
        load(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(FieldFormatError):
        load(path)
    # the decoder recurses once per bracket
    path.write_text("[" * 200_000)
    with pytest.raises(FieldFormatError, match="not valid JSON"):
        load(path)


def test_error_hierarchy():
    assert issubclass(FieldFormatError, FieldIOError)
    assert issubclass(FieldVersionError, FieldIOError)
    assert issubclass(FieldShapeError, FieldIOError)


def test_round_trip_extreme_values(tmp_path):
    w = Window((1, 1, 1, 2))
    f = CurvatureField.zeros(w)
    f.data[..., 0, 0, 0] = 1e-308 + 1e308j
    f.data[..., 1, 0, 1] = -0.1 + np.pi * 1j
    path = tmp_path / "x.field"
    save(f, path)
    assert load(path).data.tobytes() == f.data.tobytes()
