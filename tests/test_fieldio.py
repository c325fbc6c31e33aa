from __future__ import annotations

import json

import numpy as np
import pytest

from sdlattice.cochain import ConnectionField, CurvatureField
from oracle import random_curvature
from sdlattice.curvature import random_connection, random_gauge
from sdlattice.fieldio import (
    FORMAT_VERSION,
    FieldFormatError,
    FieldIOError,
    FieldShapeError,
    FieldVersionError,
    load,
    save,
)
from sdlattice.lattice import Window


def test_round_trip_all_ranks_bitwise(tmp_path):
    w = Window((3, 2, 3, 2), "periodic")
    fields = [
        random_gauge(w, "su2", seed=0),
        random_connection(w, "sl2c", seed=1),
        random_curvature(w, seed=2),
    ]
    for n, f in enumerate(fields):
        path = tmp_path / f"field{n}.field"
        save(f, path)
        back = load(path)
        assert type(back) is type(f)
        assert back.window == f.window
        assert back.algebra == f.algebra
        assert np.array_equal(back.data, f.data)


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
    bad = {
        "rank": 3,
        "dims": [2, 2, 2],
        "boundary": "open",
        "metric": "lorentz",
        "algebra": "so3",
    }
    for key, value in bad.items():
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
    doc = _doc(tmp_path)
    doc["data"][0] = ["x", "y"]
    with pytest.raises(FieldFormatError):
        load(_write(tmp_path, doc))
    doc = _doc(tmp_path)
    doc["data"] = [[1.0, 2.0, 3.0]] * (len(doc["data"]))
    with pytest.raises(FieldFormatError):
        load(_write(tmp_path, doc))


def test_malformed_json_is_a_format_error(tmp_path):
    path = tmp_path / "broken.field"
    path.write_text("{not json")
    with pytest.raises(FieldFormatError):
        load(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(FieldFormatError):
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
    assert np.array_equal(load(path).data, f.data)
