from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldio_v1 import v1_document
from fieldio_v2 import v2_document
from sdlattice.cochain import ConnectionField, CurvatureField, GaugeField
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


# Golden files on the window (2,1,2,1), written as version 1 by `sdlat gen
# --kind random --algebra su2 --seed 7`, then `sdlat curv` and `sdlat star
# --metric mink`; tests/data/v2 and tests/data/v3 hold the version-2 and
# version-3 `save(load(...))` of each.  They are not regenerated here: that
# would test the kernels' last bits.  tests/data/v3/star_euclid_su2.field,
# `sdlat star --metric euclid` of the curvature, exists as version 3 only.
GOLDEN = ("conn_su2.field", "curv_su2.field", "star_mink_su2.field")


@pytest.mark.parametrize("name", GOLDEN)
def test_save_reproduces_golden_bytes(tmp_path, name):
    # load keeps every bit, signed zeros included, so a re-save is identical
    path = tmp_path / name
    for version in ("v3", "v2", "."):
        save(load(DATA / version / name), path)
        assert path.read_bytes() == (DATA / "v3" / name).read_bytes(), version


def test_save_reproduces_the_euclidean_star_golden(tmp_path):
    path = tmp_path / "star.field"
    save(load(DATA / "v3" / "star_euclid_su2.field"), path)
    assert path.read_bytes() == (DATA / "v3" / "star_euclid_su2.field").read_bytes()


def test_one_site_fields_load_writeable(tmp_path):
    # on one site the sites-last buffer is the payload as it lies in the file,
    # which np.frombuffer reads read-only (and, for version 3, unaligned)
    w = Window((1, 1, 1, 1))
    for f in (random_gauge(w, "su2", seed=0), random_connection(w, "sl2c", seed=1),
              random_curvature(w, seed=2)):
        save(f, tmp_path / "v3.field")
        (tmp_path / "v2.field").write_text(json.dumps(v2_document(f)) + "\n")
        for name in ("v3.field", "v2.field"):
            back = load(tmp_path / name)
            assert back.buf.flags.writeable and back.buf.flags.aligned, (f.rank, name)
            assert back.data.tobytes() == f.data.tobytes(), (f.rank, name)
            back.data[...] *= 2
            assert back.data.tobytes() == (2 * f.data).tobytes(), (f.rank, name)


@pytest.mark.parametrize("name", GOLDEN)
def test_version_1_and_2_goldens_load_to_identical_bytes(name):
    v1, v2 = load(DATA / name), load(DATA / "v2" / name)
    assert json.loads((DATA / name).read_text())["format_version"] == 1
    assert json.loads((DATA / "v2" / name).read_text())["format_version"] == 2
    assert type(v1) is type(v2)
    assert (v1.window, v1.metric, v1.algebra) == (v2.window, v2.metric, v2.algebra)
    assert v1.data.tobytes() == v2.data.tobytes()


@pytest.mark.parametrize("name", GOLDEN)
def test_version_3_goldens_load_to_the_bytes_of_versions_1_and_2(name):
    head, payload = (DATA / "v3" / name).read_bytes().split(b"\n", 1)
    assert json.loads(head.decode("ascii"))["format_version"] == 3
    v3 = load(DATA / "v3" / name)
    assert payload == v3.data.astype("<c16").tobytes()
    for version in (".", "v2"):
        f = load(DATA / version / name)
        assert type(f) is type(v3)
        assert (f.window, f.metric, f.algebra) == (v3.window, v3.metric, v3.algebra)
        assert f.data.tobytes() == v3.data.tobytes()


@pytest.mark.parametrize("name", GOLDEN)
def test_version_1_writer_reproduces_version_1_goldens(name):
    # every loaded float prints back as the file's shortest round-trip text,
    # so the version-1 files load bit for bit
    assert json.dumps(v1_document(load(DATA / name))) + "\n" == (DATA / name).read_text()


@pytest.mark.parametrize("name", GOLDEN)
def test_version_2_writer_reproduces_version_2_goldens(name):
    text = (DATA / "v2" / name).read_text()
    assert json.dumps(v2_document(load(DATA / "v2" / name))) + "\n" == text


def _bits(pattern: int) -> float:
    return float(np.uint64(pattern).view(np.float64))


# any finite float64 bit pattern, with signed zeros, the smallest and largest
# subnormals and +-max drawn often
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     -2.2250738585072009e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.integers(0, 2**64 - 1).map(_bits).filter(np.isfinite),
)
ONE_OF_EACH = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308,
               -1.7976931348623157e308] * 16


# payloads that start with "\n" and "\r\n": only the first newline of a
# file ends its version-3 header
NEWLINES = [_bits(0x0A0A0A0A0A0A0A0A)] * 96
CRLF = [_bits(0x0A0D0A0D0A0D0A0D), _bits(0x3FF000000000000A)] * 48


@settings(max_examples=50, deadline=None, derandomize=True)
@given(cls=st.sampled_from([GaugeField, ConnectionField, CurvatureField]),
       floats=st.lists(FINITE, min_size=96, max_size=96))
@example(cls=CurvatureField, floats=ONE_OF_EACH)
@example(cls=GaugeField, floats=NEWLINES)
@example(cls=ConnectionField, floats=CRLF)
def test_round_trip_any_finite_bit_pattern(tmp_path_factory, cls, floats):
    w = Window((1, 1, 1, 2))
    shape = w.dims + ((cls.slots, 2, 2) if cls.slots else (2, 2))
    values = np.array(floats[:2 * int(np.prod(shape))]).view(complex)
    f = cls(w, values.reshape(shape), algebra="general")
    path = tmp_path_factory.mktemp("bits") / "x.field"
    save(f, path)
    head, payload = path.read_bytes().split(b"\n", 1)
    assert json.loads(head.decode("ascii"))["format_version"] == 3
    assert payload == f.data.astype("<c16").tobytes()
    assert load(path).data.tobytes() == f.data.tobytes()


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
    # one line of ASCII JSON metadata, then the raw payload and nothing else
    f = random_connection(Window((2, 2, 2, 2)), "su2", seed=3)
    path = tmp_path / "a.field"
    save(f, path)
    head, payload = path.read_bytes().split(b"\n", 1)
    doc = json.loads(head.decode("ascii"))
    assert doc == {"format_version": 3, "rank": 1, "dims": [2, 2, 2, 2],
                   "boundary": "periodic", "metric": None, "algebra": "su2"}
    assert FORMAT_VERSION == 3
    # 16 bytes of little-endian complex128 an entry, in canonical order
    assert len(payload) == 16 * (16 * 4 * 4)
    assert payload == np.ascontiguousarray(f.data, dtype="<c16").tobytes()


def _doc(version=1):
    # a version-1 document, whose data entries a test can edit one by one, a
    # version-2 document, or the header of the version-3 file that save writes
    f = random_connection(Window((2, 2, 2, 2)), "su2", seed=3)
    if version == 1:
        return v1_document(f)
    doc = v2_document(f)
    if version == 3:
        doc["format_version"] = 3
        del doc["data"]
    return doc


def _payload(doc=None) -> bytes:
    # the <c16 bytes of a version-2 document (by default that of _doc(2)),
    # which are also the payload of a version-3 file
    return base64.b64decode((doc or _doc(2))["data"], validate=True)


def _encoded(payload: bytes) -> str:
    return base64.b64encode(payload).decode("ascii")


def _write(tmp_path, doc, payload=None):
    # a JSON document, or with a payload, a version-3 header line and the
    # raw payload after it
    path = tmp_path / "mutated.field"
    if payload is None:
        path.write_text(json.dumps(doc))
    else:
        path.write_bytes(json.dumps(doc).encode("ascii") + b"\n" + payload)
    return path


def _write_any(tmp_path, doc, version):
    # the version-3 header takes the payload of _doc(2)
    return _write(tmp_path, doc, _payload() if version == 3 else None)


def test_missing_key_names_the_key(tmp_path):
    for version in (1, 2, 3):
        for key in ("format_version", "rank", "dims", "boundary", "algebra", "data"):
            doc = _doc(version)
            if key not in doc:  # a version-3 header has no data key
                continue
            del doc[key]
            with pytest.raises(FieldFormatError, match=key):
                load(_write_any(tmp_path, doc, version))


def test_version_mismatch(tmp_path):
    for version in (1, 2, 3):
        for value in (0, 4, 99):
            doc = _doc(version)
            doc["format_version"] = value
            with pytest.raises(FieldVersionError):
                load(_write_any(tmp_path, doc, version))


def test_truncated_data_is_a_shape_error(tmp_path):
    doc = _doc()
    doc["data"] = doc["data"][:-5]
    with pytest.raises(FieldShapeError):
        load(_write(tmp_path, doc))
    # one entry, one byte or everything short, and one byte or one entry over
    payload = _payload()
    for cut in (payload[:-16], payload[:-1], b"", payload + b"\0", payload * 2):
        doc = _doc(2)
        doc["data"] = _encoded(cut)
        with pytest.raises(FieldShapeError, match="bytes"):
            load(_write(tmp_path, doc))
        with pytest.raises(FieldShapeError, match="bytes"):
            load(_write(tmp_path, _doc(3), cut))
    # a version-3 header line with no payload, or with no newline at all
    path = tmp_path / "header.field"
    for end in (b"\n", b""):
        path.write_bytes(json.dumps(_doc(3)).encode("ascii") + end)
        with pytest.raises(FieldShapeError, match="holds 0 bytes"):
            load(path)


def test_dims_data_disagreement_is_a_shape_error(tmp_path):
    for version in (1, 2, 3):
        doc = _doc(version)
        doc["dims"] = [2, 2, 2, 3]
        with pytest.raises(FieldShapeError):
            load(_write_any(tmp_path, doc, version))


def test_bad_base64_payload_is_a_format_error(tmp_path):
    text = _doc(2)["data"]
    bad = [
        text[:76] + "\n" + text[76:],  # an embedded newline, as MIME base64 wraps
        text[:76] + " " + text[76:],
        text[:-1],  # padding cut
        text[:-4] + "A=A=",
        "!" + text[1:],
        text[:-4] + "AAA\u00e9",  # not ASCII
        "-_" + text[2:],  # the URL-safe alphabet
    ]
    for data in bad:
        doc = _doc(2)
        doc["data"] = data
        with pytest.raises(FieldFormatError, match="not valid base64"):
            load(_write(tmp_path, doc))
    for data in ([[0.0, 0.0]] * 64, 1.0, None, {"0": text}, True):
        doc = _doc(2)
        doc["data"] = data
        with pytest.raises(FieldFormatError, match="base64 string"):
            load(_write(tmp_path, doc))


def test_version_3_header_with_a_data_key_is_a_format_error(tmp_path):
    # the payload follows the header; a data key, even a valid version-2
    # payload, is refused, and so is a whole version-2 document labelled 3
    doc = _doc(3)
    for data in (_doc(2)["data"], None, []):
        doc["data"] = data
        with pytest.raises(FieldFormatError, match="data"):
            load(_write(tmp_path, doc, _payload()))
        with pytest.raises(FieldFormatError, match="data"):
            load(_write(tmp_path, doc))


def test_bad_metadata_values(tmp_path):
    bad = [
        ("format_version", 1.0),
        ("format_version", 2.0),
        ("format_version", 3.0),
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
    for version in (1, 2, 3):
        for key, value in bad:
            doc = _doc(version)
            doc[key] = value
            with pytest.raises(FieldFormatError, match=key):
                load(_write_any(tmp_path, doc, version))


def test_boolean_metadata_rejected(tmp_path):
    # JSON true decodes to a bool, which Python treats as the integer 1
    for version in (1, 2, 3):
        for key, value in (("format_version", True), ("rank", True),
                           ("dims", [True, 2, 2, 2])):
            doc = _doc(version)
            doc[key] = value
            with pytest.raises(FieldFormatError, match=key):
                load(_write_any(tmp_path, doc, version))


def test_non_finite_data_rejected(tmp_path):
    for value in (float("nan"), float("inf"), float("-inf")):
        doc = _doc()
        doc["data"][5] = [0.25, value]
        with pytest.raises(FieldFormatError, match="finite"):
            load(_write(tmp_path, doc))
        # the same entry in a version-2 and a version-3 payload, in either part
        for part in (0, 1):
            doc = _doc(2)
            entries = np.frombuffer(_payload(doc), dtype="<f8").copy()
            entries[2 * 5 + part] = value
            doc["data"] = _encoded(entries.tobytes())
            with pytest.raises(FieldFormatError, match="finite"):
                load(_write(tmp_path, doc))
            with pytest.raises(FieldFormatError, match="finite"):
                load(_write(tmp_path, _doc(3), entries.tobytes()))


def test_save_refuses_non_finite_data(tmp_path):
    # load refuses non-finite data, so save refuses to write it
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
        doc = _doc()
        doc["data"][3] = pair
        with pytest.raises(FieldFormatError, match="boolean"):
            load(_write(tmp_path, doc))
    doc = _doc()
    doc["data"][3] = [1.0, 0.0]
    assert load(_write(tmp_path, doc)).data.reshape(-1)[3] == 1.0


def test_non_numeric_data_rejected(tmp_path):
    # float() of a 401-digit integer overflows
    for pair in (["x", "y"], [10 ** 400, 0.0]):
        doc = _doc()
        doc["data"][0] = pair
        with pytest.raises(FieldFormatError, match="must be numbers"):
            load(_write(tmp_path, doc))
    doc = _doc()
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
        doc = _doc()
        doc["data"][7] = pair
        with pytest.raises(FieldFormatError, match="must be numbers, not strings or null"):
            load(_write(tmp_path, doc))


def test_quoted_metadata_does_not_hide_or_fake_a_string_entry(tmp_path):
    # escaped quotes in metadata, written as \" or \u0022, decide nothing:
    # only the decoded type of each data entry does
    doc = _doc()
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


def test_non_utf8_file_is_a_format_error_naming_the_path(tmp_path):
    path = tmp_path / "utf16.field"
    path.write_bytes(b"\xff\xfe" + json.dumps(_doc(2)).encode("utf-16-le"))
    with pytest.raises(FieldFormatError, match="not UTF-8") as info:
        load(path)
    assert str(path) in str(info.value)
    # a version-3 header in UTF-16 or UTF-32, which json.loads would sniff
    # from bytes, or with a byte that is not UTF-8 in a label
    header = json.dumps(_doc(3))
    for head in (header.encode("utf-16-le"), header.encode("utf-32"),
                 header.replace("su2", "su\xff").encode("latin-1")):
        path.write_bytes(head + b"\n" + _payload())
        with pytest.raises(FieldFormatError, match="not UTF-8") as info:
            load(path)
        assert str(path) in str(info.value)


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
    # a version-3 header that is not JSON, or not an object, before a payload
    # that happens to be UTF-8
    for head in (b"{not json", b"[1, 2, 3]", b"[" * 200_000):
        path.write_bytes(head + b"\n" + b"0" * 16 * 64)
        with pytest.raises(FieldFormatError):
            load(path)


def test_documents_spread_over_several_lines_load(tmp_path):
    # versions 1 and 2 are one JSON document, wherever its newlines fall
    path = tmp_path / "lines.field"
    for version in (1, 2):
        doc = _doc(version)
        for text in (json.dumps(doc, indent=1), json.dumps(doc) + "\n\n \n"):
            path.write_text(text)
            assert load(path).data.tobytes() == load(_write(tmp_path, doc)).data.tobytes()


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
