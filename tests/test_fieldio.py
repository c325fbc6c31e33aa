from __future__ import annotations

import json
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdlattice.cochain import ConnectionField, CurvatureField, Field, GaugeField
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
# --metric mink`; tests/data/v3 holds the version-3 `save(load(...))` of each,
# and tests/data/v4 the same fields as version 4.  They are not regenerated
# here: that would test the kernels' last bits.  star_euclid_su2.field,
# `sdlat star --metric euclid` of the curvature, exists as versions 3 and 4
# only.  The version-1 files in tests/data and the files in tests/data/v2
# and tests/data/v3 stay as bytes that load refuses.
GOLDEN = ("conn_su2.field", "curv_su2.field", "star_mink_su2.field")
V4_GOLDEN = GOLDEN + ("star_euclid_su2.field",)


@pytest.mark.parametrize("name", GOLDEN)
def test_save_reproduces_golden_bytes(tmp_path, name):
    # load keeps every bit, signed zeros included, so a re-save is identical
    path = tmp_path / name
    save(load(DATA / "v4" / name), path)
    assert path.read_bytes() == (DATA / "v4" / name).read_bytes()


def test_save_reproduces_the_euclidean_star_golden(tmp_path):
    path = tmp_path / "star.field"
    save(load(DATA / "v4" / "star_euclid_su2.field"), path)
    assert path.read_bytes() == (DATA / "v4" / "star_euclid_su2.field").read_bytes()


@pytest.mark.parametrize("name", V4_GOLDEN)
def test_v4_goldens_hold_the_v3_fields(name):
    # parsed by hand: the same header but for format_version, and the v3
    # payload, dims-first, moved sites-last is the v4 payload byte for byte
    head3, payload3 = (DATA / "v3" / name).read_bytes().split(b"\n", 1)
    head4, payload4 = (DATA / "v4" / name).read_bytes().split(b"\n", 1)
    doc3, doc4 = json.loads(head3), json.loads(head4)
    assert (doc3.pop("format_version"), doc4.pop("format_version")) == (3, 4)
    assert doc3 == doc4
    tail = {0: (2, 2), 1: (4, 2, 2), 2: (6, 2, 2)}[doc3["rank"]]
    data = np.frombuffer(payload3, dtype="<c16").reshape(tuple(doc3["dims"]) + tail)
    moved = np.moveaxis(data, (0, 1, 2, 3), (-4, -3, -2, -1))
    assert np.ascontiguousarray(moved).tobytes() == payload4


def test_one_site_fields_load_writeable(tmp_path):
    # load reads into a fresh buffer on every window, one site included
    w = Window((1, 1, 1, 1))
    for f in (random_gauge(w, "su2", seed=0), random_connection(w, "sl2c", seed=1),
              random_curvature(w, seed=2)):
        save(f, tmp_path / "one.field")
        back = load(tmp_path / "one.field")
        assert back.buf.flags.writeable and back.buf.flags.aligned, f.rank
        assert back.data.tobytes() == f.data.tobytes(), f.rank
        back.data[...] *= 2
        assert back.data.tobytes() == (2 * f.data).tobytes(), f.rank


@pytest.mark.parametrize("name", GOLDEN)
def test_version_1_2_and_3_goldens_are_refused(tmp_path, name):
    # load names the version and the last checkout that reads it, which can
    # re-save the file
    for version, folder, commit in ((1, DATA, "f405433"), (2, DATA / "v2", "f405433"),
                                    (3, DATA / "v3", "93c4f3e")):
        head = (folder / name).read_bytes().split(b"\n", 1)[0]
        assert json.loads(head)["format_version"] == version
        with pytest.raises(FieldVersionError, match=f"format_version {version} .*{commit}"):
            load(folder / name)
    # versions 1 and 2 were one JSON document
    for folder in (DATA, DATA / "v2"):
        text = (folder / name).read_text()
        # spread over several lines, its first line is not a JSON document
        path = tmp_path / "lines.field"
        path.write_text(json.dumps(json.loads(text), indent=1))
        with pytest.raises(FieldFormatError, match="not valid JSON"):
            load(path)


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
# file ends its header
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
    assert json.loads(head.decode("ascii"))["format_version"] == 4
    assert payload == f.buf.astype("<c16").tobytes()
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
    assert doc == {"format_version": 4, "rank": 1, "dims": [2, 2, 2, 2],
                   "boundary": "periodic", "metric": None, "algebra": "su2"}
    assert FORMAT_VERSION == 4
    # 16 bytes of little-endian complex128 an entry: Field.buf in C order
    assert len(payload) == 16 * (16 * 4 * 4)
    assert payload == np.ascontiguousarray(f.buf, dtype="<c16").tobytes()


def _doc():
    # the header that save writes before _payload() (as
    # test_file_is_json_with_expected_metadata checks)
    return {"format_version": 4, "rank": 1, "dims": [2, 2, 2, 2],
            "boundary": "periodic", "metric": None, "algebra": "su2"}


def _payload() -> bytes:
    # the <c16 bytes that save writes after _doc()
    f = random_connection(Window((2, 2, 2, 2)), "su2", seed=3)
    return np.ascontiguousarray(f.buf, dtype="<c16").tobytes()


def _write(tmp_path, doc, payload=None):
    # a header line and the payload after it, by default _payload()
    path = tmp_path / "mutated.field"
    body = _payload() if payload is None else payload
    path.write_bytes(json.dumps(doc).encode("ascii") + b"\n" + body)
    return path


def test_missing_key_names_the_key(tmp_path):
    for key in ("format_version", "rank", "dims", "boundary", "algebra"):
        doc = _doc()
        del doc[key]
        with pytest.raises(FieldFormatError, match=key):
            load(_write(tmp_path, doc))


def test_version_mismatch(tmp_path):
    # versions 1, 2 and 3 are refused even before a version-4 payload
    for value in (0, 1, 2, 3, 5, 99):
        doc = _doc()
        doc["format_version"] = value
        with pytest.raises(FieldVersionError):
            load(_write(tmp_path, doc))


def test_truncated_data_is_a_shape_error(tmp_path):
    # one entry, one byte or everything short, and one byte or one entry over
    payload = _payload()
    for cut in (payload[:-16], payload[:-1], b"", payload + b"\0", payload * 2):
        with pytest.raises(FieldShapeError, match="bytes"):
            load(_write(tmp_path, _doc(), cut))
    # a header line with no payload, or with no newline at all
    path = tmp_path / "header.field"
    for end in (b"\n", b""):
        path.write_bytes(json.dumps(_doc()).encode("ascii") + end)
        with pytest.raises(FieldShapeError, match="holds 0 bytes"):
            load(path)


def test_dims_data_disagreement_is_a_shape_error(tmp_path):
    doc = _doc()
    doc["dims"] = [2, 2, 2, 3]
    with pytest.raises(FieldShapeError):
        load(_write(tmp_path, doc))
    # a 2^4 payload under a header claiming 64^4 sites (1.6 GB): the size is
    # checked before anything field-sized is allocated
    path = _write(tmp_path, dict(_doc(), rank=2, dims=[64, 64, 64, 64]))
    tracemalloc.start()
    try:
        with pytest.raises(FieldShapeError, match="bytes"):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_reads_a_pipe(tmp_path):
    # a pipe has no size to check up front; it is read to the header's size
    # and must then end, here fed in chunks of 1000 bytes by a writer thread;
    # a header claiming 10^16 sites cannot be allocated
    f = random_curvature(Window((2, 3, 1, 2)), seed=5)
    path = tmp_path / "f.field"
    save(f, path)
    raw = path.read_bytes()
    huge = json.dumps(dict(_doc(), rank=2, dims=[10_000] * 4)).encode("ascii") + b"\n"
    for body, error in ((raw, None), (raw[:-1], FieldShapeError), (raw + b"\0", FieldShapeError),
                        (huge + _payload(), FieldShapeError)):
        read_end, write_end = os.pipe()

        def feed(body=body, write_end=write_end):
            with os.fdopen(write_end, "wb") as out:
                for start in range(0, len(body), 1000):
                    out.write(body[start:start + 1000])
                    out.flush()

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            if error is None:
                back = load(f"/dev/fd/{read_end}")
                assert type(back) is CurvatureField and back.window == f.window
                assert back.buf.tobytes() == f.buf.tobytes()
            else:
                with pytest.raises(error, match="bytes"):
                    load(f"/dev/fd/{read_end}")
        finally:
            writer.join(timeout=10)
            os.close(read_end)
        assert not writer.is_alive()


def test_version_3_header_with_a_data_key_is_a_format_error(tmp_path):
    # the payload follows the header; a data key is refused, with or without
    # a payload after the header
    doc = _doc()
    path = tmp_path / "data.field"
    for data in ("AAAA", None, []):
        doc["data"] = data
        with pytest.raises(FieldFormatError, match="data"):
            load(_write(tmp_path, doc))
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldFormatError, match="data"):
            load(path)


def test_bad_metadata_values(tmp_path):
    bad = [
        ("format_version", 1.0),
        ("format_version", 2.0),
        ("format_version", 3.0),
        ("format_version", 4.0),
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
        doc = _doc()
        doc[key] = value
        with pytest.raises(FieldFormatError, match=key):
            load(_write(tmp_path, doc))


def test_boolean_metadata_rejected(tmp_path):
    # JSON true decodes to a bool, which Python treats as the integer 1
    for key, value in (("format_version", True), ("rank", True), ("dims", [True, 2, 2, 2])):
        doc = _doc()
        doc[key] = value
        with pytest.raises(FieldFormatError, match=key):
            load(_write(tmp_path, doc))


def test_non_finite_data_rejected(tmp_path):
    # one entry's real or imaginary part
    for value in (float("nan"), float("inf"), float("-inf")):
        for part in (0, 1):
            entries = np.frombuffer(_payload(), dtype="<f8").copy()
            entries[2 * 5 + part] = value
            with pytest.raises(FieldFormatError, match="finite"):
                load(_write(tmp_path, _doc(), entries.tobytes()))


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


def test_non_utf8_file_is_a_format_error_naming_the_path(tmp_path):
    # a header in UTF-16 or UTF-32, which json.loads would sniff from bytes,
    # or with a byte that is not UTF-8 in a label
    path = tmp_path / "utf16.field"
    header = json.dumps(_doc())
    files = [(b"\xff\xfe" + header.encode("utf-16-le"), "not UTF-8"),
             (header.encode("utf-32") + b"\n" + _payload(), "not UTF-8"),
             (header.replace("su2", "su\xff").encode("latin-1") + b"\n" + _payload(),
              "not UTF-8"),
             # ASCII in UTF-16 with no byte-order mark is UTF-8 with NULs
             (header.encode("utf-16-le") + b"\n" + _payload(), "not valid JSON")]
    for data, message in files:
        path.write_bytes(data)
        with pytest.raises(FieldFormatError, match=message) as info:
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
    # the decoder recurses once per bracket, and refuses an integer of more
    # than 4 300 digits (Python 3.11) with a ValueError of its own
    for text in ("[" * 200_000, '{"rank": ' + "9" * 5000 + "}"):
        path.write_text(text)
        with pytest.raises(FieldFormatError, match="not valid JSON"):
            load(path)
    # a header that is not JSON, or not an object, before a payload that
    # happens to be UTF-8
    for head in (b"{not json", b"[1, 2, 3]", b"[" * 200_000):
        path.write_bytes(head + b"\n" + b"0" * 16 * 64)
        with pytest.raises(FieldFormatError):
            load(path)


# characters that make or break JSON, swapped into a header
JSON_PUNCTUATION = '{}[]:,"\\ -+.0123456789eEtfnul\n'


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rank=st.sampled_from([0, 1, 2]),
       kind=st.sampled_from(["bytes", "cut", "header", "random"]), data=st.data())
def test_malformed_files_give_typed_errors(tmp_path_factory, rank, kind, data):
    # a saved file with bytes changed, a span cut, header characters
    # swapped for JSON punctuation, or random bytes: load returns a field or
    # raises a FieldIOError, never anything else
    w = Window((2, 1, 1, 1))
    field = (random_gauge(w, "su2", seed=0), random_connection(w, "sl2c", seed=1),
             random_curvature(w, seed=2))[rank]
    path = tmp_path_factory.mktemp("fuzz") / "x.field"
    save(field, path)
    raw = bytearray(path.read_bytes())
    if kind == "bytes":
        for i, b in data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                                 st.integers(0, 255)), min_size=1, max_size=8)):
            raw[i] = b
    elif kind == "cut":
        start = data.draw(st.integers(0, len(raw)))
        del raw[start:data.draw(st.integers(start, len(raw)))]
    elif kind == "header":
        end = raw.index(b"\n")
        for i, c in data.draw(st.lists(st.tuples(st.integers(0, end - 1),
                                                 st.sampled_from(JSON_PUNCTUATION)),
                                       min_size=1, max_size=4)):
            raw[i] = ord(c)
    else:
        raw = data.draw(st.binary(max_size=2 * len(raw)))
    path.write_bytes(raw)
    try:
        assert isinstance(load(path), Field)
    except FieldIOError:
        pass


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
