"""Model container: header layout, blob order, corruption detection."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wxhier.errors import FormatError, VersionError, WxhierError
from wxhier.hierarchy import bundle_content_hash, init_hierarchical, save_hierarchical
from wxhier.nn import (
    basic_cnn_spec,
    init_params,
    model_from_bytes,
    model_to_bytes,
    predict,
    softmax_flat_spec,
)
from wxhier.nn.modelio import MAGIC, VERSION
from wxhier.preprocess import NormalizationStats
from wxhier.taxonomy import default_taxonomy


def make_model(seed=0):
    spec = softmax_flat_spec((4, 4, 3), 5)
    params = init_params(spec, np.random.default_rng(seed))
    return spec, params


STATS = NormalizationStats(mean=1.0, std=2.0, sample_count=10)


def to_bytes(spec, params):
    """The model file of ``spec`` and ``params``, with ``STATS`` and one name per output."""
    return model_to_bytes(spec, params, STATS, [f"c{i}" for i in range(spec.n_out)])


def test_round_trip_bit_exact():
    spec, params = make_model()
    stats = NormalizationStats(mean=127.5, std=64.0, sample_count=480)
    labels = ["a", "b", "c", "d", "e"]
    blob = model_to_bytes(spec, params, stats, labels)
    spec2, params2, stats2, labels2 = model_from_bytes(blob)
    assert spec2 == spec
    assert stats2 == stats
    assert labels2 == labels
    for pa, pb in zip(params, params2):
        for key in pa:
            assert pa[key].tobytes() == pb[key].tobytes()


def test_serialization_deterministic():
    spec, params = make_model()
    assert to_bytes(spec, params) == to_bytes(spec, params)


def test_loaded_model_predicts_identically():
    spec, params = make_model()
    x = np.random.default_rng(1).standard_normal((6, 4, 4, 3)).astype(np.float32)
    spec2, params2, _, _ = model_from_bytes(to_bytes(spec, params))
    np.testing.assert_array_equal(predict(spec, params, x), predict(spec2, params2, x))


def test_header_is_sorted_json():
    spec, params = make_model()
    blob = to_bytes(spec, params)
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])
    assert list(header) == sorted(header)
    assert header["n_out"] == 5


def test_bad_magic():
    spec, params = make_model()
    blob = b"NOPE" + to_bytes(spec, params)[4:]
    with pytest.raises(FormatError):
        model_from_bytes(blob)


def test_future_version_rejected():
    spec, params = make_model()
    blob = bytearray(to_bytes(spec, params))
    struct.pack_into("<I", blob, 4, VERSION + 1)
    with pytest.raises(VersionError):
        model_from_bytes(bytes(blob))


def test_truncation_detected():
    spec, params = make_model()
    blob = to_bytes(spec, params)
    with pytest.raises(FormatError):
        model_from_bytes(blob[: len(blob) - 3])
    with pytest.raises(FormatError):
        model_from_bytes(blob[:10])


def test_trailing_garbage_detected():
    spec, params = make_model()
    with pytest.raises(FormatError):
        model_from_bytes(to_bytes(spec, params) + b"\x00\x01")


def test_blob_shape_mismatch_detected():
    spec, params = make_model()
    # header claims (48, 5) dense weights; swap in a smaller tensor
    params_small = [dict(p) for p in params]
    params_small[1]["w"] = np.zeros((4, 5), dtype=np.float32)
    with pytest.raises(FormatError):
        model_from_bytes(to_bytes(spec, params_small))


def with_raw_header(blob, raw):
    (header_len,) = struct.unpack_from("<I", blob, 8)
    return blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + header_len :]


def header_of(blob):
    (header_len,) = struct.unpack_from("<I", blob, 8)
    return json.loads(blob[12 : 12 + header_len])


def patch_header(blob, edit):
    header = edit(header_of(blob))
    return with_raw_header(blob, json.dumps(header, sort_keys=True, separators=(",", ":")).encode())


def set_field(path, value):
    def edit(header):
        *parents, last = path
        node = header
        for key in parents:
            node = node[key]
        node[last] = value
        return header

    return edit


def test_unknown_layer_kind_rejected():
    # every header that decodes to no valid model is a FormatError
    spec, params = make_model()
    blob = model_to_bytes(spec, params, STATS, ["a", "b", "c", "d", "e"])
    edits = [
        set_field(("layers", 0, "kind"), "maxpool"),
        set_field(("layers", 0, "kind"), ["flatten"]),
        lambda header: [header],
        set_field(("layers",), 5),
        set_field(("layers", 0), "flatten"),
        set_field(("n_out",), 4),
        set_field(("input_shape",), [4, 4]),
        set_field(("input_shape",), [4, 4, 3.0]),
        set_field(("layers", 1, "units"), 5.0),
        lambda header: {**header, "layers": [{"kind": "dropout", "rate": 2}, *header["layers"]]},
        set_field(("stats", "std"), 0),
        set_field(("stats", "mean"), float("nan")),
        set_field(("stats",), [1.0, 2.0, 10]),
        set_field(("stats", "mean"), 1e300),  # beyond float32
        set_field(("labels",), "abcde"),
        # one distinct name per output
        set_field(("labels",), ["a", "b", "c", "d"]),
        set_field(("labels",), ["a", "b", "c", "d", "e", "f"]),
        set_field(("labels",), ["a", "b", "c", "d", "a"]),
        set_field(("labels",), ["a", "b", "c", "d", 5]),
    ]
    for edit in edits:
        with pytest.raises(FormatError):
            model_from_bytes(patch_header(blob, edit))
    nan_params = [dict(p) for p in params]
    nan_params[1]["w"] = params[1]["w"].copy()
    nan_params[1]["w"][0, 0] = np.nan
    with pytest.raises(FormatError):
        model_from_bytes(to_bytes(spec, nan_params))
    cnn = basic_cnn_spec((8, 8, 3), 3)
    cnn_blob = to_bytes(cnn, init_params(cnn, np.random.default_rng(0)))
    for epsilon in (-1.0, 10**400):  # a JSON integer beyond float range, too
        with pytest.raises(FormatError):
            model_from_bytes(patch_header(cnn_blob, set_field(("layers", 1, "epsilon"), epsilon)))


@pytest.mark.parametrize("field", ["stats", "labels"])
def test_header_without_stats_or_labels_is_format_error(field):
    # every model holds both; the reader refuses a null field and a missing one
    blob = to_bytes(*make_model())
    without = {k: v for k, v in header_of(blob).items() if k != field}
    for header in ({**without, field: None}, without):
        raw = json.dumps(header, sort_keys=True).encode()
        with pytest.raises(FormatError, match=field):
            model_from_bytes(with_raw_header(blob, raw))


def test_header_of_a_model_too_large_to_allocate_is_format_error():
    spec, params = make_model()
    blob = patch_header(to_bytes(spec, params), set_field(("input_shape",), [8192, 8192, 3]))
    with pytest.raises(FormatError, match="parameters exceed the limit"):
        model_from_bytes(blob)


@pytest.mark.parametrize(
    "labels",
    ["abcde", ["a", "b", "c", "d"], ["a", "b", "c", "d", "e", "f"], ["a", "b", "c", "d", "a"],
     ["a", "b", "c", "d", 5]],
    ids=["string", "too-few", "too-many", "repeated", "not-a-name"],
)
def test_writer_refuses_the_labels_the_reader_refuses(labels):
    # the same rule as ``test_unknown_layer_kind_rejected``'s label edits
    spec, params = make_model()
    with pytest.raises(FormatError, match="5 distinct names"):
        model_to_bytes(spec, params, STATS, labels)


def test_deeply_nested_header_is_format_error():
    spec, params = make_model()
    with pytest.raises(FormatError):
        model_from_bytes(with_raw_header(to_bytes(spec, params), b"[" * 100_000))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _node_paths(node, prefix=()):
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield prefix + (key,)
        yield from _node_paths(node[key], prefix + (key,))


_CNN = basic_cnn_spec((8, 8, 3), 3)
_CNN_BLOB = model_to_bytes(
    _CNN, init_params(_CNN, np.random.default_rng(0)),
    NormalizationStats(mean=1.0, std=2.0, sample_count=10), ["a", "b", "c"],
)
_CNN_PATHS = list(_node_paths(header_of(_CNN_BLOB)))


@given(
    st.binary(max_size=48).map(lambda raw: with_raw_header(_CNN_BLOB, raw))
    | json_values.map(lambda v: with_raw_header(_CNN_BLOB, json.dumps(v).encode()))
    | st.builds(lambda path, v: patch_header(_CNN_BLOB, set_field(path, v)),
                st.sampled_from(_CNN_PATHS), json_values)
)
@settings(max_examples=120, deadline=500)
def test_fuzzed_header_raises_only_package_errors(blob):
    # raw bytes, any JSON document, or the real header with one node replaced
    try:
        model_from_bytes(blob)
    except WxhierError:
        pass


def test_format_bytes_pinned(tmp_path):
    # digests of the version-1 model and bundle bytes; a change here is a format change
    spec = basic_cnn_spec((16, 16, 3), 3)
    blob = to_bytes(spec, init_params(spec, np.random.default_rng(0)))
    assert hashlib.sha256(blob).hexdigest() == (
        "3e8c99d1ee635df1a27b1561c76be63fa5a1b8c90226d996c5c294c6e14b1596"
    )
    save_hierarchical(init_hierarchical(default_taxonomy(), seed=0), tmp_path)
    assert bundle_content_hash(tmp_path) == (
        "8e96ae8f0d86ca31fd26c4483df1c247cd13026069c75e59a4b477bb4533ab0b"
    )


def test_file_round_trip(tmp_path):
    spec, params = make_model()
    stats = NormalizationStats(mean=1.0, std=2.0, sample_count=10)
    path = tmp_path / "m.wxm1"
    path.write_bytes(model_to_bytes(spec, params, stats, ["x", "y", "z", "w", "v"]))
    spec2, params2, stats2, labels2 = model_from_bytes(path.read_bytes())
    assert spec2 == spec and stats2 == stats
    assert labels2 == ["x", "y", "z", "w", "v"]
    assert path.read_bytes()[:4] == MAGIC
