"""One decoding rule for every document a reader takes: UTF-8 text without a
byte-order mark and, for the four JSON documents, one JSON object.

Each case hands a reader a document it accepts as UTF-8, re-encoded or
replaced; each reader refuses the result with its own error.
"""

import struct

import numpy as np
import pytest

from wxhier.cli import main
from wxhier.dataset import load_manifest
from wxhier.errors import FormatError, ParseError, WxhierError
from wxhier.hierarchy import init_hierarchical, load_hierarchical, save_hierarchical
from wxhier.nn import init_params, model_from_bytes, model_to_bytes, softmax_flat_spec
from wxhier.preprocess import NormalizationStats, stats_from_json, stats_to_json
from wxhier.taxonomy import default_taxonomy, load_taxonomy, serialize_taxonomy


def _error(read, data):
    """The type of the package error ``read(data)`` raises, or None."""
    try:
        read(data)
    except WxhierError as exc:
        return type(exc)
    return None


def _manifest(tmp_path, small_data, encode):
    return _error(load_manifest, encode("path,label\nimg.ppm,hail\n"))


def _taxonomy(tmp_path, small_data, encode):
    return _error(load_taxonomy, encode(serialize_taxonomy(default_taxonomy())))


def _stats(tmp_path, small_data, encode):
    return _error(stats_from_json, encode(stats_to_json(NormalizationStats(1.5, 2.25, 9))))


def _model_header(tmp_path, small_data, encode):
    spec = softmax_flat_spec((2, 2, 3), 2)
    blob = model_to_bytes(spec, init_params(spec, np.random.default_rng(0)),
                          NormalizationStats(1.5, 2.25, 9), ["a", "b"])
    (size,) = struct.unpack_from("<I", blob, 8)
    header = encode(blob[12 : 12 + size].decode("utf-8"))
    return _error(model_from_bytes, blob[:8] + struct.pack("<I", len(header)) + header
                  + blob[12 + size :])


def _bundle_json(tmp_path, small_data, encode):
    # bundle.json is not among the hashed payload files, so the hash still matches
    bundle = tmp_path / "bundle"
    save_hierarchical(init_hierarchical(default_taxonomy()), bundle)
    manifest = bundle / "bundle.json"
    manifest.write_bytes(encode(manifest.read_text(encoding="utf-8")))
    return _error(load_hierarchical, bundle)


def _config(tmp_path, small_data, encode):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(encode('{"seed": 3}'))
    argv = ["split", "--manifest", small_data / "manifest.csv", "--config", cfg,
            "--output-dir", tmp_path / "out"]
    return main([str(a) for a in argv])  # an exit code


# (reader, what it gives for a document it accepts, what for one it refuses)
TEXT_READERS = [
    pytest.param(_manifest, None, ParseError, id="manifest"),
    pytest.param(_taxonomy, None, ParseError, id="taxonomy"),
]
JSON_READERS = [
    pytest.param(_stats, None, FormatError, id="stats.json"),
    pytest.param(_model_header, None, FormatError, id="model-header"),
    pytest.param(_bundle_json, None, FormatError, id="bundle.json"),
    pytest.param(_config, 0, 2, id="config"),
]


@pytest.mark.parametrize("codec", ["utf-8", "utf-16", "utf-32", "utf-8-sig"])
@pytest.mark.parametrize("read, accepted, refused", TEXT_READERS + JSON_READERS)
def test_readers_take_utf8_without_a_byte_order_mark(
    tmp_path, small_data, read, accepted, refused, codec
):
    got = read(tmp_path, small_data, lambda text: text.encode(codec))
    assert got == (accepted if codec == "utf-8" else refused)


@pytest.mark.parametrize("doc", ['"wxhier"', "3", "null"])
@pytest.mark.parametrize("read, accepted, refused", JSON_READERS)
def test_json_readers_take_one_object(tmp_path, small_data, read, accepted, refused, doc):
    assert read(tmp_path, small_data, lambda text: doc.encode("utf-8")) == refused
