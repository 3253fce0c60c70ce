"""Model file format, magic ``WXM1``.

Layout:

    bytes 0..3   magic b"WXM1"
    u32 LE       format version (currently 1)
    u32 LE       header length in bytes
    header       a UTF-8 JSON object: input_shape, n_out, layer list, the
                 normalization stats and one name per output ("labels")
    blobs        one tensor container per parameter array, in layer
                 order and, within a layer, in the order of the layer
                 class's ``param_shapes`` (conv and dense: w, b;
                 batchnorm: gamma, beta, running_mean, running_var)

Tensor payloads are float32, matching the training dtype.  The layer
classes and ``ModelSpec`` in ``model`` own each ``kind``, field rule and
parameter shape, and refuse a bad value when built; this module only
parses, mapping kinds to classes through ``LAYER_TYPES``, with the header
read by ``errors.json_object``.  Callers read and write the file bytes.
Every decode fault, including a header that describes an impossible
model or lacks its stats or labels, non-finite parameters and a negative
batchnorm running variance, surfaces as ``FormatError``; the writer
refuses labels and parameters through the reader's own checks.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np

from ..errors import ConfigError, FormatError, ShapeError, VersionError, json_object
from ..preprocess import NormalizationStats, stats_from_dict, stats_to_dict
from ..tensorio import tensor_from_bytes, tensor_to_bytes
from . import model as M

MAGIC = b"WXM1"
VERSION = 1

_LAYER_KINDS: dict[str, type[M.LayerSpec]] = {cls.kind: cls for cls in M.LAYER_TYPES}


def layer_to_dict(layer: M.LayerSpec) -> dict:
    return {"kind": layer.kind, **vars(layer)}


def layer_from_dict(d: dict) -> M.LayerSpec:
    if not isinstance(d, dict):
        raise FormatError(f"layer entry must be a JSON object, got {d!r}")
    d = dict(d)
    kind = d.pop("kind", None)
    cls = _LAYER_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise FormatError(f"unknown layer kind {kind!r}")
    try:
        return cls(**d)
    except TypeError as exc:
        raise FormatError(f"bad fields for layer {kind!r}: {exc}") from None


def spec_to_dict(spec: M.ModelSpec) -> dict:
    layers = [layer_to_dict(layer) for layer in spec.layers]
    return {"input_shape": list(spec.input_shape), "n_out": spec.n_out, "layers": layers}


def spec_from_dict(d: dict) -> M.ModelSpec:
    """Build and shape-check a spec; any fault in ``d`` is a ``FormatError``."""
    try:
        if not (isinstance(d["layers"], list) and isinstance(d["input_shape"], list)):
            raise FormatError("model header fields 'layers' and 'input_shape' must be lists")
        layers = map(layer_from_dict, d["layers"])
        return M.ModelSpec(tuple(d["input_shape"]), tuple(layers), d["n_out"])
    except KeyError as exc:
        raise FormatError(f"model header missing field {exc}") from None
    except (ShapeError, ConfigError) as exc:
        raise FormatError(f"model header describes no valid model: {exc}") from None


def model_to_bytes(
    spec: M.ModelSpec, params: M.Params, stats: NormalizationStats, labels: list[str]
) -> bytes:
    header = spec_to_dict(spec)
    header["stats"] = stats_to_dict(stats)
    header["labels"] = _check_labels(labels, spec.n_out)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(MAGIC + struct.pack("<II", VERSION, len(header_bytes)))
    buf.write(header_bytes)
    for layer, entry, shape in zip(spec.layers, params, M.input_shapes(spec)):
        for key, want in layer.param_shapes(shape).items():
            arr = _check_param(layer, key, entry[key].astype(np.float32), want)
            buf.write(tensor_to_bytes(arr))
    return buf.getvalue()


def model_from_bytes(data: bytes) -> tuple[M.ModelSpec, M.Params, NormalizationStats, list[str]]:
    if len(data) < 12:
        raise FormatError("model file truncated before header")
    if data[:4] != MAGIC:
        raise FormatError(f"bad model magic {data[:4]!r}")
    version, header_len = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise VersionError(f"unsupported model version {version}")
    if len(data) < 12 + header_len:
        raise FormatError("model file truncated inside header")
    header = json_object(data[12 : 12 + header_len], "model header", FormatError)

    spec = spec_from_dict(header)
    offset = 12 + header_len
    params: M.Params = []
    for layer, shape in zip(spec.layers, M.input_shapes(spec)):
        entry: dict[str, np.ndarray] = {}
        for key, want in layer.param_shapes(shape).items():
            arr, offset = tensor_from_bytes(data, offset)
            entry[key] = _check_param(layer, key, arr, want)
        params.append(entry)
    if offset != len(data):
        raise FormatError(f"{len(data) - offset} trailing bytes after parameters")
    stats = stats_from_dict(header.get("stats"))
    return spec, params, stats, _check_labels(header.get("labels"), spec.n_out)


def _check_labels(labels, n_out: int) -> list[str]:
    """``labels`` if they are a list of one distinct name per output.

    The one rule for a model's output names, applied when a model is
    written and when one is read, so no writer makes a file its reader
    refuses.
    """
    if not (
        isinstance(labels, list)
        and all(isinstance(name, str) for name in labels)
        and len(labels) == len(set(labels)) == n_out
    ):
        raise FormatError(f"model labels must be {n_out} distinct names, got {labels!r}")
    return labels


def _check_param(layer: M.LayerSpec, key: str, arr: np.ndarray, want) -> np.ndarray:
    """``arr`` if it has the shape ``want`` and finite values, none of them
    negative in a variance (inference batchnorm takes its square root);
    writer and reader both check."""
    if arr.shape != want:
        raise FormatError(f"{layer.kind} {key} shape {arr.shape} != spec's {want}")
    if not np.isfinite(arr).all():
        raise FormatError(f"{layer.kind} {key} holds non-finite values")
    if key == "running_var" and (arr < 0).any():
        raise FormatError(f"{layer.kind} {key} holds negative values")
    return arr
