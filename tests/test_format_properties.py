"""Every writer refuses what its reader refuses, one property per file format.

Each property builds candidate values, some of them faulty.  A value the
object (or the writer) refuses must raise a ``WxhierError``; a value it
accepts must read back equal from the bytes the writer makes of it.
"""

import csv
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wxhier.dataset import ManifestEntry, SplitSpec, load_manifest, manifest_to_csv
from wxhier.errors import (
    ConfigError, FormatError, ParseError, ShapeError, UnknownLabelError, ValidationError,
    WxhierError,
)
from wxhier.hierarchy import (
    MODEL_ROLES, HierTrainConfig, init_hierarchical, load_hierarchical, save_hierarchical
)
from wxhier.imageio import CHANNEL_ORDERS, ImageU8, decode_ppm, encode_ppm
from wxhier.nn import (
    AvgPool, BatchNorm, Conv, Dense, Dropout, Flatten, ModelSpec, ReLU, Softmax, basic_cnn_spec,
    TrainConfig, init_params, model_from_bytes, model_to_bytes, softmax_flat_spec,
)
from wxhier.nn.model import LAYER_TYPES
from wxhier.preprocess import NormalizationStats, stats_from_json, stats_to_json
from wxhier.taxonomy import (
    COARSE_GROUPS, LEAF_CLASSES, SAFETY_LEVELS, Taxonomy, default_taxonomy, load_taxonomy,
    serialize_taxonomy,
)
from wxhier.tensorio import MAX_RANK, tensor_from_bytes, tensor_to_bytes


def _made(build, *args):
    """``build(*args)``, or None when it refuses them with a package error."""
    try:
        return build(*args)
    except WxhierError:
        return None


_NAN_SPEC = softmax_flat_spec((2, 2, 3), 2)
_FLAT_HEAD = (Flatten(), Dense(2), Softmax())


def _nan_params():
    params = init_params(_NAN_SPEC, np.random.default_rng(0))
    params[1]["w"][0, 0] = np.nan
    return params


# Values that a reader refuses or gives back changed: each is refused as it
# is made or written.
@pytest.mark.parametrize(
    "build, exc",
    [
        pytest.param(lambda: ManifestEntry(" a.ppm", "rain"), ParseError, id="padded-path"),
        pytest.param(lambda: ManifestEntry("a.ppm", "drizzle"), UnknownLabelError,
                     id="unknown-label"),
        pytest.param(lambda: Taxonomy(default_taxonomy().leaf_to_group,
                                      default_taxonomy().leaf_to_safety, " x "),
                     ValidationError, id="padded-version"),
        pytest.param(lambda: NormalizationStats(1.0, 2.0, 2.0), ValidationError,
                     id="float-count"),
        pytest.param(lambda: NormalizationStats(1.0, 2.0, np.int64(5)), ValidationError,
                     id="numpy-count"),
        pytest.param(lambda: model_to_bytes(_NAN_SPEC, _nan_params()), FormatError,
                     id="nan-parameter"),
        # layer fields and header integers of a .wxm1 model
        pytest.param(lambda: Conv(2, 3, stride=True), ShapeError, id="conv-bool-stride"),
        pytest.param(lambda: BatchNorm(epsilon=math.inf), ConfigError, id="inf-epsilon"),
        pytest.param(lambda: BatchNorm(epsilon=10**400), ConfigError, id="epsilon-beyond-float"),
        pytest.param(lambda: BatchNorm(momentum=True), ConfigError, id="bool-momentum"),
        pytest.param(lambda: Dropout(False), ConfigError, id="bool-rate"),
        pytest.param(lambda: Conv(np.int64(2), 3), ShapeError, id="numpy-filters"),
        pytest.param(lambda: Dense(np.int64(2)), ShapeError, id="numpy-units"),
        pytest.param(lambda: Dropout(np.float32(0.5)), ConfigError, id="numpy-rate"),
        pytest.param(lambda: ModelSpec((2, 2, 3), _FLAT_HEAD, np.int64(2)), ShapeError,
                     id="numpy-n-out"),
        pytest.param(lambda: ModelSpec((np.int64(2), 2, 3), _FLAT_HEAD, 2), ShapeError,
                     id="numpy-input-side"),
        pytest.param(lambda: Conv(2, 3.0), ShapeError, id="float-kernel"),
        pytest.param(lambda: AvgPool(2.0, 2), ShapeError, id="float-window"),
        pytest.param(lambda: ModelSpec((8.0, 8, 3), _FLAT_HEAD, 2), ShapeError,
                     id="float-input-side"),
        pytest.param(lambda: HierTrainConfig(epochs=1, input_hw=(32.0, 32.0)), ConfigError,
                     id="float-input-hw"),
        # dimensions that no parameter tensor or container can hold
        pytest.param(lambda: ModelSpec((4, 4, 3), (Conv(10**20, 1), *_FLAT_HEAD), 2),
                     ShapeError, id="huge-filters"),
        pytest.param(lambda: ModelSpec((4, 4, 3), (Conv(1, 1, padding=2**40), *_FLAT_HEAD), 2),
                     ShapeError, id="huge-activation"),
    ],
)
def test_writer_refuses_what_its_reader_refuses(build, exc):
    with pytest.raises(exc):
        build()


_TAXONOMY = default_taxonomy()


# Field values of the wrong type for the run, split, manifest and taxonomy
# objects: each is refused as the object is built, never later as a
# TypeError, an AttributeError or a silently accepted value.
@pytest.mark.parametrize(
    "build, exc",
    [
        pytest.param(lambda: TrainConfig(epochs=1, learning_rate=True), ConfigError,
                     id="bool-learning-rate"),
        pytest.param(lambda: TrainConfig(epochs=1, momentum=False), ConfigError,
                     id="bool-momentum"),
        pytest.param(lambda: TrainConfig(epochs=1, learning_rate=np.float32(0.1)), ConfigError,
                     id="numpy-learning-rate"),
        pytest.param(lambda: TrainConfig(epochs=1, learning_rate="0.1"), ConfigError,
                     id="str-learning-rate"),
        pytest.param(lambda: TrainConfig(epochs=1, momentum="0.5"), ConfigError,
                     id="str-momentum"),
        pytest.param(lambda: SplitSpec(test_fraction=np.float32(0.3)), ConfigError,
                     id="numpy-test-fraction"),
        pytest.param(lambda: SplitSpec(test_fraction="0.3"), ConfigError,
                     id="str-test-fraction"),
        pytest.param(lambda: HierTrainConfig(epochs=1, scale=["micro"]), ConfigError,
                     id="list-scale"),
        pytest.param(lambda: HierTrainConfig(epochs=1, input_hw=32), ConfigError,
                     id="int-input-hw"),
        pytest.param(lambda: ManifestEntry("a.ppm", ["rain"]), ParseError, id="list-leaf"),
        pytest.param(lambda: ManifestEntry(5, "rain"), ParseError, id="int-path"),
        pytest.param(lambda: Taxonomy(_TAXONOMY.leaf_to_group, _TAXONOMY.leaf_to_safety, 5),
                     ValidationError, id="int-version"),
    ],
)
def test_value_objects_refuse_wrong_field_types(build, exc):
    with pytest.raises(exc):
        build()


# One valid build of every value class whose fields ``check_fields`` checks,
# with the error class that its range rules raise too.
_VALUE_CLASSES = [
    (Conv, {"filters": 2, "kernel": 3}, ShapeError),
    (BatchNorm, {}, ConfigError),
    (AvgPool, {"window": 2, "stride": 2}, ShapeError),
    (Dropout, {"rate": 0.5}, ConfigError),
    (Dense, {"units": 2}, ShapeError),
    (ModelSpec, {"input_shape": (4, 4, 3), "layers": _FLAT_HEAD, "n_out": 2}, ShapeError),
    (TrainConfig, {"epochs": 1}, ConfigError),
    (HierTrainConfig, {"epochs": 1, "input_hw": (16, 16)}, ConfigError),
    (SplitSpec, {}, ConfigError),
    (ManifestEntry, {"path": "a.ppm", "leaf": "rain"}, ParseError),
    (Taxonomy, {"leaf_to_group": _TAXONOMY.leaf_to_group,
                "leaf_to_safety": _TAXONOMY.leaf_to_safety, "version": "v1"}, ValidationError),
]
_CHECKED = {"int", "float", "str", "tuple[int, ...]"}


def test_value_class_list_covers_every_layer_with_fields():
    listed = {cls for cls, _, _ in _VALUE_CLASSES}
    assert {cls for cls in LAYER_TYPES if fields(cls)} <= listed


@pytest.mark.parametrize("cls, kwargs, exc", _VALUE_CLASSES,
                         ids=[cls.__name__ for cls, _, _ in _VALUE_CLASSES])
def test_every_checked_field_refuses_a_bool(cls, kwargs, exc):
    cls(**kwargs)
    # the rule keys on annotation strings, which ``from __future__ import
    # annotations`` makes: without it no field would count as checked
    checked = [f.name for f in fields(cls) if f.type in _CHECKED]
    assert checked
    for name in checked:
        with pytest.raises(exc, match=f"^{name} must be "):
            cls(**{**kwargs, name: True})


# ---------------------------------------------------------------- manifest

_PATHS = st.text(max_size=8) | st.sampled_from(
    ["a.ppm", " a.ppm", "a.ppm ", "", "a\rb.ppm", "a\r\nb", "a\0b", 'q"u,o\nte']
)
_LABELS = st.sampled_from([*LEAF_CLASSES, "drizzle", " rain", ""])
_ORDERS = st.sampled_from([*CHANNEL_ORDERS, "RBG", " BGR"])


@given(st.lists(st.tuples(_PATHS, _LABELS, _ORDERS), max_size=5))
@settings(max_examples=150, deadline=None)
def test_manifest_entries_read_back_equal(rows):
    entries = [e for e in (_made(ManifestEntry, *row) for row in rows) if e is not None]
    assert load_manifest(manifest_to_csv(entries).encode("utf-8")) == entries


def test_manifest_path_at_the_csv_field_limit():
    limit = csv.field_size_limit()
    entry = ManifestEntry("x" * limit, "rain")
    assert load_manifest(manifest_to_csv([entry])) == [entry]
    with pytest.raises(ParseError, match="longer than"):
        ManifestEntry("x" * (limit + 1), "rain")


# ---------------------------------------------------------------- taxonomy

_VERSIONS = st.text(max_size=8) | st.sampled_from([" x ", "x\r", "a\nb", "a\rb", "", "# v; 2"])


@given(
    _VERSIONS,
    st.lists(st.sampled_from([*COARSE_GROUPS, "Windy"]), min_size=11, max_size=11),
    st.lists(st.sampled_from(SAFETY_LEVELS), min_size=11, max_size=11),
)
@settings(max_examples=150, deadline=None)
def test_taxonomy_reads_back_equal(version, groups, safety):
    t = _made(Taxonomy, dict(zip(LEAF_CLASSES, groups)), dict(zip(LEAF_CLASSES, safety)), version)
    if t is not None:
        assert load_taxonomy(serialize_taxonomy(t).encode("utf-8")) == t


# ------------------------------------------------------------------- stats

_NUMBERS = (
    st.floats()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([np.float64(1.5), np.int64(5), True, "2"])
)


@given(_NUMBERS, _NUMBERS, _NUMBERS)
@settings(max_examples=150, deadline=None)
def test_stats_read_back_equal(mean, std, count):
    s = _made(NormalizationStats, mean, std, count)
    if s is not None:
        again = stats_from_json(stats_to_json(s).encode("utf-8"))
        assert again == s
        assert (type(again.mean), type(again.std), type(again.sample_count)) == (float, float, int)


# ------------------------------------------------------------------- .wxm1

_SPECS = [softmax_flat_spec((2, 2, 3), 2), basic_cnn_spec((4, 4, 3), 3)]


def _poisoned(params, poison):
    """``params`` with one fault a writer may meet: a non-finite value, a
    float64 value beyond float32, or a parameter of the wrong shape."""
    params = [dict(entry) for entry in params]
    entry = next(e for e in params if "w" in e)
    w = entry["w"].astype(np.float64)
    if poison == "nan":
        w.flat[0] = np.nan
    elif poison == "beyond-float32":
        w.flat[0] = 1e39
    elif poison == "shape":
        w = w[..., :-1]
    entry["w"] = w
    return params


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@given(
    st.sampled_from(range(len(_SPECS))),
    st.integers(0, 2**32),
    st.sampled_from([None, "nan", "beyond-float32", "shape"]),
    st.none() | st.builds(NormalizationStats, st.floats(-1e3, 1e3), st.floats(1e-3, 1e3),
                          st.integers(2, 10**6)),
    st.none() | st.lists(st.sampled_from("abcd"), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_model_reads_back_equal(which, seed, poison, stats, labels):
    spec = _SPECS[which]
    params = _poisoned(init_params(spec, np.random.default_rng(seed)), poison)
    blob = _made(model_to_bytes, spec, params, stats, labels)
    if blob is None:
        return
    spec2, params2, stats2, labels2 = model_from_bytes(blob)
    assert (spec2, stats2, labels2) == (spec, stats, labels)
    for entry, again in zip(params, params2):
        assert entry.keys() == again.keys()
        for key in entry:
            assert again[key].tobytes() == entry[key].astype(np.float32).tobytes()


# A model that holds every layer type.  The property below swaps some of
# its layer fields, input sides and n_out for values of other types.
_BASE = ModelSpec(
    (4, 4, 2),
    (Conv(3, 3, padding=1), BatchNorm(), ReLU(), AvgPool(2, 2), Dropout(0.25), Flatten(),
     Dense(4), Dense(3), Softmax()),
    3,
)
_SLOTS = [
    *((i, f.name) for i, layer in enumerate(_BASE.layers) for f in fields(layer)),
    *(("input_shape", i) for i in range(3)),
    ("n_out", None),
]
# a small Python int or float, which a field may take; a small number as a
# float, a numpy scalar or a string; a bool; any float, inf and nan included
_VALUES = (
    st.integers(1, 3)
    | st.floats(0, 0.9)
    | st.builds(lambda kind, k: kind(k), st.sampled_from([float, np.int64, np.float32, str]),
                st.integers(0, 4))
    | st.booleans()
    | st.floats()
)


def _changed(changes):
    """``_BASE`` with each (slot, value) of ``changes`` set, and its parameters."""
    input_shape, n_out = list(_BASE.input_shape), _BASE.n_out
    layer_fields = [vars(layer) for layer in _BASE.layers]
    for (where, key), value in changes:
        if where == "input_shape":
            input_shape[key] = value
        elif where == "n_out":
            n_out = value
        else:
            layer_fields[where] = {**layer_fields[where], key: value}
    layers = [type(layer)(**f) for layer, f in zip(_BASE.layers, layer_fields)]
    spec = ModelSpec(input_shape, layers, n_out)
    return spec, init_params(spec, np.random.default_rng(0))


@given(st.lists(st.tuples(st.sampled_from(_SLOTS), _VALUES), max_size=3))
@example([((0, "filters"), np.int64(3))])
@example([((0, "kernel"), 3.0)])
@example([((1, "momentum"), True)])
@example([(("n_out", None), np.int64(3))])
@example([(("input_shape", 0), 4.0)])
@settings(max_examples=80, deadline=None)
def test_spec_fields_read_back_equal(changes):
    assert {type(layer) for layer in _BASE.layers} == set(LAYER_TYPES)
    made = _made(_changed, changes)
    if made is not None:
        assert model_from_bytes(model_to_bytes(*made))[0] == made[0]


# ------------------------------------------------------------------- .wxt1

@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@given(
    hnp.arrays(
        dtype=st.sampled_from([np.float32, np.float64, np.int32, np.uint8]),
        shape=hnp.array_shapes(min_dims=1, max_dims=MAX_RANK + 2, min_side=0, max_side=2),
    )
)
@settings(max_examples=100, deadline=None)
def test_tensor_reads_back_equal(arr):
    data = _made(tensor_to_bytes, arr)
    if data is not None:
        again, end = tensor_from_bytes(data)
        assert end == len(data)
        assert again.shape == arr.shape
        assert again.tobytes() == arr.astype(np.float32).tobytes()


# --------------------------------------------------------------------- PPM

@given(
    hnp.arrays(
        dtype=st.sampled_from([np.uint8, np.uint16, np.float32]),
        shape=hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4),
    )
)
@settings(max_examples=100, deadline=None)
def test_ppm_reads_back_equal(pixels):
    img = _made(ImageU8, pixels)
    if img is not None:
        assert decode_ppm(encode_ppm(img)) == img


# ------------------------------------------------------------------ bundle

@given(
    st.lists(st.sampled_from(COARSE_GROUPS), min_size=11, max_size=11),
    st.integers(0, 2**32),
    st.sampled_from([None, *MODEL_ROLES]),
)
@example([default_taxonomy().leaf_to_group[leaf] for leaf in LEAF_CLASSES], 0, None)
@example([default_taxonomy().leaf_to_group[leaf] for leaf in LEAF_CLASSES], 0, "sub_dusty")
@settings(max_examples=20, deadline=None)
def test_bundle_reads_back_equal(groups, seed, nan_role):
    taxonomy = Taxonomy(dict(zip(LEAF_CLASSES, groups)), default_taxonomy().leaf_to_safety)
    # a group with no leaf gives its sub-model no class, which no model has
    model = _made(init_hierarchical, taxonomy, (8, 8), "micro", seed)
    if model is None:
        return
    if nan_role is not None:
        getattr(model, nan_role).params[0]["w"].flat[0] = np.nan
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "bundle"
        try:
            save_hierarchical(model, bundle)
        except WxhierError:
            assert nan_role is not None and not (bundle / "bundle.json").exists()
            return
        assert nan_role is None
        again = load_hierarchical(bundle)
    assert (again.taxonomy, again.stats) == (model.taxonomy, model.stats)
    for role in MODEL_ROLES:
        sub, sub2 = getattr(model, role), getattr(again, role)
        assert sub2.spec == sub.spec
        for entry, entry2 in zip(sub.params, sub2.params):
            assert {k: v.tobytes() for k, v in entry.items()} == {
                k: v.tobytes() for k, v in entry2.items()
            }
