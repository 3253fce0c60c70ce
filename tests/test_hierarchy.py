"""Two-stage routing: prediction invariants, bundle persistence, training."""

import itertools
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wxhier import hierarchy
from wxhier.dataset import ManifestEntry, load_manifest
from wxhier.errors import (
    ConfigError,
    DegenerateError,
    FormatError,
    MissingClassError,
    ValidationError,
    VersionError,
    WxhierError,
)
from wxhier.hierarchy import (
    ARCHES,
    BUNDLE_FILES,
    GROUP_ROLES,
    MODEL_ROLES,
    SAFETY_MODEL_CLASSES,
    HierTrainConfig,
    HierarchicalModel,
    SubModel,
    bundle_content_hash,
    init_hierarchical,
    load_hierarchical,
    predict_batch,
    predict_hierarchical,
    role_classes,
    role_targets,
    save_hierarchical,
    train_hierarchical,
)
from wxhier.imageio import ImageU8
from wxhier.nn import BASIC_FILTERS, init_params, model_to_bytes, modelio, softmax_flat_spec
from wxhier.preprocess import NormalizationStats
from wxhier.taxonomy import (
    COARSE_GROUPS,
    GROUP_INDEX,
    LEAF_CLASSES,
    SAFETY_LEVELS,
    Taxonomy,
    default_taxonomy,
    group_of,
    leaves_of,
    safety_of,
)

from oracles import joint_leaf_batch

HW = (12, 12)


@pytest.fixture(scope="module")
def random_model():
    return init_hierarchical(default_taxonomy(), input_hw=HW, scale="micro", seed=21)


@pytest.fixture(scope="module")
def flat_model():
    """Linear heads route random inputs across all three groups."""
    t = default_taxonomy()

    def sub(classes, seed):
        spec = softmax_flat_spec(HW + (3,), len(classes))
        return SubModel(spec, init_params(spec, np.random.default_rng(seed)))

    return HierarchicalModel(
        primary=sub(COARSE_GROUPS, 1),
        sub_rainy=sub(tuple(leaves_of("Rainy", t)), 2),
        sub_dusty=sub(tuple(leaves_of("Dusty", t)), 3),
        sub_cold_fine=sub(tuple(leaves_of("Cold", t)), 4),
        sub_cold_safety=sub(SAFETY_MODEL_CLASSES, 5),
        taxonomy=t,
        stats=NormalizationStats(0.0, 1.0, 2),
    )


def random_inputs(n, seed=0):
    return np.random.default_rng(seed).standard_normal((n,) + HW + (3,)).astype(np.float32)


def test_roles_and_safety_head():
    assert MODEL_ROLES == ("primary", "sub_rainy", "sub_dusty", "sub_cold_fine", "sub_cold_safety")
    assert SAFETY_MODEL_CLASSES == ("Safe", "PotentiallyHazardous")


def test_leaf_always_inside_predicted_group(random_model):
    t = default_taxonomy()
    preds = predict_batch(random_model, random_inputs(64, seed=1))
    for p in preds:
        assert p.group in COARSE_GROUPS
        assert group_of(p.leaf, t) == p.group
        assert len(p.leaf_probs) == len(leaves_of(p.group, t))
        assert p.group_probs.shape == (3,)
        assert abs(float(p.group_probs.sum()) - 1.0) < 1e-5
        assert abs(float(p.leaf_probs.sum()) - 1.0) < 1e-5


def test_safety_source_rules(flat_model):
    t = default_taxonomy()
    preds = predict_batch(flat_model, random_inputs(96, seed=2))
    groups = {p.group for p in preds}
    assert groups == set(COARSE_GROUPS)  # linear heads spread over all routes
    for p in preds:
        if p.group == "Cold":
            assert p.safety_source == "cold_model"
            assert p.safety in SAFETY_MODEL_CLASSES
            assert p.safety_probs is not None
            assert abs(float(p.safety_probs.sum()) - 1.0) < 1e-5
        else:
            assert p.safety_source == "taxonomy"
            assert p.safety == safety_of(p.leaf, t)
            assert p.safety_probs is None


def test_single_row_batch_matches_batch(random_model):
    # singleton and batched runs differ only by GEMM summation order
    x = random_inputs(5, seed=3)
    batch = predict_batch(random_model, x)
    for i in range(5):
        (single,) = predict_batch(random_model, x[i : i + 1])
        assert single.leaf == batch[i].leaf
        np.testing.assert_allclose(single.leaf_probs, batch[i].leaf_probs, atol=1e-6)


def test_predict_from_image(random_model):
    pixels = np.random.default_rng(4).integers(0, 256, size=(30, 40, 3), dtype=np.uint8)
    pred = predict_hierarchical(random_model, ImageU8(pixels))
    assert pred.leaf in LEAF_CLASSES
    # BGR input with swapped bytes gives the identical prediction
    swapped = ImageU8(pixels[:, :, ::-1].copy())
    pred_bgr = predict_hierarchical(random_model, swapped, channel_order="BGR")
    assert pred_bgr.leaf == pred.leaf
    np.testing.assert_array_equal(pred_bgr.group_probs, pred.group_probs)


def test_joint_distribution_sums_to_one(random_model):
    joint = joint_leaf_batch(random_model, random_inputs(40, seed=5))
    assert joint.shape == (40, 11)
    np.testing.assert_allclose(joint.sum(axis=1), 1.0, atol=1e-6)
    assert (joint >= 0).all()
    single = joint_leaf_batch(random_model, random_inputs(1, seed=6)[:1])
    assert single.shape == (1, 11)
    assert abs(float(single.sum()) - 1.0) < 1e-6


def test_joint_marginalizes_routing(random_model):
    # summing the joint over a group's leaves recovers the group probability
    t = default_taxonomy()
    x = random_inputs(8, seed=7)
    joint = joint_leaf_batch(random_model, x)
    preds = predict_batch(random_model, x)
    for i, p in enumerate(preds):
        for gi, group in enumerate(COARSE_GROUPS):
            idx = [LEAF_CLASSES.index(l) for l in leaves_of(group, t)]
            assert joint[i, idx].sum() == pytest.approx(float(p.group_probs[gi]), abs=1e-5)


def test_submodel_class_count_enforced(random_model):
    spec = softmax_flat_spec(HW + (3,), 4)  # a 4-way head for the 3 coarse groups
    params = init_params(spec, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="primary model emits 4 classes"):
        replace(random_model, primary=SubModel(spec, params))


def test_model_requires_group_alignment(random_model):
    # swapping the rainy and dusty sub-models must be rejected
    with pytest.raises(ValidationError):
        HierarchicalModel(
            primary=random_model.primary,
            sub_rainy=random_model.sub_dusty,
            sub_dusty=random_model.sub_rainy,
            sub_cold_fine=random_model.sub_cold_fine,
            sub_cold_safety=random_model.sub_cold_safety,
            taxonomy=random_model.taxonomy,
            stats=random_model.stats,
        )


def test_model_requires_one_input_shape(random_model):
    # a sub-model of another input size would fail only once an image is routed to it
    small = init_hierarchical(default_taxonomy(), input_hw=(8, 8), scale="micro")
    with pytest.raises(ValidationError, match="sub_cold_safety model input"):
        replace(random_model, sub_cold_safety=small.sub_cold_safety)


# ------------------------------------------------------------- persistence

def test_bundle_round_trip(random_model, tmp_path):
    save_hierarchical(random_model, tmp_path / "bundle")
    again = load_hierarchical(tmp_path / "bundle")
    x = random_inputs(32, seed=8)
    a = predict_batch(random_model, x)
    b = predict_batch(again, x)
    for pa, pb in zip(a, b):
        assert pa.leaf == pb.leaf and pa.safety == pb.safety
        np.testing.assert_array_equal(pa.group_probs, pb.group_probs)
        np.testing.assert_array_equal(pa.leaf_probs, pb.leaf_probs)


def test_bundle_layout(random_model, tmp_path):
    save_hierarchical(random_model, tmp_path / "bundle")
    names = sorted(p.name for p in (tmp_path / "bundle").iterdir())
    assert names == sorted(
        [f"{role}.wxm1" for role in MODEL_ROLES] + ["bundle.json", "stats.json", "taxonomy.cfg"]
    )
    doc = json.loads((tmp_path / "bundle" / "bundle.json").read_text(encoding="utf-8"))
    assert doc["format"] == "wxhier-bundle"
    assert doc["version"] == 1
    assert doc["content_hash"] == bundle_content_hash(tmp_path / "bundle")


def test_bundle_save_is_deterministic(random_model, tmp_path):
    save_hierarchical(random_model, tmp_path / "a")
    save_hierarchical(random_model, tmp_path / "b")
    for name in [f"{r}.wxm1" for r in MODEL_ROLES] + ["bundle.json", "stats.json", "taxonomy.cfg"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_load_parses_bundle_json_once(random_model, tmp_path, monkeypatch):
    save_hierarchical(random_model, tmp_path / "bundle")
    calls = []
    read = hierarchy._read_bundle_manifest
    monkeypatch.setattr(hierarchy, "_read_bundle_manifest", lambda d: calls.append(d) or read(d))
    load_hierarchical(tmp_path / "bundle")
    assert calls == [tmp_path / "bundle"]


def test_bundle_tamper_detected(random_model, tmp_path):
    save_hierarchical(random_model, tmp_path / "bundle")
    target = tmp_path / "bundle" / "sub_dusty.wxm1"
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0xFF
    target.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="hash"):
        load_hierarchical(tmp_path / "bundle")


def test_bundle_version_rejected(random_model, tmp_path):
    save_hierarchical(random_model, tmp_path / "bundle")
    manifest = tmp_path / "bundle" / "bundle.json"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["version"] = 99
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(VersionError):
        load_hierarchical(tmp_path / "bundle")


@pytest.mark.parametrize(
    "stats_text",
    [
        pytest.param('{"mean": NaN, "std": 1.0, "sample_count": 2}', id="nan-mean"),
        pytest.param('{"mean": 0.0, "std": 0, "sample_count": 2}', id="zero-std"),
    ],
)
def test_bundle_bad_stats_rejected_even_with_matching_hash(random_model, tmp_path, stats_text):
    bundle = tmp_path / "bundle"
    save_hierarchical(random_model, bundle)
    (bundle / "stats.json").write_text(stats_text, encoding="utf-8")
    _rehash(bundle)
    with pytest.raises(FormatError, match="stats"):
        load_hierarchical(bundle)


def test_bundle_model_naming_other_classes_rejected(random_model, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    save_hierarchical(random_model, bundle)
    sub = random_model.sub_rainy
    names = role_classes(random_model.taxonomy)["sub_rainy"][::-1]
    blob = model_to_bytes(sub.spec, sub.params, random_model.stats, list(names))
    (bundle / "sub_rainy.wxm1").write_bytes(blob)
    _rehash(bundle)
    _assert_refused_by_load_and_evaluate(bundle, tmp_path, capsys, "sub_rainy model classes")


def test_bundle_model_with_other_stats_rejected(random_model, tmp_path, capsys):
    # stats.json says mean 127.5; primary.wxm1's header says otherwise
    bundle = tmp_path / "bundle"
    save_hierarchical(random_model, bundle)
    sub = random_model.primary
    names = list(role_classes(random_model.taxonomy)["primary"])
    blob = model_to_bytes(sub.spec, sub.params, NormalizationStats(0.0, 1.0, 2), names)
    (bundle / "primary.wxm1").write_bytes(blob)
    _rehash(bundle)
    _assert_refused_by_load_and_evaluate(bundle, tmp_path, capsys, "primary model stats")


@pytest.mark.parametrize(
    "field, message",
    [pytest.param("stats", "normalization stats must be", id="stats"),
     pytest.param("labels", "model labels must be", id="labels")],
)
@pytest.mark.parametrize("missing", [False, True], ids=["null", "missing"])
def test_bundle_model_without_stats_or_names_refused_by_its_reader(random_model, tmp_path,
                                                                  capsys, field, message,
                                                                  missing):
    # one fault, one error: the model reader's FormatError, exit 4 in every command
    from wxhier.cli import main

    bundle = tmp_path / "bundle"
    save_hierarchical(random_model, bundle)
    blob = (bundle / "sub_dusty.wxm1").read_bytes()
    (size,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + size])
    if missing:
        del header[field]
    else:
        header[field] = None
    raw = json.dumps(header, sort_keys=True).encode()
    (bundle / "sub_dusty.wxm1").write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw
                                           + blob[12 + size :])
    _rehash(bundle)
    with pytest.raises(FormatError, match=message):
        load_hierarchical(bundle)
    (tmp_path / "m.csv").write_text("path,label\nx.ppm,rain\n", encoding="utf-8")
    data = ["--manifest", tmp_path / "m.csv", "--output-dir", tmp_path / "out"]
    for argv in (["evaluate", "--bundle", bundle, *data], ["predict", "--bundle", bundle, "x.ppm"],
                 ["compare", *data, f"a={bundle}", f"b={bundle}"]):
        assert main([str(a) for a in argv]) == 4
        err = capsys.readouterr().err
        assert err.count("wxhier: ") == 1 and message in err, argv
    assert not (tmp_path / "out").exists()


def _negative_variance(sub):
    """``sub`` with its first batchnorm's ``running_var[0]`` at -1."""
    params = [dict(entry) for entry in sub.params]
    bn = next(entry for entry in params if "running_var" in entry)
    bn["running_var"] = bn["running_var"].copy()
    bn["running_var"][0] = -1.0
    return SubModel(sub.spec, params)


def test_bundle_negative_running_variance_refused_on_write(random_model, tmp_path):
    model = replace(random_model, primary=_negative_variance(random_model.primary))
    with pytest.raises(FormatError, match="running_var holds negative values"):
        save_hierarchical(model, tmp_path / "bundle")
    assert not (tmp_path / "bundle").exists()


def test_bundle_negative_running_variance_rejected_even_with_matching_hash(random_model, tmp_path,
                                                                           monkeypatch):
    bundle = tmp_path / "bundle"
    save_hierarchical(random_model, bundle)
    sub = _negative_variance(random_model.primary)
    names = list(role_classes(random_model.taxonomy)["primary"])
    with monkeypatch.context() as m:  # a writer without the shared parameter check
        m.setattr(modelio, "_check_param", lambda layer, key, arr, want: arr)
        blob = model_to_bytes(sub.spec, sub.params, random_model.stats, names)
    (bundle / "primary.wxm1").write_bytes(blob)
    _rehash(bundle)
    with pytest.raises(FormatError, match="running_var holds negative values"):
        load_hierarchical(bundle)


def _assert_refused_by_load_and_evaluate(bundle, tmp_path, capsys, message):
    from wxhier.cli import main

    with pytest.raises(ValidationError, match=message):
        load_hierarchical(bundle)
    (tmp_path / "m.csv").write_text("path,label\nx.ppm,rain\n", encoding="utf-8")
    argv = ["evaluate", "--bundle", bundle, "--manifest", tmp_path / "m.csv",
            "--output-dir", tmp_path / "out"]
    assert main([str(a) for a in argv]) == 4
    assert message in capsys.readouterr().err


def _rehash(bundle):
    """Record the bundle's current payload digest in its ``bundle.json``."""
    manifest = bundle / "bundle.json"
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["content_hash"] = bundle_content_hash(bundle)
    manifest.write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture(scope="module")
def bundle_files(random_model, tmp_path_factory):
    """The eight files of ``random_model``'s bundle, by name."""
    bundle = tmp_path_factory.mktemp("bundle_files")
    save_hierarchical(random_model, bundle)
    return {p.name: p.read_bytes() for p in bundle.iterdir()}


@given(
    st.sampled_from([*BUNDLE_FILES, "bundle.json"]),
    st.integers(0, 2**32),
    st.integers(0, 255),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_damaged_bundle_raises_only_package_or_os_errors(bundle_files, name, at, flip, rehash):
    # flip 0 truncates the file at ``at``; another value XORs the byte there.
    # Recording the new digest lets the damage past the hash check.
    blob = bytearray(bundle_files[name])
    at %= len(blob)
    if flip:
        blob[at] ^= flip
    else:
        del blob[at:]
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp)
        for other, data in bundle_files.items():
            (bundle / other).write_bytes(bytes(blob) if other == name else data)
        if rehash and name != "bundle.json":
            _rehash(bundle)
        try:
            load_hierarchical(bundle)
        except (WxhierError, OSError):
            pass


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("role", MODEL_ROLES)
def test_non_finite_probabilities_rejected(flat_model, tmp_path, role):
    save_hierarchical(flat_model, tmp_path / "bundle")
    model = load_hierarchical(tmp_path / "bundle")
    x = random_inputs(64, seed=2)
    assert {p.group for p in predict_batch(model, x)} == set(COARSE_GROUPS)
    dense = [layer for layer in getattr(model, role).params if "b" in layer][-1]
    dense["b"][0] = np.inf
    with pytest.raises(DegenerateError, match="non-finite"):
        predict_batch(model, x)


def _names(doc, name):
    return {**doc, "models": {role: name(i) for i, role in enumerate(MODEL_ROLES)}}


def _primary(doc, name):
    return {**doc, "models": {**doc["models"], "primary": name}}


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: b"[1, 2]", id="json-list"),
        pytest.param(lambda doc: b'{"format": "wxhier-bundle\xff"}', id="bad-utf8"),
        pytest.param(lambda doc: json.dumps({**doc, "models": 5}).encode(), id="models-int"),
        pytest.param(lambda doc: json.dumps(_names(doc, int)).encode(), id="int-file-names"),
        pytest.param(lambda doc: json.dumps(_names(doc, lambda i: "a\0b")).encode(),
                     id="nul-file-name"),
        pytest.param(lambda doc: b"[" * 100_000, id="deep-nesting"),
        pytest.param(lambda doc: json.dumps({k: v for k, v in doc.items() if k != "content_hash"})
                     .encode(), id="no-content-hash"),
        # payload names must be plain file names inside the bundle directory
        pytest.param(lambda doc: json.dumps(_names(doc, lambda i: ".")).encode(), id="dot-name"),
        pytest.param(lambda doc: json.dumps(_names(doc, lambda i: "..")).encode(),
                     id="dotdot-name"),
        pytest.param(lambda doc: json.dumps(_names(doc, lambda i: "")).encode(), id="empty-name"),
        pytest.param(lambda doc: json.dumps(_primary(doc, "../b/primary.wxm1")).encode(),
                     id="outside-path"),
        pytest.param(lambda doc: json.dumps(_primary(doc, "/primary.wxm1")).encode(),
                     id="absolute-path"),
        pytest.param(lambda doc: json.dumps({**doc, "stats": "sub\\stats.json"}).encode(),
                     id="backslash-name"),
        # names a hand-renamed copy of primary.wxm1: same bytes, so the same hash
        pytest.param(lambda doc: json.dumps(_primary(doc, "renamed.wxm1")).encode(),
                     id="renamed-primary"),
    ],
)
def test_bad_bundle_manifest_is_format_error(random_model, tmp_path, capsys, edit):
    from wxhier.cli import main

    bundle = tmp_path / "bundle"
    save_hierarchical(random_model, bundle)
    shutil.copy(bundle / "primary.wxm1", bundle / "renamed.wxm1")
    manifest = bundle / "bundle.json"
    manifest.write_bytes(edit(json.loads(manifest.read_text(encoding="utf-8"))))
    with pytest.raises(FormatError):
        load_hierarchical(bundle)
    (tmp_path / "m.csv").write_text("path,label\nx.ppm,rain\n", encoding="utf-8")
    argv = ["evaluate", "--bundle", bundle, "--manifest", tmp_path / "m.csv",
            "--output-dir", tmp_path / "out"]
    assert main([str(a) for a in argv]) == 4
    assert "data error" in capsys.readouterr().err


def test_bundle_with_non_ascii_taxonomy_saves_under_c_locale(tmp_path):
    # taxonomy.cfg is UTF-8 whatever the locale; the script itself stays ASCII
    script = "\n".join([
        "import locale, sys",
        "from wxhier.hierarchy import init_hierarchical, load_hierarchical, save_hierarchical",
        "from wxhier.taxonomy import Taxonomy, default_taxonomy",
        "assert locale.getpreferredencoding(False).lower().replace('-', '') != 'utf8'",
        "t = default_taxonomy()",
        "t = Taxonomy(t.leaf_to_group, t.leaf_to_safety, 'm\\u00e9t\\u00e9o-v1')",
        "save_hierarchical(init_hierarchical(t), sys.argv[1])",
        "assert load_hierarchical(sys.argv[1]).taxonomy == t",
    ])
    src = str(Path(hierarchy.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "bundle")], env=env,
                          capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    text = (tmp_path / "bundle" / "taxonomy.cfg").read_bytes().decode("utf-8")
    assert "version = météo-v1" in text


def test_bundle_missing_manifest(random_model, tmp_path):
    save_hierarchical(random_model, tmp_path / "bundle")
    (tmp_path / "bundle" / "bundle.json").unlink()
    with pytest.raises((FormatError, OSError)):
        load_hierarchical(tmp_path / "bundle")


@pytest.mark.parametrize("op, ops", [("write_bytes", 8), ("rename", 2)])
def test_failed_save_leaves_the_old_bundle_the_new_one_or_none(
    random_model, tmp_path, monkeypatch, op, ops
):
    # each file write, or each rename, of a save over an old bundle fails in turn
    old_model = init_hierarchical(default_taxonomy(), input_hw=HW, seed=22)
    save_hierarchical(old_model, tmp_path / "old")
    save_hierarchical(random_model, tmp_path / "new")
    states = {None, bundle_content_hash(tmp_path / "old"), bundle_content_hash(tmp_path / "new")}
    bundle = tmp_path / "p" / "bundle"
    real = getattr(Path, op)
    for k in itertools.count():
        save_hierarchical(old_model, bundle)
        calls = itertools.count()

        def fail_kth(path, *args, k=k):
            if next(calls) == k:
                raise OSError(f"injected {op} failure")
            return real(path, *args)

        monkeypatch.setattr(Path, op, fail_kth)
        try:
            save_hierarchical(random_model, bundle)
            done = True
        except OSError:
            done = False
        monkeypatch.undo()
        assert [p.name for p in bundle.parent.iterdir()] in ([], ["bundle"])  # no staging left
        if bundle.exists():
            load_hierarchical(bundle)  # complete: every file is there and matches the hash
        assert (bundle_content_hash(bundle) if bundle.exists() else None) in states
        if done:
            break
    assert k == ops  # every call failed once before the save that made none fail
    assert bundle_content_hash(bundle) == bundle_content_hash(tmp_path / "new")


def test_save_replaces_only_a_bundle_or_an_empty_directory(random_model, small_data, tmp_path):
    (tmp_path / "empty").mkdir()
    save_hierarchical(random_model, tmp_path / "empty")
    load_hierarchical(tmp_path / "empty")
    (tmp_path / "file").write_bytes(b"keep")
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "notes.txt").write_bytes(b"keep")
    for target in (tmp_path / "file", tmp_path / "dir"):
        with pytest.raises(FileExistsError, match="not a bundle directory"):
            save_hierarchical(random_model, target)
    assert (tmp_path / "file").read_bytes() == b"keep"
    assert (tmp_path / "dir" / "notes.txt").read_bytes() == b"keep"
    from wxhier.cli import main

    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "bundle").write_bytes(b"keep")
    argv = ["train", "--manifest", small_data / "manifest.csv", "--root", small_data,
            "--output-dir", tmp_path / "out", "--epochs", 1, "--input-size", 8]
    assert main([str(a) for a in argv]) == 3
    assert (tmp_path / "out" / "bundle").read_bytes() == b"keep"


# ---------------------------------------------------------------- training

def test_train_requires_every_leaf(small_data):
    entries = load_manifest((small_data / "manifest.csv").read_bytes())
    no_rainbow = [e for e in entries if e.leaf != "rainbow"]
    cfg = HierTrainConfig(input_hw=(8, 8), scale="micro", epochs=1)
    with pytest.raises(MissingClassError, match="rainbow"):
        train_hierarchical(no_rainbow, default_taxonomy(), cfg, root=small_data)


@pytest.mark.parametrize(
    "name, value",
    [("epochs", 0), ("learning_rate", 0.0), ("learning_rate", -1.0), ("momentum", -0.1),
     ("momentum", 1.0), ("momentum", 1.5), ("batch_size", 0)],
)
def test_bad_train_config_fails_before_decoding(small_data, monkeypatch, name, value):
    decoded = []
    decode = hierarchy.decode_ppm
    monkeypatch.setattr(hierarchy, "decode_ppm", lambda blob: decoded.append(1) or decode(blob))
    entries = load_manifest((small_data / "manifest.csv").read_bytes())
    kwargs = {"input_hw": (8, 8), "scale": "micro", "epochs": 1, name: value}
    with pytest.raises(ConfigError, match=name):
        HierTrainConfig(**kwargs)
    with pytest.raises(ConfigError, match=name):
        train_hierarchical(entries, default_taxonomy(), HierTrainConfig(**kwargs), root=small_data)
    assert decoded == []


def test_input_size_of_one_side_is_config_error():
    with pytest.raises(ConfigError, match="arch hierarchical at input size 32 builds no valid"):
        HierTrainConfig(input_hw=(32,), scale="micro", epochs=1)


@pytest.mark.parametrize("arch", ARCHES)
def test_a_config_that_builds_fits_every_head_width(arch):
    # the config checks one 11-way head; every role and flat model has 1-11 outputs
    sizes = (4, 8, 20, 32, 100, 1000, 3000, 5000, 8000, 100000)
    built = refused = 0
    for size, scale, width, depth in itertools.product(sizes, BASIC_FILTERS, *[(0.125, 1.0)] * 2):
        try:
            cfg = HierTrainConfig(epochs=1, arch=arch, input_hw=(size, size), scale=scale,
                                  width_scale=width, depth_scale=depth)
        except ConfigError:
            refused += 1
            continue
        for n_out in range(1, len(LEAF_CLASSES) + 1):
            assert cfg.spec(n_out).n_out == n_out
        built += 1
    assert built and refused


def test_only_a_hierarchical_config_trains_a_bundle(small_data):
    with pytest.raises(ConfigError, match="arch must be one of"):
        HierTrainConfig(arch="vgg", epochs=1)
    entries = load_manifest((small_data / "manifest.csv").read_bytes())
    cfg = HierTrainConfig(arch="basic-cnn", input_hw=(8, 8), epochs=1)
    with pytest.raises(ConfigError, match="arch basic-cnn"):
        train_hierarchical(entries, default_taxonomy(), cfg, root=small_data)


def no_cold_hazard_taxonomy() -> Taxonomy:
    """Default taxonomy with frost and rime Safe: no cold leaf is PotentiallyHazardous."""
    t = default_taxonomy()
    return Taxonomy(t.leaf_to_group, {**t.leaf_to_safety, "frost": "Safe", "rime": "Safe"})


def test_missing_safety_class_fails_before_decoding(small_data, monkeypatch):
    calls = {"load_image_tensors": 0, "train": 0}

    def counted(name):
        original = getattr(hierarchy, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(hierarchy, name, wrapper)

    counted("load_image_tensors")
    counted("train")
    entries = load_manifest((small_data / "manifest.csv").read_bytes())
    cfg = HierTrainConfig(input_hw=(8, 8), scale="micro", epochs=1)
    with pytest.raises(MissingClassError, match="sub_cold_safety: PotentiallyHazardous"):
        train_hierarchical(entries, no_cold_hazard_taxonomy(), cfg, root=small_data)
    assert calls == {"load_image_tensors": 0, "train": 0}


def parent_selection(entries, taxonomy):
    """Each role's rows and labels as the three selection blocks of the
    former ``train_hierarchical`` computed them; the reference for
    ``role_targets``."""
    classes = role_classes(taxonomy)
    out = {}

    # primary: group labels over the full set
    y_group = np.array(
        [GROUP_INDEX[group_of(e.leaf, taxonomy)] for e in entries], dtype=np.int64
    )
    out["primary"] = np.arange(len(entries)), y_group

    # per-group sub-models with within-group leaf labels
    for role in GROUP_ROLES.values():
        class_pos = {leaf: i for i, leaf in enumerate(classes[role])}
        rows = np.array([i for i, e in enumerate(entries) if e.leaf in class_pos], dtype=np.intp)
        y_sub = np.array([class_pos[entries[i].leaf] for i in rows], dtype=np.int64)
        out[role] = rows, y_sub

    # cold safety head: cold images with a representable safety level
    def safety_rows(entries):
        rows, labels = [], []
        for i, e in enumerate(entries):
            if group_of(e.leaf, taxonomy) != "Cold":
                continue
            safety = safety_of(e.leaf, taxonomy)
            if safety in SAFETY_MODEL_CLASSES:
                rows.append(i)
                labels.append(SAFETY_MODEL_CLASSES.index(safety))
        return np.array(rows, dtype=np.intp), np.array(labels, dtype=np.int64)

    out["sub_cold_safety"] = safety_rows(entries)
    return out


def taxonomy_from(groups, safety) -> Taxonomy:
    return Taxonomy(dict(zip(LEAF_CLASSES, groups)), dict(zip(LEAF_CLASSES, safety)))


_ALL_COLD = taxonomy_from(["Cold"] * 11, SAFETY_LEVELS * 3 + SAFETY_LEVELS[:2])


@given(
    taxonomy=st.builds(
        taxonomy_from,
        st.lists(st.sampled_from(COARSE_GROUPS), min_size=11, max_size=11),
        st.lists(st.sampled_from(SAFETY_LEVELS), min_size=11, max_size=11),
    ),
    leaves=st.lists(st.sampled_from(LEAF_CLASSES), max_size=40),
)
@example(taxonomy=default_taxonomy(), leaves=[])
@example(taxonomy=_ALL_COLD, leaves=list(LEAF_CLASSES) * 2)
@example(taxonomy=default_taxonomy(), leaves=["snow", "rime", "snow"])
@settings(max_examples=150, deadline=None)
def test_role_targets_match_parent_selection(taxonomy, leaves):
    want = parent_selection([ManifestEntry(f"{i}.ppm", leaf) for i, leaf in enumerate(leaves)],
                            taxonomy)
    classes = role_classes(taxonomy)
    for role in MODEL_ROLES:
        rows, labels = role_targets(role, leaves, taxonomy)
        assert rows.dtype == np.intp and labels.dtype == np.int64
        np.testing.assert_array_equal(rows, want[role][0])
        np.testing.assert_array_equal(labels, want[role][1])
        assert (np.diff(rows) > 0).all()
        assert all(0 <= label < len(classes[role]) for label in labels)


def test_role_seeds_differ():
    cfg = HierTrainConfig(epochs=1, seed=100)
    seeds = [cfg.train_config(i).seed for i in range(len(MODEL_ROLES))]
    assert seeds == [100, 101, 102, 103, 104]
    assert cfg.train_config(0).learning_rate == cfg.learning_rate
