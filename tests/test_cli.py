"""Command-line surface: exit codes, artifacts, precedence, isolation."""

import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wxhier import cli, hierarchy, nn
from wxhier.cli import main
from wxhier.dataset import SplitSpec, load_manifest, stratified_split
from wxhier.errors import ShapeError, WxhierError
from wxhier.evaluate import compare_models, evaluate_hierarchical_tensors
from wxhier.hierarchy import (
    HierTrainConfig,
    bundle_content_hash,
    leaf_labels,
    load_hierarchical,
    load_image_tensors,
    load_standardized,
    predict_hierarchical,
    train_hierarchical,
)
from wxhier.imageio import decode_ppm
from wxhier.preprocess import NormalizationStats, stats_to_dict
from wxhier.taxonomy import LEAF_CLASSES, Taxonomy, default_taxonomy, serialize_taxonomy

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return main([str(a) for a in argv])


# ------------------------------------------------------------------- split

def test_split_writes_four_files(small_data, tmp_path, capsys):
    rc = run("split", "--manifest", small_data / "manifest.csv",
             "--output-dir", tmp_path, "--seed", 11)
    assert rc == 0
    for name in ("train.csv", "val.csv", "test.csv", "split_summary.csv"):
        assert (tmp_path / name).exists()
    out = capsys.readouterr().out
    assert "train" in out and "seed 11" in out
    total = sum(
        len(load_manifest((tmp_path / n).read_bytes()))
        for n in ("train.csv", "val.csv", "test.csv")
    )
    assert total == 11 * 8


def test_split_documented_example(tmp_path):
    # 20 entries over 2 classes, defaults: per class test 3, val 1, train 6
    lines = ["path,label"] + [f"r{i}.ppm,rain" for i in range(10)] + [
        f"s{i}.ppm,snow" for i in range(10)
    ]
    manifest = tmp_path / "m.csv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("split", "--manifest", manifest, "--output-dir", out, "--seed", 7) == 0
    sizes = tuple(
        len(load_manifest((out / n).read_bytes())) for n in ("train.csv", "val.csv", "test.csv")
    )
    assert sizes == (12, 2, 6)


def test_split_rerun_byte_identical(small_data, tmp_path):
    for sub in ("a", "b"):
        assert run("split", "--manifest", small_data / "manifest.csv",
                   "--output-dir", tmp_path / sub, "--seed", 4) == 0
    for name in ("train.csv", "val.csv", "test.csv", "split_summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_split_writes_utf8_manifests_under_c_locale(tmp_path):
    # Manifests are UTF-8 whatever the locale: under a plain C locale with
    # UTF-8 mode off, the split files must still hold non-ASCII paths.
    entries = [f"{d}{i}.ppm,{label}" for d, label in (("ré", "rain"), ("snö", "snow"))
               for i in range(10)]
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(("path,label\n" + "\n".join(entries) + "\n").encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "wxhier.cli", "split", "--manifest", str(manifest),
         "--output-dir", str(tmp_path / "out"), "--seed", "7"],
        env=env, capture_output=True, encoding="utf-8",
    )
    assert proc.returncode == 0, proc.stderr
    parts = [load_manifest((tmp_path / "out" / n).read_bytes())
             for n in ("train.csv", "val.csv", "test.csv")]
    got = sorted((e.path, e.leaf) for part in parts for e in part)
    assert got == sorted((e.path, e.leaf) for e in load_manifest(manifest.read_bytes()))
    assert any("é" in path for path, _ in got)


# -------------------------------------------------------------- exit codes

def test_missing_manifest_is_io_error(tmp_path, capsys):
    assert run("split", "--manifest", tmp_path / "nope.csv", "--output-dir", tmp_path) == 3
    assert "I/O error" in capsys.readouterr().err


def test_bad_fraction_is_config_error(small_data, tmp_path, capsys):
    rc = run("split", "--manifest", small_data / "manifest.csv",
             "--output-dir", tmp_path, "--test-fraction", "1.5")
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_label_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text("path,label\nx.ppm,blizzard\n", encoding="utf-8")
    assert run("split", "--manifest", manifest, "--output-dir", tmp_path) == 4
    assert "data error" in capsys.readouterr().err


def test_manifest_the_csv_reader_rejects_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(b"path,label\na\rb.ppm,rain\n")  # a bare CR in an unquoted field
    assert run("split", "--manifest", manifest, "--output-dir", tmp_path / "out") == 4
    assert "data error: line 2" in capsys.readouterr().err


def test_nul_byte_in_manifest_path_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_bytes(b"path,label\na\0b.ppm,rain\n")
    assert run("preprocess", "--manifest", manifest, "--output-dir", tmp_path / "out") == 4
    assert "data error: line 2: NUL byte in path" in capsys.readouterr().err


def test_missing_class_is_data_error(small_data, tmp_path, capsys):
    entries = load_manifest((small_data / "manifest.csv").read_bytes())
    partial = tmp_path / "partial.csv"
    partial.write_text(
        "path,label\n" + "".join(f"{e.path},{e.leaf}\n" for e in entries if e.leaf != "dew"),
        encoding="utf-8",
    )
    rc = run("train", "--manifest", partial, "--root", small_data,
             "--output-dir", tmp_path, "--epochs", 1, "--input-size", 8)
    assert rc == 4
    assert "dew" in capsys.readouterr().err


def test_bad_flag_exits_2(capsys):
    assert run("split", "--no-such-flag") == 2


def test_unknown_config_key_exits_2(small_data, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"verbosity": 3}', encoding="utf-8")
    rc = run("split", "--manifest", small_data / "manifest.csv",
             "--config", cfg, "--output-dir", tmp_path)
    assert rc == 2
    assert "verbosity" in capsys.readouterr().err


# ------------------------------------------------------------ config file

def test_flag_overrides_config_file(small_data, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"seed": 1, "test_fraction": 0.5}', encoding="utf-8")
    out_cfg = tmp_path / "by_config"
    out_flag = tmp_path / "by_flag"
    assert run("split", "--manifest", small_data / "manifest.csv",
               "--config", cfg, "--output-dir", out_cfg) == 0
    assert run("split", "--manifest", small_data / "manifest.csv",
               "--config", cfg, "--output-dir", out_flag, "--test-fraction", 0.25) == 0
    n_cfg = len(load_manifest((out_cfg / "test.csv").read_bytes()))
    n_flag = len(load_manifest((out_flag / "test.csv").read_bytes()))
    assert n_cfg == 11 * 4  # half of 8 per class
    assert n_flag == 11 * 2  # quarter of 8 per class


def test_env_var_sets_default_output_dir(small_data, tmp_path, monkeypatch):
    monkeypatch.setenv("WXHIER_OUTPUT_DIR", str(tmp_path / "from_env"))
    assert run("split", "--manifest", small_data / "manifest.csv", "--seed", 2) == 0
    assert (tmp_path / "from_env" / "train.csv").exists()


# ----------------------------------------------------------------- predict

def test_predict_json_lines_with_isolation(small_bundle, small_data, tmp_path, capsys):
    good = small_data / "rain" / "000.ppm"
    bad = tmp_path / "broken.ppm"
    bad.write_bytes(b"P6 trash")
    rc = run("predict", "--bundle", small_bundle, good, bad)
    assert rc == 0  # one success is enough
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    ok = json.loads(lines[0])
    assert ok["leaf"] in LEAF_CLASSES
    assert ok["group"] in ("Rainy", "Dusty", "Cold")
    assert ok["safety_source"] in ("taxonomy", "cold_model")
    assert len(ok["group_probs"]) == 3
    err = json.loads(lines[1])
    assert err["path"].endswith("broken.ppm")
    assert "error" in err and "leaf" not in err


def test_predict_over_long_header_is_isolated(small_bundle, small_data, tmp_path, capsys):
    good = sorted((small_data / "rain").glob("*.ppm"))[:2]
    bad = tmp_path / "long.ppm"
    bad.write_bytes(b"P6 " + b"1" * 5000 + b" 2 255\n")
    rc = run("predict", "--bundle", small_bundle, good[0], bad, good[1])
    assert rc == 0
    docs = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [d["path"] for d in docs] == [str(good[0]), str(bad), str(good[1])]
    assert docs[1]["error"].startswith("ParseError")
    assert all(d["leaf"] in LEAF_CLASSES for d in (docs[0], docs[2]))


def test_predict_cold_route_has_safety_fields(small_bundle, small_data, capsys):
    images = sorted((small_data / "snow").glob("*.ppm"))
    rc = run("predict", "--bundle", small_bundle, *images)
    assert rc == 0
    docs = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    cold = [d for d in docs if d.get("group") == "Cold"]
    assert cold, "expected at least one cold-routed snow image"
    for d in cold:
        assert d["safety_source"] == "cold_model"
        assert d["safety"] in ("Safe", "PotentiallyHazardous")
        assert len(d["safety_probs"]) == 2


def test_predict_lines_equal_predict_hierarchical(small_bundle, small_data, tmp_path, capsys):
    # each line is the path plus every field of the in-process prediction,
    # arrays as lists of the same floats, keys sorted
    bad = tmp_path / "unreadable.ppm"
    bad.write_bytes(b"P6 4 4 255\n")  # header without pixels
    images = [*sorted((small_data / "snow").glob("*.ppm")), small_data / "rain" / "000.ppm", bad]
    assert run("predict", "--bundle", small_bundle, *images) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(images)
    model = load_hierarchical(small_bundle)
    sources = []
    for path, line in zip(images, lines):
        try:
            pred = predict_hierarchical(model, decode_ppm(path.read_bytes()))
        except WxhierError as exc:
            want = {"path": str(path), "error": f"{type(exc).__name__}: {exc}"}
        else:
            want = {
                "path": str(path),
                "group": pred.group,
                "group_probs": [float(v) for v in pred.group_probs],
                "leaf": pred.leaf,
                "leaf_probs": [float(v) for v in pred.leaf_probs],
                "safety": pred.safety,
                "safety_source": pred.safety_source,
                "safety_probs": None
                if pred.safety_probs is None
                else [float(v) for v in pred.safety_probs],
            }
        assert json.loads(line) == want
        assert line == json.dumps(want, sort_keys=True)
        sources.append(want.get("safety_source", "error"))
    assert {"cold_model", "taxonomy"} <= set(sources) and sources[-1] == "error"


def test_predict_all_failures_exit_4(small_bundle, tmp_path, capsys):
    assert run("predict", "--bundle", small_bundle, tmp_path / "a.ppm", tmp_path / "b.ppm") == 4
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all("error" in json.loads(l) for l in lines)


def test_predict_memory_error_is_that_images_error_line(small_bundle, small_data, monkeypatch,
                                                        capsys):
    # a valid image too large for the memory left fails alone, as an OSError does
    big, good = small_data / "rain" / "000.ppm", small_data / "rain" / "001.ppm"

    def decode(data):
        if data == big.read_bytes():
            raise MemoryError("Unable to allocate 243. MiB")
        return decode_ppm(data)

    monkeypatch.setattr(cli, "decode_ppm", decode)
    assert run("predict", "--bundle", small_bundle, big, good) == 0
    docs = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert docs[0] == {"path": str(big), "error": "MemoryError: Unable to allocate 243. MiB"}
    assert docs[1]["leaf"] in LEAF_CLASSES
    assert run("predict", "--bundle", small_bundle, big) == 4
    assert "MemoryError" in json.loads(capsys.readouterr().out)["error"]


def test_running_out_of_memory_exits_4(small_data, tmp_path, monkeypatch, capsys):
    # a stand-in loader: a real allocation this large may be granted by an overcommitting kernel
    def load(*args):
        raise MemoryError("Unable to allocate 1.20 TiB for an array")

    monkeypatch.setattr(cli, "load_standardized", load)
    assert run("preprocess", "--manifest", small_data / "manifest.csv",
               "--output-dir", tmp_path / "out", "--input-size", 100000) == 4
    assert "wxhier: out of memory: Unable to allocate 1.20 TiB" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_predict_non_finite_probabilities_exit_4(small_bundle, small_data, monkeypatch, capsys):
    def poisoned(path):
        model = load_hierarchical(path)
        [layer for layer in model.primary.params if "b" in layer][-1]["b"][:] = np.inf
        return model

    monkeypatch.setattr(cli, "load_hierarchical", poisoned)
    image = next(small_data.rglob("*.ppm"))
    assert run("predict", "--bundle", small_bundle, image) == 4
    (line,) = capsys.readouterr().out.strip().splitlines()
    assert "DegenerateError" in json.loads(line)["error"]


def test_shape_error_exits_4(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise ShapeError("conv expects 3 input channels, got 4")

    monkeypatch.setitem(cli._COMMANDS, "synth", broken)
    assert run("synth", "--output-dir", tmp_path) == 4
    assert "data error" in capsys.readouterr().err


# ---------------------------------------------------------------- evaluate

def test_evaluate_writes_report_with_bundle_hash(small_bundle, small_data, tmp_path, capsys):
    rc = run("evaluate", "--bundle", small_bundle,
             "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--output-dir", tmp_path)
    assert rc == 0
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert doc["bundle_hash"] == bundle_content_hash(small_bundle)
    assert 0.0 <= doc["e2e_leaf_accuracy"] <= 1.0
    for name in ("confusion_primary.csv", "confusion_leaf.csv", "confusion_safety.csv",
                 "confusion_routed_cold.csv", "confusion_oracle_rainy.csv"):
        assert (tmp_path / name).exists(), name
    assert "accuracy" in capsys.readouterr().out


def test_evaluate_missing_bundle_is_data_error(small_data, tmp_path, capsys):
    rc = run("evaluate", "--bundle", tmp_path / "nothing",
             "--manifest", small_data / "manifest.csv", "--output-dir", tmp_path)
    assert rc == 4
    assert "bundle.json" in capsys.readouterr().err


def test_evaluate_empty_manifest_exits_4(small_bundle, tmp_path, capsys):
    (tmp_path / "empty.csv").write_text("path,label\n", encoding="utf-8")
    rc = run("evaluate", "--bundle", small_bundle, "--manifest", tmp_path / "empty.csv",
             "--output-dir", tmp_path / "out")
    assert rc == 4
    assert "lists no images" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bundle_with_a_sub_model_of_another_input_size_exits_4(small_bundle, small_data,
                                                                tmp_path, capsys):
    # an 8x8 sub_rainy in a 16 px bundle, with the content hash recomputed
    bundle = tmp_path / "bundle"
    shutil.copytree(small_bundle, bundle)
    sub = hierarchy.init_hierarchical(default_taxonomy(), (8, 8)).sub_rainy
    stats = load_hierarchical(small_bundle).stats
    names = hierarchy.role_classes(default_taxonomy())["sub_rainy"]
    blob = nn.model_to_bytes(sub.spec, sub.params, stats, list(names))
    (bundle / "sub_rainy.wxm1").write_bytes(blob)
    manifest = json.loads((bundle / "bundle.json").read_text(encoding="utf-8"))
    manifest["content_hash"] = bundle_content_hash(bundle)
    (bundle / "bundle.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert run("predict", "--bundle", bundle, small_data / "rain" / "000.ppm") == 4
    assert "sub_rainy model input (8, 8, 3) != primary's (16, 16, 3)" in capsys.readouterr().err
    rc = run("evaluate", "--bundle", bundle, "--manifest", small_data / "manifest.csv",
             "--root", small_data, "--output-dir", tmp_path / "out")
    assert rc == 4
    assert "sub_rainy model input" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_predict_negative_running_variance_exits_4_at_load(small_bundle, small_data, tmp_path,
                                                           monkeypatch, capsys):
    # a primary whose first batchnorm variance is -1, the content hash
    # recomputed: refused at load, before any forward takes its square root
    bundle = tmp_path / "bundle"
    shutil.copytree(small_bundle, bundle)
    spec, params, stats, names = nn.model_from_bytes((bundle / "primary.wxm1").read_bytes())
    var = params[1]["running_var"].copy()
    var[0] = -1.0
    params[1] = {**params[1], "running_var": var}
    with monkeypatch.context() as m:  # a writer without the shared parameter check
        m.setattr(nn.modelio, "_check_param", lambda layer, key, arr, want: arr)
        (bundle / "primary.wxm1").write_bytes(nn.model_to_bytes(spec, params, stats, names))
    manifest = json.loads((bundle / "bundle.json").read_text(encoding="utf-8"))
    manifest["content_hash"] = bundle_content_hash(bundle)
    (bundle / "bundle.json").write_text(json.dumps(manifest), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("predict", "--bundle", bundle, small_data / "rain" / "000.ppm") == 4
    out, err = capsys.readouterr()
    assert out == "" and "running_var holds negative values" in err
    assert caught == [] and "RuntimeWarning" not in err


# ----------------------------------------------------------------- compare

_STATS = NormalizationStats(127.5, 64.0, 2)


def test_compare_four_rows(small_bundle, small_data, tmp_path, capsys):
    flat_out = tmp_path / "flat"
    rc = run("train", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--output-dir", flat_out, "--arch", "softmax-flat",
             "--epochs", 2, "--input-size", 16, "--seed", 0)
    assert rc == 0
    rc = run("compare", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--output-dir", tmp_path,
             f"hier={small_bundle}", f"flat={flat_out / 'model.wxm1'}",
             f"hier2={small_bundle}", f"flat2={flat_out / 'model.wxm1'}")
    assert rc == 0
    lines = (tmp_path / "comparison.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "model,accuracy,accuracy_percent"
    assert len(lines) == 5
    assert lines[1].startswith("hier,")
    assert lines[1] == lines[3].replace("hier2", "hier")


def test_compare_scores_a_bundle_with_one_routed_pass(small_bundle, small_data, tmp_path,
                                                     monkeypatch):
    from wxhier import evaluate

    entries = load_manifest((small_data / "manifest.csv").read_bytes())
    report = evaluate.evaluate_hierarchical(load_hierarchical(small_bundle), entries, small_data)

    def refuse(*args):
        raise AssertionError("compare ran the whole evaluation")

    monkeypatch.setattr(evaluate, "evaluate_hierarchical", refuse)
    monkeypatch.setattr(evaluate, "evaluate_hierarchical_tensors", refuse)
    rc = run("compare", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--output-dir", tmp_path, f"a={small_bundle}", f"b={small_bundle}")
    assert rc == 0
    want = compare_models([("a", report.e2e_leaf_accuracy), ("b", report.e2e_leaf_accuracy)])
    assert (tmp_path / "comparison.csv").read_text(encoding="utf-8") == want


def test_compare_corrupt_model_exits_4(small_data, tmp_path, capsys):
    spec = nn.softmax_flat_spec((16, 16, 3), len(LEAF_CLASSES))
    params = nn.init_params(spec, np.random.default_rng(0))
    blob = bytearray(nn.model_to_bytes(spec, params, _STATS, list(LEAF_CLASSES)))
    # the writer refuses a NaN weight, so the file gets one in the first
    # weight's payload, past the header and the 16-byte rank-2 tensor frame
    (header_len,) = struct.unpack_from("<I", blob, 8)
    struct.pack_into("<f", blob, 12 + header_len + 16, np.nan)
    bad = tmp_path / "nan.wxm1"
    bad.write_bytes(bytes(blob))
    rc = run("compare", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--output-dir", tmp_path, f"a={bad}", f"b={bad}")
    assert rc == 4
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_compare_overflowing_flat_model_exits_4(small_data, tmp_path, capsys):
    # finite weights whose products overflow: the softmax rows come out NaN
    spec = nn.softmax_flat_spec((16, 16, 3), len(LEAF_CLASSES))
    params = nn.init_params(spec, np.random.default_rng(0))
    params[1]["w"] = np.where(params[1]["w"] < 0, -3e38, 3e38).astype(np.float32)
    big = tmp_path / "big.wxm1"
    stats = NormalizationStats(127.5, 64.0, 2)
    big.write_bytes(nn.model_to_bytes(spec, params, stats, list(LEAF_CLASSES)))
    rc = run("compare", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--output-dir", tmp_path, f"a={big}", f"b={big}")
    assert rc == 4
    assert "non-finite probabilities" in capsys.readouterr().err
    assert not (tmp_path / "comparison.csv").exists()


def test_compare_flat_models_on_empty_manifest_exits_4(tmp_path, capsys):
    spec = nn.softmax_flat_spec((16, 16, 3), len(LEAF_CLASSES))
    flat = tmp_path / "flat.wxm1"
    params = nn.init_params(spec, np.random.default_rng(0))
    stats = NormalizationStats(127.5, 64.0, 2)
    flat.write_bytes(nn.model_to_bytes(spec, params, stats, list(LEAF_CLASSES)))
    (tmp_path / "empty.csv").write_text("path,label\n", encoding="utf-8")
    rc = run("compare", "--manifest", tmp_path / "empty.csv", "--output-dir", tmp_path / "out",
             f"a={flat}", f"b={flat}")
    assert rc == 4
    assert "lists no images" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _save_with_header(path, spec, params, stats, labels):
    """A model file whose header holds ``stats`` and ``labels`` as given, None
    as null, even values the writer refuses."""
    blob = nn.model_to_bytes(spec, params, _STATS, [f"c{i}" for i in range(spec.n_out)])
    (header_len,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12 : 12 + header_len])
    header["stats"] = None if stats is None else stats_to_dict(stats)
    header["labels"] = labels
    raw = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + header_len :])


@pytest.mark.parametrize(
    "n_out, labels, stats, message",
    [
        pytest.param(3, list(LEAF_CLASSES), _STATS, "3 distinct names", id="more-names"),
        pytest.param(3, ["dew", "dew", "dew"], _STATS, "3 distinct names", id="repeated-name"),
        # the reader's own refusals of a header without stats or names
        pytest.param(11, list(LEAF_CLASSES), None, "normalization stats must be a JSON object",
                     id="no-stats"),
        pytest.param(11, None, _STATS, "model labels must be 11 distinct names", id="no-names"),
        pytest.param(3, ["dew", "fog_smog", "frost"], _STATS, "does not know class",
                     id="missing-leaf"),
    ],
)
def test_compare_unusable_flat_model_exits_4(small_data, tmp_path, capsys, n_out, labels, stats,
                                            message):
    spec = nn.softmax_flat_spec((16, 16, 3), n_out)
    flat = tmp_path / "flat.wxm1"
    _save_with_header(flat, spec, nn.init_params(spec, np.random.default_rng(0)), stats, labels)
    rc = run("compare", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--output-dir", tmp_path / "out", f"a={flat}", f"b={flat}")
    assert rc == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_requires_two_models(small_data, tmp_path):
    rc = run("compare", "--manifest", small_data / "manifest.csv",
             "--output-dir", tmp_path, "only=one")
    assert rc == 2


def test_compare_bad_entry_shape(small_data, tmp_path):
    rc = run("compare", "--manifest", small_data / "manifest.csv",
             "--output-dir", tmp_path, "missing-equals-sign", "x=y")
    assert rc == 2


# -------------------------------------------------------------------- misc

def test_stats_and_preprocess_round_trip(small_data, tmp_path):
    from wxhier.tensorio import tensor_from_bytes

    first, again = tmp_path / "first", tmp_path / "again"
    assert run("preprocess", "--manifest", small_data / "manifest.csv",
               "--output-dir", first, "--input-size", 12) == 0
    doc = json.loads((first / "stats.json").read_text(encoding="utf-8"))
    assert doc["sample_count"] == 88 * 12 * 12 * 3
    # the stats.json a run wrote, given back, reproduces that run
    assert run("preprocess", "--manifest", small_data / "manifest.csv",
               "--output-dir", again, "--input-size", 12,
               "--stats", first / "stats.json") == 0
    for name in ("stats.json", "tensors.wxt1", "labels.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes(), name
    data = (again / "tensors.wxt1").read_bytes()
    tensors, end = tensor_from_bytes(data)
    assert end == len(data) and tensors.shape == (88, 12, 12, 3)
    labels = (again / "labels.csv").read_text(encoding="utf-8").strip().splitlines()
    assert labels[0] == "index,path,label"
    assert len(labels) == 89


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param('{"mean": 1e300, "std": 1.0, "sample_count": 10}', id="huge-mean"),
        pytest.param('{"mean": 1.0, "std": 1e-300, "sample_count": 10}', id="tiny-std"),
    ],
)
def test_preprocess_stats_beyond_float32_exits_4(small_data, tmp_path, capsys, doc):
    # stats that would standardize every pixel to +-inf are refused as they are read
    (tmp_path / "s.json").write_text(doc, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run("preprocess", "--manifest", small_data / "manifest.csv", "--root", small_data,
                 "--output-dir", tmp_path / "out", "--input-size", 8,
                 "--stats", tmp_path / "s.json")
    assert rc == 4
    assert caught == []
    assert "map 0..255 past float32" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_preprocess_labels_csv_quotes_paths_with_commas(small_data, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for name, src in (("a,b.ppm", "rain/000.ppm"), ("plain.ppm", "snow/000.ppm")):
        (data / name).write_bytes((small_data / src).read_bytes())
    manifest = data / "m.csv"
    manifest.write_text('path,label\n"a,b.ppm",rain\nplain.ppm,snow\n', encoding="utf-8")
    assert run("preprocess", "--manifest", manifest, "--output-dir", tmp_path / "out",
               "--input-size", 8) == 0
    text = (tmp_path / "out" / "labels.csv").read_text(encoding="utf-8")
    assert list(csv.reader(io.StringIO(text))) == [
        ["index", "path", "label"], ["0", "a,b.ppm", "rain"], ["1", "plain.ppm", "snow"]
    ]
    assert text.endswith("\n1,plain.ppm,snow\n")  # unquoted paths keep their bytes


def test_synth_subcommand(tmp_path):
    assert run("synth", "--output-dir", tmp_path / "ds",
               "--per-class", 2, "--image-size", 24, "--seed", 3) == 0
    entries = load_manifest((tmp_path / "ds" / "manifest.csv").read_bytes())
    assert len(entries) == 22


def test_train_flat_writes_history(small_data, tmp_path, capsys):
    rc = run("train", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--val-manifest", small_data / "manifest.csv",
             "--output-dir", tmp_path, "--arch", "softmax-flat",
             "--epochs", 2, "--input-size", 8, "--seed", 1)
    assert rc == 0
    assert (tmp_path / "model.wxm1").exists()
    history = (tmp_path / "history.csv").read_text(encoding="utf-8").strip().splitlines()
    assert history[0] == "epoch,train_loss,train_acc,val_acc"
    assert len(history) == 3
    assert "final validation accuracy" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("arch", ["hierarchical", "softmax-flat"])
def test_train_diverging_parameters_exit_4_and_write_nothing(small_data, tmp_path, monkeypatch,
                                                             capsys, arch):
    def inf_gradient(probs, targets):
        return 0.0, np.full_like(probs, np.inf)

    monkeypatch.setattr(importlib.import_module("wxhier.nn.train"), "cross_entropy", inf_gradient)
    rc = run("train", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--output-dir", tmp_path / "out", "--arch", arch, "--epochs", 1, "--input-size", 8)
    assert rc == 4
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_hierarchical_bundle_has_five_models(small_bundle):
    models = sorted(p.name for p in small_bundle.glob("*.wxm1"))
    assert models == [
        "primary.wxm1", "sub_cold_fine.wxm1", "sub_cold_safety.wxm1",
        "sub_dusty.wxm1", "sub_rainy.wxm1",
    ]


# ---------------------------------------------------------- option layer

def _config(tmp_path, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("split", "test_fraction", 0.0),
        ("split", "test_fraction", 1.5),
        ("split", "val_fraction", 1.0),
        ("split", "seed", "x"),
        ("train", "arch", "bogus"),
        ("train", "scale", "huge"),
        ("train", "epochs", 0),
        ("train", "batch_size", 0),
        ("train", "learning_rate", 0.0),
        ("train", "learning_rate", "inf"),
        ("train", "learning_rate", "nan"),
        ("train", "width_scale", "nan"),
        ("train", "depth_scale", "inf"),
        ("train", "momentum", 1.0),
        ("train", "momentum", -0.1),
        ("train", "dropout", 1.0),
        ("train", "input_size", 3),
        ("preprocess", "input_size", 3),
        ("synth", "per_class", 0),
        ("synth", "image_size", 7),
        ("synth", "image_size", 4),
        ("train", "seed", -1),
        ("synth", "seed", -1),
    ],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_option_value_is_config_error(tmp_path, capsys, command, key, value, source):
    # the manifest does not exist, so a value that slipped through would exit 3
    argv = [command, "--output-dir", tmp_path / "out"]
    if command != "synth":
        argv += ["--manifest", tmp_path / "missing.csv"]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        argv += ["--config", _config(tmp_path, {key: value})]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "--" + key.replace("_", "-") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_library_range_errors_name_the_flag(tmp_path, capsys, source):
    # SplitSpec and TrainConfig state these rules under their own field
    # names; the message names the flag that set the value
    cases = [
        ("split", "val_fraction", 1, "--val-fraction must lie in (0, 1), got 1.0"),
        ("train", "learning_rate", 0, "--learning-rate must be finite and > 0, got 0.0"),
    ]
    for command, key, value, message in cases:
        argv = [command, "--output-dir", tmp_path / "out", "--manifest", tmp_path / "missing.csv"]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), str(value)]
        else:
            argv += ["--config", _config(tmp_path, {key: value})]
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"wxhier: configuration error: {message}\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(b"{seed: 1}", id="not-json"),
        pytest.param(b'{"seed": "\xff"}', id="bad-utf8"),
        pytest.param(b"[1]", id="not-an-object"),
        pytest.param(b"[" * 100_000, id="deep-nesting"),
        pytest.param(b'{"seed": [1]}', id="list-value"),
        pytest.param(b'{"seed": true}', id="bool-value"),
        pytest.param(b'{"config": "other.json"}', id="config-key"),
        pytest.param(b'{"images": "a.ppm"}', id="positional-key"),
    ],
)
def test_bad_config_file_is_config_error(small_data, tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(text)
    rc = run("split", "--manifest", small_data / "manifest.csv",
             "--config", cfg, "--output-dir", tmp_path / "out")
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_config_seed_reaches_synth(tmp_path):
    def files(sub):
        return {p.relative_to(tmp_path / sub): p.read_bytes()
                for p in sorted((tmp_path / sub).rglob("*")) if p.is_file()}

    small = ["--per-class", 1, "--image-size", 8]
    assert run("synth", "--output-dir", tmp_path / "flag", *small, "--seed", 5) == 0
    cfg = _config(tmp_path, {"seed": 5})
    assert run("synth", "--output-dir", tmp_path / "cfg", *small, "--config", cfg) == 0
    assert run("synth", "--output-dir", tmp_path / "default", *small) == 0
    assert files("cfg") == files("flag")
    assert files("cfg") != files("default")


def test_config_keys_of_other_subcommands_are_ignored(small_data, tmp_path):
    cfg = _config(tmp_path, {"epochs": 3, "arch": "basic-cnn", "seed": 4})
    assert run("split", "--manifest", small_data / "manifest.csv",
               "--config", cfg, "--output-dir", tmp_path / "a") == 0
    assert run("split", "--manifest", small_data / "manifest.csv",
               "--seed", 4, "--output-dir", tmp_path / "b") == 0
    for name in ("train.csv", "val.csv", "test.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_config_output_dir_beats_env_var(small_data, tmp_path, monkeypatch):
    monkeypatch.setenv("WXHIER_OUTPUT_DIR", str(tmp_path / "from_env"))
    cfg = _config(tmp_path, {"output_dir": str(tmp_path / "from_config")})
    assert run("split", "--manifest", small_data / "manifest.csv", "--config", cfg) == 0
    assert (tmp_path / "from_config" / "train.csv").exists()
    assert not (tmp_path / "from_env").exists()
    out_flag = tmp_path / "from_flag"
    assert run("split", "--manifest", small_data / "manifest.csv", "--config", cfg,
               "--output-dir", out_flag) == 0
    assert (out_flag / "train.csv").exists()


_CONFIG_KEYS = sorted(set().union(*cli.build_parser()[1].values()))
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
            | st.sampled_from([*hierarchy.ARCHES, *nn.BASIC_FILTERS, "1e308", "-0", "\0", "nan"]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
_CONFIG_DOCS = _JSON | st.dictionaries(
    st.sampled_from(_CONFIG_KEYS) | st.text(max_size=12), _JSON, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(doc=_CONFIG_DOCS, command=st.sampled_from(["split", "train"]))
# scales whose layer widths round to infinity, or whose layer count has no bound
@example(doc={"arch": "vgg-style", "width_scale": 1e308}, command="train")
@example(doc={"arch": "vgg-style", "depth_scale": 2e9}, command="train")
# a model too large for the parameter limit, checked before the manifest is read
@example(doc={"arch": "softmax-flat", "input_size": 3000}, command="train")
def test_any_config_document_exits_2_or_3(doc, command):
    # the manifest does not exist: a document is either refused (2) or
    # passes every check that runs before the manifest is read (3)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = run(command, "--manifest", Path(tmp) / "missing.csv", "--config", cfg,
                     "--output-dir", Path(tmp) / "out")
        assert rc in (2, 3)
        assert not (Path(tmp) / "out").exists()


@pytest.mark.parametrize(
    "command, key",
    sorted((command, key) for command, keys in cli.build_parser()[1].items() for key in keys),
)
def test_a_nul_in_any_config_value_exits_2(tmp_path, capsys, command, key):
    # every path flag among them: open() and stat() raise ValueError on a NUL
    required = {
        "manifest": ["--manifest", tmp_path / "m.csv"],
        "bundle": ["--bundle", tmp_path / "b"],
        "output_dir": ["--output-dir", tmp_path / "out"],
    }
    keys = cli.build_parser()[1][command]
    argv = [command, "--config", _config(tmp_path, {key: f"{tmp_path}/a\0b"})]
    for name, flag in required.items():
        if name in keys and name != key:
            argv += flag
    argv += {"predict": ["x.ppm"], "compare": ["a=x", "b=y"]}.get(command, [])
    assert run(*argv) == 2
    err = capsys.readouterr().err
    flag = "--" + key.replace("_", "-")
    assert "configuration error" in err and flag in err and "\0" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("command, name", [("predict", "IMAGE"), ("compare", "model entry PATH")])
def test_a_nul_in_a_path_operand_exits_2(small_bundle, small_data, tmp_path, capsys, command,
                                         name):
    # the operands take the flags' path rule, checked before the bundle or manifest is read
    argv = {
        "predict": ["predict", "--bundle", small_bundle, "a\0b"],
        "compare": ["compare", "--manifest", small_data / "manifest.csv",
                    "--output-dir", tmp_path / "out", "a=x\0y", "b=z"],
    }[command]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"{name} must be a path without a NUL byte" in err
    assert "\0" not in err and "internal error" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("split", "--root"),
        ("synth", "--root"),
        ("preprocess", "--taxonomy"),
        ("evaluate", "--taxonomy"),
        ("compare", "--taxonomy"),
        ("synth", "--taxonomy"),
        ("predict", "--output-dir"),
        ("predict", "--taxonomy"),
        ("predict", "--root"),
    ],
)
def test_removed_no_op_flags_exit_2(tmp_path, capsys, command, flag):
    rest = {
        "split": ["--manifest", "m.csv"],
        "synth": [],
        "preprocess": ["--manifest", "m.csv"],
        "evaluate": ["--manifest", "m.csv", "--bundle", "b"],
        "compare": ["--manifest", "m.csv", "a=x", "b=y"],
        "predict": ["--bundle", "b", "x.ppm"],
    }[command]
    assert run(command, *rest, flag, tmp_path) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    common = {"--help", "--config"}
    data = common | {"--manifest", "--output-dir"}
    expected = {
        "split": data | {"--taxonomy", "--seed", "--test-fraction", "--val-fraction"},
        "preprocess": data | {"--root", "--stats", "--input-size"},
        "train": data | {
            "--taxonomy", "--root", "--val-manifest", "--arch", "--scale", "--width-scale",
            "--depth-scale", "--epochs", "--learning-rate", "--momentum", "--batch-size",
            "--dropout", "--input-size", "--seed",
        },
        "predict": common | {"--bundle", "--channel-order"},
        "evaluate": data | {"--root", "--bundle"},
        "compare": data | {"--root"},
        "synth": common | {"--output-dir", "--per-class", "--image-size", "--seed"},
    }
    assert set(expected) == set(cli._COMMANDS)
    for command, flags in expected.items():
        assert run(command, "--help") == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == flags, command


# the (arch, setting) pairs that train does not read, and a valid value of each setting
UNREAD_SETTINGS = [
    ("hierarchical", "width_scale"), ("hierarchical", "depth_scale"),
    ("basic-cnn", "taxonomy"), ("basic-cnn", "width_scale"), ("basic-cnn", "depth_scale"),
    ("vgg-style", "taxonomy"), ("vgg-style", "scale"), ("vgg-style", "dropout"),
    ("softmax-flat", "taxonomy"), ("softmax-flat", "scale"), ("softmax-flat", "dropout"),
    ("softmax-flat", "width_scale"), ("softmax-flat", "depth_scale"),
]
SETTING_VALUES = {"taxonomy": "missing.cfg", "scale": "paper", "dropout": 0.5,
                  "width_scale": 0.5, "depth_scale": 0.5}


@pytest.mark.parametrize("arch, key", UNREAD_SETTINGS)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_rejects_settings_its_arch_does_not_read(tmp_path, capsys, arch, key, source):
    # neither the manifest nor the taxonomy exists, so reading either would exit 3
    value = SETTING_VALUES[key]
    if key == "taxonomy":
        value = str(tmp_path / value)
    flag = "--" + key.replace("_", "-")
    argv = ["train", "--manifest", tmp_path / "missing.csv", "--output-dir", tmp_path / "out",
            "--arch", arch]
    if source == "flag":
        argv += [flag, value]
    else:
        argv += ["--config", _config(tmp_path, {key: value})]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and flag in err
    assert not (tmp_path / "out").exists()


def _dropout_rates(spec):
    return {layer.rate for layer in spec.layers if isinstance(layer, nn.Dropout)}


def _conv_filters(spec):
    return [layer.filters for layer in spec.layers if isinstance(layer, nn.Conv)]


def test_each_arch_trains_with_its_own_settings(small_data, tmp_path):
    t = default_taxonomy()
    taxonomy = Taxonomy(t.leaf_to_group, {**t.leaf_to_safety, "rain": "Dangerous"})
    (tmp_path / "taxonomy.cfg").write_text(serialize_taxonomy(taxonomy), encoding="utf-8")
    data = ["--manifest", small_data / "manifest.csv", "--root", small_data, "--epochs", 1]
    settings = {
        "hierarchical": ["--taxonomy", tmp_path / "taxonomy.cfg", "--scale", "micro",
                         "--dropout", 0.5, "--input-size", 8],
        "basic-cnn": ["--scale", "micro", "--dropout", 0.5, "--input-size", 8],
        "vgg-style": ["--width-scale", 0.125, "--depth-scale", 0.125, "--input-size", 32],
        "softmax-flat": ["--input-size", 8],
    }
    for arch, flags in settings.items():
        assert run("train", *data, "--output-dir", tmp_path / arch, "--arch", arch, *flags) == 0

    model = load_hierarchical(tmp_path / "hierarchical" / "bundle")
    assert model.taxonomy == taxonomy
    for role in hierarchy.MODEL_ROLES:
        spec = getattr(model, role).spec
        assert _conv_filters(spec) == [8, 16] and _dropout_rates(spec) == {0.5}

    def spec_of(arch):
        return nn.model_from_bytes((tmp_path / arch / "model.wxm1").read_bytes())[0]

    basic = spec_of("basic-cnn")
    assert _conv_filters(basic) == [8, 16] and _dropout_rates(basic) == {0.5}
    vgg = spec_of("vgg-style")
    assert _conv_filters(vgg) == [8, 16, 32, 64, 64]
    assert [layer.units for layer in vgg.layers if isinstance(layer, nn.Dense)] == [512, 512, 11]
    flat = spec_of("softmax-flat")
    assert [layer.kind for layer in flat.layers] == ["flatten", "dense", "softmax"]


def test_train_model_too_large_to_allocate_is_config_error(tmp_path, capsys):
    # the manifest does not exist, so reading it would exit 3
    rc = run("train", "--manifest", tmp_path / "missing.csv", "--output-dir", tmp_path / "out",
             "--arch", "vgg-style", "--width-scale", 1000, "--input-size", 32)
    assert rc == 2
    assert "parameters exceed the limit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("arch", ["hierarchical", "basic-cnn"])
def test_train_input_size_too_small_fails_before_decoding(small_data, tmp_path, monkeypatch,
                                                          capsys, arch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return load_image_tensors(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "load_image_tensors", counting)
    rc = run("train", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--output-dir", tmp_path, "--arch", arch, "--scale", "paper", "--input-size", 20)
    assert rc == 2
    assert "does not fit" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("arch, size", [
    ("softmax-flat", 3000),
    ("vgg-style", 100000),
    ("basic-cnn", 6000),
    # every role of the default taxonomy fits at 8000 px, but not an 11-class head
    ("hierarchical", 8000),
])
def test_train_input_size_no_model_of_the_arch_fits_exits_2(small_data, tmp_path, monkeypatch,
                                                            capsys, arch, size):
    def refuse(*args, **kwargs):
        raise AssertionError("images decoded")

    monkeypatch.setattr(hierarchy, "load_image_tensors", refuse)
    rc = run("train", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--output-dir", tmp_path / "out", "--arch", arch, "--input-size", size, "--epochs", 1)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"--arch {arch} at input size {size}x{size} builds no valid model" in err
    assert "'micro'" not in err
    assert not (tmp_path / "out").exists()


def test_train_taxonomy_without_cold_hazard_exits_4(small_data, tmp_path, capsys):
    t = default_taxonomy()
    taxonomy = Taxonomy(t.leaf_to_group, {**t.leaf_to_safety, "frost": "Safe", "rime": "Safe"})
    (tmp_path / "taxonomy.cfg").write_text(serialize_taxonomy(taxonomy), encoding="utf-8")
    rc = run("train", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--output-dir", tmp_path / "out", "--taxonomy", tmp_path / "taxonomy.cfg",
             "--input-size", 8, "--epochs", 1)
    assert rc == 4
    assert "sub_cold_safety: PotentiallyHazardous" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_taxonomy_with_empty_group_exits_4(small_data, tmp_path, monkeypatch, capsys):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return load_image_tensors(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "load_image_tensors", counting)
    t = default_taxonomy()  # no leaf left in Dusty
    taxonomy = Taxonomy({**t.leaf_to_group, "fog_smog": "Rainy", "sandstorm": "Rainy"},
                        t.leaf_to_safety)
    (tmp_path / "taxonomy.cfg").write_text(serialize_taxonomy(taxonomy), encoding="utf-8")
    rc = run("train", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--output-dir", tmp_path / "out", "--taxonomy", tmp_path / "taxonomy.cfg",
             "--input-size", 8, "--epochs", 1)
    assert rc == 4
    err = capsys.readouterr().err
    assert "primary: Dusty" in err and "sub_dusty: (none in the taxonomy)" in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_train_empty_val_manifest_means_no_validation(small_data, tmp_path, capsys):
    (tmp_path / "empty.csv").write_text("path,label\n", encoding="utf-8")
    rc = run("train", "--manifest", small_data / "manifest.csv", "--root", small_data,
             "--val-manifest", tmp_path / "empty.csv", "--output-dir", tmp_path / "out",
             "--input-size", 8, "--epochs", 1)
    assert rc == 0
    assert "final validation accuracy [primary]: n/a" in capsys.readouterr().out


# ------------------------------------------------------------ README recipes

def _readme_commands(section: str = "") -> list[list[str]]:
    """Arguments of each ``wxhier`` line in the README's sh blocks.

    Backslash continuations are joined; ``section`` limits the search to
    the text under that second-level heading.
    """
    text = README.read_text(encoding="utf-8")
    if section:
        text = text.split(f"\n## {section}", 1)[1].split("\n## ", 1)[0]
    script = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in script.splitlines() if line.startswith("wxhier ")]


def test_readme_commands_parse():
    parser, _ = cli.build_parser()
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    for argv in commands:
        parser.parse_args(argv)


def test_readme_flag_table_matches_the_parser():
    # README "Command line" lists each subcommand's flags, besides --config and --help
    text = README.read_text(encoding="utf-8").split("\n## Command line", 1)[1].split("\n## ", 1)[0]
    table = {name: set(re.findall(r"--[a-z][a-z-]*", flags))
             for name, flags in re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", text, re.M)}
    parser, _ = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unlisted = {"-h", "--help", "--config"}
    defined = {name: {opt for action in p._actions for opt in action.option_strings} - unlisted
               for name, p in subparsers.choices.items()}
    assert table == defined


def test_readme_arch_settings_match_the_arch_table():
    # the bullets after this README sentence list the settings each --arch reads
    text = README.read_text(encoding="utf-8")
    text = text.split("`train --arch` reads only its own model settings", 1)[1]
    bullets = re.findall(r"^- `([a-z-]+)` reads (.*)$", text.split("\n\n", 2)[1], re.M)
    listed = {arch: set(re.findall(r"--[a-z][a-z-]*", rest)) for arch, rest in bullets}
    assert listed == {arch: {"--" + key.replace("_", "-") for key in keys}
                      for arch, keys in hierarchy.ARCHES.items()}


def test_readme_comparison_recipe_matches_in_process_table(small_data, tmp_path):
    recipe = _readme_commands("Real-data reproduction")
    assert [argv[0] for argv in recipe] == ["split", "train", "train", "train", "compare"]
    # the same commands, on the small corpus at 16 px for 2 epochs
    shrink = {"--input-size": "16", "--epochs": "2"}
    paths = {"$M": str(small_data / "manifest.csv"), "$D": str(small_data)}
    for argv in recipe:
        argv = [shrink.get(prev, paths.get(arg, arg)) for prev, arg in zip(["", *argv], argv)]
        assert main([arg.replace("runs/", f"{tmp_path}/") for arg in argv]) == 0

    # the reference: the same split, seeds and defaults, computed in-process
    hw, root = (16, 16), small_data
    split = stratified_split(load_manifest((small_data / "manifest.csv").read_bytes()),
                             SplitSpec(seed=11))
    rows = []
    for arch, spec in [
        ("softmax-flat", nn.softmax_flat_spec(hw + (3,), len(LEAF_CLASSES))),
        ("basic-cnn", nn.basic_cnn_spec(hw + (3,), len(LEAF_CLASSES), scale="micro")),
    ]:
        x_train, stats = load_standardized(split.train, hw, root)
        x_test, _ = load_standardized(split.test, hw, root, stats)
        cfg = nn.TrainConfig(epochs=2, seed=5)
        params, _ = nn.train(spec, x_train, leaf_labels(split.train), cfg)
        rows.append((arch, nn.evaluate_accuracy(spec, params, x_test, leaf_labels(split.test))))
    hcfg = HierTrainConfig(input_hw=hw, scale="micro", epochs=2, seed=5)
    model, _ = train_hierarchical(split.train, default_taxonomy(), hcfg, split.val, root)
    x_test, _ = load_standardized(split.test, hw, root, model.stats)
    report = evaluate_hierarchical_tensors(model, x_test, leaf_labels(split.test))
    rows.append(("hierarchical", report.e2e_leaf_accuracy))
    assert (tmp_path / "cmp" / "comparison.csv").read_text(encoding="utf-8") == compare_models(rows)
