"""End-to-end acceptance gate.

One test per shipped guarantee, each at its stated tolerance, so a
verbose run prints a pass/fail line per criterion.  Slow by design but
bounded: the training criterion is budgeted at ten minutes and the
gradient criterion at one.
"""

import math
import time

import numpy as np
import pytest

from wxhier.dataset import SplitSpec, load_manifest, manifest_to_csv, stratified_split
from wxhier.evaluate import ConfusionMatrix, accuracy_of, evaluate_hierarchical, metrics
from wxhier.hierarchy import (
    HierTrainConfig,
    init_hierarchical,
    leaf_labels,
    load_hierarchical,
    load_image_tensors,
    predict_batch,
    save_hierarchical,
    train_hierarchical,
)
from wxhier.nn import (
    TrainConfig,
    basic_cnn_spec,
    evaluate_accuracy,
    init_params,
    one_hot_matrix,
    softmax_flat_spec,
    train,
)
from wxhier.nn.layers import conv2d_forward, conv_output_hw
from wxhier.nn.model import (
    AvgPool,
    BatchNorm,
    Conv,
    Dense,
    Dropout,
    Flatten,
    ModelSpec,
    ReLU,
    Softmax,
)
from wxhier.preprocess import (
    compute_stats,
    lanczos_kernel,
    normalize,
    resize_lanczos,
)
from wxhier.taxonomy import default_taxonomy, leaves_of

from oracles import conv2d_forward_naive, gradient_check, joint_leaf_batch, relu_margin


# -------------------------------------------------- 1. gradient correctness

def _checked(spec, seed, n=3, min_margin=1e-4):
    """Draw a float32 case, redrawing while any ReLU input sits near zero.

    A pre-activation within finite-difference reach of the kink makes
    the two-sided quotient straddle it, which is a property of the
    probe, not of the backward pass.
    """
    for attempt in range(seed, seed + 50):
        rng = np.random.default_rng(attempt)
        params = init_params(spec, rng, dtype=np.float32)
        x = rng.standard_normal((n,) + spec.input_shape).astype(np.float32)
        labels = rng.integers(0, spec.n_out, size=n)
        if relu_margin(spec, params, x, dropout_seed=attempt) >= min_margin:
            return params, x, labels, attempt
    raise AssertionError("could not draw a case clear of the ReLU kink")


def test_criterion_1_gradients_match_finite_differences():
    start = time.monotonic()
    per_layer = {
        "conv": (Conv(filters=2, kernel=3, stride=1, padding=1),),
        "batchnorm": (Conv(filters=2, kernel=3), BatchNorm()),
        "relu": (Conv(filters=2, kernel=3), ReLU()),
        "avgpool": (Conv(filters=2, kernel=3), AvgPool(window=2, stride=2)),
        "dropout": (Dropout(rate=0.3),),
    }
    worst = 0.0
    for body in per_layer.values():
        spec = ModelSpec((6, 6, 3), body + (Flatten(), Dense(3), Softmax()), 3)
        for seed in range(2):
            params, x, labels, case_seed = _checked(spec, seed)
            report = gradient_check(
                spec, params, x, labels,
                epsilon=1e-5, floor=1e-3, fd_dtype=np.float64, dropout_seed=case_seed,
            )
            worst = max(worst, report.max_rel_err)
            assert report.max_rel_err < 1e-3, (body, seed, report.worst)

    composite = basic_cnn_spec((8, 8, 3), 3, scale="micro")
    for seed in range(20):
        params, x, labels, case_seed = _checked(composite, seed * 101)
        report = gradient_check(
            composite, params, x, labels,
            epsilon=1e-5, floor=1e-3, fd_dtype=np.float64, dropout_seed=case_seed,
        )
        worst = max(worst, report.max_rel_err)
        assert report.max_rel_err < 1e-3, (seed, report.worst, report.max_rel_err)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    assert worst < 1e-3


# ------------------------------------------- 2. convolution oracle parity

def test_criterion_2_conv_fast_path_matches_naive_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    for case in range(50):
        n = int(rng.integers(1, 4))
        h = int(rng.integers(3, 13))
        w = int(rng.integers(3, 13))
        c = int(rng.integers(1, 5))
        f = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(h, w) + 1))
        stride = int(rng.integers(1, 4))
        pad = int(rng.integers(0, 3))
        oh, ow = conv_output_hw(h, w, k, stride, pad)
        if oh < 1 or ow < 1:
            pad = k  # force a valid geometry rather than skip the case
            oh, ow = conv_output_hw(h, w, k, stride, pad)
        x = rng.standard_normal((n, h, w, c))
        kernels = rng.standard_normal((k, k, c, f))
        bias = rng.standard_normal(f)
        fast = conv2d_forward(x, kernels, bias, stride=stride, pad=pad)
        slow = conv2d_forward_naive(x, kernels, bias, stride=stride, pad=pad)
        assert fast.shape == (n, oh, ow, f)
        np.testing.assert_allclose(fast, slow, rtol=1e-5, atol=1e-8, err_msg=f"case {case}")
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"conv parity took {elapsed:.1f}s"


# ------------------------------------------------- 3. Lanczos resampling

def _kernel_formula(x: float, a: int) -> float:
    if abs(x) >= a:
        return 0.0
    if x == 0.0:
        return 1.0
    pix = math.pi * x
    return (math.sin(pix) / pix) * (math.sin(pix / a) / (pix / a))


def _resize_2d_oracle(img, out_h, out_w, a):
    h, w, c = img.shape
    out = np.zeros((out_h, out_w, c), dtype=np.float64)
    for oy in range(out_h):
        sy = (oy + 0.5) * (h / out_h) - 0.5
        ylo = math.floor(sy) - a + 1
        for ox in range(out_w):
            sx = (ox + 0.5) * (w / out_w) - 0.5
            xlo = math.floor(sx) - a + 1
            total = 0.0
            acc = np.zeros(c)
            for ty in range(ylo, ylo + 2 * a):
                wy = _kernel_formula(sy - ty, a)
                cy = min(max(ty, 0), h - 1)
                for tx in range(xlo, xlo + 2 * a):
                    wx = _kernel_formula(sx - tx, a)
                    cx = min(max(tx, 0), w - 1)
                    total += wy * wx
                    acc += wy * wx * img[cy, cx]
            out[oy, ox] = acc / total
    return np.clip(out, 0.0, 255.0)


def test_criterion_3_lanczos_resize_properties():
    assert lanczos_kernel(0.0) == 1.0
    assert abs(lanczos_kernel(1.0)) < 1e-12
    assert abs(lanczos_kernel(2.0)) < 1e-12
    assert abs(lanczos_kernel(0.5) - 0.607927) < 1e-6
    assert abs(lanczos_kernel(0.5) - _kernel_formula(0.5, 3)) < 1e-15

    rng = np.random.default_rng(7)
    img = rng.uniform(0, 255, (9, 13, 3)).astype(np.float32)
    same = resize_lanczos(img, 9, 13)
    assert np.abs(same - img).max() < 1e-6

    flat = np.full((7, 5, 3), 113.0, dtype=np.float32)
    grown = resize_lanczos(flat, 11, 17)
    assert np.abs(grown - 113.0).max() < 1e-4

    for case in range(25):
        h, w = int(rng.integers(3, 11)), int(rng.integers(3, 11))
        oh, ow = int(rng.integers(2, 15)), int(rng.integers(2, 15))
        img = rng.uniform(0, 255, (h, w, 3)).astype(np.float32)
        fast = resize_lanczos(img, oh, ow)
        slow = _resize_2d_oracle(img.astype(np.float64), oh, ow, 3)
        np.testing.assert_allclose(fast, slow, atol=1e-5 * 255, rtol=1e-5,
                                   err_msg=f"case {case}: {h}x{w} -> {oh}x{ow}")


# ------------------------------------------------------ 4. normalization

def test_criterion_4_standardization_and_one_hot(synth_root):
    entries = load_manifest((synth_root / "manifest.csv").read_bytes())
    rng = np.random.default_rng(13)
    picks = rng.choice(len(entries), size=50, replace=False)
    subset = [entries[i] for i in picks]
    x = load_image_tensors(subset, (24, 24), root=synth_root)
    stats = compute_stats([x])
    z = normalize(x, stats)
    assert abs(float(z.mean())) < 1e-4
    assert abs(float(z.std()) - 1.0) < 1e-4

    e0 = np.zeros(11, dtype=np.float32)
    e0[0] = 1.0
    e3 = np.zeros(11, dtype=np.float32)
    e3[3] = 1.0
    assert np.array_equal(one_hot_matrix(np.array([0]), 11)[0], e0)
    assert np.array_equal(one_hot_matrix(np.array([3]), 11)[0], e3)


# ------------------------------------------------------ 5. split contracts

def test_criterion_5_stratified_split_contracts():
    leaves = ("rain", "snow", "fog_smog", "hail", "dew", "frost")
    rng = np.random.default_rng(99)
    for trial in range(100):
        n_classes = int(rng.integers(2, len(leaves) + 1))
        lines = ["path,label"]
        for leaf in leaves[:n_classes]:
            for i in range(int(rng.integers(4, 40))):
                lines.append(f"{leaf}/{i:03d}.ppm,{leaf}")
        entries = load_manifest("\n".join(lines).encode() + b"\n")
        spec = SplitSpec(seed=trial)
        result = stratified_split(entries, spec)

        paths = lambda part: {e.path for e in part}
        assert paths(result.train) | paths(result.val) | paths(result.test) == paths(entries)
        assert not paths(result.train) & paths(result.test)
        assert not paths(result.train) & paths(result.val)
        assert not paths(result.val) & paths(result.test)

        for leaf in leaves[:n_classes]:
            n_k = sum(1 for e in entries if e.leaf == leaf)
            test_k = sum(1 for e in result.test if e.leaf == leaf)
            val_k = sum(1 for e in result.val if e.leaf == leaf)
            assert abs(test_k - 0.30 * n_k) <= 1.0, (trial, leaf)
            assert abs(val_k - 0.20 * (n_k - test_k)) <= 1.0, (trial, leaf)

        again = stratified_split(entries, spec)
        for a, b in zip((result.train, result.val, result.test),
                        (again.train, again.val, again.test)):
            assert manifest_to_csv(a) == manifest_to_csv(b)


# ------------------------------------------------- 6. routing invariants

def test_criterion_6_routing_invariants_and_round_trip(tmp_path):
    taxonomy = default_taxonomy()
    model = init_hierarchical(taxonomy, input_hw=(12, 12), scale="micro", seed=3)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((1000, 12, 12, 3)).astype(np.float32)

    preds = predict_batch(model, x)
    assert len(preds) == 1000
    for p in preds:
        assert p.leaf in leaves_of(p.group, taxonomy)

    joint = joint_leaf_batch(model, x)
    assert joint.shape == (1000, 11)
    assert np.abs(joint.sum(axis=1) - 1.0).max() < 1e-6

    save_hierarchical(model, tmp_path / "bundle")
    loaded = load_hierarchical(tmp_path / "bundle")
    reloaded = predict_batch(loaded, x)
    assert [p.leaf for p in reloaded] == [p.leaf for p in preds]
    assert all(np.array_equal(a.leaf_probs, b.leaf_probs) for a, b in zip(preds, reloaded))


# --------------------------------------------- 7. synthetic end-to-end run

def test_criterion_7_synthetic_training_beats_thresholds_and_baseline(synth_root):
    start = time.monotonic()
    entries = load_manifest((synth_root / "manifest.csv").read_bytes())
    split = stratified_split(entries, SplitSpec(seed=11))
    cfg = HierTrainConfig(input_hw=(32, 32), scale="micro", epochs=25, seed=5)

    model, _ = train_hierarchical(split.train, default_taxonomy(), cfg, root=synth_root)
    report = evaluate_hierarchical(model, split.test, root=synth_root)
    assert report.primary_accuracy >= 0.90, report.primary_accuracy
    assert report.e2e_leaf_accuracy >= 0.80, report.e2e_leaf_accuracy

    # shallow baseline: one softmax layer over raw pixels, same data and budget
    x_train = load_image_tensors(split.train, (32, 32), root=synth_root)
    x_test = load_image_tensors(split.test, (32, 32), root=synth_root)
    stats = compute_stats([x_train])
    flat_spec = softmax_flat_spec((32, 32, 3), 11)
    flat_params, _ = train(
        flat_spec, normalize(x_train, stats), leaf_labels(split.train),
        TrainConfig(epochs=25, seed=5),
    )
    flat_acc = evaluate_accuracy(
        flat_spec, flat_params, normalize(x_test, stats), leaf_labels(split.test)
    )
    assert report.e2e_leaf_accuracy >= flat_acc, (report.e2e_leaf_accuracy, flat_acc)

    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"end-to-end run took {elapsed:.1f}s"


# ------------------------------------------------ 8. evaluation arithmetic

def test_criterion_8_confusion_arithmetic_exact():
    cm = ConfusionMatrix(labels=("a", "b"), counts=np.array([[1, 1], [0, 1]]))
    report = metrics(cm)
    assert report.accuracy == 2 / 3
    assert report.precision == (1.0, 1 / 2)
    assert report.recall == (1 / 2, 1.0)

    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        counts = rng.integers(0, 30, size=(n, n))
        counts[0, 0] += 1  # keep the matrix non-empty
        cm = ConfusionMatrix(labels=tuple(f"c{i}" for i in range(n)), counts=counts)
        assert accuracy_of(cm) == int(np.trace(cm.counts)) / int(cm.counts.sum())
