"""Gradient checker: tight float64 agreement and defect detection."""

import numpy as np
import pytest

from wxhier.errors import ShapeError
from wxhier.nn import (
    Dense,
    Dropout,
    Flatten,
    ModelSpec,
    ReLU,
    Softmax,
    basic_cnn_spec,
    init_params,
)
from wxhier.nn import layers as L
from wxhier.nn.model import backward_from_logits, forward_pass
from wxhier.nn.train import cross_entropy, one_hot_matrix

from oracles import GradCheckReport, clone_params, gradient_check, relu_margin


def dense_spec():
    return ModelSpec(
        input_shape=(3, 3, 1),
        layers=(Flatten(), Dense(units=6), ReLU(), Dense(units=3), Softmax()),
        n_out=3,
    )


def make_case(spec, seed, n=4, dtype=np.float64):
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng, dtype=dtype)
    x = rng.standard_normal((n,) + spec.input_shape).astype(dtype)
    labels = rng.integers(0, spec.n_out, size=n)
    return params, x, labels


def test_dense_net_float64_tight():
    spec = dense_spec()
    for seed in range(5):
        params, x, labels = make_case(spec, seed)
        report = gradient_check(spec, params, x, labels, epsilon=1e-6)
        assert report.max_rel_err < 1e-6, (seed, report.worst)


def test_report_covers_every_trainable():
    spec = dense_spec()
    params, x, labels = make_case(spec, 0)
    report = gradient_check(spec, params, x, labels, epsilon=1e-6)
    assert isinstance(report, GradCheckReport)
    assert set(report.per_param) == {"1:w", "1:b", "3:w", "3:b"}
    assert report.worst in report.per_param


def test_composite_micro_cnn_float64():
    spec = basic_cnn_spec((8, 8, 3), 3, scale="micro")
    params, x, labels = make_case(spec, 2, n=3)
    report = gradient_check(spec, params, x, labels, epsilon=1e-5, floor=1e-5)
    assert report.max_rel_err < 1e-5, report.worst


def test_detects_scaled_gradient_defect():
    # an engine whose dense gradient is off by 1% must be flagged
    spec = dense_spec()
    params, x, labels = make_case(spec, 1)

    import oracles as gc

    original = gc.backward_from_logits

    def broken(spec_, params_, caches_, grad_logits_):
        grads = original(spec_, params_, caches_, grad_logits_)
        grads[3]["w"] *= 1.01
        return grads

    gc_backward = gc.backward_from_logits
    gc.backward_from_logits = broken
    try:
        report = gradient_check(spec, params, x, labels, epsilon=1e-6)
    finally:
        gc.backward_from_logits = gc_backward
    assert report.max_rel_err > 1e-3
    assert report.worst == "3:w"


def test_dropout_mask_reproducible_across_evals():
    # with a fixed dropout seed the check stays tight despite random masks
    spec = basic_cnn_spec((8, 8, 3), 3, scale="micro", dropout=0.5)
    params, x, labels = make_case(spec, 3, n=3)
    report = gradient_check(
        spec, params, x, labels, epsilon=1e-5, floor=1e-5, dropout_seed=7
    )
    assert report.max_rel_err < 1e-5, report.worst


def test_mixed_precision_reference():
    # float32 analytic gradients vs a float64 finite-difference reference
    spec = dense_spec()
    params, x, labels = make_case(spec, 4, dtype=np.float32)
    report = gradient_check(
        spec, params, x, labels, epsilon=1e-5, floor=1e-3, fd_dtype=np.float64
    )
    assert report.max_rel_err < 1e-3, report.worst


def test_relu_margin_positive_on_generic_input():
    spec = dense_spec()
    params, x, labels = make_case(spec, 5)
    margin = relu_margin(spec, params, x)
    assert margin > 0.0


def test_checks_leave_the_callers_arrays_untouched():
    # train-mode forwards update batchnorm running statistics and the
    # difference loop perturbs parameters: both must hit a private copy
    spec = basic_cnn_spec((8, 8, 3), 3, scale="micro", dropout=0.5)
    params, x, labels = make_case(spec, 6, n=3)
    x_before = x.tobytes()
    before = [{k: v.tobytes() for k, v in entry.items()} for entry in params]
    assert any("running_mean" in entry for entry in before)

    def current():
        return [{k: v.tobytes() for k, v in entry.items()} for entry in params]

    relu_margin(spec, params, x, dropout_seed=1)
    assert current() == before
    gradient_check(spec, params, x, labels, epsilon=1e-5, floor=1e-5, dropout_seed=1)
    assert current() == before
    assert x.tobytes() == x_before


# ------------------------------------- parity with whole forwards per loss

def full_forward_reference(spec, params, x, labels, epsilon, floor, seed, fd_dtype):
    """``per_param`` and the ReLU margin, with a whole train-mode forward per loss."""
    targets = one_hot_matrix(labels, spec.n_out, dtype=x.dtype)
    checked = clone_params(params)
    probs, caches = forward_pass(spec, checked, x, np.random.default_rng(seed))
    grads = backward_from_logits(spec, checked, caches, cross_entropy(probs, targets)[1])
    fd_params = clone_params(checked, fd_dtype)
    fd_x, fd_targets = x.astype(fd_dtype), targets.astype(fd_dtype)

    def loss():
        fd_probs, _ = forward_pass(spec, fd_params, fd_x, np.random.default_rng(seed))
        return cross_entropy(fd_probs, fd_targets)[0]

    per_param = {}
    for i, layer in enumerate(spec.layers):
        for key in layer.trainable:
            arr, worst = fd_params[i][key], 0.0
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + epsilon
                plus = loss()
                arr[idx] = orig - epsilon
                minus = loss()
                arr[idx] = orig
                fd = (plus - minus) / (2.0 * epsilon)
                an = float(grads[i][key][idx])
                worst = max(worst, abs(fd - an) / max(abs(fd) + abs(an), floor))
            per_param[f"{i}:{key}"] = worst

    _, caches = forward_pass(spec, clone_params(params), x, np.random.default_rng(seed))
    relu_inputs = [c for layer, c in zip(spec.layers, caches) if isinstance(layer, ReLU)]
    return per_param, min(float(np.abs(c).min()) for c in relu_inputs)


@pytest.mark.parametrize(
    "dtype, fd_dtype, floor",
    [(np.float32, np.float64, 1e-3), (np.float64, None, 1e-5)],
)
def test_reruns_match_whole_forwards_bit_for_bit(dtype, fd_dtype, floor):
    # each perturbed loss reruns only the layers from the perturbed one on;
    # it must give the very bits of a whole forward, dropout masks included
    spec = basic_cnn_spec((8, 8, 3), 3, scale="micro", dropout=0.5)
    assert any(isinstance(layer, Dropout) for layer in spec.layers)
    params, x, labels = make_case(spec, 8, n=3, dtype=dtype)
    report = gradient_check(
        spec, params, x, labels, epsilon=1e-5, floor=floor, dropout_seed=5, fd_dtype=fd_dtype
    )
    per_param, margin = full_forward_reference(
        spec, params, x, labels, 1e-5, floor, 5, fd_dtype or dtype
    )
    assert report.per_param == per_param
    assert relu_margin(spec, params, x, dropout_seed=5) == margin


def test_perturbed_losses_skip_the_layers_before_the_parameter(monkeypatch):
    # flatten is layer 0 and has no parameters: it runs in the analytic
    # pass and in the recording walk, never again per perturbed scalar
    calls = []
    original = L.flatten_forward

    def counted(x):
        calls.append(x.shape)
        return original(x)

    monkeypatch.setattr(L, "flatten_forward", counted)
    spec = dense_spec()
    params, x, labels = make_case(spec, 0)
    gradient_check(spec, params, x, labels, epsilon=1e-6)
    assert len(calls) == 2


def test_checks_reject_a_transposed_input():
    # dropout and flatten accept any shape and dense any flat width, so
    # only the input check stops a transposed (N, W, H, C) batch
    spec = ModelSpec((2, 3, 1), (Dropout(rate=0.5), Flatten(), Dense(3), Softmax()), 3)
    params, x, labels = make_case(spec, 0)
    x = x.transpose(0, 2, 1, 3)
    with pytest.raises(ShapeError):
        relu_margin(spec, params, x)
    with pytest.raises(ShapeError):
        gradient_check(spec, params, x, labels)
