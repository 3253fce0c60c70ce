"""Gradient checker: tight float64 agreement and defect detection."""

import numpy as np
import pytest

from wxhier.nn import (
    Dense,
    Flatten,
    ModelSpec,
    ReLU,
    Softmax,
    basic_cnn_spec,
    gradient_check,
    init_params,
    relu_margin,
)
from wxhier.nn.gradcheck import GradCheckReport


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

    from wxhier.nn import gradcheck as gc

    original = gc.backward_from_logits

    def broken(spec_, params_, caches_, grad_logits_):
        grad_x, grads = original(spec_, params_, caches_, grad_logits_)
        grads[3]["w"] *= 1.01
        return grad_x, grads

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
