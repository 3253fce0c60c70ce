"""Architecture presets: block structure, depth counting, scaling rules."""

import math

import numpy as np
import pytest

from wxhier.errors import ConfigError
from wxhier.nn import (
    AvgPool,
    BatchNorm,
    Conv,
    Dense,
    Dropout,
    Flatten,
    ReLU,
    Softmax,
    basic_cnn_spec,
    conv_layer_count,
    count_hidden_layers,
    dense_layer_count,
    forward_pass,
    init_params,
    shape_infer,
    softmax_flat_spec,
    vgg_style_spec,
)


def test_flat_spec_structure():
    spec = softmax_flat_spec((8, 8, 3), 11)
    kinds = [type(l) for l in spec.layers]
    assert kinds == [Flatten, Dense, Softmax]
    assert count_hidden_layers(spec) == 1  # just the flatten
    assert shape_infer(spec)[-1] == (11,)


def test_paper_preset_has_26_hidden_layers():
    # 5 blocks of conv/bn/relu/pool/dropout plus flatten, head excluded
    spec = basic_cnn_spec((100, 100, 3), 11, scale="paper")
    assert count_hidden_layers(spec) == 26
    filters = [l.filters for l in spec.layers if isinstance(l, Conv)]
    assert filters == [32, 64, 128, 256, 256]
    assert shape_infer(spec)[-1] == (11,)


def test_micro_preset_structure():
    spec = basic_cnn_spec((16, 16, 3), 4, scale="micro")
    filters = [l.filters for l in spec.layers if isinstance(l, Conv)]
    assert filters == [8, 16]
    assert count_hidden_layers(spec) == 11  # 2 blocks of 5 + flatten
    kinds = [type(l) for l in spec.layers[:5]]
    assert kinds == [Conv, BatchNorm, ReLU, AvgPool, Dropout]


def test_basic_cnn_dropout_rate_propagates():
    spec = basic_cnn_spec((16, 16, 3), 4, scale="micro", dropout=0.4)
    rates = {l.rate for l in spec.layers if isinstance(l, Dropout)}
    assert rates == {0.4}


def test_basic_cnn_unknown_scale():
    with pytest.raises(ConfigError):
        basic_cnn_spec((16, 16, 3), 4, scale="huge")


def test_basic_cnn_input_too_small_for_blocks():
    # five halvings cannot fit a 16px input
    with pytest.raises(Exception):
        basic_cnn_spec((16, 16, 3), 4, scale="paper")


def test_vgg_full_scale_counts():
    spec = vgg_style_spec((64, 64, 3), 11)
    assert conv_layer_count(spec) == 13
    assert dense_layer_count(spec) == 3  # two hidden + the head
    assert shape_infer(spec)[-1] == (11,)


def test_vgg_width_scaling():
    full = vgg_style_spec((64, 64, 3), 11)
    half = vgg_style_spec((64, 64, 3), 11, width_scale=0.5)
    wf = [l.filters for l in full.layers if isinstance(l, Conv)]
    wh = [l.filters for l in half.layers if isinstance(l, Conv)]
    assert wh == [max(1, round(f * 0.5)) for f in wf]


def test_vgg_depth_scaling():
    shallow = vgg_style_spec((64, 64, 3), 11, depth_scale=0.25)
    assert conv_layer_count(shallow) == 5  # one conv per stage survives
    full_hidden = count_hidden_layers(vgg_style_spec((64, 64, 3), 11))
    assert count_hidden_layers(shallow) < full_hidden


def test_vgg_minimum_scale_enforced():
    with pytest.raises(ConfigError):
        vgg_style_spec((64, 64, 3), 11, width_scale=0.1)
    with pytest.raises(ConfigError):
        vgg_style_spec((64, 64, 3), 11, depth_scale=0.0)
    for bad in ({"width_scale": math.nan}, {"depth_scale": math.inf}):  # round() would raise
        with pytest.raises(ConfigError, match="finite"):
            vgg_style_spec((64, 64, 3), 11, **bad)
    vgg_style_spec((64, 64, 3), 11, width_scale=0.125)  # boundary accepted


def test_presets_run_forward():
    spec = basic_cnn_spec((16, 16, 3), 4, scale="micro")
    params = init_params(spec, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((2, 16, 16, 3)).astype(np.float32)
    probs, _ = forward_pass(spec, params, x)
    assert probs.shape == (2, 4)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)
