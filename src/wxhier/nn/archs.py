"""Preset model architectures.

``basic_cnn_spec('paper')`` is a documented reconstruction: the source
layout is described only as repeated convolutional, batch-normalization,
average-pooling and dropout layers totalling 26 hidden layers on a
100x100x3 input.  Five [Conv -> BatchNorm -> ReLU -> AvgPool -> Dropout]
blocks plus the Flatten give exactly that count, with the closing
Dense/Softmax pair as the output stage.
"""

from __future__ import annotations

from ..errors import ConfigError
from .model import (
    AvgPool,
    BatchNorm,
    Conv,
    Dense,
    Dropout,
    Flatten,
    LayerSpec,
    ModelSpec,
    ReLU,
    Softmax,
)

# filters per block for each named scale
BASIC_FILTERS = {
    "micro": (8, 16),
    "paper": (32, 64, 128, 256, 256),
}

# VGG16 stage layout: conv counts and channel widths per stage
_VGG_DEPTHS = (2, 2, 3, 3, 3)
_VGG_WIDTHS = (64, 128, 256, 512, 512)
_VGG_DENSE = 4096
# past this, either VGG scale gives more parameters than tensorio.PARAM_LIMIT; with no
# bound, a depth builds any number of layers first and a width can round to infinity
MAX_SCALE = 4096


def softmax_flat_spec(input_shape: tuple[int, int, int], n_out: int) -> ModelSpec:
    """Flat softmax regression over raw pixels: the weak baseline."""
    layers: tuple[LayerSpec, ...] = (Flatten(), Dense(n_out), Softmax())
    return ModelSpec(tuple(input_shape), layers, n_out)


def basic_cnn_spec(
    input_shape: tuple[int, int, int], n_out: int, scale: str = "micro", dropout: float = 0.25
) -> ModelSpec:
    """Blocks of [Conv -> BatchNorm -> ReLU -> AvgPool -> Dropout].

    Convs are 3x3 stride 1 pad 1 (shape-preserving), pools are 2x2
    stride 2.  'paper' has 26 hidden layers at 100x100x3; 'micro' is a
    2-block variant small enough for tests.
    """
    if scale not in BASIC_FILTERS:
        raise ConfigError(f"scale must be one of {sorted(BASIC_FILTERS)}, got {scale!r}")
    layers: list[LayerSpec] = []
    for filters in BASIC_FILTERS[scale]:
        layers += [
            Conv(filters=filters, kernel=3, stride=1, padding=1),
            BatchNorm(),
            ReLU(),
            AvgPool(window=2, stride=2),
            Dropout(rate=dropout),
        ]
    layers += [Flatten(), Dense(n_out), Softmax()]
    return ModelSpec(tuple(input_shape), tuple(layers), n_out)


def vgg_style_spec(
    input_shape: tuple[int, int, int],
    n_out: int,
    width_scale: float = 1.0,
    depth_scale: float = 1.0,
) -> ModelSpec:
    """VGG16-shaped grammar: 3x3 stride-1 pad-1 convs in five stages with
    2x2 pooling between them, then three dense layers.

    ``width_scale`` multiplies channel widths and the dense width,
    ``depth_scale`` the per-stage conv counts; both floor at one layer or
    channel.  At scale 1 this is the 13-conv / 3-dense layout.  Pooling is
    average pooling: it is the only pooling the layer set carries, and at
    these depths the choice does not alter the architecture shape.
    """
    if not (0.125 <= width_scale <= MAX_SCALE and 0.125 <= depth_scale <= MAX_SCALE):
        raise ConfigError(
            f"scales must be finite, in [1/8, {MAX_SCALE}]: width {width_scale} depth {depth_scale}"
        )
    layers: list[LayerSpec] = []
    for depth, width in zip(_VGG_DEPTHS, _VGG_WIDTHS):
        n_convs = max(1, round(depth * depth_scale))
        filters = max(1, round(width * width_scale))
        for _ in range(n_convs):
            layers += [Conv(filters=filters, kernel=3, stride=1, padding=1), ReLU()]
        layers.append(AvgPool(window=2, stride=2))
    hidden = max(1, round(_VGG_DENSE * width_scale))
    layers += [Flatten(), Dense(hidden), ReLU(), Dense(hidden), ReLU(), Dense(n_out), Softmax()]
    return ModelSpec(tuple(input_shape), tuple(layers), n_out)


def conv_layer_count(spec: ModelSpec) -> int:
    return sum(isinstance(layer, Conv) for layer in spec.layers)
