"""Model descriptions: a strict chain of layer specs plus parameter arrays.

Each layer spec class is the one definition of its layer type: its
serialized ``kind``, its field ranges (checked when it is built, after
``errors.check_fields`` checks the field types), its output shape, its
parameter shapes in serialization order, its trainable keys, its
initialization and the kernels of its forward and backward steps.
``shape_infer``, ``init_params``, ``forward_pass`` and ``backward_from_logits``
are plain loops over the chain.  Parameters are a list aligned with the
layers; each is a dict of named arrays (empty for parameterless layers).

Layer steps look kernels up as ``L.<kernel>`` at call time, so a kernel
replaced on the ``layers`` module is the one that runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..errors import ConfigError, DegenerateError, ShapeError, check_fields
from ..tensorio import DIM_LIMIT
from . import layers as L

Shape = tuple[int, ...]


def _need_rank(shape: Shape, rank: int, what: str) -> None:
    if len(shape) != rank:
        want = "a (H, W, C)" if rank == 3 else "a flat"
        raise ShapeError(f"{what} needs {want} input, got {shape}")


class LayerSpec:
    """Base of every layer spec; the defaults describe a parameterless layer.

    ``forward(x, entry, rng, owned)`` returns the output and the cache its
    ``backward`` reads, training when ``rng`` is a generator. ``owned`` is
    true only at inference and only when ``x`` is an activation that
    ``forward_pass`` made, never the caller's array or a view of it; the
    step may then overwrite ``x``.
    ``backward`` returns the input gradient and the trainable gradients;
    ``param_grads`` returns only the trainable gradients, and is what the
    first layer of a model runs, since no one reads its input gradient.
    ``Softmax``, always the last layer, has no backward step.
    """

    kind: ClassVar[str]
    trainable: ClassVar[tuple[str, ...]] = ()

    def out_shape(self, shape: Shape) -> Shape:
        return shape

    def param_shapes(self, shape: Shape) -> dict[str, Shape]:
        """Parameter shapes for input ``shape``, in serialization order."""
        return {}

    def init(self, shape: Shape, rng: np.random.Generator, dtype) -> dict[str, np.ndarray]:
        return {}

    def param_grads(self, grad, entry, cache) -> dict[str, np.ndarray]:
        return self.backward(grad, entry, cache)[1]


class _WeightBias(LayerSpec):
    """A layer with He-initialized weights ``w`` and zero biases ``b``."""

    trainable = ("w", "b")

    def init(self, shape, rng, dtype):
        w_shape, b_shape = self.param_shapes(shape).values()
        std = np.sqrt(2.0 / np.prod(w_shape[:-1]))
        return {
            "w": (rng.standard_normal(w_shape) * std).astype(dtype),
            "b": np.zeros(b_shape, dtype=dtype),
        }


@dataclass(frozen=True)
class Conv(_WeightBias):
    """Convolution over NHWC input.

    In train mode forward builds the im2col columns once, passes them to
    the kernel and caches ``(x, cols)``; the filter gradient consumes that
    cache, so a training step builds each conv layer's columns once. At
    inference the kernel builds them itself, one block of images at a time.
    ``backward`` runs the filter and the data kernel; ``param_grads`` runs
    the filter kernel alone.
    """

    kind = "conv"
    filters: int
    kernel: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        check_fields(self, ShapeError)
        if self.filters < 1 or self.kernel < 1 or self.stride < 1 or self.padding < 0:
            raise ShapeError(f"bad conv spec {self}")

    def out_shape(self, shape):
        _need_rank(shape, 3, "conv")
        oh, ow = L.conv_output_hw(shape[0], shape[1], self.kernel, self.stride, self.padding)
        return (oh, ow, self.filters)

    def param_shapes(self, shape):
        return {"w": (self.kernel, self.kernel, shape[2], self.filters), "b": (self.filters,)}

    def forward(self, x, entry, rng, owned):
        if rng is None:
            # An infer cache lives until the next layer has run. Returning
            # None there freed ``x`` sooner, which left the traced peak
            # unchanged but raised evaluate's peak RSS by 8-26 MB through
            # heap layout alone.
            return L.conv2d_forward(x, entry["w"], entry["b"], self.stride, self.padding), x
        cols = L.im2col(x, self.kernel, self.stride, self.padding)
        out = L.conv2d_forward(x, entry["w"], entry["b"], self.stride, self.padding, cols=cols)
        return out, (x, cols)

    def param_grads(self, grad, entry, cache):
        x, cols = cache
        gw, gb = L.conv2d_backward(x, entry["w"], grad, self.stride, self.padding, cols=cols)
        return {"w": gw, "b": gb}

    def backward(self, grad, entry, cache):
        grads = self.param_grads(grad, entry, cache)
        x_shape = cache[0].shape
        grad = L.conv2d_backward_input(grad, entry["w"], x_shape, self.stride, self.padding)
        return grad, grads


@dataclass(frozen=True)
class BatchNorm(LayerSpec):
    kind = "batchnorm"
    trainable = ("gamma", "beta")
    epsilon: float = 1e-5
    momentum: float = 0.1

    def __post_init__(self):
        check_fields(self, ConfigError)
        if not self.epsilon > 0 or not 0.0 <= self.momentum <= 1.0:
            raise ConfigError(f"batchnorm needs epsilon > 0 and momentum in [0, 1]: {self}")

    def out_shape(self, shape):
        _need_rank(shape, 3, "batchnorm")
        return shape

    def param_shapes(self, shape):
        c = (shape[2],)
        return {"gamma": c, "beta": c, "running_mean": c, "running_var": c}

    def init(self, shape, rng, dtype):
        c = shape[2]
        return {
            "gamma": np.ones(c, dtype=dtype),
            "beta": np.zeros(c, dtype=dtype),
            "running_mean": np.zeros(c, dtype=dtype),
            "running_var": np.ones(c, dtype=dtype),
        }

    def forward(self, x, entry, rng, owned):
        return L.batchnorm_forward(
            x, entry["gamma"], entry["beta"], entry["running_mean"], entry["running_var"],
            self.epsilon, self.momentum, rng is not None, out=x if owned else None,
        )

    def backward(self, grad, entry, cache):
        grad, ggamma, gbeta = L.batchnorm_backward(grad, cache)
        return grad, {"gamma": ggamma, "beta": gbeta}


@dataclass(frozen=True)
class ReLU(LayerSpec):
    kind = "relu"

    def forward(self, x, entry, rng, owned):
        return L.relu_forward(x, out=x if owned else None)

    def backward(self, grad, entry, x):
        return L.relu_backward(grad, x), {}


@dataclass(frozen=True)
class AvgPool(LayerSpec):
    kind = "avgpool"
    window: int
    stride: int

    def __post_init__(self):
        check_fields(self, ShapeError)
        if self.window < 1 or self.stride < 1:
            raise ShapeError(f"bad pool spec {self}")

    def out_shape(self, shape):
        _need_rank(shape, 3, "avgpool")
        oh, ow = L.pool_output_hw(shape[0], shape[1], self.window, self.stride)
        return (oh, ow, shape[2])

    def forward(self, x, entry, rng, owned):
        return L.avgpool_forward(x, self.window, self.stride), x.shape

    def backward(self, grad, entry, x_shape):
        return L.avgpool_backward(grad, x_shape, self.window, self.stride), {}


@dataclass(frozen=True)
class Dropout(LayerSpec):
    kind = "dropout"
    rate: float

    def __post_init__(self):
        check_fields(self, ConfigError)
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"dropout rate must lie in [0, 1), got {self.rate}")

    def forward(self, x, entry, rng, owned):
        return L.dropout_forward(x, self.rate, rng)

    def backward(self, grad, entry, keep):
        return L.dropout_backward(grad, keep, self.rate), {}


@dataclass(frozen=True)
class Flatten(LayerSpec):
    kind = "flatten"

    def out_shape(self, shape):
        _need_rank(shape, 3, "flatten")
        return (shape[0] * shape[1] * shape[2],)

    def forward(self, x, entry, rng, owned):
        return L.flatten_forward(x)

    def backward(self, grad, entry, x_shape):
        return L.flatten_backward(grad, x_shape), {}


@dataclass(frozen=True)
class Dense(_WeightBias):
    kind = "dense"
    units: int

    def __post_init__(self):
        check_fields(self, ShapeError)
        if self.units < 1:
            raise ShapeError(f"dense units must be >= 1, got {self.units}")

    def out_shape(self, shape):
        _need_rank(shape, 1, "dense")
        return (self.units,)

    def param_shapes(self, shape):
        return {"w": (shape[0], self.units), "b": (self.units,)}

    def forward(self, x, entry, rng, owned):
        return L.dense_forward(x, entry["w"], entry["b"]), x

    def backward(self, grad, entry, x):
        grad, gw, gb = L.dense_backward(x, entry["w"], grad)
        return grad, {"w": gw, "b": gb}


@dataclass(frozen=True)
class Softmax(LayerSpec):
    kind = "softmax"

    def out_shape(self, shape):
        _need_rank(shape, 1, "softmax")
        return shape

    def forward(self, x, entry, rng, owned):
        return L.softmax_forward(x), None


# Every layer type, for lookup by serialized kind.
LAYER_TYPES: tuple[type[LayerSpec], ...] = (
    Conv, BatchNorm, ReLU, AvgPool, Dropout, Flatten, Dense, Softmax
)


@dataclass(frozen=True)
class ModelSpec:
    """A layer chain whose field types, shapes and dimension limit are checked when built."""

    input_shape: tuple[int, ...]  # (H, W, C)
    layers: tuple[LayerSpec, ...]
    n_out: int

    def __post_init__(self):
        check_fields(self, ShapeError)
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise ShapeError(f"input shape must be (H, W, C), got {self.input_shape}")
        if len(self.layers) < 2 or not (
            isinstance(self.layers[-2], Dense)
            and self.layers[-2].units == self.n_out
            and isinstance(self.layers[-1], Softmax)
        ):
            raise ShapeError("model must end with Dense(n_out) then Softmax")
        for layer, x in zip(self.layers, input_shapes(self)):  # runs shape_infer
            if max(d for s in (x, *layer.param_shapes(x).values()) for d in s) >= DIM_LIMIT:
                raise ShapeError("an activation or parameter dimension reaches 2**32")


def shape_infer(spec: ModelSpec) -> list[Shape]:
    """Output shape of every layer (sample shapes, without the batch dim)."""
    shape: Shape = spec.input_shape
    shapes: list[Shape] = []
    for layer in spec.layers:
        shape = layer.out_shape(shape)
        shapes.append(shape)
    return shapes


def input_shapes(spec: ModelSpec) -> list[Shape]:
    """Input shape of every layer (sample shapes, without the batch dim)."""
    return [spec.input_shape, *shape_infer(spec)[:-1]]


Params = list[dict[str, np.ndarray]]


def init_params(spec: ModelSpec, rng: np.random.Generator, dtype=np.float32) -> Params:
    """He-initialized parameters; draw order follows the layer order."""
    return [
        layer.init(shape, rng, dtype) for layer, shape in zip(spec.layers, input_shapes(spec))
    ]


def clone_params(params: Params, dtype=None) -> Params:
    return [
        {k: (v.astype(dtype) if dtype is not None else v.copy()) for k, v in entry.items()}
        for entry in params
    ]


def forward_pass(
    spec: ModelSpec, params: Params, x: np.ndarray, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, list]:
    """Run the chain; returns (probabilities, per-layer caches).

    With ``rng`` this is a training forward: batch statistics (blended into
    the running ones), dropout masks from ``rng``, and one cache per layer
    for ``backward_from_logits``, which frees each once read.  Without it,
    inference: running statistics, no dropout and no caches, so each
    activation is freed as soon as the next layer has read it, and
    batchnorm and ReLU overwrite activations this forward made. ``x`` is
    never written.
    """
    if x.ndim != 4 or tuple(x.shape[1:]) != spec.input_shape:
        raise ShapeError(f"input must be (N, {spec.input_shape}), got {x.shape}")
    caches: list = []
    out = x
    for layer, entry in zip(spec.layers, params):
        owned = rng is None and not np.may_share_memory(out, x)
        out, cache = layer.forward(out, entry, rng, owned)
        if rng is not None:
            caches.append(cache)
    return out, caches


def zero_grads(spec: ModelSpec, params: Params) -> Params:
    return [
        {k: np.zeros_like(entry[k]) for k in layer.trainable}
        for layer, entry in zip(spec.layers, params)
    ]


def backward_from_logits(
    spec: ModelSpec, params: Params, caches: list, grad_logits: np.ndarray
) -> Params:
    """Trainable gradients, backpropagated from the final Dense output's.

    The closing Softmax is skipped: its gradient is fused into the
    cross-entropy term that produces ``grad_logits``.  The first layer runs
    ``param_grads``, so the input gradient of the model (for a conv, its
    ``g @ K.T`` product and tap scatters) is never built.  Backward consumes
    the caches: each entry becomes ``None`` once its layer has run, so
    activations and conv columns are freed as soon as they are read.
    """
    grads: Params = [{} for _ in spec.layers]
    grad = grad_logits
    for i in range(len(spec.layers) - 2, 0, -1):
        grad, grads[i] = spec.layers[i].backward(grad, params[i], caches[i])
        caches[i] = None
    grads[0] = spec.layers[0].param_grads(grad, params[0], caches[0])
    caches[0] = None
    return grads


PREDICT_ROWS = 256  # rows per inference forward: bounds the activations held


def predict(spec: ModelSpec, params: Params, x: np.ndarray) -> np.ndarray:
    """Inference probabilities, one row per batch item, rows sum to 1.

    The one inference entry: one ``forward_pass`` per ``PREDICT_ROWS`` rows.
    Argmax consumers break ties toward the lowest class index.  Raises
    ``DegenerateError`` when any probability is not finite, so no caller
    routes or scores by an argmax over NaN.  No rows is a ``ShapeError``.
    """
    if x.shape[0] == 0:
        raise ShapeError(f"predict needs at least one row, got shape {x.shape}")
    chunks = range(0, x.shape[0], PREDICT_ROWS)
    probs = np.concatenate([forward_pass(spec, params, x[i : i + PREDICT_ROWS])[0] for i in chunks])
    if not np.isfinite(probs).all():
        raise DegenerateError(f"model over {spec.n_out} classes gave non-finite probabilities")
    return probs
