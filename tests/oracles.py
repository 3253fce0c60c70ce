"""Reference code that only the tests run: no ``wxhier`` command calls it.

- ``gradient_check`` and ``relu_margin`` (criterion 1's oracle): central
  differences around each trainable scalar, against the analytic gradient
  from ``backward_from_logits``.  Each loss is a train-mode walk that
  keeps no caches, its dropout masks drawn from a fixed seed.  One walk
  records each layer's input and generator state; perturbing layer ``i``
  cannot change its input, so each of its losses reruns only layers ``i``
  onward, with a whole forward's steps and bits.  All of it works on a
  private copy of the parameters (``clone_params``), so the caller's
  arrays are never written.

  ReLU is piecewise linear: a perturbation that pushes a pre-activation
  across zero breaks the Taylor argument behind finite differences.
  ``relu_margin`` exposes the smallest pre-activation magnitude so callers
  can screen instances (redraw the seed) instead of loosening tolerances.
- ``conv2d_forward_naive`` (criterion 2's oracle): the plain nested-loop
  convolution that ``nn.layers.conv2d_forward`` is tested against.
- ``joint_leaf_batch`` (criterion 6): the soft-routing distribution
  p(leaf) = sum_g p(g) * p(leaf | g).

Pytest's default import mode puts this directory on ``sys.path``, so a
test imports these as ``from oracles import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wxhier.errors import ShapeError
from wxhier.hierarchy import GROUP_ROLES, HierarchicalModel, role_classes
from wxhier.nn.layers import _check_conv_args, conv_output_hw
from wxhier.nn.model import (
    ModelSpec,
    Params,
    ReLU,
    backward_from_logits,
    forward_pass,
    predict,
)
from wxhier.nn.train import cross_entropy, one_hot_matrix
from wxhier.taxonomy import COARSE_GROUPS, LEAF_CLASSES, LEAF_INDEX


# ---------------------------------------------------------- gradient check

def clone_params(params: Params, dtype=None) -> Params:
    return [
        {k: (v.astype(dtype) if dtype is not None else v.copy()) for k, v in entry.items()}
        for entry in params
    ]


@dataclass(frozen=True)
class GradCheckReport:
    per_param: dict[str, float]  # "layer_index:key" -> max relative error
    max_rel_err: float
    worst: str


def _walk(spec, params, x, rng, start=0, record=None):
    """Train-mode forward from layer ``start``; ``record`` gets each input and rng state."""
    if start == 0 and x.shape[1:] != spec.input_shape:
        raise ShapeError(f"input must be (N, {spec.input_shape}), got {x.shape}")
    for layer, entry in zip(spec.layers[start:], params[start:]):
        if record is not None:
            record.append((x, rng.bit_generator.state))
        x, _ = layer.forward(x, entry, rng, None)
    return x


def gradient_check(
    spec: ModelSpec,
    params: Params,
    x: np.ndarray,
    labels: np.ndarray,
    epsilon: float = 1e-5,
    floor: float = 1e-12,
    dropout_seed: int = 0,
    fd_dtype=None,
) -> GradCheckReport:
    """Max relative error between analytic and central-difference gradients.

    Relative error per scalar is |fd - an| / max(|fd| + |an|, floor); the
    floor keeps near-zero gradients from dividing noise by noise.

    ``fd_dtype`` selects the arithmetic for the difference quotient
    itself.  Checking a float32 backward pass against float32 loss
    evaluations drowns in rounding noise, so the reference is normally
    evaluated in float64 at the very same parameter point (float32
    values embed exactly), leaving the float32 analytic gradient as the
    only thing under test.
    """
    targets = one_hot_matrix(np.asarray(labels), spec.n_out, dtype=x.dtype)
    params = clone_params(params)

    rng = np.random.default_rng(dropout_seed)
    probs, caches = forward_pass(spec, params, x, rng)
    _, grad_logits = cross_entropy(probs, targets)
    grads = backward_from_logits(spec, params, caches, grad_logits)

    if fd_dtype is None:
        fd_params, fd_x, fd_targets = params, x, targets
    else:
        fd_params = clone_params(params, fd_dtype)
        fd_x = x.astype(fd_dtype)
        fd_targets = targets.astype(fd_dtype)
    rng, record = np.random.default_rng(dropout_seed), []
    _walk(spec, fd_params, fd_x, rng, record=record)

    def loss_from(i: int) -> float:
        layer_input, rng.bit_generator.state = record[i]
        return cross_entropy(_walk(spec, fd_params, layer_input, rng, i), fd_targets)[0]

    per_param: dict[str, float] = {}
    for i, layer in enumerate(spec.layers):
        for key in layer.trainable:
            arr = fd_params[i][key]
            analytic = grads[i][key]
            worst = 0.0
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + epsilon
                plus = loss_from(i)
                arr[idx] = orig - epsilon
                minus = loss_from(i)
                arr[idx] = orig
                fd = (plus - minus) / (2.0 * epsilon)
                an = float(analytic[idx])
                rel = abs(fd - an) / max(abs(fd) + abs(an), floor)
                worst = max(worst, rel)
            per_param[f"{i}:{key}"] = worst
    worst_name = max(per_param, key=per_param.get)
    return GradCheckReport(per_param, per_param[worst_name], worst_name)


def relu_margin(
    spec: ModelSpec,
    params: Params,
    x: np.ndarray,
    dropout_seed: int = 0,
) -> float:
    """Smallest |pre-activation| feeding any ReLU; inf when there is none."""
    record: list = []
    _walk(spec, clone_params(params), x, np.random.default_rng(dropout_seed), record=record)
    inputs = [inp for layer, (inp, _) in zip(spec.layers, record) if isinstance(layer, ReLU)]
    return min((float(np.abs(inp).min()) for inp in inputs), default=np.inf)


# ------------------------------------------------------- convolution oracle

def conv2d_forward_naive(
    x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Reference nested-loop convolution; slow, for verification only."""
    _check_conv_args(x.shape, kernels, stride, pad)
    n, h, w, c = x.shape
    k, f = kernels.shape[0], kernels.shape[3]
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out = np.zeros((n, oh, ow, f), dtype=x.dtype)
    for ni in range(n):
        for oy in range(oh):
            for ox in range(ow):
                for fi in range(f):
                    acc = 0.0
                    for ky in range(k):
                        for kx in range(k):
                            for ci in range(c):
                                acc += (
                                    xp[ni, oy * stride + ky, ox * stride + kx, ci]
                                    * kernels[ky, kx, ci, fi]
                                )
                    out[ni, oy, ox, fi] = acc + bias[fi]
    return out


# ------------------------------------------------------------ soft routing

def joint_leaf_batch(model: HierarchicalModel, x: np.ndarray) -> np.ndarray:
    """Soft-routing diagnostic: p(leaf) = sum_g p(g) * p(leaf | g), (N, 11).

    The hard-routed leaf comes from a single sub-model and may differ
    from this distribution's argmax.
    """
    classes = role_classes(model.taxonomy)
    group_probs = predict(model.primary.spec, model.primary.params, x)
    out = np.zeros((x.shape[0], len(LEAF_CLASSES)), dtype=np.float64)
    for gi, group in enumerate(COARSE_GROUPS):
        sub = model.sub_for_group(group)
        leaf_probs = predict(sub.spec, sub.params, x)
        for j, leaf in enumerate(classes[GROUP_ROLES[group]]):
            out[:, LEAF_INDEX[leaf]] += group_probs[:, gi].astype(np.float64) * leaf_probs[
                :, j
            ].astype(np.float64)
    return out
