"""Finite-difference verification of every backward pass.

Central differences around each trainable scalar, against the analytic
gradient from ``backward_from_logits``.  Each loss is a train-mode walk
that keeps no caches, its dropout masks drawn from a fixed seed.  One walk
records each layer's input and generator state; perturbing layer ``i``
cannot change its input, so each of its losses reruns only layers ``i``
onward, with a whole forward's steps and bits.  All of it works on a
private copy of the parameters, so the caller's arrays are never written.

ReLU is piecewise linear: a perturbation that pushes a pre-activation
across zero breaks the Taylor argument behind finite differences.
``relu_margin`` exposes the smallest pre-activation magnitude so callers
can screen instances (redraw the seed) instead of loosening tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from .model import ModelSpec, Params, ReLU, backward_from_logits, clone_params, forward_pass
from .train import cross_entropy, one_hot_matrix


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
