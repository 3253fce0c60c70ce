"""Finite-difference verification of every backward pass.

Central differences around each trainable scalar, against the analytic
gradient from ``backward_from_logits``.  Every evaluation runs in train
mode, the only mode that keeps the caches backward reads, and is made
repeatable by fixing the dropout seed per loss call and working on a
private copy of the parameters, so the only visible dependence is the
perturbed parameter and the caller's arrays are never written.

ReLU is piecewise linear: a perturbation that pushes a pre-activation
across zero breaks the Taylor argument behind finite differences.
``relu_margin`` exposes the smallest pre-activation magnitude so callers
can screen instances (redraw the seed) instead of loosening tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, Params, ReLU, backward_from_logits, clone_params, forward_pass
from .train import cross_entropy, one_hot_matrix


@dataclass(frozen=True)
class GradCheckReport:
    per_param: dict[str, float]  # "layer_index:key" -> max relative error
    max_rel_err: float
    worst: str


def _loss(
    spec: ModelSpec,
    params: Params,
    x: np.ndarray,
    targets: np.ndarray,
    dropout_seed: int,
) -> float:
    rng = np.random.default_rng(dropout_seed)
    probs, _ = forward_pass(spec, params, x, rng)
    loss, _ = cross_entropy(probs, targets)
    return loss


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
    _, grads = backward_from_logits(spec, params, caches, grad_logits)

    if fd_dtype is None:
        fd_params, fd_x, fd_targets = params, x, targets
    else:
        fd_params = clone_params(params, fd_dtype)
        fd_x = x.astype(fd_dtype)
        fd_targets = targets.astype(fd_dtype)

    per_param: dict[str, float] = {}
    for i, layer in enumerate(spec.layers):
        for key in layer.trainable:
            arr = fd_params[i][key]
            analytic = grads[i][key]
            worst = 0.0
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + epsilon
                plus = _loss(spec, fd_params, fd_x, fd_targets, dropout_seed)
                arr[idx] = orig - epsilon
                minus = _loss(spec, fd_params, fd_x, fd_targets, dropout_seed)
                arr[idx] = orig
                fd = (plus - minus) / (2.0 * epsilon)
                an = float(analytic[idx])
                rel = abs(fd - an) / max(abs(fd) + abs(an), floor)
                worst = max(worst, rel)
            per_param[f"{i}:{key}"] = worst
    if not per_param:
        return GradCheckReport({}, 0.0, "")
    worst_name = max(per_param, key=per_param.get)
    return GradCheckReport(per_param, per_param[worst_name], worst_name)


def relu_margin(
    spec: ModelSpec,
    params: Params,
    x: np.ndarray,
    dropout_seed: int = 0,
) -> float:
    """Smallest |pre-activation| feeding any ReLU; inf when there is none."""
    params = clone_params(params)
    rng = np.random.default_rng(dropout_seed)
    _, caches = forward_pass(spec, params, x, rng)
    margin = np.inf
    for layer, cache in zip(spec.layers, caches):
        if isinstance(layer, ReLU):
            margin = min(margin, float(np.abs(cache).min()))
    return margin
