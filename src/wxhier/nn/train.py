"""Mini-batch SGD with momentum, plus loss and history plumbing.

Determinism contract: one ``numpy`` generator seeded from the config
drives, in order, parameter init, each epoch's shuffle, then the dropout
masks batch by batch.  Identical (seed, data, config) therefore yields
bit-identical parameters.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DegenerateError, ShapeError
from .model import (
    ModelSpec,
    Params,
    backward_from_logits,
    forward_pass,
    init_params,
    predict,
    zero_grads,
)


@dataclass(frozen=True)
class TrainConfig:
    """One run's optimizer settings; ``hierarchy.HierTrainConfig`` adds the model shape."""

    epochs: int
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float | None


def one_hot_matrix(labels: np.ndarray, n_out: int, dtype=np.float32) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a vector, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_out):
        raise ShapeError(f"labels must lie in [0, {n_out}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    out = np.zeros((labels.shape[0], n_out), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1
    return out


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and the fused softmax gradient (probs - targets)/N.

    The gradient is taken w.r.t. the logits feeding the softmax, which is
    where ``backward_from_logits`` picks up.
    """
    if probs.shape != targets.shape or probs.ndim != 2:
        raise ShapeError(f"probs {probs.shape} vs targets {targets.shape}")
    n = probs.shape[0]
    # float64 reduction; tiny floor only guards log(0), exact probabilities
    # of 1 still give loss 0.
    p = np.maximum(probs.astype(np.float64), np.finfo(np.float64).tiny)
    loss = float(-(targets.astype(np.float64) * np.log(p)).sum() / n)
    grad_logits = (probs - targets) / n
    return loss, grad_logits


def evaluate_accuracy(spec: ModelSpec, params: Params, x: np.ndarray, labels: np.ndarray) -> float:
    """Inference accuracy; ``predict`` bounds the memory per forward."""
    hits = int((predict(spec, params, x).argmax(axis=1) == labels).sum())
    return hits / x.shape[0]


def train(
    spec: ModelSpec,
    x_train: np.ndarray,
    y_train: np.ndarray,
    cfg: TrainConfig,
    x_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
) -> tuple[Params, list[EpochStats]]:
    """Train the model; returns final parameters and per-epoch history.

    ``y_train``/``y_val`` are integer class labels in ``[0, n_out)``.
    A parameter that is not finite after an epoch is a ``DegenerateError``.
    """
    y_train = np.asarray(y_train)
    if x_train.shape[0] == 0:
        raise ShapeError("training set is empty")
    if y_train.shape != (x_train.shape[0],):
        raise ShapeError(f"labels shape {y_train.shape} != ({x_train.shape[0]},)")
    targets_all = one_hot_matrix(y_train, spec.n_out, dtype=x_train.dtype)

    rng = np.random.default_rng(cfg.seed)
    params = init_params(spec, rng)
    velocity = zero_grads(spec, params)
    n = x_train.shape[0]

    history: list[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        hit_sum = 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xb, yb = x_train[idx], targets_all[idx]
            probs, caches = forward_pass(spec, params, xb, rng)
            loss, grad_logits = cross_entropy(probs, yb)
            grads = backward_from_logits(spec, params, caches, grad_logits)
            for entry, ventry, gentry in zip(params, velocity, grads):
                for k in ventry:
                    ventry[k] *= cfg.momentum
                    ventry[k] -= cfg.learning_rate * gentry[k]
                    entry[k] += ventry[k]
            loss_sum += loss * idx.shape[0]
            hit_sum += int((probs.argmax(axis=1) == y_train[idx]).sum())
        if not all(np.isfinite(v).all() for entry in params for v in entry.values()):
            raise DegenerateError(f"parameters became non-finite in epoch {epoch}")
        val_acc = None
        if x_val is not None and x_val.shape[0]:
            val_acc = evaluate_accuracy(spec, params, x_val, np.asarray(y_val))
        history.append(EpochStats(epoch, loss_sum / n, hit_sum / n, val_acc))
    return params, history


def history_to_csv(history: list[EpochStats]) -> str:
    buf = io.StringIO()
    buf.write("epoch,train_loss,train_acc,val_acc\n")
    for h in history:
        val = "" if h.val_acc is None else f"{h.val_acc:.6f}"
        buf.write(f"{h.epoch},{h.train_loss:.6f},{h.train_acc:.6f},{val}\n")
    return buf.getvalue()
