"""Training loop: loss, SGD with momentum, determinism, history export."""

import importlib
import math

import numpy as np
import pytest

from wxhier.errors import ConfigError, DegenerateError, ShapeError
from wxhier.nn import (
    Dense,
    EpochStats,
    Flatten,
    ModelSpec,
    Softmax,
    TrainConfig,
    cross_entropy,
    evaluate_accuracy,
    forward_pass,
    history_to_csv,
    init_params,
    one_hot_matrix,
    predict,
    softmax_flat_spec,
    train,
)


def toy_blobs(n_per=30, seed=0):
    """Two well-separated gaussian blobs as flat (N, 2, 2, 1) inputs."""
    rng = np.random.default_rng(seed)
    a = rng.normal(-2.0, 0.4, size=(n_per, 2, 2, 1))
    b = rng.normal(2.0, 0.4, size=(n_per, 2, 2, 1))
    x = np.concatenate([a, b]).astype(np.float32)
    y = np.array([0] * n_per + [1] * n_per, dtype=np.int64)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


def test_train_config_validation():
    TrainConfig(epochs=1)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, learning_rate=0.0)
    for rate in (math.nan, math.inf):  # nan <= 0 is false, and inf > 0
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(epochs=1, learning_rate=rate)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=1, batch_size=0)


def test_one_hot_matrix():
    m = one_hot_matrix(np.array([0, 3, 1]), 4)
    np.testing.assert_array_equal(
        m, [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]]
    )
    with pytest.raises(ShapeError):
        one_hot_matrix(np.array([0, 4]), 4)
    with pytest.raises(ShapeError):
        one_hot_matrix(np.array([-1]), 4)


def test_cross_entropy_uniform_is_log_n():
    probs = np.full((5, 11), 1.0 / 11.0)
    targets = one_hot_matrix(np.arange(5), 11)
    loss, grad = cross_entropy(probs, targets)
    assert loss == pytest.approx(math.log(11.0), rel=1e-6)
    np.testing.assert_allclose(grad, (probs - targets) / 5, rtol=1e-6)


def test_cross_entropy_perfect_prediction():
    targets = one_hot_matrix(np.array([1, 0]), 2)
    loss, _ = cross_entropy(targets.astype(np.float64), targets)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_zero_prob_is_finite():
    probs = np.array([[0.0, 1.0]])
    targets = one_hot_matrix(np.array([0]), 2)
    loss, _ = cross_entropy(probs, targets)
    assert np.isfinite(loss)
    assert loss > 50  # log of the tiny floor


def test_training_separates_toy_blobs():
    x, y = toy_blobs()
    spec = softmax_flat_spec((2, 2, 1), 2)
    cfg = TrainConfig(epochs=20, learning_rate=0.5, seed=1)
    params, history = train(spec, x, y, cfg)
    assert evaluate_accuracy(spec, params, x, y) == 1.0
    assert history[-1].train_loss < history[0].train_loss
    assert len(history) == 20


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_parameters_end_training(monkeypatch):
    # an infinite logit gradient turns the dense weights into inf and nan
    def inf_gradient(probs, targets):
        return 0.0, np.full_like(probs, np.inf)

    # ``wxhier.nn.train`` the attribute is the function; the module is in sys.modules
    monkeypatch.setattr(importlib.import_module("wxhier.nn.train"), "cross_entropy", inf_gradient)
    x, y = toy_blobs()
    with pytest.raises(DegenerateError, match="non-finite in epoch 1"):
        train(softmax_flat_spec((2, 2, 1), 2), x, y, TrainConfig(epochs=3))


def test_training_is_bit_deterministic():
    x, y = toy_blobs()
    spec = softmax_flat_spec((2, 2, 1), 2)
    cfg = TrainConfig(epochs=5, seed=42)
    params_a, hist_a = train(spec, x, y, cfg)
    params_b, hist_b = train(spec, x, y, cfg)
    for pa, pb in zip(params_a, params_b):
        for key in pa:
            assert pa[key].tobytes() == pb[key].tobytes()
    assert hist_a == hist_b


def test_training_seed_changes_trajectory():
    x, y = toy_blobs()
    spec = softmax_flat_spec((2, 2, 1), 2)
    h1 = train(spec, x, y, TrainConfig(epochs=2, seed=0))[1]
    h2 = train(spec, x, y, TrainConfig(epochs=2, seed=1))[1]
    assert h1[-1].train_loss != h2[-1].train_loss


def test_momentum_update_matches_manual_loop():
    # one batch, two steps: v = mu v - lr g; p += v, replayed by hand
    x, y = toy_blobs(n_per=8, seed=3)
    spec = softmax_flat_spec((2, 2, 1), 2)
    cfg = TrainConfig(epochs=2, learning_rate=0.1, momentum=0.9, batch_size=16, seed=9)
    params, _ = train(spec, x, y, cfg)

    manual = init_params(spec, np.random.default_rng(9))
    velocity = [{k: np.zeros_like(v) for k, v in entry.items()} for entry in manual]
    rng = np.random.default_rng(9)
    # replay: init consumed the generator first, then per-epoch permutations
    manual = init_params(spec, rng)
    from wxhier.nn import backward_from_logits, one_hot_matrix as ohm

    targets_all = ohm(y, 2)
    for _ in range(2):
        order = rng.permutation(len(y))
        xb, tb = x[order], targets_all[order]
        probs, caches = forward_pass(spec, manual, xb, rng)
        _, grad = cross_entropy(probs, tb)
        grads = backward_from_logits(spec, manual, caches, grad.astype(np.float32))
        for entry, gentry, ventry in zip(manual, grads, velocity):
            for key in entry:
                ventry[key] = 0.9 * ventry[key] - 0.1 * gentry[key]
                entry[key] = entry[key] + ventry[key]
    for pa, pb in zip(params, manual):
        for key in pa:
            np.testing.assert_allclose(pa[key], pb[key], rtol=1e-5, atol=1e-7)


def test_validation_accuracy_tracked():
    x, y = toy_blobs()
    spec = softmax_flat_spec((2, 2, 1), 2)
    _, history = train(spec, x, y, TrainConfig(epochs=3, seed=0), x_val=x, y_val=y)
    assert all(h.val_acc is not None for h in history)
    assert 0.0 <= history[-1].val_acc <= 1.0


def test_history_csv_format():
    history = [
        EpochStats(epoch=1, train_loss=0.75, train_acc=0.5, val_acc=0.25),
        EpochStats(epoch=2, train_loss=0.5, train_acc=0.75, val_acc=None),
    ]
    text = history_to_csv(history)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_acc"
    assert lines[1] == "1,0.750000,0.500000,0.250000"
    assert lines[2] == "2,0.500000,0.750000,"


def test_evaluate_accuracy_oracle():
    x, y = toy_blobs(n_per=10)
    spec = softmax_flat_spec((2, 2, 1), 2)
    params = init_params(spec, np.random.default_rng(0))
    preds = predict(spec, params, x).argmax(axis=1)
    acc = evaluate_accuracy(spec, params, x, y)
    assert acc == pytest.approx(float((preds == y).mean()))


def test_shape_mismatch_rejected():
    x, y = toy_blobs()
    spec = softmax_flat_spec((3, 3, 1), 2)
    with pytest.raises(ShapeError):
        train(spec, x, y, TrainConfig(epochs=1))
