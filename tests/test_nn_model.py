"""Model graph assembly: shape inference, init, forward/backward plumbing."""

import tracemalloc

import numpy as np
import pytest

from wxhier.errors import ConfigError, ShapeError
from wxhier.nn import (
    AvgPool,
    BatchNorm,
    Conv,
    Dense,
    Dropout,
    Flatten,
    ModelSpec,
    ReLU,
    Softmax,
    TrainConfig,
    backward_from_logits,
    basic_cnn_spec,
    clone_params,
    forward_pass,
    gradient_check,
    init_params,
    predict,
    relu_margin,
    shape_infer,
    softmax_flat_spec,
    train,
    zero_grads,
)
from wxhier.nn import layers as L
from wxhier.nn import model as M
from wxhier.nn.model import PREDICT_ROWS
from wxhier.tensorio import DIM_LIMIT


def small_spec(n_out=4):
    return ModelSpec(
        input_shape=(8, 8, 3),
        layers=(
            Conv(filters=4, kernel=3, padding=1),
            BatchNorm(),
            ReLU(),
            AvgPool(window=2, stride=2),
            Dropout(rate=0.25),
            Flatten(),
            Dense(units=n_out),
            Softmax(),
        ),
        n_out=n_out,
    )


def test_shape_infer_small():
    # one output shape per layer: conv (same-pad), bn, relu, pool, dropout,
    # flatten, dense, softmax
    shapes = shape_infer(small_spec())
    assert shapes == [
        (8, 8, 4),
        (8, 8, 4),
        (8, 8, 4),
        (4, 4, 4),
        (4, 4, 4),
        (64,),
        (4,),
        (4,),
    ]


def test_spec_dimensions_stay_below_the_container_limit():
    head = (Flatten(), Dense(units=2), Softmax())
    ModelSpec((DIM_LIMIT - 1, 1, 1), head, 2)  # flattened, it is the Dense weight's first side
    with pytest.raises(ShapeError, match="dimension reaches 2\\*\\*32"):
        ModelSpec((DIM_LIMIT, 1, 1), head, 2)
    with pytest.raises(ShapeError, match="dimension reaches"):
        ModelSpec((1, 1, 1), (Flatten(), Dense(units=DIM_LIMIT), Softmax()), DIM_LIMIT)


def test_spec_must_end_dense_softmax():
    with pytest.raises(ShapeError):
        ModelSpec(input_shape=(4, 4, 3), layers=(Flatten(), Dense(units=2)), n_out=2)
    with pytest.raises(ShapeError):
        ModelSpec(
            input_shape=(4, 4, 3),
            layers=(Flatten(), Dense(units=3), Softmax()),
            n_out=2,  # head width disagrees
        )


def test_layer_validation():
    with pytest.raises(ConfigError):
        Dropout(rate=1.0)
    with pytest.raises(ConfigError):
        Dropout(rate=-0.1)
    with pytest.raises(ShapeError):
        Conv(filters=0, kernel=3)
    with pytest.raises(ShapeError):
        AvgPool(window=0, stride=1)
    with pytest.raises(ShapeError):
        Dense(units=0)


def test_pool_that_does_not_fit_is_shape_error():
    spec_layers = (
        AvgPool(window=5, stride=5),
        Flatten(),
        Dense(units=2),
        Softmax(),
    )
    with pytest.raises(ShapeError):
        shape_infer(ModelSpec(input_shape=(4, 4, 3), layers=spec_layers, n_out=2))


def test_init_params_deterministic():
    spec = small_spec()
    a = init_params(spec, np.random.default_rng(0))
    b = init_params(spec, np.random.default_rng(0))
    for pa, pb in zip(a, b):
        assert pa.keys() == pb.keys()
        for key in pa:
            np.testing.assert_array_equal(pa[key], pb[key])


def test_init_params_shapes_and_dtypes():
    spec = small_spec()
    params = init_params(spec, np.random.default_rng(1))
    conv_p = params[0]
    assert conv_p["w"].shape == (3, 3, 3, 4)
    assert conv_p["w"].dtype == np.float32
    assert not conv_p["b"].any()  # biases start at zero
    bn_p = params[1]
    np.testing.assert_array_equal(bn_p["gamma"], np.ones(4, dtype=np.float32))
    np.testing.assert_array_equal(bn_p["running_var"], np.ones(4, dtype=np.float32))
    dense_p = params[6]
    assert dense_p["w"].shape == (4 * 4 * 4, 4)
    assert all(not p for i, p in enumerate(params) if i not in (0, 1, 6))


def test_forward_rows_are_distributions():
    spec = small_spec()
    params = init_params(spec, np.random.default_rng(2))
    x = np.random.default_rng(3).standard_normal((5, 8, 8, 3)).astype(np.float32)
    probs, _ = forward_pass(spec, params, x)
    assert probs.shape == (5, 4)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)
    assert (probs >= 0).all()


def test_infer_mode_deterministic():
    spec = small_spec()
    params = init_params(spec, np.random.default_rng(2))
    x = np.random.default_rng(4).standard_normal((3, 8, 8, 3)).astype(np.float32)
    a = predict(spec, params, x)
    b = predict(spec, params, x)
    np.testing.assert_array_equal(a, b)


def test_caches_are_kept_in_train_mode_only():
    spec = small_spec()
    params = init_params(spec, np.random.default_rng(2))
    x = np.random.default_rng(9).standard_normal((3, 8, 8, 3)).astype(np.float32)
    _, caches = forward_pass(spec, params, x)
    assert caches == []
    _, caches = forward_pass(spec, params, x, np.random.default_rng(7))
    assert len(caches) == len(spec.layers)


def test_backward_produces_grads_for_trainables():
    spec = small_spec()
    params = init_params(spec, np.random.default_rng(5))
    x = np.random.default_rng(6).standard_normal((4, 8, 8, 3)).astype(np.float32)
    probs, caches = forward_pass(spec, params, x, np.random.default_rng(7))
    grad_logits = probs - np.eye(4, dtype=np.float32)[np.zeros(4, dtype=int)]
    grads = backward_from_logits(spec, params, caches, grad_logits)
    assert set(grads[0]) == {"w", "b"}
    assert set(grads[1]) == {"gamma", "beta"}
    assert set(grads[6]) == {"w", "b"}
    assert grads[0]["w"].shape == params[0]["w"].shape
    assert np.isfinite(grads[0]["w"]).all()


def test_train_step_calls_each_conv_kernel_once_per_layer_and_consumes_caches(monkeypatch):
    # The benchmark tracer wraps the conv kernels: one step must make one
    # conv2d_forward call (one array out) and one conv2d_backward call (the
    # kernel and bias gradients) per conv layer, with the shared columns
    # passed as a keyword, and one conv2d_backward_input call per conv layer
    # but the first, whose input gradient is never built.
    calls = {"conv2d_forward": [], "conv2d_backward": [], "conv2d_backward_input": []}
    for name, seen in calls.items():
        def counted(*args, _kernel=getattr(L, name), _seen=seen, **kwargs):
            out = _kernel(*args, **kwargs)
            _seen.append((len(args), sorted(kwargs), out))
            return out

        monkeypatch.setattr(L, name, counted)
    spec = basic_cnn_spec((16, 16, 3), 4, scale="micro")
    n_conv = sum(isinstance(layer, Conv) for layer in spec.layers)
    params = init_params(spec, np.random.default_rng(3))
    x = np.random.default_rng(4).standard_normal((6, 16, 16, 3)).astype(np.float32)
    probs, caches = forward_pass(spec, params, x, np.random.default_rng(5))
    grad_logits = probs - np.eye(4, dtype=np.float32)[np.arange(6) % 4]
    backward_from_logits(spec, params, caches, grad_logits)
    assert n_conv >= 2
    assert isinstance(spec.layers[0], Conv)
    assert [len(v) for v in calls.values()] == [n_conv, n_conv, n_conv - 1]
    for n_args, keywords, out in calls["conv2d_forward"]:
        assert (n_args, keywords) == (5, ["cols"]) and isinstance(out, np.ndarray)
    for n_args, keywords, out in calls["conv2d_backward"]:
        assert (n_args, keywords) == (5, ["cols"]) and len(out) == 2
        assert all(isinstance(a, np.ndarray) for a in out)
    for n_args, keywords, out in calls["conv2d_backward_input"]:
        assert (n_args, keywords) == (5, []) and isinstance(out, np.ndarray)
    assert len(caches) == len(spec.layers) and all(c is None for c in caches)

    # the checks built on train-mode caches still hold
    spec = small_spec()
    params = init_params(spec, np.random.default_rng(6), dtype=np.float64)
    x = np.random.default_rng(7).standard_normal((2, 8, 8, 3))
    assert relu_margin(spec, params, x) > 0.0
    report = gradient_check(spec, params, x, np.array([0, 3]), epsilon=1e-5, floor=1e-5)
    assert report.max_rel_err < 1e-5, report.worst


def _batchnorm_first_spec():
    return ModelSpec(
        input_shape=(6, 6, 2),
        layers=(BatchNorm(), Conv(filters=3, kernel=3, padding=1), ReLU(), Flatten(),
                Dense(units=3), Softmax()),
        n_out=3,
    )


@pytest.mark.parametrize("make_spec", [lambda: softmax_flat_spec((6, 6, 2), 3),
                                       _batchnorm_first_spec], ids=["flatten", "batchnorm"])
def test_a_first_layer_other_than_conv_trains_through_the_default_param_grads(make_spec):
    # The first layer runs ``param_grads``; a layer type that keeps the
    # default runs its whole ``backward`` and drops the input gradient.
    spec = make_spec()
    assert not isinstance(spec.layers[0], Conv)
    params = init_params(spec, np.random.default_rng(12), dtype=np.float64)
    x = np.random.default_rng(13).standard_normal((5, 6, 6, 2))
    probs, caches = forward_pass(spec, params, x, np.random.default_rng(14))
    grads = backward_from_logits(spec, params, caches, probs - np.eye(3)[np.arange(5) % 3])
    assert [set(g) for g in grads] == [set(layer.trainable) for layer in spec.layers]
    assert all(c is None for c in caches)
    report = gradient_check(spec, params, x, np.arange(5) % 3, epsilon=1e-5, floor=1e-5)
    assert report.max_rel_err < 1e-5, report.worst
    assert set(report.per_param) == {
        f"{i}:{key}" for i, layer in enumerate(spec.layers) for key in layer.trainable
    }

    y = np.random.default_rng(15).integers(0, 3, 20)
    xs = np.random.default_rng(16).standard_normal((20, 6, 6, 2)).astype(np.float32)
    trained, history = train(spec, xs, y, TrainConfig(epochs=2, batch_size=8, seed=1))
    assert len(history) == 2 and all(np.isfinite(h.train_loss) for h in history)
    first = init_params(spec, np.random.default_rng(1))
    assert all(not np.array_equal(trained[i][k], first[i][k])
               for i, layer in enumerate(spec.layers) for k in layer.trainable)


def test_predict_runs_one_forward_per_chunk_of_rows(monkeypatch):
    # The benchmark pins these counts: one forward per chunk of rows, and
    # in it one call of each block kernel per layer of its type.
    spec = small_spec()
    per_forward = {
        "forward_pass": 1,
        "conv2d_forward": sum(isinstance(layer, Conv) for layer in spec.layers),
        "batchnorm_forward": sum(isinstance(layer, BatchNorm) for layer in spec.layers),
        "relu_forward": sum(isinstance(layer, ReLU) for layer in spec.layers),
        "avgpool_forward": sum(isinstance(layer, AvgPool) for layer in spec.layers),
        "dropout_forward": sum(isinstance(layer, Dropout) for layer in spec.layers),
    }
    params = init_params(spec, np.random.default_rng(10))
    x = np.random.default_rng(11).standard_normal((PREDICT_ROWS + 1, 8, 8, 3)).astype(np.float32)
    whole = forward_pass(spec, params, x)[0].argmax(axis=1)

    calls = dict.fromkeys(per_forward, 0)
    for name in calls:
        module = M if name == "forward_pass" else L

        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for rows, forwards in ((PREDICT_ROWS, 1), (PREDICT_ROWS + 1, 2)):
        calls.update(dict.fromkeys(calls, 0))
        probs = predict(spec, params, x[:rows])
        assert probs.shape == (rows, 4)
        assert calls == {name: forwards * n for name, n in per_forward.items()}
        np.testing.assert_array_equal(probs.argmax(axis=1), whole[:rows])


def _head(n_out=3):
    return (Flatten(), Dense(units=n_out), Softmax())


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec((6, 6, 3), (BatchNorm(), *_head()), 3),
        ModelSpec((6, 6, 3), (ReLU(), *_head()), 3),
        ModelSpec((6, 6, 3), (Dropout(rate=0.5), BatchNorm(), ReLU(), *_head()), 3),
        ModelSpec((6, 6, 3), (Flatten(), ReLU(), Dense(units=3), Softmax()), 3),
        basic_cnn_spec((16, 16, 3), 3, scale="micro"),
        basic_cnn_spec((32, 32, 3), 3, scale="paper"),
    ],
    ids=["batchnorm", "relu", "dropout-batchnorm", "flatten-relu", "micro", "paper"],
)
def test_inference_never_writes_the_callers_array(spec):
    # Inference batchnorm and ReLU overwrite activations the forward made,
    # never the input or a view of it (dropout and flatten pass views on).
    params = init_params(spec, np.random.default_rng(12))
    for entry in params:
        if "running_mean" in entry:
            entry["running_mean"] += 0.5
    x = np.random.default_rng(13).standard_normal((5, *spec.input_shape)).astype(np.float32)
    before = x.tobytes()
    probs = forward_pass(spec, params, x)[0]
    assert x.tobytes() == before
    np.testing.assert_array_equal(predict(spec, params, x), probs)
    assert x.tobytes() == before


def test_paper_preset_predict_holds_one_column_block(monkeypatch):
    # The conv columns of one block are the only memory an inference
    # forward adds to a layer's input and output. Any conv layer's
    # whole-batch columns (184 MB at block 2 here) would break the bound.
    spec = basic_cnn_spec((100, 100, 3), 3, scale="paper")
    params = init_params(spec, np.random.default_rng(14))
    x = np.random.default_rng(15).standard_normal((64, 100, 100, 3)).astype(np.float32)
    sizes = [64 * 4 * int(np.prod(s)) for s in [spec.input_shape, *shape_infer(spec)]]
    bound = max(a + b for a, b in zip(sizes, sizes[1:])) + L.CONV_BLOCK_BYTES
    whole_columns = [
        64 * 4 * out[0] * out[1] * layer.kernel**2 * shape[2]
        for layer, shape, out in zip(spec.layers, [spec.input_shape, *shape_infer(spec)], shape_infer(spec))
        if isinstance(layer, Conv)
    ]
    assert max(whole_columns) > bound

    tracemalloc.start()
    try:
        probs = predict(spec, params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    # Blocking splits each product's rows over several BLAS calls, which
    # may round differently from one whole-batch call (README, Determinism);
    # four rows in one product per layer are the comparison.
    monkeypatch.setattr(L, "CONV_BLOCK_BYTES", x.nbytes * 1000)
    whole = predict(spec, params, x[:4])
    np.testing.assert_allclose(probs[:4], whole, rtol=1e-5, atol=1e-6)
    assert (probs[:4].argmax(1) == whole.argmax(1)).all()


def test_predict_rejects_zero_rows():
    # the same error nn.train gives an empty training set
    spec = small_spec()
    params = init_params(spec, np.random.default_rng(10))
    with pytest.raises(ShapeError, match="at least one row"):
        predict(spec, params, np.zeros((0, 8, 8, 3), dtype=np.float32))


def test_zero_grads_and_clone_isolation():
    spec = small_spec()
    params = init_params(spec, np.random.default_rng(8))
    grads = zero_grads(spec, params)
    assert not grads[0]["w"].any()
    clone = clone_params(params)
    clone[0]["w"][...] = 99.0
    assert not (params[0]["w"] == 99.0).any()


def test_input_shape_mismatch_raises():
    spec = small_spec()
    params = init_params(spec, np.random.default_rng(9))
    with pytest.raises(ShapeError):
        forward_pass(spec, params, np.zeros((2, 9, 8, 3), dtype=np.float32))
