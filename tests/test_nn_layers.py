"""Layer primitives: forward oracles, analytic vs finite-difference gradients,
and bit identity with the plain broadcasting kernels."""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from wxhier.errors import ShapeError
from wxhier.nn import TrainConfig, basic_cnn_spec, forward_pass, history_to_csv, init_params, train
from wxhier.nn import layers as L
from wxhier.nn.layers import (
    avgpool_backward,
    avgpool_forward,
    batchnorm_backward,
    batchnorm_forward,
    conv2d_backward,
    conv2d_forward,
    conv2d_forward_naive,
    conv_output_hw,
    dense_backward,
    dense_forward,
    dropout_backward,
    dropout_forward,
    flatten_backward,
    flatten_forward,
    relu_backward,
    relu_forward,
    softmax_forward,
)


def fd_grad(fn, arr, eps=1e-6):
    """Central finite difference of a scalar function w.r.t. one array."""
    g = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


# -------------------------------------------------------------------- conv

def test_conv_identity_kernel():
    x = np.arange(2 * 3 * 3 * 1, dtype=np.float64).reshape(2, 3, 3, 1)
    k = np.ones((1, 1, 1, 1))
    out = conv2d_forward(x, k, np.zeros(1))
    np.testing.assert_array_equal(out, x)


def test_conv_hand_example():
    # 2x2 input, 2x2 kernel, valid conv -> single dot product
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    k = np.array([[10.0, 20.0], [30.0, 40.0]]).reshape(2, 2, 1, 1)
    out = conv2d_forward(x, k, np.array([0.5]))
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 1 * 10 + 2 * 20 + 3 * 30 + 4 * 40 + 0.5


def test_conv_matches_naive_random_cases():
    rng = np.random.default_rng(123)
    for _ in range(12):
        n = int(rng.integers(1, 3))
        c = int(rng.integers(1, 4))
        f = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 3))
        h = int(rng.integers(k, k + 5))
        w = int(rng.integers(k, k + 5))
        x = rng.standard_normal((n, h, w, c))
        kern = rng.standard_normal((k, k, c, f))
        bias = rng.standard_normal(f)
        fast = conv2d_forward(x, kern, bias, stride, pad)
        slow = conv2d_forward_naive(x, kern, bias, stride, pad)
        np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-10)


def test_conv_output_hw():
    assert conv_output_hw(5, 5, 3, 1, 0) == (3, 3)
    assert conv_output_hw(5, 5, 3, 1, 1) == (5, 5)
    assert conv_output_hw(6, 8, 2, 2, 0) == (3, 4)
    with pytest.raises(ShapeError):
        conv_output_hw(2, 2, 3, 1, 0)


def test_conv_gradients_match_fd():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 5, 4, 2))
    kern = rng.standard_normal((3, 3, 2, 3))
    bias = rng.standard_normal(3)
    r = rng.standard_normal((2, 3, 2, 3))  # random linear functional

    def loss():
        return float((conv2d_forward(x, kern, bias, stride=1, pad=0) * r).sum())

    grad_x, grad_k, grad_b = conv2d_backward(x, kern, r, stride=1, pad=0)
    np.testing.assert_allclose(grad_x, fd_grad(loss, x), rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(grad_k, fd_grad(loss, kern), rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(grad_b, fd_grad(loss, bias), rtol=1e-6, atol=1e-8)


def test_conv_gradients_with_stride_and_pad():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((1, 6, 6, 2))
    kern = rng.standard_normal((3, 3, 2, 2))
    bias = np.zeros(2)
    out = conv2d_forward(x, kern, bias, stride=2, pad=1)
    r = rng.standard_normal(out.shape)

    def loss():
        return float((conv2d_forward(x, kern, bias, stride=2, pad=1) * r).sum())

    grad_x, grad_k, _ = conv2d_backward(x, kern, r, stride=2, pad=1)
    np.testing.assert_allclose(grad_x, fd_grad(loss, x), rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(grad_k, fd_grad(loss, kern), rtol=1e-6, atol=1e-8)


def test_conv_shape_errors():
    x = np.zeros((1, 4, 4, 2))
    with pytest.raises(ShapeError):
        conv2d_forward(x, np.zeros((3, 2, 2, 1)), np.zeros(1))  # non-square kernel
    with pytest.raises(ShapeError):
        conv2d_forward(x, np.zeros((3, 3, 5, 1)), np.zeros(1))  # channel mismatch
    with pytest.raises(ShapeError):
        conv2d_backward(x, np.zeros((3, 3, 2, 1)), np.zeros((1, 1, 1, 1)))


# --------------------------------------------------------------- batchnorm

def test_batchnorm_train_normalizes_batch():
    rng = np.random.default_rng(3)
    x = rng.normal(5.0, 3.0, size=(8, 4, 4, 3))
    gamma, beta = np.ones(3), np.zeros(3)
    out, _ = batchnorm_forward(x, gamma, beta, np.zeros(3), np.ones(3), 1e-5, 0.1, True)
    np.testing.assert_allclose(out.mean(axis=(0, 1, 2)), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=(0, 1, 2)), 1.0, atol=1e-4)  # eps shrinks var


def test_batchnorm_affine_applied():
    x = np.random.default_rng(4).normal(size=(4, 2, 2, 2))
    gamma = np.array([2.0, 0.5])
    beta = np.array([-1.0, 3.0])
    out, _ = batchnorm_forward(x, gamma, beta, np.zeros(2), np.ones(2), 1e-5, 0.1, True)
    np.testing.assert_allclose(out.mean(axis=(0, 1, 2)), beta, atol=1e-10)


def test_batchnorm_running_update_formula():
    x = np.random.default_rng(5).normal(2.0, 1.5, size=(6, 3, 3, 2))
    running_mean = np.array([10.0, -10.0])
    running_var = np.array([4.0, 9.0])
    mu = x.mean(axis=(0, 1, 2)).copy()
    var = x.var(axis=(0, 1, 2)).copy()
    batchnorm_forward(x, np.ones(2), np.zeros(2), running_mean, running_var, 1e-5, 0.1, True)
    np.testing.assert_allclose(running_mean, 0.9 * np.array([10.0, -10.0]) + 0.1 * mu, rtol=1e-12)
    np.testing.assert_allclose(running_var, 0.9 * np.array([4.0, 9.0]) + 0.1 * var, rtol=1e-12)


def test_batchnorm_infer_uses_running_stats():
    x = np.full((2, 1, 1, 1), 7.0)
    out, _ = batchnorm_forward(
        x, np.ones(1), np.zeros(1), np.array([5.0]), np.array([4.0]), 0.0, 0.1, False
    )
    np.testing.assert_allclose(out, (7.0 - 5.0) / 2.0)


def test_batchnorm_gradients_match_fd():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 3, 2, 2)) * 2 + 1
    gamma = rng.uniform(0.5, 1.5, 2)
    beta = rng.standard_normal(2)
    r = rng.standard_normal(x.shape)

    def loss():
        out, _ = batchnorm_forward(x, gamma, beta, np.zeros(2), np.ones(2), 1e-5, 0.1, True)
        return float((out * r).sum())

    _, cache = batchnorm_forward(x, gamma, beta, np.zeros(2), np.ones(2), 1e-5, 0.1, True)
    grad_x, grad_gamma, grad_beta = batchnorm_backward(r, cache)
    np.testing.assert_allclose(grad_x, fd_grad(loss, x), rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(grad_gamma, fd_grad(loss, gamma), rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(grad_beta, fd_grad(loss, beta), rtol=1e-6, atol=1e-8)


def test_batchnorm_rejects_bad_shape():
    args = (np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), 1e-5, 0.1)
    with pytest.raises(ShapeError):
        batchnorm_forward(np.zeros((2, 2, 2, 4)), *args, True)


# -------------------------------------------------------------------- relu

def test_relu_forward_and_subgradient():
    x = np.array([[-2.0, 0.0, 3.0]])
    out, cache = relu_forward(x)
    np.testing.assert_array_equal(out, [[0.0, 0.0, 3.0]])
    g = relu_backward(np.ones_like(x), cache)
    np.testing.assert_array_equal(g, [[0.0, 0.0, 1.0]])  # subgradient 0 at the kink


# ----------------------------------------------------------------- avgpool

def test_avgpool_hand_example():
    x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
    out = avgpool_forward(x, window=2, stride=2)
    np.testing.assert_allclose(out.reshape(2, 2), [[2.5, 4.5], [10.5, 12.5]])


def test_avgpool_overlapping_window():
    x = np.arange(9, dtype=np.float64).reshape(1, 3, 3, 1)
    out = avgpool_forward(x, window=2, stride=1)
    np.testing.assert_allclose(out.reshape(2, 2), [[2.0, 3.0], [5.0, 6.0]])


def test_avgpool_truncates_ragged_edge():
    x = np.arange(25, dtype=np.float64).reshape(1, 5, 5, 1)
    out = avgpool_forward(x, window=2, stride=2)
    assert out.shape == (1, 2, 2, 1)  # last row/col dropped


def test_avgpool_gradient_matches_fd():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 5, 5, 2))
    r = rng.standard_normal((2, 2, 2, 2))

    def loss():
        return float((avgpool_forward(x, 2, 2) * r).sum())

    grad_x = avgpool_backward(r, x.shape, 2, 2)
    np.testing.assert_allclose(grad_x, fd_grad(loss, x), rtol=1e-6, atol=1e-9)


def test_avgpool_rejects_oversized_window():
    with pytest.raises(ShapeError):
        avgpool_forward(np.zeros((1, 2, 2, 1)), window=3, stride=1)


# ----------------------------------------------------------------- dropout

def test_dropout_infer_is_identity():
    x = np.random.default_rng(0).standard_normal((4, 4))
    out, keep = dropout_forward(x, 0.5, None)
    assert keep is None
    np.testing.assert_array_equal(out, x)


def test_dropout_rate_zero_is_identity():
    x = np.ones((3, 3))
    out, keep = dropout_forward(x, 0.0, np.random.default_rng(0))
    assert keep is None
    np.testing.assert_array_equal(out, x)


def test_dropout_train_scales_survivors():
    rng = np.random.default_rng(13)
    x = np.ones((100, 100))
    rate = 0.25
    out, keep = dropout_forward(x, rate, rng)
    values = np.unique(out)
    np.testing.assert_allclose(values, [0.0, 1.0 / (1 - rate)])
    frac = keep.mean()
    assert abs(frac - (1 - rate)) < 0.02  # 10k samples, loose statistical bound
    # expectation preserved by inverted scaling
    assert abs(out.mean() - 1.0) < 0.05


def test_dropout_backward_uses_same_mask():
    rng = np.random.default_rng(14)
    x = np.random.default_rng(1).standard_normal((8, 8))
    out, keep = dropout_forward(x, 0.5, rng)
    g = dropout_backward(np.ones_like(x), keep, 0.5)
    np.testing.assert_array_equal(g != 0, out != 0)
    np.testing.assert_array_equal(dropout_backward(x, None, 0.5), x)


# ------------------------------------------------------- flatten and dense

def test_flatten_round_trip():
    x = np.arange(24, dtype=np.float64).reshape(2, 3, 2, 2)
    out, shape = flatten_forward(x)
    assert out.shape == (2, 12)
    np.testing.assert_array_equal(flatten_backward(out, shape), x)


def test_dense_matches_matmul_oracle():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 3))
    b = rng.standard_normal(3)
    np.testing.assert_allclose(dense_forward(x, w, b), x @ w + b, rtol=1e-12)


def test_dense_gradients_match_fd():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((3, 5))
    w = rng.standard_normal((5, 4))
    b = rng.standard_normal(4)
    r = rng.standard_normal((3, 4))

    def loss():
        return float((dense_forward(x, w, b) * r).sum())

    grad_x, grad_w, grad_b = dense_backward(x, w, r)
    np.testing.assert_allclose(grad_x, fd_grad(loss, x), rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(grad_w, fd_grad(loss, w), rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(grad_b, fd_grad(loss, b), rtol=1e-6, atol=1e-9)


def test_dense_shape_check():
    with pytest.raises(ShapeError):
        dense_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))


# ----------------------------------------------------------------- softmax

def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(17)
    probs = softmax_forward(rng.standard_normal((10, 7)) * 5)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)
    assert (probs > 0).all()


def test_softmax_shift_invariance():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((4, 5))
    np.testing.assert_allclose(softmax_forward(x), softmax_forward(x + 100.0), rtol=1e-10)


def test_softmax_extreme_logits_stable():
    probs = softmax_forward(np.array([[1e4, 0.0, -1e4]]))
    assert np.isfinite(probs).all()
    np.testing.assert_allclose(probs[0, 0], 1.0)


def test_softmax_uniform_logits():
    probs = softmax_forward(np.zeros((1, 11)))
    np.testing.assert_allclose(probs, 1.0 / 11.0)


def test_softmax_rejects_bad_rank():
    with pytest.raises(ShapeError):
        softmax_forward(np.zeros((2, 2, 2)))


# ------------------------------------ bit identity with broadcasting kernels
#
# The plain broadcasting kernels the contiguous ones replaced. They are the
# reference: the fast kernels must give the same bits, signed zeros included,
# so that retraining reproduces the same parameters.

def _ref_im2col(x, k, stride, pad):
    """Sliding-window patch gather: (N, H', W', k, k, C)."""
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    windows = sliding_window_view(xp, (k, k), axis=(1, 2))  # (N, H*, W*, C, k, k)
    windows = windows[:, ::stride, ::stride]
    return np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))


# The reference kernels accept the precomputed columns and the ``out`` array
# the model passes and ignore them, so they always gather their own columns
# and return a fresh output.
def _ref_conv2d_forward(x, kernels, bias, stride=1, pad=0, cols=None):
    n, h, w, c = x.shape
    k, f = kernels.shape[0], kernels.shape[3]
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    cols = _ref_im2col(x, k, stride, pad).reshape(n * oh * ow, k * k * c)
    out = cols @ kernels.reshape(k * k * c, f) + bias
    return out.reshape(n, oh, ow, f)


def _ref_conv2d_backward(x, kernels, grad_out, stride=1, pad=0, cols=None):
    n, h, w, c = x.shape
    k, f = kernels.shape[0], kernels.shape[3]
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    g = grad_out.reshape(n * oh * ow, f)
    grad_bias = g.sum(axis=0)
    cols = _ref_im2col(x, k, stride, pad).reshape(n * oh * ow, k * k * c)
    grad_kernels = (cols.T @ g).reshape(k, k, c, f)
    dcols = (g @ kernels.reshape(k * k * c, f).T).reshape(n, oh, ow, k, k, c)
    dxp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            dxp[:, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride, :] += dcols[
                :, :, :, ky, kx, :
            ]
    grad_x = dxp[:, pad : pad + h, pad : pad + w, :] if pad else dxp
    return grad_x, grad_kernels, grad_bias


def _ref_batchnorm_forward(x, gamma, beta, running_mean, running_var, eps, momentum, train, out=None):
    if train:
        mu = x.mean(axis=(0, 1, 2))
        var = x.var(axis=(0, 1, 2))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mu = running_mean.astype(x.dtype)
        var = running_var.astype(x.dtype)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mu) * inv_std
    out = gamma * x_hat + beta
    cache = {"x_hat": x_hat, "gamma": gamma, "inv_std": inv_std}
    return out, cache


def _ref_batchnorm_backward(grad_out, cache):
    x_hat = cache["x_hat"]
    gamma = cache["gamma"]
    inv_std = cache["inv_std"]
    grad_beta = grad_out.sum(axis=(0, 1, 2))
    grad_gamma = (grad_out * x_hat).sum(axis=(0, 1, 2))
    m = x_hat.shape[0] * x_hat.shape[1] * x_hat.shape[2]
    grad_x = (gamma * inv_std) * (grad_out - grad_beta / m - x_hat * (grad_gamma / m))
    return grad_x, grad_gamma, grad_beta


def _ref_avgpool_forward(x, window, stride):
    n, h, w, c = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((n, oh, ow, c), dtype=x.dtype)
    for dy in range(window):
        for dx in range(window):
            out += x[:, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride, :]
    return out / (window * window)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_conv_kernels_match_broadcasting_reference_bit_for_bit(dtype, stride, pad, k):
    # im2col against the sliding-window gather, and both kernels with and
    # without the precomputed columns against the reference kernels, on two
    # images and on none
    rng = np.random.default_rng(100 * stride + 10 * pad + k)
    for c in range(1, 17):
        f = int(rng.integers(1, 17))
        h = int(rng.integers(k, k + 6))
        w = int(rng.integers(k, k + 6)) | 1  # odd widths
        x2 = rng.standard_normal((2, h, w, c)).astype(dtype)
        x2[0, 0, -1, 0] = -0.0
        kern = rng.standard_normal((k, k, c, f)).astype(dtype)
        bias = rng.standard_normal(f).astype(dtype)
        oh, ow = conv_output_hw(h, w, k, stride, pad)
        grad_out2 = rng.standard_normal((2, oh, ow, f)).astype(dtype)
        for n in (2, 0):
            x, grad_out = x2[:n], grad_out2[:n]
            cols = L.im2col(x, k, stride, pad)
            _assert_same_bits(cols, _ref_im2col(x, k, stride, pad).reshape(n * oh * ow, k * k * c))
            want = _ref_conv2d_forward(x, kern, bias, stride, pad)
            _assert_same_bits(conv2d_forward(x, kern, bias, stride, pad), want)
            _assert_same_bits(conv2d_forward(x, kern, bias, stride, pad, cols=cols), want)
            want = _ref_conv2d_backward(x, kern, grad_out, stride, pad)
            for got in (
                conv2d_backward(x, kern, grad_out, stride, pad),
                conv2d_backward(x, kern, grad_out, stride, pad, cols=cols),
            ):
                for g, r in zip(got, want):
                    _assert_same_bits(g, r)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_blocked_conv_matches_the_column_product(monkeypatch, dtype, stride, pad, k):
    # Without columns the forward gathers them per block of whole images.
    # Budgets below one image, of exactly one image and of two images (a
    # ragged last block of three) must give the one-product result. BLAS
    # picks its kernel by the product's shape, and on these tiny products a
    # smaller call can round differently, so the bound is that of two dot
    # products summed in different orders; a misplaced row would be far off.
    # The default budget holds the whole batch: one product, the same bits.
    rng = np.random.default_rng(200 + 100 * stride + 10 * pad + k)
    eps = np.finfo(dtype).eps
    for c in range(1, 17):
        f = int(rng.integers(1, 17))
        h = int(rng.integers(k, k + 6))
        w = int(rng.integers(k, k + 6)) | 1
        x = rng.standard_normal((3, h, w, c)).astype(dtype)
        x[0, 0, -1, 0] = -0.0
        kern = rng.standard_normal((k, k, c, f)).astype(dtype)
        bias = rng.standard_normal(f).astype(dtype)
        cols = L.im2col(x, k, stride, pad)
        want = conv2d_forward(x, kern, bias, stride, pad, cols=cols)
        _assert_same_bits(conv2d_forward(x, kern, bias, stride, pad), want)
        magnitude = np.abs(cols) @ np.abs(kern.reshape(-1, f)) + np.abs(bias)
        tol = (2 * cols.shape[1] * eps * magnitude).reshape(want.shape)
        per_image = cols.nbytes // 3
        for budget in (1, per_image, 2 * per_image):
            with monkeypatch.context() as m:
                m.setattr(L, "CONV_BLOCK_BYTES", budget)
                got = conv2d_forward(x, kern, bias, stride, pad)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert (np.abs(got - want) <= tol).all()


def test_conv_kernels_reject_columns_of_another_input():
    x = np.zeros((2, 5, 5, 3), dtype=np.float32)
    kern = np.zeros((3, 3, 3, 4), dtype=np.float32)
    cols = L.im2col(x[:1], 3, 1, 1)
    with pytest.raises(ShapeError):
        conv2d_forward(x, kern, np.zeros(4, dtype=np.float32), 1, 1, cols=cols)
    with pytest.raises(ShapeError):
        conv2d_backward(x, kern, np.zeros((2, 5, 5, 4), dtype=np.float32), 1, 1, cols=cols)
    with pytest.raises(ShapeError):
        conv2d_forward(x, kern, np.zeros(4, dtype=np.float32), 1, 1,
                       cols=L.im2col(x.astype(np.float64), 3, 1, 1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_channel_sum_matches_numpy_sum_bit_for_bit(dtype):
    # einsum adds the rows in numpy's order for every width above 1; at
    # width 1 the two would sum in different orders, so the helper keeps
    # numpy's reduction there
    rng = np.random.default_rng(23)
    shapes = [(1, 1, 1), (1, 1, 2), (1, 1, 7), (2, 2, 2), (1, 3, 3), (3, 1, 11), (1, 16, 16),
              (4, 32, 32), (32, 16, 16), (32, 32, 32), (70, 32, 31)]
    for c in (1, 2, 3, 8, 16, 256):
        for n, h, w in shapes:
            if n * h * w * c > 1 << 21:
                continue
            a = (rng.standard_normal((n, h, w, c)) * 3 + 1).astype(dtype)
            a[rng.random(a.shape) < 0.05] = -0.0
            _assert_same_bits(L._channel_sum(a, c), a.sum(axis=(0, 1, 2)))
            _assert_same_bits(L._channel_sum(a.reshape(-1, c), c), a.sum(axis=(0, 1, 2)))
    zeros = np.full((3, 2, 2, 4), -0.0, dtype)  # an all -0.0 channel sums to -0.0
    _assert_same_bits(L._channel_sum(zeros, 4), zeros.sum(axis=(0, 1, 2)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train", [True, False], ids=["train-True", "infer-True"])
def test_batchnorm_matches_broadcasting_reference_bit_for_bit(dtype, train):
    rng = np.random.default_rng(17)
    for c in range(1, 17):
        n, h = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        w = int(rng.integers(1, 10)) | 1  # odd widths
        x = (rng.standard_normal((n, h, w, c)) * 3 + 1).astype(dtype)
        gamma, beta = rng.standard_normal((2, c)).astype(dtype)
        running = (rng.standard_normal(c).astype(dtype), rng.uniform(0.5, 2, c).astype(dtype))
        ours = [a.copy() for a in running]
        theirs = [a.copy() for a in running]
        out, cache = batchnorm_forward(x, gamma, beta, *ours, 1e-5, 0.1, train)
        ref_out, ref_cache = _ref_batchnorm_forward(x, gamma, beta, *theirs, 1e-5, 0.1, train)
        _assert_same_bits(out, ref_out)
        if train:
            for key in ("x_hat", "inv_std"):
                _assert_same_bits(cache[key], ref_cache[key])
        else:  # inference keeps no cache; a given ``out`` receives the same bits
            assert cache is None
            given = np.empty_like(x)
            got, cache = batchnorm_forward(x, gamma, beta, *ours, 1e-5, 0.1, train, out=given)
            assert got is given and cache is None
            _assert_same_bits(got, ref_out)
        for a, b in zip(ours, theirs):
            _assert_same_bits(a, b)
        grad_out = rng.standard_normal(x.shape).astype(dtype)
        if not train:  # only train mode backpropagates
            continue
        for g, r in zip(batchnorm_backward(grad_out, cache), _ref_batchnorm_backward(grad_out, ref_cache)):
            _assert_same_bits(g, r)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_and_relu_write_out_bit_for_bit(dtype):
    # out= (a separate array or the input itself) gives the default call's bits
    rng = np.random.default_rng(19)
    for c in range(1, 17):
        n, h = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        w = int(rng.integers(1, 10)) | 1
        x = (rng.standard_normal((n, h, w, c)) * 3 + 1).astype(dtype)
        x[0, 0, 0, 0] = -0.0
        gamma, beta, mean = rng.standard_normal((3, c)).astype(dtype)
        var = rng.uniform(0.5, 2, c).astype(dtype)
        args = (gamma, beta, mean, var, 1e-5, 0.1, False)
        want_bn = batchnorm_forward(x, *args)[0]
        want_relu = relu_forward(x)[0]
        for in_place in (False, True):
            out = x.copy() if in_place else np.empty_like(x)
            got, cache = batchnorm_forward(out if in_place else x, *args, out=out)
            assert got is out and cache is None
            _assert_same_bits(got, want_bn)
            out = x.copy() if in_place else np.empty_like(x)
            got, _ = relu_forward(out if in_place else x, out=out)
            assert got is out
            _assert_same_bits(got, want_relu)


def test_batchnorm_rejects_an_out_it_cannot_write_as_rows():
    # batchnorm writes ``out`` through an (N*H, W*C) view, which a strided
    # or misshapen array cannot give without a copy that would take the writes
    x = np.ones((2, 3, 5, 4), dtype=np.float32)
    ones, zeros = np.ones(4, np.float32), np.zeros(4, np.float32)
    args = (ones, zeros, zeros, ones, 1e-5, 0.1, False)
    strided = np.empty((2, 3, 10, 4), np.float32)[:, :, ::2]
    for out in (np.empty_like(x, order="F"), strided, np.empty((6, 5, 4), np.float32)):
        with pytest.raises(ShapeError, match="C-contiguous"):
            batchnorm_forward(x, *args, out=out)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window, stride", [(1, 1), (2, 2), (3, 2), (3, 1)])
def test_avgpool_matches_broadcasting_reference_bit_for_bit(dtype, window, stride):
    rng = np.random.default_rng(10 * window + stride)
    for c in (1, 3, 8):
        x = rng.standard_normal((2, window + 5, window + 4, c)).astype(dtype)
        _assert_same_bits(avgpool_forward(x, window, stride), _ref_avgpool_forward(x, window, stride))


def test_training_with_reference_kernels_is_bit_identical(monkeypatch):
    rng = np.random.default_rng(23)
    x = rng.standard_normal((40, 16, 16, 3)).astype(np.float32)
    y = rng.integers(0, 4, 40)
    spec = basic_cnn_spec((16, 16, 3), 4, scale="micro", dropout=0.25)
    cfg = TrainConfig(epochs=2, batch_size=7, seed=3)

    def fit():
        params, history = train(spec, x[:30], y[:30], cfg, x[30:], y[30:])
        return [a.tobytes() for entry in params for a in entry.values()], history_to_csv(history)

    ours = fit()
    for name, ref in [
        ("conv2d_forward", _ref_conv2d_forward),
        ("conv2d_backward", _ref_conv2d_backward),
        ("batchnorm_forward", _ref_batchnorm_forward),
        ("batchnorm_backward", _ref_batchnorm_backward),
        ("avgpool_forward", _ref_avgpool_forward),
    ]:
        monkeypatch.setattr(L, name, ref)
    assert fit() == ours


def _ref_relu_forward(x, out=None):
    return np.maximum(x, 0), x


def test_inference_with_reference_kernels_is_bit_identical(monkeypatch):
    # An inference forward (conv columns per block, batchnorm and ReLU in
    # place) against the same forward built from the reference kernels.
    rng = np.random.default_rng(29)
    spec = basic_cnn_spec((16, 16, 3), 4, scale="micro", dropout=0.25)
    params = init_params(spec, rng)
    for entry in params:
        for key, a in entry.items():
            a[...] = rng.standard_normal(a.shape) * 0.5 + (key in ("gamma", "running_var"))
            if key == "running_var":
                np.abs(a, out=a)
    x = rng.standard_normal((9, 16, 16, 3)).astype(np.float32)
    ours = forward_pass(spec, params, x)[0]
    for name, ref in [
        ("conv2d_forward", _ref_conv2d_forward),
        ("batchnorm_forward", _ref_batchnorm_forward),
        ("relu_forward", _ref_relu_forward),
        ("avgpool_forward", _ref_avgpool_forward),
    ]:
        monkeypatch.setattr(L, name, ref)
    _assert_same_bits(forward_pass(spec, params, x)[0], ours)
