"""Forward and backward kernels for every layer type, NHWC layout.

All kernels preserve the input dtype, so the same code runs in float32
(the training default) and in float64 (used by gradient verification).
``conv2d_forward`` gathers patches into a matrix product (the im2col
lowering of Chellapilla et al. 2006); the plain nested-loop
implementation stays available as ``conv2d_forward_naive`` and is the
reference the fast path is tested against.

Both conv kernels take the ``im2col`` matrix as ``cols``, so a training
step builds each conv layer's columns once; without it they build their
own. ``conv2d_forward`` is one loop over blocks of whole images. A
training step's columns are one block, never split; at inference the
loop gathers the columns of one block at a time, so only one block of
them is ever alive. The patch gather and the input gradient's tap copies
move runs of adjacent floats as single ``np.void`` items, which changes
no value.

``batchnorm_forward`` (at inference) and ``relu_forward`` take an ``out``
array, which may be their input. A kernel never writes an array it was
not given as ``out``; ``forward_pass`` passes a layer's input as ``out``
only when it made that activation itself, never the caller's array or a
view of it.

The convolution and batchnorm kernels keep the reference summation
order: every matrix product is the same numpy call on the same operands,
and every reduction adds the same operands in the same order, so only the
memory layout around them differs. The per-channel sums of a training step
(batchnorm's mean, variance and parameter gradients, the conv bias
gradient) add the ``N*H*W`` rows in numpy's order through ``einsum``
(``_channel_sum``), which runs the row adds without numpy's per-row call
of a ``C``-long reduction loop. Per-channel vectors are applied on the
``(N*H, W*C)`` view with the vector repeated ``W`` times, so each
elementwise loop runs over whole rows instead of ``C`` floats at a time.
Elementwise epilogues (conv bias, the batchnorm scale and shift, the
avgpool divide) run in place on the array the kernel has just made, which
saves an allocation per step without changing any sum. Retrained
parameters are therefore bit-identical to those of the plain broadcasting
kernels. The inference conv is the one exception: it may split the rows
of one product over several calls, and BLAS picks its kernel by a
call's shape, so a row can round differently in a smaller call. On
OpenBLAS 0.3.31 the micro and paper presets gave the whole-batch bits at
every batch size tried (1-256 rows, 32-100 px); tiny products split into
one-image blocks did not.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ShapeError


def _row(vec: np.ndarray, w: int) -> np.ndarray:
    """``vec`` repeated ``w`` times: one row of an ``(N*H, W*C)`` view."""
    return vec[None].repeat(w, 0).reshape(-1)


def _channel_sum(a: np.ndarray, c: int) -> np.ndarray:
    """Per-channel sum of a C-contiguous ``(..., c)`` array, bit for bit
    ``a.sum(axis=(0, 1, 2))`` of its NHWC form.

    numpy reduces the ``(rows, c)`` view by adding one row at a time to the
    accumulator, through a ufunc inner loop only ``c`` floats long; einsum
    adds the same rows in the same order at a fraction of the cost. At
    ``c == 1`` both switch to other orders (numpy sums pairwise) and their
    bits differ, so that width keeps numpy's reduction.
    """
    rows = a.reshape(-1, c)
    return np.einsum("ij->j", rows) if c > 1 else rows.sum(axis=0)


def conv_output_hw(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    if h + 2 * pad < k or w + 2 * pad < k or oh < 1 or ow < 1:
        raise ShapeError(f"kernel {k} with pad {pad} does not fit input {h}x{w}")
    return oh, ow


def pool_output_hw(h: int, w: int, window: int, stride: int) -> tuple[int, int]:
    if window < 1 or stride < 1:
        raise ShapeError(f"bad pool window/stride {window}/{stride}")
    if h < window or w < window:
        raise ShapeError(f"pool window {window} does not fit input {h}x{w}")
    return (h - window) // stride + 1, (w - window) // stride + 1


def _check_conv_args(x: np.ndarray, kernels: np.ndarray, stride: int, pad: int) -> None:
    if x.ndim != 4:
        raise ShapeError(f"conv input must be (N, H, W, C), got {x.shape}")
    if kernels.ndim != 4 or kernels.shape[0] != kernels.shape[1]:
        raise ShapeError(f"kernels must be (k, k, C_in, filters), got {kernels.shape}")
    if x.shape[3] != kernels.shape[2]:
        raise ShapeError(f"channel mismatch: input {x.shape[3]}, kernels {kernels.shape[2]}")
    if stride < 1 or pad < 0:
        raise ShapeError(f"bad stride/pad {stride}/{pad}")


def im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Conv patches as the GEMM operand ``(N*H'*W', k*k*C)``.

    Rows run over ``(n, y, x)`` and columns over ``(ky, kx, c)``. Patch row
    ``ky`` is one run of ``k*C`` adjacent floats in the padded input, so the
    gather copies it as one ``np.void`` item through a read-only strided
    view. Being a copy, the columns hold the input's bytes, signed zeros
    included.
    """
    n, h, w, c = x.shape
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    sn, sh, sw, sc = xp.strides
    runs = as_strided(
        xp, (n, oh, ow, k, k * c), (sn, stride * sh, stride * sw, sh, sc), writeable=False
    )
    items = np.ascontiguousarray(runs.view(np.dtype((np.void, k * c * xp.itemsize))))
    return items.view(x.dtype).reshape(n * oh * ow, k * k * c)


def _columns(x: np.ndarray, k: int, stride: int, pad: int, cols: np.ndarray | None) -> np.ndarray:
    """``cols`` when the caller passed ``im2col(x, k, stride, pad)``, else a new one."""
    if cols is None:
        return im2col(x, k, stride, pad)
    n, h, w, c = x.shape
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    if cols.shape != (n * oh * ow, k * k * c) or cols.dtype != x.dtype:
        raise ShapeError(f"columns {cols.shape} {cols.dtype} do not fit input {x.shape} {x.dtype}")
    return cols


# Bytes of im2col columns per block of an inference conv (at least one whole
# image). At the paper preset, 100 px, 64 rows, whole-batch columns reach
# 184 MB at block 2; blocks of 2 to 16 MB timed alike (block 2's conv
# 110 -> 77 ms at 8 MB on a 2-vCPU Xeon, OpenBLAS 0.3.31). Blocks stay
# multi-MB because freeing them is what raises glibc's mmap threshold: after
# an evaluate with 442 KB blocks, each micro-preset training call that
# followed took ~145 000 minor page faults and ~30 % longer (8 MB: ~800).
CONV_BLOCK_BYTES = 8 << 20


def conv2d_forward(
    x: np.ndarray,
    kernels: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    *,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-correlation with zero padding; x (N,H,W,C), kernels (k,k,C,F).

    One loop multiplies each block of whole images' columns into its rows
    of the output. With ``cols`` (a training step's ``im2col(x, ...)``) the
    batch is one block, never split. Without, each block gathers at most
    ``CONV_BLOCK_BYTES`` of columns, so only one block of them is alive.
    """
    _check_conv_args(x, kernels, stride, pad)
    n, h, w, c = x.shape
    k, f = kernels.shape[0], kernels.shape[3]
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    kmat = kernels.reshape(k * k * c, f)
    bias_row = _row(bias, ow)
    out = np.empty((n, oh, ow, f), dtype=np.result_type(x, kernels))
    step = max(1, CONV_BLOCK_BYTES // (oh * ow * k * k * c * x.itemsize))
    if cols is not None:  # the whole batch is one block
        step = max(1, n)
    for i in range(0, n, step):  # each block's columns die with its product
        block = out[i : i + step]
        np.matmul(_columns(x[i : i + step], k, stride, pad, cols), kmat, out=block.reshape(-1, f))
        block = block.reshape(-1, ow * f)
        block += bias_row
    return out


def conv2d_forward_naive(
    x: np.ndarray, kernels: np.ndarray, bias: np.ndarray, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Reference nested-loop convolution; slow, for verification only."""
    _check_conv_args(x, kernels, stride, pad)
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


def conv2d_backward(
    x: np.ndarray,
    kernels: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    *,
    cols: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. input, kernels and bias."""
    _check_conv_args(x, kernels, stride, pad)
    n, h, w, c = x.shape
    k, f = kernels.shape[0], kernels.shape[3]
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    if grad_out.shape != (n, oh, ow, f):
        raise ShapeError(f"grad_out shape {grad_out.shape} != {(n, oh, ow, f)}")

    g = grad_out.reshape(n * oh * ow, f)
    grad_bias = _channel_sum(g, f)

    cols = _columns(x, k, stride, pad, cols)
    grad_kernels = (cols.T @ g).reshape(k, k, c, f)

    # One product for all taps: a product per tap rounds differently in some
    # BLAS tail kernels. Copying each tap out contiguously, one void item of
    # ``c`` floats per pixel, lets the scatter add whole rows of ``ow * c``
    # floats (stride 1) instead of ``c`` at a time.
    dcols = g @ kernels.reshape(k * k * c, f).T
    taps = dcols.view(np.dtype((np.void, c * dcols.itemsize))).reshape(n, oh, ow, k, k, 1)
    dxp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    for ky in range(k):
        for kx in range(k):
            tap = np.ascontiguousarray(taps[:, :, :, ky, kx]).view(dcols.dtype)  # (n, oh, ow, c)
            dxp[:, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride, :] += tap
    grad_x = dxp[:, pad : pad + h, pad : pad + w, :] if pad else dxp
    return grad_x, grad_kernels, grad_bias


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float,
    momentum: float,
    train: bool,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Per-channel normalization over the N*H*W samples of each channel.

    In train mode it normalizes with batch statistics and blends them into
    the running statistics in place:
    ``running = (1 - momentum) * running + momentum * batch``.
    Otherwise it normalizes with the running statistics and keeps no cache:
    the result goes to ``out``, a C-contiguous array of ``x``'s shape
    (``x`` itself allowed), or to a new one.
    """
    if x.ndim != 4 or x.shape[3] != gamma.shape[0]:
        raise ShapeError(f"batchnorm expects (N, H, W, C={gamma.shape[0]}), got {x.shape}")
    n, h, w, c = x.shape
    rows = (n * h, w * c)
    if not train:
        if out is None:  # C order even for a strided ``x``: written through its row view
            out = np.empty(x.shape, x.dtype)
        elif out.shape != x.shape or not out.flags.c_contiguous:
            raise ShapeError(f"batchnorm out must be C-contiguous {x.shape}, got {out.shape}")
        dst = out.reshape(rows)  # a view, so the writes land in ``out``
        np.subtract(x.reshape(rows), _row(running_mean.astype(x.dtype), w), out=dst)
        dst *= _row(1.0 / np.sqrt(running_var.astype(x.dtype) + eps), w)
        dst *= _row(gamma, w)
        dst += _row(beta, w)
        return out, None
    m = n * h * w
    # x.mean and x.var bit for bit: each sums the same values in the same
    # order and divides by the count
    mu = _channel_sum(x, c) / m
    d = x.reshape(rows) - _row(mu, w)
    var = _channel_sum(d * d, c) / m
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu
    running_var *= 1.0 - momentum
    running_var += momentum * var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = d  # normalized in place
    x_hat *= _row(inv_std, w)
    out = x_hat * _row(gamma, w)
    out += _row(beta, w)
    cache = {"x_hat": x_hat.reshape(x.shape), "gamma": gamma, "inv_std": inv_std}
    return out.reshape(x.shape), cache


def batchnorm_backward(grad_out: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients through a train-mode forward, the only mode that keeps caches."""
    x_hat = cache["x_hat"]
    gamma = cache["gamma"]
    inv_std = cache["inv_std"]
    n, h, w, c = x_hat.shape
    rows = (n * h, w * c)
    grad_beta = _channel_sum(grad_out, c)
    grad_gamma = _channel_sum(grad_out * x_hat, c)
    m = n * h * w
    grad_x = grad_out.reshape(rows) - _row(grad_beta / m, w)
    grad_x -= x_hat.reshape(rows) * _row(grad_gamma / m, w)
    grad_x *= _row(gamma * inv_std, w)
    return grad_x.reshape(x_hat.shape), grad_gamma, grad_beta


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``max(x, 0)``, written to ``out`` when given (``x`` itself allowed)."""
    return np.maximum(x, 0, out=out), x


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    return grad_out * (x > 0)


def avgpool_forward(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    if x.ndim != 4:
        raise ShapeError(f"avgpool input must be (N, H, W, C), got {x.shape}")
    n, h, w, c = x.shape
    oh, ow = pool_output_hw(h, w, window, stride)
    out = np.zeros((n, oh, ow, c), dtype=x.dtype)
    for dy in range(window):
        for dx in range(window):
            out += x[:, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride, :]
    out /= window * window
    return out


def avgpool_backward(
    grad_out: np.ndarray, x_shape: tuple, window: int, stride: int
) -> np.ndarray:
    n, h, w, c = x_shape
    oh, ow = grad_out.shape[1], grad_out.shape[2]
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    share = grad_out / (window * window)
    for dy in range(window):
        for dx in range(window):
            grad_x[:, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride, :] += share
    return grad_x


def dropout_forward(
    x: np.ndarray, rate: float, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout, masks from ``rng``, kept units scaled by 1/(1-rate).

    The identity when ``rng`` is ``None`` or the rate is 0."""
    if rng is None or rate == 0.0:
        return x, None
    keep = (rng.random(x.shape) >= rate).astype(x.dtype)
    return x * keep / (1.0 - rate), keep


def dropout_backward(grad_out: np.ndarray, keep: np.ndarray | None, rate: float) -> np.ndarray:
    if keep is None:
        return grad_out
    return grad_out * keep / (1.0 - rate)


def flatten_forward(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    return x.reshape(x.shape[0], -1), x.shape


def flatten_backward(grad_out: np.ndarray, x_shape: tuple) -> np.ndarray:
    return grad_out.reshape(x_shape)


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense expects (N, {w.shape[0]}), got {x.shape}")
    return x @ w + b


def dense_backward(
    x: np.ndarray, w: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return grad_out @ w.T, x.T @ grad_out, grad_out.sum(axis=0)


def softmax_forward(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    if x.ndim != 2:
        raise ShapeError(f"softmax input must be (N, classes), got {x.shape}")
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
