"""Forward and backward kernels for every layer type, NHWC layout.

All kernels preserve the input dtype, so the same code runs in float32
(the training default) and in float64 (used by gradient verification).
``conv2d_forward`` gathers patches into a matrix product (the im2col
lowering of Chellapilla et al. 2006); the tests check it against a plain
nested-loop convolution.

The conv backward is split the way cuDNN splits BackwardFilter and
BackwardData (Chetlur et al. 2014, arXiv:1410.0759):
``conv2d_backward`` returns the kernel and bias gradients and
``conv2d_backward_input`` the input gradient, so the first layer of a
model, whose input gradient no one reads, never builds it.
``conv2d_forward`` and ``conv2d_backward`` take the ``im2col`` matrix as
``cols``, so a training step builds each conv layer's columns once;
without it they build their own. ``conv2d_forward`` is one loop over
blocks of whole images. A training step's columns are one block, never
split; at inference the loop gathers the columns of one block at a time,
so only one block of them is ever alive. The patch gather and the input
gradient's tap copies move runs of adjacent floats as single ``np.void``
items, which changes no value.

``conv2d_forward``, ``avgpool_forward``, ``relu_forward`` and
``batchnorm_forward`` (at inference) take an ``out`` array: a C-contiguous
array of the result's exact shape and dtype (else ``ShapeError``), which
for batchnorm and ReLU may be their input. A kernel never writes an array
it was not given as ``out``; ``forward_pass`` passes a layer's input as
``out`` only when it made that activation itself, never the caller's array
or a view of it, and gives conv and pool the buffers of a ``Workspace``.
Batchnorm at inference and avgpool run over tiles of about ``TILE_BYTES``
of input (rows of the ``(N*H, W*C)`` view, whole images), so each pass
over a tile finds it in cache; every element gets the same operations in
the same order, so tiling changes no bit.

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
avgpool divide) run in place on the output the kernel has just written,
which saves an allocation per step without changing any sum. Pooling and
dropout build no scratch array: the avgpool sum starts as ``0.0 + first
tap``, disjoint pooling windows write each gradient share once, and
dropout multiplies by its boolean mask, each with the bits of the
zero-filled or float-mask form. Retrained parameters are therefore
bit-identical to those of the plain broadcasting kernels.

Inference parts from those kernels in two places. Batchnorm applies its
running statistics as one per-channel scale and shift, which rounds
differently from the textbook subtract, divide, scale and shift; on
trained micro-preset models it moved float32 probabilities by at most
1.2e-6 and no argmax label. The inference conv may split the rows
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


def _check_conv_args(
    x_shape: tuple, kernels: np.ndarray, stride: int, pad: int, grad_out: np.ndarray | None = None
) -> tuple[int, int, int, int, int, int, int, int]:
    """The conv kernels' one shape rule: ``(n, h, w, c, k, f, oh, ow)``, checked."""
    if len(x_shape) != 4:
        raise ShapeError(f"conv input must be (N, H, W, C), got {tuple(x_shape)}")
    if kernels.ndim != 4 or kernels.shape[0] != kernels.shape[1]:
        raise ShapeError(f"kernels must be (k, k, C_in, filters), got {kernels.shape}")
    if x_shape[3] != kernels.shape[2]:
        raise ShapeError(f"channel mismatch: input {x_shape[3]}, kernels {kernels.shape[2]}")
    if stride < 1 or pad < 0:
        raise ShapeError(f"bad stride/pad {stride}/{pad}")
    n, h, w, c = x_shape
    k, f = kernels.shape[0], kernels.shape[3]
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    if grad_out is not None and grad_out.shape != (n, oh, ow, f):
        raise ShapeError(f"grad_out shape {grad_out.shape} != {(n, oh, ow, f)}")
    return n, h, w, c, k, f, oh, ow


def im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Conv patches as the GEMM operand ``(N*H'*W', k*k*C)``.

    Rows run over ``(n, y, x)`` and columns over ``(ky, kx, c)``. The input
    is copied into the interior of one zeroed array, its ``pad``-wide zero
    border included (``np.pad``'s general path costs 3-10x as much on a
    one-image input). Patch row ``ky`` is one run of ``k*C`` adjacent floats
    in that array, so the gather copies it as one ``np.void`` item through a
    read-only strided view. Being copies, the columns hold the input's
    bytes, signed zeros included.
    """
    n, h, w, c = x.shape
    oh, ow = conv_output_hw(h, w, k, stride, pad)
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x
    sn, sh, sw, sc = xp.strides
    runs = as_strided(
        xp, (n, oh, ow, k, k * c), (sn, stride * sh, stride * sw, sh, sc), writeable=False
    )
    items = np.ascontiguousarray(runs.view(np.dtype((np.void, k * c * xp.itemsize))))
    return items.view(x.dtype).reshape(n * oh * ow, k * k * c)


def _out_array(out: np.ndarray | None, shape: tuple, dtype, what: str) -> np.ndarray:
    """``out`` if it is a C-contiguous ``shape`` array of ``dtype``, a new one if ``None``."""
    if out is None:
        return np.empty(shape, dtype)
    if out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ShapeError(
            f"{what} out must be C-contiguous {shape} {np.dtype(dtype)}, got {out.shape} {out.dtype}"
        )
    return out


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

# Bytes of input per tile of inference batchnorm and of avgpool, so that a
# tile's later passes (the shift, each later tap) read it from cache. On a
# 2-vCPU Xeon with a 2 MB L2, at the paper preset's first layer (64 rows,
# into reused buffers), 1 MB tiles took batchnorm from 24.9 to 21.5 ms and
# pooling from 37.2 to 27.6 ms; 256 KB tiles timed about alike.
TILE_BYTES = 1 << 20


def conv2d_forward(
    x: np.ndarray,
    kernels: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    *,
    cols: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-correlation with zero padding; x (N,H,W,C), kernels (k,k,C,F).

    One loop multiplies each block of whole images' columns into its rows
    of the output, ``out`` when given. With ``cols`` (a training step's
    ``im2col(x, ...)``) the batch is one block, never split. Without, each
    block gathers at most ``CONV_BLOCK_BYTES`` of columns, so only one
    block of them is alive.
    """
    n, h, w, c, k, f, oh, ow = _check_conv_args(x.shape, kernels, stride, pad)
    kmat = kernels.reshape(k * k * c, f)
    bias_row = _row(bias, ow)
    out = _out_array(out, (n, oh, ow, f), np.result_type(x, kernels), "conv")
    step = max(1, CONV_BLOCK_BYTES // (oh * ow * k * k * c * x.itemsize))
    if cols is not None:  # the whole batch is one block
        step = max(1, n)
    for i in range(0, n, step):  # each block's columns die with its product
        block = out[i : i + step]
        np.matmul(_columns(x[i : i + step], k, stride, pad, cols), kmat, out=block.reshape(-1, f))
        block = block.reshape(-1, ow * f)
        block += bias_row
    return out


def conv2d_backward(
    x: np.ndarray,
    kernels: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    pad: int = 0,
    *,
    cols: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients w.r.t. kernels and bias (the filter half of the backward).

    The input gradient is ``conv2d_backward_input``'s, so a caller that has
    no use for it (the first layer of a model) never builds it.
    """
    n, h, w, c, k, f, oh, ow = _check_conv_args(x.shape, kernels, stride, pad, grad_out)
    g = grad_out.reshape(n * oh * ow, f)
    grad_bias = _channel_sum(g, f)

    cols = _columns(x, k, stride, pad, cols)
    grad_kernels = (cols.T @ g).reshape(k, k, c, f)
    return grad_kernels, grad_bias


def conv2d_backward_input(
    grad_out: np.ndarray,
    kernels: np.ndarray,
    x_shape: tuple[int, ...],
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Gradient w.r.t. the input of shape ``x_shape`` (the data half)."""
    n, h, w, c, k, f, oh, ow = _check_conv_args(x_shape, kernels, stride, pad, grad_out)

    # One product for all taps: a product per tap rounds differently in some
    # BLAS tail kernels. Copying each tap out contiguously, one void item of
    # ``c`` floats per pixel, lets the scatter add whole rows of ``ow * c``
    # floats (stride 1) instead of ``c`` at a time.
    g = grad_out.reshape(n * oh * ow, f)
    dcols = g @ kernels.reshape(k * k * c, f).T
    taps = dcols.view(np.dtype((np.void, c * dcols.itemsize))).reshape(n, oh, ow, k, k, 1)
    dxp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=dcols.dtype)
    for ky in range(k):
        for kx in range(k):
            tap = np.ascontiguousarray(taps[:, :, :, ky, kx]).view(dcols.dtype)  # (n, oh, ow, c)
            dxp[:, ky : ky + stride * oh : stride, kx : kx + stride * ow : stride, :] += tap
    return dxp[:, pad : pad + h, pad : pad + w, :] if pad else dxp


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
    Otherwise the running statistics make it a fixed per-channel affine map
    (Ioffe & Szegedy 2015, §3.1), applied in two passes as
    ``x * scale + shift`` with ``scale = gamma * (1 / sqrt(var + eps))`` and
    ``shift = beta - mean * scale``, both in ``x.dtype``, one tile of rows
    at a time; it keeps no cache. The result goes to ``out``, a C-contiguous
    array of ``x``'s shape and dtype (``x`` itself allowed), or to a new one.
    """
    if x.ndim != 4 or x.shape[3] != gamma.shape[0]:
        raise ShapeError(f"batchnorm expects (N, H, W, C={gamma.shape[0]}), got {x.shape}")
    n, h, w, c = x.shape
    rows = (n * h, w * c)
    if not train:
        # C order even for a strided ``x``: written through its row view
        out = _out_array(out, x.shape, x.dtype, "batchnorm")
        scale = gamma * (1.0 / np.sqrt(running_var.astype(x.dtype) + eps))
        shift = beta - running_mean.astype(x.dtype) * scale
        scale_row, shift_row = _row(scale, w), _row(shift, w)
        src, dst = x.reshape(rows), out.reshape(rows)  # views, so the writes land in ``out``
        step = max(1, TILE_BYTES // (w * c * x.itemsize))
        for i in range(0, n * h, step):
            tile = dst[i : i + step]
            np.multiply(src[i : i + step], scale_row, out=tile)
            tile += shift_row
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


def avgpool_forward(
    x: np.ndarray, window: int, stride: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Mean of each window: the taps summed in row-major order, then divided.

    The sum starts as ``0.0 + first tap`` in ``out`` or a new C-ordered
    array, the bits of a zero-filled accumulator (``-0.0`` becomes
    ``+0.0``) without its fill pass. It runs over tiles of whole images of
    about ``TILE_BYTES`` of input.
    """
    if x.ndim != 4:
        raise ShapeError(f"avgpool input must be (N, H, W, C), got {x.shape}")
    n, h, w, c = x.shape
    oh, ow = pool_output_hw(h, w, window, stride)
    out = _out_array(out, (n, oh, ow, c), np.result_type(x, 0.0), "avgpool")
    step = max(1, TILE_BYTES // (h * w * c * x.itemsize))
    for i in range(0, n, step):
        tile = out[i : i + step]
        taps = [
            x[i : i + step, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride, :]
            for dy in range(window)
            for dx in range(window)
        ]
        np.add(taps[0], 0.0, out=tile)
        for tap in taps[1:]:
            tile += tap
        tile /= window * window
    return out


def avgpool_backward(
    grad_out: np.ndarray, x_shape: tuple, window: int, stride: int
) -> np.ndarray:
    """Each output's gradient shared equally over its window's inputs.

    Overlapping windows (``window > stride``) add their shares into a
    zero-filled array. Disjoint ones give each input at most one share,
    ``0.0 + share``, so the shares are normalized once (``-0.0`` becomes
    ``+0.0``), written once each, and only the inputs no window covers are
    zeroed: the same bits without the fill and the read-modify-write.
    """
    n, h, w, c = x_shape
    oh, ow = grad_out.shape[1], grad_out.shape[2]
    share = grad_out / (window * window)
    taps = [
        (slice(dy, dy + stride * oh, stride), slice(dx, dx + stride * ow, stride))
        for dy in range(window)
        for dx in range(window)
    ]
    if window > stride:
        grad_x = np.zeros(x_shape, dtype=share.dtype)
        for ys, xs in taps:
            grad_x[:, ys, xs, :] += share
        return grad_x
    share += 0.0
    grad_x = np.empty(x_shape, dtype=share.dtype)
    for ys, xs in taps:
        grad_x[:, ys, xs, :] = share
    for gap in range(window, stride):  # rows and columns between windows
        grad_x[:, gap::stride] = 0.0
        grad_x[:, :, gap::stride] = 0.0
    grad_x[:, stride * (oh - 1) + window :] = 0.0  # the ragged edge
    grad_x[:, :, stride * (ow - 1) + window :] = 0.0
    return grad_x


def dropout_forward(
    x: np.ndarray, rate: float, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout, masks from ``rng``, kept units scaled by 1/(1-rate).

    The identity when ``rng`` is ``None`` or the rate is 0."""
    if rng is None or rate == 0.0:
        return x, None
    keep = rng.random(x.shape) >= rate
    out = x * keep
    out /= 1.0 - rate
    return out, keep


def dropout_backward(grad_out: np.ndarray, keep: np.ndarray | None, rate: float) -> np.ndarray:
    """``grad_out`` through the boolean ``keep`` mask of the forward."""
    if keep is None:
        return grad_out
    grad = grad_out * keep
    grad /= 1.0 - rate
    return grad


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
