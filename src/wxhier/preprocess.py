"""Image preprocessing: Lanczos resize and train-set standardization.

The resampler is separable (horizontal pass then vertical pass) with
pixel-center alignment, clamp-to-edge sampling and per-output-pixel weight
renormalization, so constant images stay exactly constant and a same-size
resize is the identity.  Inputs come in a few recurring sizes, so the taps
and weights of each (source size, target size) pair are planned once and
kept read-only in a bounded cache; a pass only gathers and adds each output
pixel's taps in source order.  Standardization subtracts the training-set
mean and divides by its standard deviation; the two scalars are persisted
as one UTF-8 JSON object (``stats_to_json`` and ``stats_from_json``, the
only stats codec) so inference uses the exact training statistics.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DegenerateError, DimensionError, FormatError, ValidationError, WxhierError
from .errors import json_object
from .imageio import ImageU8, bgr_to_rgb, check_channel_order

DEFAULT_WINDOW = 3


def lanczos_kernel(x, a: int = DEFAULT_WINDOW):
    """Windowed-sinc kernel: sinc(x) * sinc(x/a) for |x| < a, else 0.

    Even in x, 1 at the origin, 0 at every other integer.  Accepts scalars
    or arrays.
    """
    if a < 1:
        raise DimensionError(f"window size must be >= 1, got {a}")
    x = np.asarray(x, dtype=np.float64)
    out = np.where(np.abs(x) < a, np.sinc(x) * np.sinc(x / a), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


# Resample plans kept, one per (source size, target size, window); a plan
# of n_dst output rows holds 2 * a * n_dst taps and as many weights. Five
# recurring source sizes, as in serving, need at most ten.
RESAMPLE_PLANS = 64


@functools.lru_cache(maxsize=RESAMPLE_PLANS)
def _resample_plan(n_src: int, n_dst: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(taps, weights)``, both ``(n_dst, 2a)``, of one pass.

    Row i lists the edge-clamped source rows of output row i in source order
    and their renormalized kernel weights. Taps clamped onto one edge row
    pool their weight into the last of them; the others weigh 0.
    """
    src = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
    taps = np.floor(src).astype(np.int64)[:, None] + np.arange(1 - a, a + 1)
    w = lanczos_kernel(src[:, None] - taps, a)
    w /= w.sum(axis=1, keepdims=True)
    taps = np.clip(taps, 0, n_src - 1)
    for k in range(1, 2 * a):
        edge = taps[:, k] == taps[:, k - 1]
        w[edge, k] += w[edge, k - 1]
        w[edge, k - 1] = 0.0
    taps.flags.writeable = False
    w.flags.writeable = False
    return taps, w


def _resample(x: np.ndarray, n_dst: int, a: int) -> np.ndarray:
    """One separable pass: resample the n_src rows of float64 x to n_dst rows.

    Each output row adds its 2a planned taps in source order, never fused or
    regrouped as in a BLAS product, so its bits match on every machine.
    """
    taps, w = _resample_plan(len(x), n_dst, a)
    out = x[taps[:, 0]] * w[:, :1]
    term = np.empty_like(out)  # one product buffer per pass
    for k in range(1, 2 * a):  # taps are in range: "clip" only skips a buffered check
        np.take(x, taps[:, k], axis=0, out=term, mode="clip")
        term *= w[:, k : k + 1]
        out += term
    return out


def resize_lanczos(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize an (H, W, C) array of bytes or floats to float32 (out_h, out_w, C).

    Reads the samples as float64 (exact for bytes and float32) and operates
    on raw-sample-scale values: the output is clamped to [0, 255].
    """
    if out_h < 1 or out_w < 1:
        raise DimensionError(f"target size must be positive, got {out_h}x{out_w}")
    img = np.asarray(img)
    if img.ndim != 3 or 0 in img.shape[:2]:
        raise DimensionError(f"expected (H, W, C) tensor with H, W >= 1, got shape {img.shape}")
    h, w, c = img.shape
    data = img.astype(np.float64)
    if w != out_w:
        data = _resample(data.transpose(1, 0, 2).reshape(w, h * c), out_w, DEFAULT_WINDOW)
        data = data.reshape(out_w, h, c).transpose(1, 0, 2)
    if h != out_h:
        data = _resample(data.reshape(h, out_w * c), out_h, DEFAULT_WINDOW).reshape(out_h, out_w, c)
    return np.clip(data, 0.0, 255.0).astype(np.float32)


@dataclass(frozen=True)
class NormalizationStats:
    """Global scalar mean/std of the training samples, plus how many went in."""

    mean: float
    std: float
    sample_count: int

    def __post_init__(self):
        # exact floats: the reader reads JSON ints as floats, so one above 2**53 reads back changed
        if (type(self.mean), type(self.std), type(self.sample_count)) != (float, float, int):
            raise ValidationError(f"need float mean and std and an int count, got {self!r}")
        if not (math.isfinite(self.mean) and math.isfinite(self.std) and self.std > 0):
            raise DegenerateError(f"need finite mean, positive std; got {self.mean}, {self.std}")
        if self.sample_count < 2:
            raise DegenerateError(f"need at least 2 samples, got {self.sample_count}")


def compute_stats(train_images: Iterable[np.ndarray]) -> NormalizationStats:
    """Mean and population standard deviation over every scalar sample.

    Uses a streaming per-image merge (Chan's update) in the given image
    order, so the result is deterministic and does not require holding the
    whole training set at once.
    """
    count = 0
    mean = 0.0
    m2 = 0.0  # sum of squared deviations from the running mean
    for img in train_images:
        arr = np.asarray(img, dtype=np.float64)
        n = arr.size
        if n == 0:
            continue
        b_mean = float(arr.mean())
        b_m2 = float(((arr - b_mean) ** 2).sum())
        delta = b_mean - mean
        total = count + n
        mean += delta * n / total
        m2 += b_m2 + delta * delta * count * n / total
        count = total
    if count < 2:
        raise DegenerateError(f"need at least 2 scalar samples, got {count}")
    var = m2 / count
    std = math.sqrt(var)
    if std == 0.0:
        raise DegenerateError("training samples have zero variance")
    return NormalizationStats(mean=mean, std=std, sample_count=count)


def normalize(x: np.ndarray, s: NormalizationStats) -> np.ndarray:
    """Elementwise (x - mean) / std in float32, shape preserved, as a new array."""
    out = np.array(x, dtype=np.float32)
    out -= np.float32(s.mean)
    out /= np.float32(s.std)
    return out


def model_input(img: ImageU8, channel_order: str, out_hw: tuple[int, int]) -> np.ndarray:
    """One decoded image as a model input, before standardization.

    RGB order, float32 on the 0..255 scale, Lanczos-resized to ``out_hw``.
    """
    check_channel_order(channel_order)
    if channel_order == "BGR":
        img = bgr_to_rgb(img)
    return resize_lanczos(img.pixels, out_hw[0], out_hw[1])


def preprocess_pipeline(
    img: ImageU8, channel_order: str, s: NormalizationStats, out_hw: tuple[int, int]
) -> np.ndarray:
    """Full inference-side pipeline: ``model_input``, then standardize."""
    return normalize(model_input(img, channel_order, out_hw), s)


def stats_to_dict(s: NormalizationStats) -> dict:
    """JSON object of the stats, as stored in ``stats.json`` and model headers."""
    return {"mean": s.mean, "std": s.std, "sample_count": s.sample_count}


def stats_from_dict(doc) -> NormalizationStats:
    """Inverse of ``stats_to_dict`` (integer moments read as floats); faults are ``FormatError``."""
    try:
        mean, std = (float(v) if type(v) is int else v for v in (doc["mean"], doc["std"]))
        return NormalizationStats(mean, std, doc["sample_count"])
    except (KeyError, TypeError, OverflowError, WxhierError) as exc:
        raise FormatError(f"bad normalization stats: {exc}") from None


def stats_to_json(s: NormalizationStats) -> str:
    """The ``stats.json`` document, newline-terminated.

    repr-style floats round-trip exactly (always >= 9 significant digits
    of precision preserved).
    """
    return json.dumps(stats_to_dict(s), indent=2) + "\n"


def stats_from_json(data: bytes) -> NormalizationStats:
    return stats_from_dict(json_object(data, "stats document", FormatError))
