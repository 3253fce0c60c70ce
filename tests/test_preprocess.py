"""Resampling kernel, separable resize vs a 2-D oracle, standardization."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wxhier import preprocess
from wxhier.errors import DegenerateError, DimensionError, FormatError, ParseError, WxhierError
from wxhier.imageio import ImageU8
from wxhier.nn import one_hot_matrix
from wxhier.preprocess import (
    DEFAULT_WINDOW,
    NormalizationStats,
    compute_stats,
    lanczos_kernel,
    normalize,
    preprocess_pipeline,
    resize_lanczos,
    stats_from_json,
    stats_to_json,
    _resample,
)


# ------------------------------------------------------------------ kernel

def _kernel_oracle(x: float, a: int) -> float:
    """Windowed sinc straight from the defining formula, pure python floats."""
    if abs(x) >= a:
        return 0.0
    if x == 0.0:
        return 1.0
    pix = math.pi * x
    return (math.sin(pix) / pix) * (math.sin(pix / a) / (pix / a))


def test_kernel_spot_values():
    assert lanczos_kernel(0.0) == 1.0
    assert abs(lanczos_kernel(1.0)) < 1e-15
    assert abs(lanczos_kernel(2.0)) < 1e-15
    # closed forms for the default window of 3
    assert abs(lanczos_kernel(0.5) - 6.0 / math.pi**2) < 1e-12
    assert abs(lanczos_kernel(1.5) - (-4.0 / (3.0 * math.pi**2))) < 1e-12
    assert abs(lanczos_kernel(2.5) - 0.24 / math.pi**2) < 1e-12
    assert lanczos_kernel(3.0) == 0.0
    assert lanczos_kernel(-3.0) == 0.0


@given(st.floats(-4, 4), st.integers(1, 4))
@settings(max_examples=150)
def test_kernel_matches_formula_oracle(x, a):
    assert lanczos_kernel(x, a) == pytest.approx(_kernel_oracle(x, a), abs=1e-12)


@given(st.floats(0, 4))
def test_kernel_is_even(x):
    assert lanczos_kernel(x) == lanczos_kernel(-x)


def test_kernel_vectorized():
    xs = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    out = lanczos_kernel(xs)
    assert out.shape == xs.shape
    assert out[2] == 1.0
    assert out[1] == out[3]
    assert out[0] == out[4] == 0.0


def test_kernel_rejects_bad_window():
    with pytest.raises(DimensionError):
        lanczos_kernel(0.5, a=0)


# ------------------------------------------------------------------ resize

def _resize_oracle(img: np.ndarray, out_h: int, out_w: int, a: int) -> np.ndarray:
    """Nested-loop 2-D resample built directly on the kernel formula.

    Same geometry contract as the library: pixel-center alignment, taps
    clamped to the nearest edge, per-output renormalization, clip to the
    byte range.
    """
    h, w, c = img.shape
    out = np.zeros((out_h, out_w, c), dtype=np.float64)
    for oy in range(out_h):
        sy = (oy + 0.5) * (h / out_h) - 0.5
        ylo = math.floor(sy) - a + 1
        for ox in range(out_w):
            sx = (ox + 0.5) * (w / out_w) - 0.5
            xlo = math.floor(sx) - a + 1
            total = 0.0
            acc = np.zeros(c)
            for ty in range(ylo, ylo + 2 * a):
                wy = _kernel_oracle(sy - ty, a)
                cy = min(max(ty, 0), h - 1)
                for tx in range(xlo, xlo + 2 * a):
                    wx = _kernel_oracle(sx - tx, a)
                    cx = min(max(tx, 0), w - 1)
                    total += wy * wx
                    acc += wy * wx * img[cy, cx]
            out[oy, ox] = acc / total
    return np.clip(out, 0.0, 255.0)


def _resample_matrix(n_src: int, n_dst: int, a: int) -> np.ndarray:
    """(n_dst, n_src) weight matrix of one pass: the pass applied to the identity."""
    return _resample(np.eye(n_src), n_dst, a)


def test_identity_resize_reproduces_input():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 255, size=(9, 7, 3)).astype(np.float32)
    out = resize_lanczos(img, 9, 7)
    np.testing.assert_allclose(out, img, atol=1e-6)


def test_same_size_resample_matrix_is_identity():
    for n in (1, 2, 5, 16):
        m = _resample_matrix(n, n, DEFAULT_WINDOW)
        np.testing.assert_allclose(m, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("shape,target", [((12, 8), (5, 5)), ((4, 6), (9, 3)), ((1, 7), (3, 2))])
def test_constant_image_stays_constant(shape, target):
    img = np.full(shape + (3,), 137.25, dtype=np.float64)
    out = resize_lanczos(img, *target)
    np.testing.assert_allclose(out, 137.25, atol=1e-4)


def test_separable_matches_2d_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        h, w = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        oh, ow = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        if (h, w) == (oh, ow):
            oh += 1
        img = rng.uniform(0, 255, size=(h, w, 3))
        fast = resize_lanczos(img, oh, ow)
        slow = _resize_oracle(img, oh, ow, DEFAULT_WINDOW)
        np.testing.assert_allclose(fast, slow, atol=1e-5)


def test_output_clamped_to_byte_range():
    # hard step edge makes the windowed sinc overshoot on both sides
    img = np.zeros((1, 20, 1), dtype=np.float64)
    img[:, 10:] = 255.0
    out = resize_lanczos(img, 1, 13)
    assert float(out.min()) >= 0.0
    assert float(out.max()) <= 255.0


def test_resize_output_dtype_and_shape():
    out = resize_lanczos(np.zeros((4, 4, 3)), 2, 6)
    assert out.shape == (2, 6, 3)
    assert out.dtype == np.float32


def test_each_size_pair_plans_its_pass_once(monkeypatch):
    calls = []

    def counting(x, a):
        calls.append(a)
        return lanczos_kernel(x, a)

    monkeypatch.setattr(preprocess, "lanczos_kernel", counting)
    preprocess._resample_plan.cache_clear()
    img = np.random.default_rng(3).integers(0, 256, size=(37, 53, 3), dtype=np.uint8)
    first = resize_lanczos(img, 20, 30)
    assert len(calls) == 2  # one plan per pass: 53 -> 30 wide, 37 -> 20 high
    for _ in range(3):
        assert resize_lanczos(img, 20, 30).tobytes() == first.tobytes()
    assert len(calls) == 2
    resize_lanczos(img[:36], 20, 30)  # a new height pair, the same width pair
    assert len(calls) == 3
    taps, weights = preprocess._resample_plan(37, 20, DEFAULT_WINDOW)
    for plan_array in (taps, weights):
        with pytest.raises(ValueError):
            plan_array[0, 0] = 0


def test_resize_rejects_bad_args():
    with pytest.raises(DimensionError):
        resize_lanczos(np.zeros((4, 4, 3)), 0, 4)
    with pytest.raises(DimensionError):
        resize_lanczos(np.zeros((4, 4)), 2, 2)
    for empty in ((0, 5, 3), (5, 0, 3)):
        with pytest.raises(DimensionError):
            resize_lanczos(np.zeros(empty), 4, 4)


# --------------------------------------------- bit parity with the reference

def _loop_resample_matrix(n_src: int, n_dst: int, a: int) -> np.ndarray:
    """Weight matrix built one output pixel at a time, as the dense reference did."""
    scale = n_src / n_dst
    weights = np.zeros((n_dst, n_src), dtype=np.float64)
    for dst in range(n_dst):
        src = (dst + 0.5) * scale - 0.5
        lo = math.floor(src) - a + 1
        taps = np.arange(lo, lo + 2 * a)
        w = lanczos_kernel(src - taps, a)
        idx = np.clip(taps, 0, n_src - 1)
        np.add.at(weights[dst], idx, w / w.sum())
    return weights


def _einsum_resize(img: np.ndarray, out_h: int, out_w: int, a: int = DEFAULT_WINDOW):
    """Dense reference resize: each pass contracts the full weight matrix."""
    h, w = img.shape[0], img.shape[1]
    data = img.astype(np.float64)
    if w != out_w:
        data = np.einsum("ow,hwc->hoc", _loop_resample_matrix(w, out_w, a), data)
    if h != out_h:
        data = np.einsum("oh,hwc->owc", _loop_resample_matrix(h, out_h, a), data)
    return np.clip(data, 0.0, 255.0).astype(np.float32)


def test_resample_weights_match_loop_reference_bit_for_bit():
    for n_src in (1, 2, 3, 5, 8, 17, 32, 64, 100, 101, 150, 333):
        for n_dst in (1, 2, 7, 32, 100, 101, 224):
            for a in (1, 2, 3, 4):
                assert np.array_equal(
                    _resample_matrix(n_src, n_dst, a), _loop_resample_matrix(n_src, n_dst, a)
                ), (n_src, n_dst, a)


def test_each_pass_matches_dense_reference_in_float64():
    """Both passes equal the reference's float64 contraction exactly, not only
    after rounding to float32, so no output can flip its last bit."""
    rng = np.random.default_rng(7)
    for h, w, c in ((64, 120, 3), (150, 200, 3), (1, 50, 3), (50, 1, 4), (37, 53, 2)):
        img = rng.integers(0, 256, size=(h, w, c)).astype(np.float64)
        for n in (1, 32, 100, 2 * w + 1):
            for a in (2, 3):
                ref = np.einsum("ow,hwc->hoc", _loop_resample_matrix(w, n, a), img)
                got = _resample(img.transpose(1, 0, 2).reshape(w, h * c), n, a)
                assert np.array_equal(got, ref.transpose(1, 0, 2).reshape(n, h * c))
                ref2 = np.einsum("oh,hwc->owc", _loop_resample_matrix(h, n, a), ref)
                assert np.array_equal(_resample(ref.reshape(h, n * c), n, a), ref2.reshape(n, -1))


def test_resize_matches_dense_reference_bit_for_bit():
    """The training and serving inputs are pinned to the bit, not to a tolerance.

    Single-channel inputs are left out: for them the reference's einsum sums
    the horizontal pass in a vectorized order of its own, not column order.
    """
    rng = np.random.default_rng(2024)

    def pixels(h, w, c=3):
        return rng.integers(0, 256, size=(h, w, c)).astype(np.float32)

    serve = [pixels(h, w) for h, w in ((64, 64), (64, 120), (128, 128), (150, 200), (200, 200))]
    cases = [(img, 100, 100) for img in serve]
    cases += [
        (pixels(64, 64), 32, 32),
        (pixels(1, 50), 100, 100),
        (pixels(50, 1), 100, 100),
        (pixels(1, 1), 3, 5),
        (pixels(90, 120).transpose(1, 0, 2), 100, 100),
        (pixels(200, 150)[::2, ::3], 100, 100),
        (pixels(40, 60, 4), 100, 100),
        (pixels(40, 60, 2), 17, 23),
        (rng.uniform(0, 255, size=(37, 53, 3)), 100, 64),
    ]
    for img, oh, ow in cases:
        out = resize_lanczos(img, oh, ow)
        assert out.dtype == np.float32
        assert np.array_equal(out, _einsum_resize(img, oh, ow)), (img.shape, oh, ow)


# ---------------------------------------------------------- standardization

@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 6), st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(0, 255),
    )
)
@settings(max_examples=60)
def test_compute_stats_matches_numpy_oracle(batch):
    flat = batch.reshape(-1)
    assume(np.ptp(flat) > 1e-6)  # near-constant input is covered separately
    s = compute_stats(batch)
    assert s.mean == pytest.approx(float(flat.mean()), rel=1e-12, abs=1e-12)
    assert s.std == pytest.approx(float(flat.std()), rel=1e-9, abs=1e-12)
    assert s.sample_count == flat.size


def test_streaming_equals_one_shot():
    rng = np.random.default_rng(3)
    images = [rng.uniform(0, 255, size=(5, 4, 3)) for _ in range(7)]
    s_stream = compute_stats(iter(images))
    s_oneshot = compute_stats([np.concatenate([im.reshape(-1) for im in images])])
    assert s_stream.mean == pytest.approx(s_oneshot.mean, rel=1e-12)
    assert s_stream.std == pytest.approx(s_oneshot.std, rel=1e-12)


def test_normalize_centers_and_scales():
    rng = np.random.default_rng(11)
    batch = rng.uniform(0, 255, size=(20, 8, 8, 3))
    z = normalize(batch, compute_stats(batch))
    assert z.dtype == np.float32
    assert abs(float(z.mean())) < 1e-4
    assert abs(float(z.std()) - 1.0) < 1e-4


def _two_temporaries_normalize(x, s):
    return ((np.asarray(x, dtype=np.float32) - np.float32(s.mean)) / np.float32(s.std)).astype(
        np.float32
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
def test_normalize_is_bit_identical_to_the_formula_and_keeps_its_input(dtype):
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 255, size=(6, 5, 7, 3)).astype(dtype)
    if dtype != np.uint8:
        x[0, 0, 0] = -0.0
    s = NormalizationStats(mean=float(x[1, 1, 1, 0]), std=61.3, sample_count=x.size)
    before = x.copy()
    z = normalize(x, s)
    want = _two_temporaries_normalize(x, s)
    assert z.dtype == np.float32 and z.shape == x.shape
    assert z.tobytes() == want.tobytes()
    assert x.dtype == before.dtype and x.tobytes() == before.tobytes()
    assert not np.shares_memory(z, x)


def test_stats_validation():
    with pytest.raises(DegenerateError):
        NormalizationStats(mean=0.0, std=0.0, sample_count=10)
    with pytest.raises(DegenerateError):
        NormalizationStats(mean=0.0, std=1.0, sample_count=1)
    for mean, std in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(DegenerateError):
            NormalizationStats(mean=mean, std=std, sample_count=10)
    # finite moments that standardize 0 or 255 to +-inf (or divide by a
    # float32 zero) in float32
    for mean, std in ((1e300, 1.0), (-3.5e38, 1.0), (1.0, 1e-300), (1.0, 1e-37)):
        with pytest.raises(DegenerateError, match="past float32"):
            NormalizationStats(mean=mean, std=std, sample_count=10)
    with pytest.raises(DegenerateError):
        compute_stats([np.full((4, 4, 3), 9.0)])  # zero variance
    with pytest.raises(DegenerateError):
        compute_stats([np.ones(1)])  # single scalar


# ----------------------------------------------------------------- one-hot

@given(st.integers(1, 32))
def test_one_hot_basis_property(n):
    np.testing.assert_array_equal(one_hot_matrix(np.arange(n), n), np.eye(n, dtype=np.float32))


# ------------------------------------------------------------ persistence

def test_stats_json_round_trip_exact():
    s = NormalizationStats(mean=127.4378912345, std=63.9182736455, sample_count=120000)
    again = stats_from_json(stats_to_json(s).encode("utf-8"))
    assert again == s  # float repr round-trips exactly


def test_stats_file_round_trip(tmp_path):
    s = NormalizationStats(mean=1.5, std=2.25, sample_count=99)
    (tmp_path / "s.json").write_text(stats_to_json(s), encoding="utf-8")
    assert stats_from_json((tmp_path / "s.json").read_bytes()) == s


def test_stats_json_rejects_garbage():
    with pytest.raises(FormatError):
        stats_from_json(b"{not json")
    with pytest.raises(FormatError):
        stats_from_json(b'{"mean": 1.0}')


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param(b'{"mean": NaN, "std": 1.0, "sample_count": 2}', id="nan-mean"),
        pytest.param(b'{"mean": -Infinity, "std": 1.0, "sample_count": 2}', id="inf-mean"),
        pytest.param(b'{"mean": 1e999, "std": 1.0, "sample_count": 2}', id="overflow-mean"),
        pytest.param(b'{"mean": 1.0, "std": Infinity, "sample_count": 2}', id="inf-std"),
        pytest.param(b'{"mean": 1.0, "std": NaN, "sample_count": 2}', id="nan-std"),
        pytest.param(b'{"mean": 1.0, "std": 0, "sample_count": 2}', id="zero-std"),
        pytest.param(b'{"mean": 1.0, "std": -1.0, "sample_count": 2}', id="negative-std"),
        pytest.param(b'{"mean": 1.0, "std": 1.0, "sample_count": 1}', id="one-sample"),
        pytest.param(b'{"mean": 1e300, "std": 1.0, "sample_count": 10}', id="mean-beyond-float32"),
        pytest.param(b'{"mean": 1.0, "std": 1e-300, "sample_count": 10}', id="std-below-float32"),
        pytest.param(b'{"mean": 1.0, "std": 1e-37, "sample_count": 10}', id="std-too-small"),
        pytest.param(b'{"mean": 1.0, "std": 1.0, "sample_count": Infinity}', id="inf-count"),
        pytest.param(b'{"mean": "x", "std": 1.0, "sample_count": 2}', id="string-mean"),
        # JSON numbers, and an integer count, are required: nothing is coerced
        pytest.param(b'{"mean": "127.5", "std": 1.0, "sample_count": 2}', id="numeric-string-mean"),
        pytest.param(b'{"mean": true, "std": 1.0, "sample_count": 2}', id="bool-mean"),
        pytest.param(b'{"mean": 1.0, "std": true, "sample_count": 2}', id="bool-std"),
        pytest.param(b'{"mean": 1.0, "std": 1.0, "sample_count": 2.9}', id="fractional-count"),
        pytest.param(b'{"mean": 1.0, "std": 1.0, "sample_count": 2.0}', id="float-count"),
        pytest.param(b'{"mean": 1.0, "std": 1.0, "sample_count": "2"}', id="string-count"),
        pytest.param(b'{"mean": true, "std": 2, "sample_count": 2.9}', id="all-coercible"),
        pytest.param(b"[1, 2, 3]", id="not-an-object"),
        pytest.param(b'\xff\xfe{"mean"', id="bad-utf"),
        pytest.param(b'{"mean": \xff}', id="bad-utf-value"),
        pytest.param(b"[" * 100_000, id="deep-nesting"),
    ],
)
def test_stats_json_rejects_bad_values_as_format_error(doc):
    with pytest.raises(FormatError):
        stats_from_json(doc)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@given(
    st.binary(max_size=48)
    | json_values.map(lambda v: json.dumps(v).encode())
    | st.fixed_dictionaries(
        {"mean": json_values, "std": json_values, "sample_count": json_values}
    ).map(lambda doc: json.dumps(doc).encode())
)
@settings(max_examples=120, deadline=500)
def test_fuzzed_stats_bytes_raise_only_package_errors(raw):
    try:
        stats_from_json(raw)
    except WxhierError:
        pass


# -------------------------------------------------------------- pipeline

def test_pipeline_shape_and_channel_order():
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, size=(10, 12, 3), dtype=np.uint8)
    s = NormalizationStats(mean=120.0, std=60.0, sample_count=1000)
    rgb = preprocess_pipeline(ImageU8(pixels), "RGB", s, out_hw=(6, 6))
    bgr = preprocess_pipeline(ImageU8(pixels[:, :, ::-1].copy()), "BGR", s, out_hw=(6, 6))
    assert rgb.shape == (6, 6, 3)
    assert rgb.dtype == np.float32
    np.testing.assert_array_equal(rgb, bgr)
    with pytest.raises(ParseError, match="unknown channel order 'GBR'"):
        preprocess_pipeline(ImageU8(pixels), "GBR", s, out_hw=(6, 6))
