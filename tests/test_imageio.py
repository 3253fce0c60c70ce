"""Binary P6 PPM codec and channel-order helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wxhier.errors import ParseError
from wxhier.imageio import ImageU8, bgr_to_rgb, decode_ppm, encode_ppm, to_tensor

pixel_arrays = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3)),
)


@given(pixel_arrays)
@settings(max_examples=60)
def test_ppm_round_trip(pixels):
    img = ImageU8(pixels)
    again = decode_ppm(encode_ppm(img))
    assert again == img
    assert again.pixels.dtype == np.uint8


def test_decode_known_bytes():
    # 2x1 image: red pixel then blue pixel
    data = b"P6 2 1 255\n" + bytes([255, 0, 0, 0, 0, 255])
    img = decode_ppm(data)
    assert (img.height, img.width) == (1, 2)
    assert img.pixels[0, 0].tolist() == [255, 0, 0]
    assert img.pixels[0, 1].tolist() == [0, 0, 255]


def test_header_comments_and_whitespace():
    data = b"P6\n# a comment line\n 2\t1 # trailing\n255\n" + bytes(6)
    img = decode_ppm(data)
    assert (img.height, img.width) == (1, 2)
    assert not img.pixels.any()


def test_single_pixel_exact():
    img = decode_ppm(b"P6 1 1 255\n" + bytes([7, 8, 9]))
    assert img.pixels[0, 0].tolist() == [7, 8, 9]


@pytest.mark.parametrize(
    "data",
    [
        b"P5 2 2 255\n" + bytes(4),  # greyscale magic
        b"P6 0 2 255\n",  # zero dimension
        b"P6 2 2 65535\n" + bytes(24),  # 16-bit maxval
        b"P6 2 2 255\n" + bytes(11),  # payload one byte short
        b"P6 2 2\n",  # truncated header
        b"P6 -1 2 255\n" + bytes(12),  # negative width
        b"P6 " + b"1" * 5000 + b" 2 255\n",  # width past Python's int digit limit
        b"",
    ],
)
def test_decode_rejects_malformed(data):
    with pytest.raises(ParseError):
        decode_ppm(data)


def _decode_raises_only_parse_error(data):
    try:
        decode_ppm(data)
    except ParseError:
        pass


@given(st.binary(max_size=64))
@settings(max_examples=100)
def test_decode_fuzz_arbitrary_bytes(data):
    _decode_raises_only_parse_error(data)


@given(pixel_arrays, st.data())
@settings(max_examples=100)
def test_decode_fuzz_truncated_or_mutated(pixels, draw):
    valid = encode_ppm(ImageU8(pixels))
    cut = draw.draw(st.integers(0, len(valid)), label="cut")
    _decode_raises_only_parse_error(valid[:cut])
    at = draw.draw(st.integers(0, len(valid) - 1), label="at")
    byte = draw.draw(st.integers(0, 255), label="byte")
    _decode_raises_only_parse_error(valid[:at] + bytes([byte]) + valid[at + 1 :])


def test_image_validation():
    with pytest.raises(ParseError):
        ImageU8(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ParseError):
        ImageU8(np.zeros((2, 2, 3), dtype=np.float32))
    with pytest.raises(ParseError):
        ImageU8(np.zeros((0, 2, 3), dtype=np.uint8))


@given(pixel_arrays)
@settings(max_examples=40)
def test_bgr_to_rgb_is_involution(pixels):
    img = ImageU8(pixels)
    assert bgr_to_rgb(bgr_to_rgb(img)) == img


def test_bgr_to_rgb_swaps_channels():
    pixels = np.zeros((1, 1, 3), dtype=np.uint8)
    pixels[0, 0] = (10, 20, 30)
    swapped = bgr_to_rgb(ImageU8(pixels))
    assert swapped.pixels[0, 0].tolist() == [30, 20, 10]


def test_to_tensor_scale_and_dtype():
    pixels = np.full((2, 3, 3), 255, dtype=np.uint8)
    t = to_tensor(ImageU8(pixels))
    assert t.dtype == np.float32
    assert t.shape == (2, 3, 3)
    assert float(t.max()) == 255.0  # raw byte scale, no division
