"""Binary P6 PPM codec and channel-order helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wxhier.errors import ParseError
from wxhier.imageio import ImageU8, _read_token, bgr_to_rgb, decode_ppm, encode_ppm

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


def _ref_read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Byte-at-a-time header scan: the reference for the regex scanner."""
    ws = b" \t\n\r\v\f"
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c in ws:
            pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos : pos + 1] not in ws and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise ParseError("truncated PPM header")
    return data[start:pos], pos


def _scan(read, data, pos):
    try:
        return read(data, pos)
    except ParseError:
        return ParseError


header_bytes = st.lists(
    st.sampled_from(list(b" \t\n\r\v\f#P6x0123456789") + [0, 0x85, 0xA0, 0xFF]), max_size=40
).map(bytes)


@given(header_bytes, st.integers(0, 45))
@settings(max_examples=400)
def test_read_token_matches_byte_scanner(data, pos):
    assert _scan(_read_token, data, pos) == _scan(_ref_read_token, data, pos)


def test_read_token_on_megabyte_header_runs():
    # the byte scanner took 0.2 s on the comment and 0.8 s on the digits
    run = 1_000_000
    for filler in (b"#" + b"x" * run, b" " * run):
        data = b"P6 " + filler + b"\n1"
        assert _read_token(data, 2) == (b"1", len(data))
    digits = b"7" * run
    assert _read_token(b"P6 " + digits + b"\n1", 2) == (digits, 3 + run)


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
