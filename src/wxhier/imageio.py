"""Binary PPM (P6) decode/encode and the byte image it holds.

PPM is the only on-disk raster format; JPEG/PNG collections must be
converted to P6 with an outside tool before they enter a manifest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

_WHITESPACE = b" \t\n\r\v\f"

CHANNEL_ORDERS = ("RGB", "BGR")  # the pixel orders an image may be stored in


def check_channel_order(order: str) -> None:
    """The one rule for a stored pixel order, shared by manifests and ``model_input``."""
    if order not in CHANNEL_ORDERS:
        raise ParseError(f"unknown channel order {order!r}")


@dataclass(frozen=True)
class ImageU8:
    """Interleaved 8-bit RGB image, pixels shaped (height, width, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 3 or p.shape[2] != 3 or p.dtype != np.uint8:
            raise ParseError(f"expected (H, W, 3) uint8 pixels, got {p.shape} {p.dtype}")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ParseError("image must be at least 1x1")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, ImageU8) and np.array_equal(self.pixels, other.pixels)


# A header token is preceded by whitespace and '#' comments running to the
# end of a line.  Two separate patterns keep the scan linear: a single one
# with a required token after the nested star backtracks on long blank runs.
_SKIP = re.compile(rb"(?:[ \t\n\r\v\f]|#[^\n\r]*)*")
_TOKEN = re.compile(rb"[^ \t\n\r\v\f#]*")


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token, skipping whitespace and '#' comment lines."""
    start = _SKIP.match(data, pos).end()
    end = _TOKEN.match(data, start).end()
    if start == end:
        raise ParseError("truncated PPM header")
    return data[start:end], end


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _read_token(data, pos)
    if not token.isdigit():
        raise ParseError(f"bad PPM {what}: {token!r}")
    try:
        return int(token), pos
    except ValueError:  # more digits than Python converts to an int
        raise ParseError(f"PPM {what} has {len(token)} digits") from None


def decode_ppm(data: bytes) -> ImageU8:
    """Decode binary PPM (magic ``P6``, maxval 255) into an RGB byte image."""
    magic, pos = _read_token(data, 0)
    if magic != b"P6":
        raise ParseError(f"unsupported PPM magic {magic!r} (only binary P6)")
    width, pos = _read_int(data, pos, "width")
    height, pos = _read_int(data, pos, "height")
    maxval, pos = _read_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise ParseError(f"bad PPM dimensions {width}x{height}")
    if maxval != 255:
        raise ParseError(f"unsupported PPM maxval {maxval} (only 255)")
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise ParseError("missing whitespace after PPM maxval")
    pos += 1  # exactly one whitespace byte before the payload
    payload = data[pos : pos + width * height * 3]
    if len(payload) != width * height * 3:
        raise ParseError(
            f"truncated PPM payload: expected {width * height * 3} bytes, got {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return ImageU8(pixels.copy())


def encode_ppm(img: ImageU8) -> bytes:
    """Canonical P6 bytes: single-space separators, one newline before payload."""
    header = f"P6 {img.width} {img.height} 255\n".encode("ascii")
    return header + img.pixels.tobytes()


def bgr_to_rgb(img: ImageU8) -> ImageU8:
    """Reverse the per-pixel channel order (an involution)."""
    return ImageU8(np.ascontiguousarray(img.pixels[:, :, ::-1]))
