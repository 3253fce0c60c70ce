"""WXT1 binary tensor container.

Layout: magic ``WXT1``, little-endian u32 rank, u32 dims[rank], then the
raw little-endian float32 payload in row-major order.  The rank is at most
``MAX_RANK``: the writer refuses a deeper array, the reader a deeper frame.
A dimension lies below ``DIM_LIMIT``, which only a zero-size array exceeds.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError, ShapeError

MAGIC = b"WXT1"
MAX_RANK = 8
DIM_LIMIT = 1 << 32  # every stored dimension is a u32


def tensor_to_bytes(array: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(array, dtype="<f4")
    if arr.ndim > MAX_RANK or max(arr.shape) >= DIM_LIMIT:
        raise ShapeError(
            f"tensor shape {arr.shape} does not fit the container: "
            f"rank at most {MAX_RANK}, each dimension below 2**32"
        )
    header = MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def tensor_from_bytes(data: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one tensor starting at ``offset``; returns (array, next_offset)."""
    if data[offset : offset + 4] != MAGIC:
        raise FormatError(f"bad tensor magic {data[offset:offset + 4]!r}")
    offset += 4
    if offset + 4 > len(data):
        raise FormatError("truncated tensor header")
    (rank,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if rank > MAX_RANK:
        raise FormatError(f"implausible tensor rank {rank}")
    if offset + 4 * rank > len(data):
        raise FormatError("truncated tensor dims")
    dims = struct.unpack_from(f"<{rank}I", data, offset)
    offset += 4 * rank
    count = 1
    for d in dims:
        count *= d
    end = offset + 4 * count
    if end > len(data):
        raise FormatError(f"truncated tensor payload: need {4 * count} bytes")
    arr = np.frombuffer(data[offset:end], dtype="<f4").reshape(dims)
    return arr.copy(), end

