"""Little-endian float32 tensor container: framing, round-trips, errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wxhier.errors import FormatError, ShapeError
from wxhier.tensorio import (
    MAGIC,
    MAX_RANK,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_tensor,
)

finite_f32 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, width=32
)
tensors = hnp.arrays(
    dtype=np.float32,
    shape=hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=5),
    elements=finite_f32,
)


@given(tensors)
@settings(max_examples=80)
def test_round_trip_bit_exact(arr):
    data = tensor_to_bytes(arr)
    again, end = tensor_from_bytes(data)
    assert end == len(data)
    assert again.shape == arr.shape
    assert again.dtype == np.float32
    assert again.tobytes() == arr.tobytes()


def test_round_trip_special_values():
    arr = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, np.float32(1e-45)], dtype=np.float32)
    again, _ = tensor_from_bytes(tensor_to_bytes(arr))
    assert again.tobytes() == arr.tobytes()  # NaN payloads preserved


def test_accepts_float64_input_by_casting():
    arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    again, _ = tensor_from_bytes(tensor_to_bytes(arr))
    assert again.dtype == np.float32
    np.testing.assert_array_equal(again, arr.astype(np.float32))


def test_offset_chaining():
    a = np.ones((2, 2), dtype=np.float32)
    b = np.full((3,), 7.0, dtype=np.float32)
    blob = tensor_to_bytes(a) + tensor_to_bytes(b)
    first, pos = tensor_from_bytes(blob)
    second, end = tensor_from_bytes(blob, pos)
    assert end == len(blob)
    np.testing.assert_array_equal(first, a)
    np.testing.assert_array_equal(second, b)


def test_scalar_promoted_to_rank_one():
    # 0-d input is stored as shape (1,); the container has no rank-0 frame
    again, _ = tensor_from_bytes(tensor_to_bytes(np.asarray(np.float32(3.5))))
    assert again.shape == (1,)
    assert float(again[0]) == 3.5


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: b"XXXX" + d[4:],  # wrong magic
        lambda d: d[:-1],  # payload one byte short
        lambda d: d[:6],  # header cut inside the rank field
        lambda d: d[:10],  # header cut inside the dims
    ],
)
def test_malformed_frames(mutate):
    data = mutate(tensor_to_bytes(np.ones((2, 3), dtype=np.float32)))
    with pytest.raises(FormatError):
        tensor_from_bytes(data)


def test_rank_limit_on_read():
    import struct

    data = MAGIC + struct.pack("<I", 9) + struct.pack("<9I", *([1] * 9)) + b"\x00" * 4
    with pytest.raises(FormatError, match="rank"):
        tensor_from_bytes(data)


def test_writer_refuses_the_shapes_the_reader_cannot_frame():
    # the deepest rank and the widest u32 dimension round-trip; one more of
    # either is refused on write, as a deeper rank is on read
    deepest = np.arange(2, dtype=np.float32).reshape((1,) * (MAX_RANK - 1) + (2,))
    widest = np.zeros((0, (1 << 32) - 1), dtype=np.float32)
    for arr in (deepest, widest):
        again, _ = tensor_from_bytes(tensor_to_bytes(arr))
        assert again.shape == arr.shape and again.tobytes() == arr.tobytes()
    for shape in ((1,) * (MAX_RANK + 1), (0, 1 << 32)):
        with pytest.raises(ShapeError, match="does not fit the container"):
            tensor_to_bytes(np.zeros(shape, dtype=np.float32))


def test_trailing_bytes_rejected_by_file_reader(tmp_path):
    path = tmp_path / "t.wxt1"
    path.write_bytes(tensor_to_bytes(np.ones(2, dtype=np.float32)) + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_tensor(path)


def test_file_helpers(tmp_path):
    arr = np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4)
    path = tmp_path / "t.wxt1"
    write_tensor(path, arr)
    again = read_tensor(path)
    assert again.tobytes() == arr.tobytes()
    # same content twice -> identical bytes on disk
    write_tensor(tmp_path / "t2.wxt1", arr)
    assert path.read_bytes() == (tmp_path / "t2.wxt1").read_bytes()
