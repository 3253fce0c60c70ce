"""Byte oracle for the procedural generator.

The reference below is the generator's arithmetic written the plain way:
every blob evaluates ``exp`` over the whole image and is added through a
``(size, size, 1)`` broadcast, and ``generate_image`` adds base, jitter,
texture and noise by broadcasting.  It draws the same random numbers in
the same order, so ``wxhier.synthetic`` must match it byte for byte, on
any platform: both sides run the same numpy on the same machine.
"""

import numpy as np
import pytest

from wxhier.synthetic import BASE_COLORS, JITTER, NOISE_SIGMA, generate_image
from wxhier.taxonomy import LEAF_CLASSES


def _blob(tex, r, c, radius, amp):
    size = tex.shape[0]
    rr, cc = np.ogrid[:size, :size]
    tex += amp * np.exp(-((rr - r) ** 2 + (cc - c) ** 2) / (2.0 * radius**2))[:, :, None]


def _rain(rng, size):
    tex = np.zeros((size, size, 3))
    for _ in range(max(8, size // 5)):
        tex[:, int(rng.integers(0, size)), :] -= 45.0
    return tex


def _hail(rng, size):
    tex = np.zeros((size, size, 3))
    for _ in range(max(12, size // 4)):
        r = int(rng.integers(1, size - 1))
        c = int(rng.integers(1, size - 1))
        tex[r - 1 : r + 2, c - 1 : c + 2, :] += 50.0
    return tex


def _lightning(rng, size):
    tex = np.zeros((size, size, 3))
    c = int(rng.integers(size // 4, 3 * size // 4))
    for r in range(size):
        c = int(np.clip(c + rng.integers(-1, 2), 1, size - 2))
        tex[r, c - 1 : c + 2, :] += (90.0, 90.0, 110.0)
    return tex


def _rainbow(rng, size):
    bands = np.array(
        [(80, -40, -40), (60, 20, -50), (-20, 60, -40), (-50, 30, 50), (-30, -40, 70), (40, -30, 60)],
        dtype=np.float64,
    )
    phase = int(rng.integers(0, size))
    rows = (np.arange(size) + phase) // max(1, size // len(bands)) % len(bands)
    return np.broadcast_to(bands[rows][:, None, :], (size, size, 3)).copy()


def _fog(rng, size):
    tex = np.zeros((size, size, 3))
    for _ in range(6):
        r, c = int(rng.integers(0, size)), int(rng.integers(0, size))
        _blob(tex, r, c, radius=size / 6.0, amp=float(rng.uniform(-28.0, 28.0)))
    return tex


def _sandstorm(rng, size):
    tex = np.zeros((size, size, 3))
    phase = float(rng.uniform(0, 2 * np.pi))
    tex += (np.sin(np.arange(size) * 0.45 + phase) * 12.0)[:, None, None]
    for _ in range(max(6, size // 8)):
        tex[int(rng.integers(0, size)), :, :] += 18.0
    return tex


def _dew(rng, size):
    tex = np.zeros((size, size, 3))
    for _ in range(max(8, size // 6)):
        r = int(rng.integers(2, size - 2))
        c = int(rng.integers(2, size - 2))
        _blob(tex, r, c, radius=2.5, amp=-35.0)
        _blob(tex, r, c, radius=1.0, amp=30.0)
    return tex


def _frost(rng, size):
    tex = np.zeros((size, size, 3))
    rows = np.arange(size)
    for _ in range(max(10, size // 5)):
        tex[rows, (rows + int(rng.integers(0, size))) % size, :] -= 38.0
    return tex


def _glaze(rng, size):
    slope = float(rng.uniform(-18.0, 18.0))
    tex = np.zeros((size, size, 3)) + (np.linspace(-1.0, 1.0, size) * slope)[None, :, None]
    for _ in range(3):
        _blob(tex, int(rng.integers(0, size)), int(rng.integers(0, size)), radius=1.2, amp=45.0)
    return tex


def _rime(rng, size):
    return rng.choice((-20.0, 20.0), size=(size, size, 1)) * np.ones((1, 1, 3))


def _snow(rng, size):
    tex = np.zeros((size, size, 3))
    for _ in range(max(10, size // 5)):
        _blob(tex, int(rng.integers(0, size)), int(rng.integers(0, size)), radius=2.0, amp=32.0)
    return tex


_TEXTURES = {
    "rain": _rain, "hail": _hail, "lightning": _lightning, "rainbow": _rainbow,
    "fog_smog": _fog, "sandstorm": _sandstorm, "dew": _dew, "frost": _frost,
    "glaze": _glaze, "rime": _rime, "snow": _snow,
}


def reference_image(leaf, rng, size):
    base = np.array(BASE_COLORS[leaf], dtype=np.float64)
    tex = _TEXTURES[leaf](rng, size).astype(np.float64)
    tex -= tex.mean(axis=(0, 1))
    jitter = float(rng.uniform(-JITTER, JITTER))
    noise = rng.normal(0.0, NOISE_SIGMA, size=(size, size, 3))
    pixels = base[None, None, :] + jitter + tex + noise
    return np.clip(np.rint(pixels), 0, 255).astype(np.uint8)


def test_reference_covers_every_leaf():
    assert set(_TEXTURES) == set(LEAF_CLASSES)


@pytest.mark.parametrize("seed", [3, 20240])
@pytest.mark.parametrize("size", [8, 31, 64, 121, 200])
def test_generate_image_matches_reference_bytes(size, seed):
    # one stream per side, every leaf in turn: the draw order is pinned too
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for leaf in LEAF_CLASSES:
        got = generate_image(leaf, ours, size).pixels
        want = reference_image(leaf, theirs, size)
        assert got.tobytes() == want.tobytes(), f"{leaf} at {size} px, seed {seed}"
    assert ours.bit_generator.state == theirs.bit_generator.state
