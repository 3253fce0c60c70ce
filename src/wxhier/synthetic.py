"""Procedural dataset for end-to-end exercises.

Eleven classes, one directory of PPM files per class, plus a manifest.
Class appearance is built so the task shape mirrors the real problem:

- Coarse groups live in separated color families (rainy blues, dusty
  tans/grays, cold pale tones), so the 3-way primary model is learnable
  from color statistics alone.
- Three same-group pairs (rain/hail, frost/glaze, rime/snow) share their
  base color exactly; their textures are zero-mean per channel and
  randomly phased, so per-pixel expectations are identical within each
  pair.  A linear model over pixels has nothing consistent to separate
  them with, while orientation/frequency cues survive pooling and remain
  visible to a small CNN.

Everything is drawn from one seeded generator in a pinned order, so a
given (seed, per_class, size) always produces byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dataset import ManifestEntry, manifest_to_csv
from .errors import ConfigError
from .imageio import ImageU8, encode_ppm
from .taxonomy import LEAF_CLASSES

DEFAULT_SEED = 20240
DEFAULT_SIZE = 64
DEFAULT_PER_CLASS = 50

BASE_COLORS: dict[str, tuple[float, float, float]] = {
    # rainy family: blue and dark tones
    "rain": (60.0, 90.0, 170.0),
    "hail": (60.0, 90.0, 170.0),  # = rain; texture-only pair
    "lightning": (40.0, 45.0, 95.0),
    "rainbow": (140.0, 110.0, 150.0),
    # dusty family: warm tans and mid grays
    "fog_smog": (175.0, 175.0, 178.0),
    "sandstorm": (190.0, 150.0, 90.0),
    # cold family: pale bright tones
    "dew": (170.0, 200.0, 190.0),
    "frost": (190.0, 215.0, 228.0),
    "glaze": (190.0, 215.0, 228.0),  # = frost; texture-only pair
    "rime": (235.0, 235.0, 235.0),
    "snow": (235.0, 235.0, 235.0),  # = rime; texture-only pair
}

JITTER = 14.0  # uniform brightness shift per image
NOISE_SIGMA = 7.0


def _blob(tex: np.ndarray, r: int, c: int, radius: float, amp: float) -> None:
    size = tex.shape[0]
    rr, cc = np.ogrid[:size, :size]
    tex += amp * np.exp(-((rr - r) ** 2 + (cc - c) ** 2) / (2.0 * radius**2))[:, :, None]


def _tex_rain(rng: np.random.Generator, size: int) -> np.ndarray:
    # vertical streaks at random columns
    tex = np.zeros((size, size, 3))
    for _ in range(max(8, size // 5)):
        c = int(rng.integers(0, size))
        tex[:, c, :] -= 45.0
    return tex


def _tex_hail(rng: np.random.Generator, size: int) -> np.ndarray:
    # scattered hard bright dots
    tex = np.zeros((size, size, 3))
    for _ in range(max(12, size // 4)):
        r = int(rng.integers(1, size - 1))
        c = int(rng.integers(1, size - 1))
        tex[r - 1 : r + 2, c - 1 : c + 2, :] += 50.0
    return tex


def _tex_lightning(rng: np.random.Generator, size: int) -> np.ndarray:
    # one jagged bright bolt wandering down the image
    tex = np.zeros((size, size, 3))
    c = int(rng.integers(size // 4, 3 * size // 4))
    for r in range(size):
        c = int(np.clip(c + rng.integers(-1, 2), 1, size - 2))
        tex[r, c - 1 : c + 2, :] += (90.0, 90.0, 110.0)
    return tex


def _tex_rainbow(rng: np.random.Generator, size: int) -> np.ndarray:
    # horizontal hue bands with a random vertical phase
    bands = np.array(
        [(80, -40, -40), (60, 20, -50), (-20, 60, -40), (-50, 30, 50), (-30, -40, 70), (40, -30, 60)],
        dtype=np.float64,
    )
    phase = int(rng.integers(0, size))
    rows = (np.arange(size) + phase) // max(1, size // len(bands)) % len(bands)
    return np.broadcast_to(bands[rows][:, None, :], (size, size, 3)).copy()


def _tex_fog(rng: np.random.Generator, size: int) -> np.ndarray:
    # large smooth gray blobs
    tex = np.zeros((size, size, 3))
    for _ in range(6):
        _blob(
            tex,
            int(rng.integers(0, size)),
            int(rng.integers(0, size)),
            radius=size / 6.0,
            amp=float(rng.uniform(-28.0, 28.0)),
        )
    return tex


def _tex_sandstorm(rng: np.random.Generator, size: int) -> np.ndarray:
    # horizontal grain: wavy rows plus streaks
    tex = np.zeros((size, size, 3))
    phase = float(rng.uniform(0, 2 * np.pi))
    rows = np.sin(np.arange(size) * 0.45 + phase) * 12.0
    tex += rows[:, None, None]
    for _ in range(max(6, size // 8)):
        r = int(rng.integers(0, size))
        tex[r, :, :] += 18.0
    return tex


def _tex_dew(rng: np.random.Generator, size: int) -> np.ndarray:
    # round droplets: dark rim, bright core
    tex = np.zeros((size, size, 3))
    for _ in range(max(8, size // 6)):
        r = int(rng.integers(2, size - 2))
        c = int(rng.integers(2, size - 2))
        _blob(tex, r, c, radius=2.5, amp=-35.0)
        _blob(tex, r, c, radius=1.0, amp=30.0)
    return tex


def _tex_frost(rng: np.random.Generator, size: int) -> np.ndarray:
    # diagonal needle strokes (wrapping), random offsets
    tex = np.zeros((size, size, 3))
    rows = np.arange(size)
    for _ in range(max(10, size // 5)):
        d = int(rng.integers(0, size))
        tex[rows, (rows + d) % size, :] -= 38.0
    return tex


def _tex_glaze(rng: np.random.Generator, size: int) -> np.ndarray:
    # glassy sheen: one smooth gradient and a few specular points
    slope = float(rng.uniform(-18.0, 18.0))
    ramp = np.linspace(-1.0, 1.0, size) * slope
    tex = np.zeros((size, size, 3)) + ramp[None, :, None]
    for _ in range(3):
        _blob(tex, int(rng.integers(0, size)), int(rng.integers(0, size)), radius=1.2, amp=45.0)
    return tex


def _tex_rime(rng: np.random.Generator, size: int) -> np.ndarray:
    # dense per-pixel speckle (high spatial frequency)
    return rng.choice((-20.0, 20.0), size=(size, size, 1)) * np.ones((1, 1, 3))


def _tex_snow(rng: np.random.Generator, size: int) -> np.ndarray:
    # sparse soft flakes (low spatial frequency)
    tex = np.zeros((size, size, 3))
    for _ in range(max(10, size // 5)):
        _blob(
            tex,
            int(rng.integers(0, size)),
            int(rng.integers(0, size)),
            radius=2.0,
            amp=32.0,
        )
    return tex


_TEXTURES = {
    "rain": _tex_rain,
    "hail": _tex_hail,
    "lightning": _tex_lightning,
    "rainbow": _tex_rainbow,
    "fog_smog": _tex_fog,
    "sandstorm": _tex_sandstorm,
    "dew": _tex_dew,
    "frost": _tex_frost,
    "glaze": _tex_glaze,
    "rime": _tex_rime,
    "snow": _tex_snow,
}


def generate_image(leaf: str, rng: np.random.Generator, size: int = DEFAULT_SIZE) -> ImageU8:
    base = np.array(BASE_COLORS[leaf], dtype=np.float64)
    tex = _TEXTURES[leaf](rng, size).astype(np.float64)
    tex -= tex.mean(axis=(0, 1))  # keep the pair classes' mean colors identical
    jitter = float(rng.uniform(-JITTER, JITTER))
    noise = rng.normal(0.0, NOISE_SIGMA, size=(size, size, 3))
    pixels = base[None, None, :] + jitter + tex + noise
    return ImageU8(np.clip(np.rint(pixels), 0, 255).astype(np.uint8))


def generate_dataset(
    outdir: str | Path,
    per_class: int = DEFAULT_PER_CLASS,
    size: int = DEFAULT_SIZE,
    seed: int = DEFAULT_SEED,
) -> Path:
    """Write PPMs and a manifest under ``outdir``; returns the manifest path.

    Manifest paths are relative to ``outdir``.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    outdir = Path(outdir)
    rng = np.random.default_rng(seed)
    entries: list[ManifestEntry] = []
    for leaf in LEAF_CLASSES:
        leaf_dir = outdir / leaf
        leaf_dir.mkdir(parents=True, exist_ok=True)
        for i in range(per_class):
            img = generate_image(leaf, rng, size)
            rel = f"{leaf}/{i:03d}.ppm"
            (outdir / rel).write_bytes(encode_ppm(img))
            entries.append(ManifestEntry(path=rel, leaf=leaf))
    manifest_path = outdir / "manifest.csv"
    manifest_path.write_text(manifest_to_csv(entries), encoding="utf-8")
    return manifest_path
