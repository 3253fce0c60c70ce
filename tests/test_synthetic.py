"""Procedural dataset generator: determinism, structure, class design."""

import numpy as np
import pytest

from wxhier.dataset import load_manifest
from wxhier.errors import ConfigError
from wxhier.imageio import decode_ppm
from wxhier.synthetic import BASE_COLORS, generate_dataset, generate_image
from wxhier.taxonomy import LEAF_CLASSES, default_taxonomy, group_of


def test_manifest_covers_all_classes(synth_root, synth_entries):
    assert len(synth_entries) == 11 * 50
    per_leaf = {leaf: 0 for leaf in LEAF_CLASSES}
    for e in synth_entries:
        per_leaf[e.leaf] += 1
        assert not e.path.startswith("/")  # relative to the dataset root
    assert set(per_leaf.values()) == {50}


def test_images_decode_with_expected_shape(synth_root, synth_entries):
    img = decode_ppm((synth_root / synth_entries[0].path).read_bytes())
    assert (img.height, img.width) == (64, 64)


def test_regeneration_is_byte_identical(tmp_path):
    a = generate_dataset(tmp_path / "a", per_class=3, size=32, seed=9)
    b = generate_dataset(tmp_path / "b", per_class=3, size=32, seed=9)
    assert a.read_bytes() == b.read_bytes()
    for entry in load_manifest(a.read_bytes()):
        assert ((tmp_path / "a" / entry.path).read_bytes()
                == (tmp_path / "b" / entry.path).read_bytes())


def test_negative_seed_is_refused_before_any_write(tmp_path):
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        generate_dataset(tmp_path / "out", per_class=1, size=8, seed=-1)
    assert not (tmp_path / "out").exists()


def test_seed_changes_pixels(tmp_path):
    generate_dataset(tmp_path / "a", per_class=1, size=32, seed=1)
    generate_dataset(tmp_path / "b", per_class=1, size=32, seed=2)
    diffs = 0
    for entry in load_manifest((tmp_path / "a" / "manifest.csv").read_bytes()):
        if (tmp_path / "a" / entry.path).read_bytes() != (tmp_path / "b" / entry.path).read_bytes():
            diffs += 1
    assert diffs == 11


def test_generate_image_is_valid_and_seeded():
    img = generate_image("rain", np.random.default_rng(5), size=48)
    assert img.pixels.shape == (48, 48, 3)
    assert img.pixels.dtype == np.uint8
    again = generate_image("rain", np.random.default_rng(5), size=48)
    assert (img.pixels == again.pixels).all()


def test_texture_pairs_share_base_colors():
    # flat per-pixel statistics cannot separate these; texture must do it
    assert BASE_COLORS["rain"] == BASE_COLORS["hail"]
    assert BASE_COLORS["frost"] == BASE_COLORS["glaze"]
    assert BASE_COLORS["rime"] == BASE_COLORS["snow"]
    assert set(BASE_COLORS) == set(LEAF_CLASSES)


def test_groups_are_color_separated():
    # mean base color distance across groups is large vs within-group noise
    t = default_taxonomy()
    groups = {}
    for leaf, color in BASE_COLORS.items():
        groups.setdefault(group_of(leaf, t), []).append(np.array(color, dtype=float))
    centers = {g: np.mean(v, axis=0) for g, v in groups.items()}
    names = list(centers)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            assert np.linalg.norm(centers[names[i]] - centers[names[j]]) > 40
