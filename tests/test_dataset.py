"""Manifest CSV parsing and the deterministic stratified split."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wxhier.dataset import (
    ManifestEntry,
    SplitSpec,
    class_distribution,
    distribution_csv,
    load_manifest,
    manifest_to_csv,
    stratified_split,
)
from wxhier.errors import (
    ConfigError, EmptyManifestError, ParseError, UnknownLabelError, WxhierError
)
from wxhier.taxonomy import LEAF_CLASSES, default_taxonomy


def manifest_for(counts: dict[str, int]) -> list[ManifestEntry]:
    return [
        ManifestEntry(f"{leaf}/{i:03d}.ppm", leaf)
        for leaf in LEAF_CLASSES
        if leaf in counts
        for i in range(counts[leaf])
    ]


# ----------------------------------------------------------------- parsing

def test_manifest_round_trip():
    entries = [
        ManifestEntry("a/x.ppm", "rain"),
        ManifestEntry("b y.ppm", "snow", "BGR"),
        ManifestEntry('quo"ted.ppm', "dew"),
    ]
    assert load_manifest(manifest_to_csv(entries)) == entries


def test_manifest_two_column_form():
    entries = load_manifest("path,label\nimg.ppm,hail\n")
    assert entries == [ManifestEntry("img.ppm", "hail", "RGB")]


def test_manifest_blank_lines_ignored():
    entries = load_manifest("path,label\n\nimg.ppm,hail\n\n")
    assert len(entries) == 1


@pytest.mark.parametrize(
    "text,exc",
    [
        ("", ParseError),
        ("file,class\nimg.ppm,hail\n", ParseError),  # wrong header
        ("path,label\nimg.ppm,tornado\n", UnknownLabelError),
        ("path,label\nimg.ppm\n", ParseError),  # column count
        ("path,label\n,hail\n", ParseError),  # empty path
        ("path,label\nimg\0.ppm,hail\n", ParseError),  # no file system takes a NUL
        ("path,label,channel_order\nimg.ppm,hail,RBG\n", ParseError),
    ],
)
def test_manifest_rejects_malformed(text, exc):
    with pytest.raises(exc):
        load_manifest(text)


def test_manifest_error_carries_line_number():
    with pytest.raises(UnknownLabelError, match="line 3"):
        load_manifest("path,label\na.ppm,rain\nb.ppm,hurricane\n")
    with pytest.raises(UnknownLabelError, match="line 4"):  # blank lines count
        load_manifest("path,label\n\na.ppm,rain\nb.ppm,hurricane\n")


# A bare CR inside an unquoted field, and a field over the csv module's
# 131072-character limit: both make the csv reader raise its own error.
CSV_READER_ERRORS = [
    b"path,label\na\rb.ppm,rain\n",
    b"path,label\n" + b"x" * 131073 + b".ppm,rain\n",
]


@pytest.mark.parametrize("data", CSV_READER_ERRORS, ids=["bare-cr", "over-long-field"])
def test_manifest_csv_reader_errors_are_parse_errors(data):
    with pytest.raises(ParseError, match="line 2"):
        load_manifest(data)


_MANIFEST_ALPHABET = b'path,label,channel_order\r\n"\x00 rainhailRGB\xff'


@given(
    st.one_of(
        st.binary(max_size=200),
        st.lists(st.sampled_from(list(_MANIFEST_ALPHABET)), max_size=200).map(
            lambda b: b"path,label,channel_order\n" + bytes(b)
        ),
    )
)
@example(CSV_READER_ERRORS[0])
@example(CSV_READER_ERRORS[1])
@settings(max_examples=150, deadline=None)
def test_fuzzed_manifest_bytes_raise_only_package_errors(data):
    try:
        load_manifest(data)
    except WxhierError:
        pass


# ------------------------------------------------------------------- split

class_counts = st.dictionaries(
    st.sampled_from(LEAF_CLASSES), st.integers(1, 40), min_size=1, max_size=11
)


@given(class_counts, st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_split_is_a_partition(counts, seed):
    entries = manifest_for(counts)
    split = stratified_split(entries, SplitSpec(seed=seed))
    parts = [split.train, split.val, split.test]
    assert sum(len(p) for p in parts) == len(entries)
    seen = {e.path for part in parts for e in part}
    assert len(seen) == len(entries)  # disjoint and complete


@given(class_counts, st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_split_fractions_within_one_entry(counts, seed):
    entries = manifest_for(counts)
    split = stratified_split(entries, SplitSpec(test_fraction=0.30, val_fraction_of_train=0.20, seed=seed))
    for leaf, n in counts.items():
        n_test = sum(e.leaf == leaf for e in split.test)
        n_val = sum(e.leaf == leaf for e in split.val)
        assert abs(n_test - 0.30 * n) <= 1
        pool = n - n_test
        assert abs(n_val - 0.20 * pool) <= 1


@given(class_counts, st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_split_deterministic_and_seed_sensitive(counts, seed):
    entries = manifest_for(counts)
    a = stratified_split(entries, SplitSpec(seed=seed))
    b = stratified_split(entries, SplitSpec(seed=seed))
    assert manifest_to_csv(a.train) == manifest_to_csv(b.train)
    assert manifest_to_csv(a.val) == manifest_to_csv(b.val)
    assert manifest_to_csv(a.test) == manifest_to_csv(b.test)


def test_split_seed_changes_selection():
    entries = manifest_for({"rain": 30})
    a = stratified_split(entries, SplitSpec(seed=0))
    b = stratified_split(entries, SplitSpec(seed=1))
    assert {e.path for e in a.test} != {e.path for e in b.test}


def test_split_exact_floor_arithmetic():
    # 10 per class, default 0.30/0.20: test 3, val floor(7*0.2)=1, train 6
    entries = manifest_for({"rain": 10, "snow": 10})
    split = stratified_split(entries, SplitSpec(seed=7))
    assert (len(split.train), len(split.val), len(split.test)) == (12, 2, 6)


def test_split_preserves_manifest_order():
    entries = manifest_for({"rain": 20, "snow": 10})
    split = stratified_split(entries, SplitSpec(seed=3))
    for part in (split.train, split.val, split.test):
        idx = [entries.index(e) for e in part]
        assert idx == sorted(idx)


def test_split_empty_manifest():
    with pytest.raises(EmptyManifestError):
        stratified_split([], SplitSpec())


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(test_fraction=0.0)
    with pytest.raises(ConfigError):
        SplitSpec(val_fraction_of_train=1.0)


def test_tiny_classes_survive():
    # a singleton class cannot lose its only entry to test or val
    entries = manifest_for({"rain": 1, "snow": 2})
    split = stratified_split(entries, SplitSpec(seed=9))
    assert sum(e.leaf == "rain" for e in split.train) == 1


# ------------------------------------------------------------ distribution

def test_class_distribution_counts():
    t = default_taxonomy()
    entries = manifest_for({"rain": 3, "snow": 2, "sandstorm": 4})
    dist = class_distribution(entries, t)
    assert dist.per_leaf["rain"] == 3
    assert dist.per_leaf["dew"] == 0
    assert dist.per_group == {"Rainy": 3, "Dusty": 4, "Cold": 2}


def test_distribution_csv_shape():
    t = default_taxonomy()
    entries = manifest_for({"rain": 4, "snow": 6})
    split = stratified_split(entries, SplitSpec(seed=1))
    text = distribution_csv({"train": split.train, "val": split.val, "test": split.test}, t)
    lines = text.strip().splitlines()
    assert lines[0] == "leaf,count,group,split"
    # one row per (leaf, split) plus the header
    assert len(lines) == 1 + 3 * len(LEAF_CLASSES)
