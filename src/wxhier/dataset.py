"""Manifest entries and their CSV form, deterministic stratified splitting.

The split shuffle uses splitmix64 + Fisher-Yates with unbiased rejection
sampling, fully specified here so the same (manifest, seed) pair produces
bit-identical splits on any platform or implementation:

* stream state advances by adding 0x9E3779B97F4A7C15 (mod 2^64); each
  output mixes the state with xor-shift-multiply constants
  0xBF58476D1CE4E5B9 and 0x94D049BB133111EB (Steele et al.'s splitmix64);
* the per-class stream seed is ``seed XOR ((leaf_index + 1) *
  0x9E3779B97F4A7C15 mod 2^64)``;
* bounded draws below n reject values >= floor(2^64 / n) * n, then reduce
  modulo n;
* Fisher-Yates runs from the last index down to 1, swapping i with
  draw_below(i + 1).
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from .errors import ConfigError, EmptyManifestError, ParseError, UnknownLabelError, WxhierError
from .errors import check_fields
from .imageio import check_channel_order
from .taxonomy import LEAF_CLASSES, LEAF_INDEX, Taxonomy, group_of

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest row; every entry reads back from ``manifest_to_csv`` as made.

    The reader strips each field, and no file system takes a NUL in a path.
    """

    path: str
    leaf: str
    channel_order: str = "RGB"

    def __post_init__(self):
        check_fields(self, ParseError)
        if not self.path:
            raise ParseError("empty path")
        if self.path != self.path.strip():
            raise ParseError(f"path {self.path!r} has surrounding whitespace")
        if "\0" in self.path:
            raise ParseError("NUL byte in path")
        if len(self.path) > csv.field_size_limit():
            raise ParseError(f"path longer than {csv.field_size_limit()} characters")
        if self.leaf not in LEAF_INDEX:
            raise UnknownLabelError(f"unknown label {self.leaf!r}")
        check_channel_order(self.channel_order)


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.30
    val_fraction: float = 0.20  # of the train pool
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ConfigError)  # any int seeds the split: splitmix masks it
        for name in ("test_fraction", "val_fraction"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {value}")


@dataclass(frozen=True)
class SplitResult:
    train: list[ManifestEntry]
    val: list[ManifestEntry]
    test: list[ManifestEntry]


class _SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        limit = ((1 << 64) // n) * n
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n


def _shuffled(indices: list[int], rng: _SplitMix64) -> list[int]:
    out = list(indices)
    for i in range(len(out) - 1, 0, -1):
        j = rng.below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def load_manifest(data: bytes | str) -> list[ManifestEntry]:
    """Parse a manifest CSV with header ``path,label[,channel_order]``."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"manifest is not UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(data))
    rows = []  # (line number, row); blank lines are ignored
    try:
        for row in reader:
            if row:
                rows.append((reader.line_num, row))
    except csv.Error as exc:  # e.g. a bare CR in an unquoted field, an over-long field
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError("empty manifest: missing header")
    header = [c.strip() for c in rows[0][1]]
    if header not in (["path", "label"], ["path", "label", "channel_order"]):
        raise ParseError(f"bad manifest header {header!r}")
    entries = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(f"line {lineno}: expected {len(header)} columns, got {len(row)}")
        try:
            entries.append(ManifestEntry(*(cell.strip() for cell in row)))
        except WxhierError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return entries


def csv_text(rows) -> str:
    """``rows`` as CSV text with ``\\n`` line ends, fields quoted where needed.

    Told ``\\r\\n`` line ends, the writer quotes a field holding a ``\\r`` too.
    """
    records: list[str] = []
    csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n").writerows(rows)
    return "".join(record[:-2] + "\n" for record in records)


def manifest_to_csv(entries: list[ManifestEntry]) -> str:
    rows = [(e.path, e.leaf, e.channel_order) for e in entries]
    return csv_text([("path", "label", "channel_order"), *rows])


def stratified_split(entries: list[ManifestEntry], spec: SplitSpec) -> SplitResult:
    """Per-class seeded shuffle, then floor-sized test and val cuts.

    Per class of size n: floor(n * test_fraction) entries go to test, the
    remainder form the train pool; floor(pool * val_fraction) go
    to val, the rest to train.  Output lists keep the original manifest
    order.  Deterministic given (entries order, seed).
    """
    if not entries:
        raise EmptyManifestError("cannot split an empty manifest")
    # Fractions come in as decimal literals (0.30, 0.20); exact rational
    # arithmetic keeps floor(10 * 0.3) == 3 instead of flooring a float
    # that landed just below the true product.
    test_frac = Fraction(str(spec.test_fraction))
    val_frac = Fraction(str(spec.val_fraction))
    train_idx: list[int] = []
    val_idx: list[int] = []
    test_idx: list[int] = []
    for leaf in LEAF_CLASSES:
        cls = [i for i, e in enumerate(entries) if e.leaf == leaf]
        if not cls:
            continue
        rng = _SplitMix64(spec.seed ^ (((LEAF_INDEX[leaf] + 1) * _GOLDEN) & _MASK64))
        order = _shuffled(cls, rng)
        n_test = int(len(order) * test_frac)
        test_idx += order[:n_test]
        pool = order[n_test:]
        n_val = int(len(pool) * val_frac)
        val_idx += pool[:n_val]
        train_idx += pool[n_val:]
    return SplitResult(
        train=[entries[i] for i in sorted(train_idx)],
        val=[entries[i] for i in sorted(val_idx)],
        test=[entries[i] for i in sorted(test_idx)],
    )


def distribution_csv(splits: dict[str, list[ManifestEntry]], taxonomy: Taxonomy) -> str:
    """Report rows ``leaf,count,group,split`` for external plotting."""
    rows: list[tuple] = [("leaf", "count", "group", "split")]
    for split_name, entries in splits.items():
        counts = Counter(e.leaf for e in entries)
        rows += [(leaf, counts[leaf], group_of(leaf, taxonomy), split_name)
                 for leaf in LEAF_CLASSES]
    return csv_text(rows)
