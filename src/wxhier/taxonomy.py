"""Label hierarchy: 11 leaf weather classes, 3 coarse groups, 3 safety levels.

Leaf classes are ordered alphabetically and that order fixes the integer
index used for one-hot targets everywhere, so indices stay stable across
runs and serialized files.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources

from .errors import ParseError, ValidationError

LEAF_CLASSES: tuple[str, ...] = (
    "dew",
    "fog_smog",
    "frost",
    "glaze",
    "hail",
    "lightning",
    "rain",
    "rainbow",
    "rime",
    "sandstorm",
    "snow",
)

COARSE_GROUPS: tuple[str, ...] = ("Rainy", "Dusty", "Cold")

SAFETY_LEVELS: tuple[str, ...] = ("Safe", "PotentiallyHazardous", "Dangerous")

LEAF_INDEX: dict[str, int] = {name: i for i, name in enumerate(LEAF_CLASSES)}
GROUP_INDEX: dict[str, int] = {name: i for i, name in enumerate(COARSE_GROUPS)}
SAFETY_INDEX: dict[str, int] = {name: i for i, name in enumerate(SAFETY_LEVELS)}


@dataclass(frozen=True)
class Taxonomy:
    """Total maps leaf -> coarse group and leaf -> safety level, plus a one-line version tag.

    Immutable after construction; safe to share across threads.
    """

    leaf_to_group: dict[str, str]
    leaf_to_safety: dict[str, str]
    version: str = "unversioned"

    def __post_init__(self):
        _check_total_map(self.leaf_to_group, COARSE_GROUPS, "groups")
        _check_total_map(self.leaf_to_safety, SAFETY_LEVELS, "safety")
        if "\n" in self.version:
            raise ValidationError(f"version must be one line, got {self.version!r}")


def _check_total_map(mapping: dict[str, str], targets: tuple[str, ...], section: str) -> None:
    for leaf in LEAF_CLASSES:
        if leaf not in mapping:
            raise ValidationError(f"[{section}] missing leaf class {leaf!r}")
    for key, value in mapping.items():
        if key not in LEAF_INDEX:
            raise ValidationError(f"[{section}] unknown leaf class {key!r}")
        if value not in targets:
            raise ValidationError(f"[{section}] unknown target {value!r} for {key!r}")


def default_taxonomy() -> Taxonomy:
    """The mapping in the packaged ``data/default_taxonomy.cfg``.

    Its safety levels are configuration, not ground truth: only the
    cold-weather Safe/PotentiallyHazardous distinction is externally fixed.
    """
    packaged = resources.files("wxhier.data").joinpath("default_taxonomy.cfg")
    return load_taxonomy(packaged.read_bytes())


def group_of(leaf: str, t: Taxonomy) -> str:
    return t.leaf_to_group[leaf]


def safety_of(leaf: str, t: Taxonomy) -> str:
    return t.leaf_to_safety[leaf]


def leaves_of(group: str, t: Taxonomy) -> list[str]:
    """Pre-image of a group, sorted by leaf index."""
    if group not in GROUP_INDEX:
        raise ValidationError(f"unknown group {group!r}")
    return [leaf for leaf in LEAF_CLASSES if t.leaf_to_group[leaf] == group]


def serialize_taxonomy(t: Taxonomy) -> str:
    """Canonical config document; ``load_taxonomy`` round-trips it."""
    lines = ["[meta]", f"version = {t.version}", "", "[groups]"]
    lines += [f"{leaf} = {t.leaf_to_group[leaf]}" for leaf in LEAF_CLASSES]
    lines += ["", "[safety]"]
    lines += [f"{leaf} = {t.leaf_to_safety[leaf]}" for leaf in LEAF_CLASSES]
    return "\n".join(lines) + "\n"


def load_taxonomy(file_bytes: bytes | str) -> Taxonomy:
    """Parse and validate a taxonomy config document.

    The document has two mandatory sections, ``[groups]`` and ``[safety]``,
    each mapping every leaf identifier to exactly one target identifier,
    plus an optional ``[meta]`` section with a one-line ``version`` tag.  The
    parser is strict: unknown sections (``[DEFAULT]`` too), unknown keys,
    duplicates and missing leaves are all rejected.
    """
    if isinstance(file_bytes, bytes):
        try:
            text = file_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"taxonomy config is not UTF-8: {exc}") from None
    else:
        text = file_bytes

    # default_section="" names no section a header can open, so [DEFAULT] is unknown
    parser = configparser.ConfigParser(strict=True, interpolation=None, default_section="")
    parser.optionxform = str  # keep identifiers case-sensitive
    try:
        parser.read_string(text)
    except configparser.DuplicateOptionError as exc:
        raise ValidationError(f"duplicate leaf class: {exc}") from None
    except configparser.Error as exc:
        raise ParseError(f"malformed taxonomy config: {exc}") from None

    sections = set(parser.sections())
    allowed = {"meta", "groups", "safety"}
    unknown = sections - allowed
    if unknown:
        raise ValidationError(f"unknown sections: {sorted(unknown)}")
    for required in ("groups", "safety"):
        if required not in sections:
            raise ValidationError(f"missing section [{required}]")

    version = "unversioned"
    if "meta" in sections:
        meta_keys = set(parser["meta"])
        if meta_keys - {"version"}:
            raise ValidationError(f"unknown keys in [meta]: {sorted(meta_keys - {'version'})}")
        version = parser["meta"].get("version", version)

    groups = dict(parser["groups"])
    safety = dict(parser["safety"])
    return Taxonomy(groups, safety, version)
