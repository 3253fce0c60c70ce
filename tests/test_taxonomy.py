"""Label hierarchy: fixed orderings, total maps, config parsing."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wxhier.errors import ParseError, ValidationError, WxhierError
from wxhier.taxonomy import (
    COARSE_GROUPS,
    LEAF_CLASSES,
    LEAF_INDEX,
    SAFETY_LEVELS,
    Taxonomy,
    default_taxonomy,
    group_of,
    leaves_of,
    load_taxonomy,
    safety_of,
    serialize_taxonomy,
)


def test_leaf_classes_alphabetical_and_fixed():
    assert LEAF_CLASSES == (
        "dew", "fog_smog", "frost", "glaze", "hail", "lightning",
        "rain", "rainbow", "rime", "sandstorm", "snow",
    )
    assert list(LEAF_CLASSES) == sorted(LEAF_CLASSES)
    assert len(LEAF_CLASSES) == 11
    assert LEAF_INDEX["dew"] == 0 and LEAF_INDEX["glaze"] == 3


def test_group_and_safety_orderings():
    assert COARSE_GROUPS == ("Rainy", "Dusty", "Cold")
    assert SAFETY_LEVELS == ("Safe", "PotentiallyHazardous", "Dangerous")


def test_default_group_membership():
    t = default_taxonomy()
    assert leaves_of("Rainy", t) == ["hail", "lightning", "rain", "rainbow"]
    assert leaves_of("Dusty", t) == ["fog_smog", "sandstorm"]
    assert leaves_of("Cold", t) == ["dew", "frost", "glaze", "rime", "snow"]


def test_groups_partition_leaves():
    t = default_taxonomy()
    seen = [leaf for g in COARSE_GROUPS for leaf in leaves_of(g, t)]
    assert sorted(seen) == list(LEAF_CLASSES)
    for leaf in LEAF_CLASSES:
        assert group_of(leaf, t) in COARSE_GROUPS
        assert safety_of(leaf, t) in SAFETY_LEVELS


def test_cold_safety_spot_values():
    # the cold-group safety distinction drives the dedicated safety model
    t = default_taxonomy()
    assert safety_of("dew", t) == "Safe"
    assert safety_of("snow", t) == "Safe"
    assert safety_of("frost", t) == "PotentiallyHazardous"
    assert safety_of("rime", t) == "PotentiallyHazardous"
    assert safety_of("glaze", t) == "Dangerous"


def test_serialize_round_trips():
    t = default_taxonomy()
    again = load_taxonomy(serialize_taxonomy(t).encode("utf-8"))
    assert again == t
    assert again.version == t.version


def test_default_taxonomy_pins_readme_table_and_safety():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| (Rainy|Dusty|Cold) +\| ([a-z_, ]+?) +\|$", readme, re.MULTILINE)
    t = default_taxonomy()
    assert t.version == "default-v1"
    assert {g: leaves_of(g, t) for g in COARSE_GROUPS} == {g: v.split(", ") for g, v in rows}
    assert t.leaf_to_safety == {
        "dew": "Safe", "fog_smog": "Safe", "frost": "PotentiallyHazardous",
        "glaze": "Dangerous", "hail": "PotentiallyHazardous", "lightning": "Dangerous",
        "rain": "Safe", "rainbow": "Safe", "rime": "PotentiallyHazardous",
        "sandstorm": "Dangerous", "snow": "Safe",
    }


def test_leaves_of_unknown_group():
    with pytest.raises(ValidationError):
        leaves_of("Windy", default_taxonomy())


def test_missing_leaf_rejected():
    t = default_taxonomy()
    groups = dict(t.leaf_to_group)
    del groups["dew"]
    with pytest.raises(ValidationError, match="dew"):
        Taxonomy(groups, dict(t.leaf_to_safety))


def test_unknown_leaf_rejected():
    t = default_taxonomy()
    groups = dict(t.leaf_to_group)
    groups["tornado"] = "Rainy"
    with pytest.raises(ValidationError, match="tornado"):
        Taxonomy(groups, dict(t.leaf_to_safety))


def test_unknown_target_rejected():
    t = default_taxonomy()
    safety = dict(t.leaf_to_safety)
    safety["dew"] = "Mild"
    with pytest.raises(ValidationError, match="Mild"):
        Taxonomy(dict(t.leaf_to_group), safety)


def test_load_rejects_duplicate_leaf():
    text = serialize_taxonomy(default_taxonomy())
    dup = text.replace("[safety]\ndew = Safe", "[safety]\ndew = Safe\ndew = Safe")
    with pytest.raises(ValidationError, match="duplicate"):
        load_taxonomy(dup.encode("utf-8"))


def test_load_rejects_unknown_section():
    text = serialize_taxonomy(default_taxonomy()) + "\n[extras]\nfoo = bar\n"
    with pytest.raises(ValidationError, match="extras"):
        load_taxonomy(text.encode("utf-8"))


def test_load_rejects_missing_section():
    with pytest.raises(ValidationError, match="safety"):
        load_taxonomy(b"[groups]\n" + "".join(f"{l} = Rainy\n" for l in LEAF_CLASSES).encode())


def test_load_rejects_garbage():
    with pytest.raises(ParseError):
        load_taxonomy(b"not a config at all\x00")
    with pytest.raises(ParseError):
        load_taxonomy(b"\xff\xfe invalid utf8 \xff")


@pytest.mark.parametrize("version", ["v1\n  v2", "v1\n\n  v2"])
def test_load_rejects_a_version_that_spans_lines(version):
    # serialize_taxonomy would write it as lines that load_taxonomy rejects
    text = serialize_taxonomy(default_taxonomy()).replace("default-v1", version)
    with pytest.raises(ValidationError, match="version"):
        load_taxonomy(text.encode("utf-8"))


@pytest.mark.parametrize("default", ["[DEFAULT]\n", "[DEFAULT]\nversion = v2\n"])
@pytest.mark.parametrize("with_meta", [False, True])
def test_load_rejects_a_default_section(default, with_meta):
    text = serialize_taxonomy(default_taxonomy())
    if not with_meta:
        text = text.split("\n\n", 1)[1]
    with pytest.raises(ValidationError, match="DEFAULT"):
        load_taxonomy((default + text).encode("utf-8"))


# a version value, perhaps continued onto indented lines
_VERSION = st.lists(st.text(max_size=6), min_size=1, max_size=3).map("\n ".join)
_LINES = st.lists(
    st.one_of(
        st.sampled_from(["[meta]", "[groups]", "[safety]", "[DEFAULT]", "[extra]", "", "# c"]),
        st.builds("{} = {}".format, st.sampled_from([*LEAF_CLASSES, "version"]),
                  st.sampled_from([*COARSE_GROUPS, *SAFETY_LEVELS, "v2"])),
        st.text(max_size=8),  # free text; indented, it continues the line above
    ),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(_VERSION, _LINES, _LINES)
def test_accepted_taxonomy_text_round_trips(version, head, tail):
    body = serialize_taxonomy(default_taxonomy()).replace("default-v1", version)
    doc = "\n".join([*head, body, *tail]).encode("utf-8", "surrogatepass")
    try:
        t = load_taxonomy(doc)
    except WxhierError:  # the only rejection allowed
        return
    assert load_taxonomy(serialize_taxonomy(t).encode("utf-8")) == t
