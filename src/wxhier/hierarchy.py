"""Two-level classifier: coarse 3-way routing into per-group sub-models.

The primary model picks Rainy / Dusty / Cold from the whole image; the
matching sub-model then picks the leaf class among that group's leaves.
Cold images additionally get a 2-way safety verdict from a dedicated
model; for the other routes safety falls back to the taxonomy map, since
only the cold branch carries a trained safety head.  Routing is hard
argmax everywhere, ties toward the lowest index.

Each of the five bundle roles has one definition of its classes
(``role_classes``) and of the images it learns from with their labels
(``role_targets``); training, the class check before training,
prediction, the per-group evaluation matrices and the bundle's model
files all read them.  No model object stores class names.

``load_standardized`` is the one data path from manifest entries to a
standardized batch: training (train and val sets), evaluation, model
scoring in ``wxhier compare`` and ``wxhier preprocess`` all call it.
``HierTrainConfig`` is the one recipe of a ``wxhier train`` run, whatever its arch.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import ManifestEntry
from .errors import (
    ConfigError,
    EmptyManifestError,
    FormatError,
    MissingClassError,
    ShapeError,
    ValidationError,
    VersionError,
    in_file,
    json_object,
    read_file,
)
from .imageio import ImageU8, decode_ppm
from .preprocess import (
    NormalizationStats,
    compute_stats,
    model_input,
    normalize,
    preprocess_pipeline,
    stats_from_json,
    stats_to_json,
)
from .nn import (
    ModelSpec,
    Params,
    TrainConfig,
    Workspace,
    basic_cnn_spec,
    init_params,
    model_from_bytes,
    model_to_bytes,
    predict,
    softmax_flat_spec,
    train,
    vgg_style_spec,
)
from .nn.train import EpochStats
from .taxonomy import (
    COARSE_GROUPS,
    LEAF_CLASSES,
    LEAF_INDEX,
    Taxonomy,
    group_of,
    leaves_of,
    load_taxonomy,
    safety_of,
    serialize_taxonomy,
)

SAFETY_MODEL_CLASSES = ("Safe", "PotentiallyHazardous")

# bundle roles in pinned order; also the hash and training order
MODEL_ROLES = ("primary", "sub_rainy", "sub_dusty", "sub_cold_fine", "sub_cold_safety")
# coarse group -> role of its leaf sub-model (roles 1..3 follow COARSE_GROUPS)
GROUP_ROLES = dict(zip(COARSE_GROUPS, MODEL_ROLES[1:4]))

BUNDLE_VERSION = 1
# bundle.json's payload entries: a bundle holds exactly these files
BUNDLE_LAYOUT = {
    "models": {role: f"{role}.wxm1" for role in MODEL_ROLES},
    "taxonomy": "taxonomy.cfg",
    "stats": "stats.json",
}
# the same files in pinned hash order: the models in role order, then taxonomy and stats
BUNDLE_FILES = (
    *BUNDLE_LAYOUT["models"].values(), BUNDLE_LAYOUT["taxonomy"], BUNDLE_LAYOUT["stats"]
)


@dataclass(frozen=True)
class SubModel:
    """One bundle role's network; ``role_classes`` names its outputs."""

    spec: ModelSpec
    params: Params


def role_classes(taxonomy: Taxonomy) -> dict[str, tuple[str, ...]]:
    """Output class names of each bundle role, in ``MODEL_ROLES`` order."""
    groups = {GROUP_ROLES[g]: tuple(leaves_of(g, taxonomy)) for g in COARSE_GROUPS}
    return {"primary": COARSE_GROUPS, **groups, "sub_cold_safety": SAFETY_MODEL_CLASSES}


def role_targets(
    role: str, leaves: Sequence[str], taxonomy: Taxonomy
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending rows of ``leaves`` that ``role`` learns from, and their labels.

    Labels index ``role_classes(taxonomy)[role]``.  The primary model
    learns every row, labelled by group; each group's sub-model learns
    that group's rows, labelled by leaf; the cold safety head learns the
    cold rows whose safety level is Safe or PotentiallyHazardous (its
    2-way head cannot represent Dangerous).
    """
    classes = role_classes(taxonomy)[role]
    if role == "primary":
        name_of = {leaf: group_of(leaf, taxonomy) for leaf in LEAF_CLASSES}
    elif role == "sub_cold_safety":
        name_of = {leaf: safety_of(leaf, taxonomy) for leaf in leaves_of("Cold", taxonomy)}
    else:
        name_of = {leaf: leaf for leaf in classes}
    label_of = {leaf: classes.index(name) for leaf, name in name_of.items() if name in classes}
    rows = [i for i, leaf in enumerate(leaves) if leaf in label_of]
    labels = [label_of[leaves[i]] for i in rows]
    return np.array(rows, dtype=np.intp), np.array(labels, dtype=np.int64)


@dataclass(frozen=True)
class HierarchicalModel:
    primary: SubModel
    sub_rainy: SubModel
    sub_dusty: SubModel
    sub_cold_fine: SubModel
    sub_cold_safety: SubModel
    taxonomy: Taxonomy
    stats: NormalizationStats

    def __post_init__(self):
        for role, names in role_classes(self.taxonomy).items():
            sub = getattr(self, role)
            if sub.spec.n_out != len(names):
                raise ValidationError(f"{role} model emits {sub.spec.n_out} classes, not {names}")
            if sub.spec.input_shape != self.primary.spec.input_shape:
                shapes = f"{sub.spec.input_shape} != primary's {self.primary.spec.input_shape}"
                raise ValidationError(f"{role} model input {shapes}")

    def sub_for_group(self, group: str) -> SubModel:
        return getattr(self, GROUP_ROLES[group])

    @property
    def input_hw(self) -> tuple[int, int]:
        return self.primary.spec.input_shape[:2]


@dataclass(frozen=True)
class HierPrediction:
    group: str
    group_probs: np.ndarray  # over COARSE_GROUPS
    leaf: str
    leaf_probs: np.ndarray  # over the routed sub-model's classes
    safety: str
    safety_source: str  # "taxonomy" or "cold_model"
    safety_probs: np.ndarray | None  # cold routes only


# ---------------------------------------------------------------- prediction

def predict_batch(
    model: HierarchicalModel, x: np.ndarray, workspace: Workspace | None = None
) -> list[HierPrediction]:
    """Hard-routed predictions for a batch of preprocessed (N,H,W,C) tensors.

    Each sub-model runs once on the slice of the batch routed to it, which
    is much cheaper than one-at-a-time prediction.  Every forward goes
    through ``workspace`` when given: the forwards of one caller then share
    its two activation buffers (``nn.Workspace``), with the same bits.
    Float32 probabilities can differ from one-at-a-time prediction, since
    the BLAS reduction order depends on the batch shape: by up to about
    2.4e-7 on random weights and 2.1e-6 on trained micro-preset models
    (README "Determinism"); the argmax labels agreed there, and the tests
    compare them exactly.
    """
    n = x.shape[0]
    classes = role_classes(model.taxonomy)
    group_probs = predict(model.primary.spec, model.primary.params, x, workspace)
    group_idx = group_probs.argmax(axis=1)
    preds: list[HierPrediction | None] = [None] * n
    for gi, group in enumerate(COARSE_GROUPS):
        (rows,) = np.nonzero(group_idx == gi)
        if rows.size == 0:
            continue
        sub = model.sub_for_group(group)
        xg = x[rows]
        leaf_probs = predict(sub.spec, sub.params, xg, workspace)
        leaves = [classes[GROUP_ROLES[group]][p.argmax()] for p in leaf_probs]
        if group == "Cold":
            head = model.sub_cold_safety
            safety_probs = predict(head.spec, head.params, xg, workspace)
            verdicts = [(SAFETY_MODEL_CLASSES[p.argmax()], "cold_model", p) for p in safety_probs]
        else:
            verdicts = [(safety_of(leaf, model.taxonomy), "taxonomy", None) for leaf in leaves]
        for row, leaf, probs, verdict in zip(rows, leaves, leaf_probs, verdicts):
            preds[row] = HierPrediction(group, group_probs[row], leaf, probs, *verdict)
    return preds  # type: ignore[return-value]


def predict_hierarchical(
    model: HierarchicalModel, image: ImageU8, channel_order: str = "RGB"
) -> HierPrediction:
    """Raw decoded image -> resize + standardize -> routed prediction."""
    x = preprocess_pipeline(image, channel_order, model.stats, model.input_hw)
    return predict_batch(model, x[np.newaxis])[0]


# ------------------------------------------------------------------ training

# each --arch and the model settings it reads: the one definition of the arch names
ARCHES = {
    "hierarchical": ("taxonomy", "scale", "dropout"),
    "softmax-flat": (),
    "basic-cnn": ("scale", "dropout"),
    "vgg-style": ("width_scale", "depth_scale"),
}


@dataclass(frozen=True, kw_only=True)
class HierTrainConfig(TrainConfig):
    """A ``TrainConfig`` plus the ``arch`` and its model settings (``ARCHES``).  Building
    it builds the widest model the run fits, one output per leaf class, so none fails later.
    """

    arch: str = "hierarchical"
    input_hw: tuple[int, ...] = (100, 100)  # (H, W); another length fits no model
    scale: str = "micro"  # basic-CNN block preset
    dropout: float = 0.25
    width_scale: float = 1.0  # vgg-style multipliers
    depth_scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.arch not in ARCHES:
            raise ConfigError(f"arch must be one of {', '.join(ARCHES)}, got {self.arch!r}")
        try:
            self.spec(len(LEAF_CLASSES))  # no role or flat model has more outputs
        except ShapeError as exc:
            size = "x".join(map(str, self.input_hw))
            msg = f"arch {self.arch} at input size {size} builds no valid model: {exc}"
            raise ConfigError(msg) from None

    def spec(self, n_out: int) -> ModelSpec:
        """The model of ``arch`` with ``n_out`` outputs: the only arch-to-builder rule."""
        shape = (*self.input_hw, 3)
        if self.arch == "softmax-flat":
            return softmax_flat_spec(shape, n_out)
        if self.arch == "vgg-style":
            return vgg_style_spec(shape, n_out, self.width_scale, self.depth_scale)
        return basic_cnn_spec(shape, n_out, scale=self.scale, dropout=self.dropout)

    def train_config(self, role_index: int) -> HierTrainConfig:
        # distinct but pinned seed per model
        return replace(self, seed=self.seed + role_index)


def load_image_tensors(
    entries: list[ManifestEntry], out_hw: tuple[int, int], root: str | Path = "."
) -> np.ndarray:
    """Decode manifest images and ``model_input`` each into a raw 0..255 (N,H,W,3) batch.

    A package error in one image names its path under ``root``.
    """
    out = np.empty((len(entries), out_hw[0], out_hw[1], 3), dtype=np.float32)
    for i, entry in enumerate(entries):
        path = Path(root) / entry.path
        with in_file(path):
            out[i] = model_input(decode_ppm(path.read_bytes()), entry.channel_order, out_hw)
    return out


def load_standardized(
    entries: list[ManifestEntry],
    out_hw: tuple[int, int],
    root: str | Path = ".",
    stats: NormalizationStats | None = None,
) -> tuple[np.ndarray, NormalizationStats]:
    """Manifest entries -> standardized (N,H,W,3) batch, and the stats it used.

    Without ``stats`` (a training set) they are computed from these images.
    No entries is an ``EmptyManifestError``.
    """
    if not entries:
        raise EmptyManifestError("the manifest lists no images")
    x = load_image_tensors(entries, out_hw, root)
    if stats is None:
        stats = compute_stats(x)
    return normalize(x, stats), stats


def leaf_labels(entries: list[ManifestEntry]) -> np.ndarray:
    return np.array([LEAF_INDEX[e.leaf] for e in entries], dtype=np.int64)


def _rows_of(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``x[rows]`` for ascending ``rows``; ``x`` itself, not a copy, when they are all of it."""
    return x if rows.size == x.shape[0] else x[rows]


def train_hierarchical(
    train_entries: list[ManifestEntry],
    taxonomy: Taxonomy,
    cfg: HierTrainConfig,
    val_entries: list[ManifestEntry] | None = None,
    root: str | Path = ".",
) -> tuple[HierarchicalModel, dict[str, list[EpochStats]]]:
    """Train all five models; returns the model and per-role histories.

    Each role trains ``cfg.spec`` on the rows and labels ``role_targets``
    gives it.  A role that lacks one of its classes in the training data,
    or that the taxonomy gives no class, raises ``MissingClassError``
    before any image is decoded.  All five share one NormalizationStats,
    computed on the resized training tensors.  Another arch is a ``ConfigError``.
    """
    if cfg.arch != "hierarchical":
        raise ConfigError(f"arch {cfg.arch} trains one flat model, not a bundle")
    classes = role_classes(taxonomy)
    val_entries = val_entries or []
    train_leaves = [e.leaf for e in train_entries]
    val_leaves = [e.leaf for e in val_entries]
    targets = {
        role: (role_targets(role, train_leaves, taxonomy), role_targets(role, val_leaves, taxonomy))
        for role in MODEL_ROLES
    }
    missing = [  # a role with no class in the taxonomy is reported by a placeholder
        f"{role}: {name}"
        for role, ((_, labels), _) in targets.items()
        for i, name in enumerate(classes[role] or ["(none in the taxonomy)"])
        if i not in labels
    ]
    if missing:
        raise MissingClassError(f"training data lacks classes: {', '.join(missing)}")

    x_train, stats = load_standardized(train_entries, cfg.input_hw, root)
    x_val = load_standardized(val_entries, cfg.input_hw, root, stats)[0] if val_entries else None
    subs: dict[str, SubModel] = {}
    histories: dict[str, list[EpochStats]] = {}
    for i, role in enumerate(MODEL_ROLES):
        (rows, y), (vrows, yv) = targets[role]
        xv, yv = (_rows_of(x_val, vrows), yv) if vrows.size else (None, None)
        spec = cfg.spec(len(classes[role]))
        params, histories[role] = train(
            spec, _rows_of(x_train, rows), y, cfg.train_config(i), xv, yv
        )
        subs[role] = SubModel(spec, params)
    return HierarchicalModel(**subs, taxonomy=taxonomy, stats=stats), histories


def init_hierarchical(
    taxonomy: Taxonomy, input_hw: tuple[int, int] = (16, 16), scale: str = "micro", seed: int = 0
) -> HierarchicalModel:
    """Randomly initialized model (no training); useful for property tests."""
    rng = np.random.default_rng(seed)
    cfg = HierTrainConfig(epochs=1, input_hw=input_hw, scale=scale)
    specs = {role: cfg.spec(len(classes)) for role, classes in role_classes(taxonomy).items()}
    subs = {role: SubModel(spec, init_params(spec, rng)) for role, spec in specs.items()}
    stats = NormalizationStats(mean=127.5, std=64.0, sample_count=2)
    return HierarchicalModel(**subs, taxonomy=taxonomy, stats=stats)


# ------------------------------------------------------------------- bundles

def save_hierarchical(model: HierarchicalModel, dirpath: str | Path) -> None:
    """Write the bundle directory: five model files, taxonomy, stats, manifest.

    The content hash is taken over the payload bytes as they are written.  The files
    go into a sibling directory that renames swap in, so ``dirpath`` is always absent,
    the old bundle or the new one.  A file, or a non-empty directory without
    ``bundle.json``, is never replaced.
    """
    dirpath = Path(dirpath)
    if dirpath.exists() and not (dirpath / "bundle.json").is_file():
        if not dirpath.is_dir() or any(dirpath.iterdir()):
            raise FileExistsError(f"{dirpath}: not a bundle directory, so not replaced")
    classes = role_classes(model.taxonomy)
    subs = [(getattr(model, role), list(classes[role])) for role in MODEL_ROLES]
    payloads = [
        *(model_to_bytes(sub.spec, sub.params, model.stats, names) for sub, names in subs),
        serialize_taxonomy(model.taxonomy).encode("utf-8"),
        stats_to_json(model.stats).encode("utf-8"),
    ]
    manifest = {
        "format": "wxhier-bundle",
        "version": BUNDLE_VERSION,
        **BUNDLE_LAYOUT,
        "content_hash": _digest(payloads),
    }
    manifest_bytes = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    dirpath.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{dirpath.name}.", dir=dirpath.parent) as stage:
        new, old = Path(stage, "new"), Path(stage, "old")
        new.mkdir()
        for name, blob in zip((*BUNDLE_FILES, "bundle.json"), (*payloads, manifest_bytes)):
            (new / name).write_bytes(blob)
        if dirpath.exists():
            dirpath.rename(old)
        try:
            new.rename(dirpath)
        except OSError:  # put the old bundle back
            if old.exists():
                old.rename(dirpath)
            raise


def _digest(payloads) -> str:
    hasher = hashlib.sha256()
    for blob in payloads:
        hasher.update(blob)
    return hasher.hexdigest()


def bundle_content_hash(dirpath: str | Path) -> str:
    """Digest of the payload files, in pinned order, of a bundle directory
    that ``load_hierarchical`` has accepted; ``bundle.json`` is not read."""
    return _digest((Path(dirpath) / name).read_bytes() for name in BUNDLE_FILES)


def _read_bundle_manifest(dirpath: Path) -> dict:
    """The parsed ``bundle.json``, whose payload entries match ``BUNDLE_LAYOUT``."""
    mpath = dirpath / "bundle.json"
    if not mpath.is_file():
        raise FormatError(f"{dirpath}: no bundle.json manifest")
    manifest = json_object(mpath.read_bytes(), str(mpath), FormatError)
    if manifest.get("format") != "wxhier-bundle":
        raise FormatError(f"{mpath}: not a model bundle manifest")
    if manifest.get("version") != BUNDLE_VERSION:
        raise VersionError(f"{mpath}: unsupported bundle version {manifest.get('version')!r}")
    if "content_hash" not in manifest:
        raise FormatError(f"{mpath}: manifest missing key: content_hash")
    for key, want in BUNDLE_LAYOUT.items():
        if manifest.get(key) != want:
            raise FormatError(f"{mpath}: {key} must be {json.dumps(want, sort_keys=True)}")
    return manifest


def load_hierarchical(dirpath: str | Path) -> HierarchicalModel:
    """Read a bundle, verifying its layout, content hash and each member's classes and stats.

    A package error in ``taxonomy.cfg``, ``stats.json`` or a member model
    file, the member's class and stats checks included, is raised as its
    own type with that file's path in front.
    """
    dirpath = Path(dirpath)
    manifest = _read_bundle_manifest(dirpath)
    if bundle_content_hash(dirpath) != manifest["content_hash"]:
        raise FormatError(f"{dirpath}: bundle content does not match its recorded hash")

    taxonomy = read_file(dirpath / BUNDLE_LAYOUT["taxonomy"], load_taxonomy)
    stats = read_file(dirpath / BUNDLE_LAYOUT["stats"], stats_from_json)

    classes = role_classes(taxonomy)
    subs: dict[str, SubModel] = {}
    for role, name in BUNDLE_LAYOUT["models"].items():
        path = dirpath / name
        with in_file(path):
            spec, params, model_stats, labels = model_from_bytes(path.read_bytes())
            if tuple(labels) != classes[role]:
                raise ValidationError(f"{role} model classes {tuple(labels)} != {classes[role]}")
            if model_stats != stats:
                raise ValidationError(f"{role} model stats {model_stats} != stats.json's {stats}")
        subs[role] = SubModel(spec, params)
    return HierarchicalModel(**subs, taxonomy=taxonomy, stats=stats)
