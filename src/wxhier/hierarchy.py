"""Two-level classifier: coarse 3-way routing into per-group sub-models.

The primary model picks Rainy / Dusty / Cold from the whole image; the
matching sub-model then picks the leaf class among that group's leaves.
Cold images additionally get a 2-way safety verdict from a dedicated
model; for the other routes safety falls back to the taxonomy map, since
only the cold branch carries a trained safety head.  Routing is hard
argmax everywhere, ties toward the lowest index.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ManifestEntry
from .errors import (
    ConfigError,
    DegenerateError,
    FormatError,
    MissingClassError,
    ShapeError,
    ValidationError,
    VersionError,
)
from .imageio import ImageU8, bgr_to_rgb, decode_ppm, to_tensor
from .preprocess import (
    NormalizationStats,
    compute_stats,
    load_stats,
    normalize,
    preprocess_pipeline,
    resize_lanczos,
    save_stats,
)
from .nn import (
    ModelSpec,
    Params,
    TrainConfig,
    basic_cnn_spec,
    forward_pass,
    init_params,
    load_model,
    save_model,
    train,
)
from .nn.train import EpochStats
from .taxonomy import (
    COARSE_GROUPS,
    GROUP_INDEX,
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


@dataclass(frozen=True)
class SubModel:
    spec: ModelSpec
    params: Params
    classes: tuple[str, ...]  # output index -> label name

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.spec.n_out != len(self.classes):
            raise ValidationError(
                f"model emits {self.spec.n_out} classes but {len(self.classes)} names given"
            )


def role_classes(taxonomy: Taxonomy) -> dict[str, tuple[str, ...]]:
    """Output class names of each bundle role, in ``MODEL_ROLES`` order."""
    groups = {GROUP_ROLES[g]: tuple(leaves_of(g, taxonomy)) for g in COARSE_GROUPS}
    return {"primary": COARSE_GROUPS, **groups, "sub_cold_safety": SAFETY_MODEL_CLASSES}


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
        for role, want in role_classes(self.taxonomy).items():
            got = getattr(self, role).classes
            if got != want:
                raise ValidationError(f"{role} model classes {got} != {want}")

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

def _probs(sub: SubModel, x: np.ndarray) -> np.ndarray:
    out, _ = forward_pass(sub.spec, sub.params, x, mode="infer")
    if not np.isfinite(out).all():  # never route by argmax over NaN
        raise DegenerateError(f"model over {sub.classes} gave non-finite probabilities")
    return out


def predict_batch(model: HierarchicalModel, x: np.ndarray) -> list[HierPrediction]:
    """Hard-routed predictions for a batch of preprocessed (N,H,W,C) tensors.

    Each sub-model runs once on the slice of the batch routed to it, which
    is much cheaper than one-at-a-time prediction.  Probabilities can
    differ from one-at-a-time prediction by about 1e-8, since the BLAS
    reduction order depends on the batch shape (README "Determinism");
    the tests compare the argmax labels exactly.
    """
    n = x.shape[0]
    group_probs = _probs(model.primary, x)
    group_idx = group_probs.argmax(axis=1)
    preds: list[HierPrediction | None] = [None] * n
    for gi, group in enumerate(COARSE_GROUPS):
        (rows,) = np.nonzero(group_idx == gi)
        if rows.size == 0:
            continue
        sub = model.sub_for_group(group)
        leaf_probs = _probs(sub, x[rows])
        leaf_idx = leaf_probs.argmax(axis=1)
        if group == "Cold":
            safety_probs = _probs(model.sub_cold_safety, x[rows])
            safety_idx = safety_probs.argmax(axis=1)
        for j, row in enumerate(rows):
            leaf = sub.classes[leaf_idx[j]]
            if group == "Cold":
                safety = SAFETY_MODEL_CLASSES[safety_idx[j]]
                source = "cold_model"
                sprobs = safety_probs[j]
            else:
                safety = safety_of(leaf, model.taxonomy)
                source = "taxonomy"
                sprobs = None
            preds[row] = HierPrediction(
                group, group_probs[row], leaf, leaf_probs[j], safety, source, sprobs
            )
    return preds  # type: ignore[return-value]


def predict_hierarchical(
    model: HierarchicalModel, image: ImageU8, channel_order: str = "RGB"
) -> HierPrediction:
    """Raw decoded image -> resize + standardize -> routed prediction."""
    x = preprocess_pipeline(image, channel_order, model.stats, model.input_hw)
    return predict_batch(model, x[np.newaxis])[0]


def joint_leaf_batch(model: HierarchicalModel, x: np.ndarray) -> np.ndarray:
    """Soft-routing diagnostic: p(leaf) = sum_g p(g) * p(leaf | g), (N, 11).

    The hard-routed leaf comes from a single sub-model and may differ
    from this distribution's argmax.
    """
    group_probs = _probs(model.primary, x)
    out = np.zeros((x.shape[0], len(LEAF_CLASSES)), dtype=np.float64)
    for gi, group in enumerate(COARSE_GROUPS):
        sub = model.sub_for_group(group)
        leaf_probs = _probs(sub, x)
        for j, leaf in enumerate(sub.classes):
            out[:, LEAF_INDEX[leaf]] += group_probs[:, gi].astype(np.float64) * leaf_probs[
                :, j
            ].astype(np.float64)
    return out


# ------------------------------------------------------------------ training

@dataclass(frozen=True)
class HierTrainConfig:
    input_hw: tuple[int, int] = (100, 100)
    scale: str = "paper"  # basic-CNN scale for all five models
    epochs: int = 30
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    dropout: float = 0.25
    seed: int = 0

    def train_config(self, role_index: int) -> TrainConfig:
        # distinct but pinned seed per model
        return TrainConfig(
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            batch_size=self.batch_size,
            seed=self.seed + role_index,
        )


def load_image_tensors(
    entries: list[ManifestEntry], out_hw: tuple[int, int], root: str | Path = "."
) -> np.ndarray:
    """Decode and resize manifest images to a raw 0..255 (N,H,W,3) batch."""
    root = Path(root)
    out = np.empty((len(entries), out_hw[0], out_hw[1], 3), dtype=np.float32)
    for i, entry in enumerate(entries):
        path = Path(entry.path)
        if not path.is_absolute():
            path = root / path
        img = decode_ppm(path.read_bytes())
        if entry.channel_order == "BGR":
            img = bgr_to_rgb(img)
        out[i] = resize_lanczos(to_tensor(img), out_hw[0], out_hw[1])
    return out


def load_standardized(
    train_entries: list[ManifestEntry],
    out_hw: tuple[int, int],
    root: str | Path = ".",
    other_entries: list[ManifestEntry] | None = None,
) -> tuple[np.ndarray, np.ndarray | None, NormalizationStats]:
    """Load the training images and standardize them with their own stats.

    ``other_entries`` (a validation or test set) are standardized with the
    same stats; their tensor is None when there are none.
    """
    x_raw = load_image_tensors(train_entries, out_hw, root)
    stats = compute_stats(x_raw)
    x_train = normalize(x_raw, stats)
    del x_raw
    x_other = None
    if other_entries:
        x_other = normalize(load_image_tensors(other_entries, out_hw, root), stats)
    return x_train, x_other, stats


def leaf_labels(entries: list[ManifestEntry]) -> np.ndarray:
    return np.array([LEAF_INDEX[e.leaf] for e in entries], dtype=np.int64)


def check_all_leaves_present(entries: list[ManifestEntry]) -> None:
    seen = {e.leaf for e in entries}
    missing = [leaf for leaf in LEAF_CLASSES if leaf not in seen]
    if missing:
        raise MissingClassError(f"training data lacks leaf classes: {', '.join(missing)}")


def train_hierarchical(
    train_entries: list[ManifestEntry],
    taxonomy: Taxonomy,
    cfg: HierTrainConfig,
    val_entries: list[ManifestEntry] | None = None,
    root: str | Path = ".",
) -> tuple[HierarchicalModel, dict[str, list[EpochStats]]]:
    """Train all five models; returns the model and per-role histories.

    The primary model sees every training image with its coarse group as
    the label; each sub-model sees only its group's images.  The cold
    safety model sees the cold images whose taxonomy safety is Safe or
    PotentiallyHazardous (the 2-way head cannot represent a third
    level, so cold leaves mapped to Dangerous are left out of it).  One
    NormalizationStats, computed on the resized training tensors, is
    shared by all five.
    """
    classes = role_classes(taxonomy)
    input_shape = (cfg.input_hw[0], cfg.input_hw[1], 3)
    try:  # before any image is decoded
        specs = {
            role: basic_cnn_spec(input_shape, len(names), scale=cfg.scale, dropout=cfg.dropout)
            for role, names in classes.items()
        }
    except ShapeError as exc:
        raise ConfigError(
            f"input size {cfg.input_hw[0]}x{cfg.input_hw[1]} does not fit the "
            f"{cfg.scale!r} preset: {exc}"
        ) from None
    check_all_leaves_present(train_entries)
    val_entries = val_entries or []

    x_train, x_val, stats = load_standardized(train_entries, cfg.input_hw, root, val_entries)
    subs: dict[str, SubModel] = {}
    histories: dict[str, list[EpochStats]] = {}

    def fit(role: str, x, y, xv, yv) -> None:
        tc = cfg.train_config(MODEL_ROLES.index(role))
        params, histories[role] = train(specs[role], x, y, tc, xv, yv)
        subs[role] = SubModel(specs[role], params, classes[role])

    # primary: group labels over the full set
    y_group = np.array(
        [GROUP_INDEX[group_of(e.leaf, taxonomy)] for e in train_entries], dtype=np.int64
    )
    yv_group = np.array(
        [GROUP_INDEX[group_of(e.leaf, taxonomy)] for e in val_entries], dtype=np.int64
    )
    fit("primary", x_train, y_group, x_val, yv_group if val_entries else None)

    # per-group sub-models with within-group leaf labels
    for role in GROUP_ROLES.values():
        class_pos = {leaf: i for i, leaf in enumerate(classes[role])}
        rows = np.array(
            [i for i, e in enumerate(train_entries) if e.leaf in class_pos], dtype=np.intp
        )
        y_sub = np.array([class_pos[train_entries[i].leaf] for i in rows], dtype=np.int64)
        vrows = np.array(
            [i for i, e in enumerate(val_entries) if e.leaf in class_pos], dtype=np.intp
        )
        xv_sub = x_val[vrows] if vrows.size else None
        yv_sub = np.array([class_pos[val_entries[i].leaf] for i in vrows], dtype=np.int64)
        fit(role, x_train[rows], y_sub, xv_sub, yv_sub if vrows.size else None)

    # cold safety head: cold images with a representable safety level
    def safety_rows(entries):
        rows, labels = [], []
        for i, e in enumerate(entries):
            if group_of(e.leaf, taxonomy) != "Cold":
                continue
            safety = safety_of(e.leaf, taxonomy)
            if safety in SAFETY_MODEL_CLASSES:
                rows.append(i)
                labels.append(SAFETY_MODEL_CLASSES.index(safety))
        return np.array(rows, dtype=np.intp), np.array(labels, dtype=np.int64)

    srows, y_safety = safety_rows(train_entries)
    present = set(y_safety.tolist())
    absent = [name for i, name in enumerate(SAFETY_MODEL_CLASSES) if i not in present]
    if absent:
        raise MissingClassError(f"no cold training images with safety: {', '.join(absent)}")
    svrows, yv_safety = safety_rows(val_entries)
    fit(
        "sub_cold_safety",
        x_train[srows],
        y_safety,
        x_val[svrows] if svrows.size else None,
        yv_safety if svrows.size else None,
    )
    return HierarchicalModel(**subs, taxonomy=taxonomy, stats=stats), histories


def init_hierarchical(
    taxonomy: Taxonomy,
    input_hw: tuple[int, int] = (16, 16),
    scale: str = "micro",
    seed: int = 0,
    stats: NormalizationStats | None = None,
) -> HierarchicalModel:
    """Randomly initialized model (no training); useful for property tests."""
    rng = np.random.default_rng(seed)
    input_shape = (input_hw[0], input_hw[1], 3)
    stats = stats or NormalizationStats(mean=127.5, std=64.0, sample_count=2)

    def make(classes: tuple[str, ...]) -> SubModel:
        spec = basic_cnn_spec(input_shape, len(classes), scale=scale)
        return SubModel(spec, init_params(spec, rng), classes)

    subs = {role: make(classes) for role, classes in role_classes(taxonomy).items()}
    return HierarchicalModel(**subs, taxonomy=taxonomy, stats=stats)


# ------------------------------------------------------------------- bundles

def save_hierarchical(model: HierarchicalModel, dirpath: str | Path) -> None:
    """Write the bundle directory: five model files, taxonomy, stats, manifest."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    hasher = hashlib.sha256()
    files: dict[str, str] = {}
    for role in MODEL_ROLES:
        sub = getattr(model, role)
        fname = f"{role}.wxm1"
        save_model(dirpath / fname, sub.spec, sub.params, model.stats, list(sub.classes))
        files[role] = fname
        hasher.update((dirpath / fname).read_bytes())
    (dirpath / "taxonomy.cfg").write_text(serialize_taxonomy(model.taxonomy))
    hasher.update((dirpath / "taxonomy.cfg").read_bytes())
    save_stats(dirpath / "stats.json", model.stats)
    hasher.update((dirpath / "stats.json").read_bytes())
    manifest = {
        "format": "wxhier-bundle",
        "version": BUNDLE_VERSION,
        "models": files,
        "taxonomy": "taxonomy.cfg",
        "stats": "stats.json",
        "content_hash": hasher.hexdigest(),
    }
    (dirpath / "bundle.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def bundle_content_hash(dirpath: str | Path) -> str:
    """Recompute the digest over the bundle's payload files in pinned order."""
    dirpath = Path(dirpath)
    manifest = _read_bundle_manifest(dirpath)
    hasher = hashlib.sha256()
    for role in MODEL_ROLES:
        hasher.update((dirpath / manifest["models"][role]).read_bytes())
    hasher.update((dirpath / manifest["taxonomy"]).read_bytes())
    hasher.update((dirpath / manifest["stats"]).read_bytes())
    return hasher.hexdigest()


def _read_bundle_manifest(dirpath: Path) -> dict:
    mpath = dirpath / "bundle.json"
    if not mpath.is_file():
        raise FormatError(f"{dirpath}: no bundle.json manifest")
    try:
        manifest = json.loads(mpath.read_bytes())
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8 or too deep
        raise FormatError(f"{mpath}: bad JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "wxhier-bundle":
        raise FormatError(f"{mpath}: not a model bundle manifest")
    if manifest.get("version") != BUNDLE_VERSION:
        raise VersionError(f"{mpath}: unsupported bundle version {manifest.get('version')!r}")
    missing = [k for k in ("models", "taxonomy", "stats", "content_hash") if k not in manifest]
    if missing:
        raise FormatError(f"{mpath}: manifest missing keys: {', '.join(missing)}")
    models = manifest["models"]
    if not isinstance(models, dict) or set(models) != set(MODEL_ROLES):
        raise FormatError(f"{mpath}: models must map the roles {', '.join(MODEL_ROLES)}")
    names = [*models.values(), manifest["taxonomy"], manifest["stats"]]
    if not all(isinstance(name, str) and "\0" not in name for name in names):
        raise FormatError(f"{mpath}: file names must be strings without NUL")
    return manifest


def load_hierarchical(dirpath: str | Path) -> HierarchicalModel:
    dirpath = Path(dirpath)
    manifest = _read_bundle_manifest(dirpath)
    if bundle_content_hash(dirpath) != manifest["content_hash"]:
        raise FormatError(f"{dirpath}: bundle content does not match its recorded hash")

    taxonomy = load_taxonomy((dirpath / manifest["taxonomy"]).read_bytes())
    stats = load_stats(dirpath / manifest["stats"])

    subs: dict[str, SubModel] = {}
    for role in MODEL_ROLES:
        spec, params, _, labels = load_model(dirpath / manifest["models"][role])
        if labels is None:
            raise FormatError(f"{role} model file lacks its class-name list")
        subs[role] = SubModel(spec, params, tuple(labels))
    return HierarchicalModel(**subs, taxonomy=taxonomy, stats=stats)
