"""Command-line pipeline: split, stats, preprocess, train, predict, evaluate,
compare, synth.

Option precedence is flags > config file (--config, JSON object keyed by
the long option names with underscores) > built-in defaults.  The default
output directory honors the WXHIER_OUTPUT_DIR environment variable.

Exit codes: 0 success, 2 configuration problem, 3 I/O failure, 4 data
problem (malformed/missing content), 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import nn
from .dataset import SplitSpec, load_manifest, manifest_to_csv, stratified_split, distribution_csv
from .errors import (
    ConfigError,
    DegenerateError,
    DimensionError,
    EmptyManifestError,
    EmptyMatrixError,
    FormatError,
    LabelRangeError,
    MissingClassError,
    ParseError,
    ShapeError,
    ValidationError,
    WxhierError,
)
from .hierarchy import (
    HierTrainConfig,
    bundle_content_hash,
    leaf_labels,
    load_hierarchical,
    load_image_tensors,
    load_standardized,
    predict_hierarchical,
    save_hierarchical,
    train_hierarchical,
)
from .imageio import decode_ppm
from .preprocess import compute_stats, load_stats, normalize, save_stats
from .synthetic import DEFAULT_PER_CLASS, DEFAULT_SEED, DEFAULT_SIZE, generate_dataset
from .taxonomy import LEAF_CLASSES, default_taxonomy, load_taxonomy
from .tensorio import write_tensor

ENV_OUTPUT_DIR = "WXHIER_OUTPUT_DIR"

DEFAULTS = {
    "output_dir": None,  # env var, then "."
    "taxonomy": None,
    "root": None,  # manifest's parent directory
    "test_fraction": 0.30,
    "val_fraction": 0.20,
    "seed": 0,
    "arch": "hierarchical",
    "scale": "micro",
    "width_scale": 1.0,
    "depth_scale": 1.0,
    "epochs": 25,
    "learning_rate": 0.01,
    "momentum": 0.9,
    "batch_size": 32,
    "dropout": 0.25,
    "input_size": 32,
    "per_class": DEFAULT_PER_CLASS,
    "image_size": DEFAULT_SIZE,
}

ARCHES = ("hierarchical", "softmax-flat", "basic-cnn", "vgg-style")


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    manifest: Path | None
    taxonomy: Path | None
    output_dir: Path
    root: Path | None
    test_fraction: float
    val_fraction: float
    seed: int
    arch: str
    scale: str
    width_scale: float
    depth_scale: float
    epochs: int
    learning_rate: float
    momentum: float
    batch_size: int
    dropout: float
    input_size: int
    per_class: int
    image_size: int

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0 or not 0.0 < self.val_fraction < 1.0:
            raise ConfigError("split fractions must lie strictly between 0 and 1")
        if self.arch not in ARCHES:
            raise ConfigError(f"arch must be one of {ARCHES}, got {self.arch!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch size must be >= 1")
        if self.learning_rate <= 0 or not 0.0 <= self.momentum < 1.0:
            raise ConfigError("learning rate must be > 0 and momentum within [0, 1)")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.input_size < 4:
            raise ConfigError(f"input size must be >= 4, got {self.input_size}")
        if self.per_class < 1 or self.image_size < 8:
            raise ConfigError("per-class count must be >= 1 and image size >= 8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wxhier",
        description="Hierarchical weather-image classifier pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, manifest: bool = True):
        if manifest:
            p.add_argument("--manifest", type=Path, help="dataset manifest CSV")
        p.add_argument("--config", type=Path, help="JSON config file (flags override it)")
        p.add_argument(
            "--output-dir",
            type=Path,
            help=f"artifact directory (default ${ENV_OUTPUT_DIR} or '.')",
        )
        p.add_argument("--taxonomy", type=Path, help="taxonomy config (default built-in)")
        p.add_argument(
            "--root", type=Path, help="base for relative image paths (default: manifest dir)"
        )

    p = sub.add_parser("split", help="stratified train/val/test manifests")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--test-fraction", type=float)
    p.add_argument("--val-fraction", type=float, help="fraction of the train pool used for val")

    p = sub.add_parser("stats", help="compute normalization statistics over a manifest")
    common(p)
    p.add_argument("--input-size", type=int, help="square resize applied before the statistics")

    p = sub.add_parser("preprocess", help="resize + standardize a manifest into one tensor file")
    common(p)
    p.add_argument("--stats", type=Path, help="stats JSON (default: compute from this manifest)")
    p.add_argument("--input-size", type=int)

    p = sub.add_parser("train", help="train a model or the hierarchical bundle")
    common(p)
    p.add_argument("--val-manifest", type=Path, help="held-out manifest for per-epoch accuracy")
    p.add_argument("--arch", choices=ARCHES)
    p.add_argument("--scale", choices=("micro", "paper"), help="basic-cnn block preset")
    p.add_argument("--width-scale", type=float, help="vgg-style channel multiplier (>= 1/8)")
    p.add_argument("--depth-scale", type=float, help="vgg-style stage-depth multiplier (>= 1/8)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--input-size", type=int)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("predict", help="classify images with a trained bundle")
    common(p, manifest=False)
    p.add_argument("--bundle", type=Path, required=True, help="bundle directory from train")
    p.add_argument("--channel-order", choices=("RGB", "BGR"), default="RGB")
    p.add_argument("images", nargs="+", type=Path)

    p = sub.add_parser("evaluate", help="score a bundle against a test manifest")
    common(p)
    p.add_argument("--bundle", type=Path, required=True)

    p = sub.add_parser("compare", help="accuracy table over several trained models")
    common(p)
    p.add_argument(
        "models",
        nargs="+",
        metavar="NAME=PATH",
        help="model entries; PATH is a bundle directory or a flat .wxm1 file",
    )

    p = sub.add_parser("synth", help="generate the procedural dataset")
    common(p, manifest=False)
    p.add_argument("--per-class", type=int)
    p.add_argument("--image-size", type=int, help="generated image side length")
    p.add_argument("--seed", type=int, help=f"generator seed (default {DEFAULT_SEED})")

    return parser


def _load_config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(doc) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    return doc


def _pick(args: argparse.Namespace, filecfg: dict, key: str):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in filecfg:
        return filecfg[key]
    return DEFAULTS[key]


def resolve_config(args: argparse.Namespace) -> RunConfig:
    filecfg = _load_config_file(getattr(args, "config", None))
    out = _pick(args, filecfg, "output_dir")
    if out is None:
        out = os.environ.get(ENV_OUTPUT_DIR, ".")
    picked = {key: _pick(args, filecfg, key) for key in DEFAULTS if key not in ("output_dir",)}
    seed = picked["seed"] if picked["seed"] is not None else 0
    return RunConfig(
        subcommand=args.command,
        manifest=getattr(args, "manifest", None),
        taxonomy=Path(picked["taxonomy"]) if picked["taxonomy"] else None,
        output_dir=Path(out),
        root=Path(picked["root"]) if picked["root"] else None,
        test_fraction=float(picked["test_fraction"]),
        val_fraction=float(picked["val_fraction"]),
        seed=int(seed),
        arch=str(picked["arch"]),
        scale=str(picked["scale"]),
        width_scale=float(picked["width_scale"]),
        depth_scale=float(picked["depth_scale"]),
        epochs=int(picked["epochs"]),
        learning_rate=float(picked["learning_rate"]),
        momentum=float(picked["momentum"]),
        batch_size=int(picked["batch_size"]),
        dropout=float(picked["dropout"]),
        input_size=int(picked["input_size"]),
        per_class=int(picked["per_class"]),
        image_size=int(picked["image_size"]),
    )


def _taxonomy_for(cfg: RunConfig):
    if cfg.taxonomy is None:
        return default_taxonomy()
    return load_taxonomy(cfg.taxonomy.read_bytes())


def _entries_and_root(cfg: RunConfig, manifest: Path | None = None):
    manifest = manifest if manifest is not None else cfg.manifest
    if manifest is None:
        raise ConfigError("this command needs --manifest")
    entries = load_manifest(manifest.read_bytes())
    root = cfg.root if cfg.root is not None else manifest.parent
    return entries, root


def _outdir(cfg: RunConfig) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir


# ---------------------------------------------------------------- commands

def cmd_split(cfg: RunConfig, args) -> int:
    entries, _ = _entries_and_root(cfg)
    taxonomy = _taxonomy_for(cfg)
    split = stratified_split(
        entries,
        SplitSpec(
            test_fraction=cfg.test_fraction, val_fraction_of_train=cfg.val_fraction, seed=cfg.seed
        ),
    )
    out = _outdir(cfg)
    parts = {"train": split.train, "val": split.val, "test": split.test}
    for name, part in parts.items():
        (out / f"{name}.csv").write_text(manifest_to_csv(part))
    (out / "split_summary.csv").write_text(distribution_csv(parts, taxonomy))
    print(
        f"split {len(entries)} entries -> train {len(split.train)}, "
        f"val {len(split.val)}, test {len(split.test)} (seed {cfg.seed})"
    )
    return 0


def cmd_stats(cfg: RunConfig, args) -> int:
    entries, root = _entries_and_root(cfg)
    x = load_image_tensors(entries, (cfg.input_size, cfg.input_size), root)
    stats = compute_stats(x)
    out = _outdir(cfg)
    save_stats(out / "stats.json", stats)
    print(f"stats over {len(entries)} images: mean {stats.mean:.6f}, std {stats.std:.6f}")
    return 0


def cmd_preprocess(cfg: RunConfig, args) -> int:
    entries, root = _entries_and_root(cfg)
    x = load_image_tensors(entries, (cfg.input_size, cfg.input_size), root)
    stats = load_stats(args.stats) if args.stats else compute_stats(x)
    x = normalize(x, stats)
    out = _outdir(cfg)
    write_tensor(out / "tensors.wxt1", x)
    save_stats(out / "stats.json", stats)
    lines = ["index,path,label"]
    lines += [f"{i},{e.path},{e.leaf}" for i, e in enumerate(entries)]
    (out / "labels.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {x.shape} tensor batch to {out / 'tensors.wxt1'}")
    return 0


def _train_flat(cfg: RunConfig, tc: nn.TrainConfig, train_entries, val_entries, root) -> int:
    input_shape = (cfg.input_size, cfg.input_size, 3)
    n_out = len(LEAF_CLASSES)
    if cfg.arch == "softmax-flat":
        spec = nn.softmax_flat_spec(input_shape, n_out)
    elif cfg.arch == "basic-cnn":
        spec = nn.basic_cnn_spec(input_shape, n_out, scale=cfg.scale, dropout=cfg.dropout)
    else:
        spec = nn.vgg_style_spec(input_shape, n_out, cfg.width_scale, cfg.depth_scale)
    x_train, x_val, stats = load_standardized(
        train_entries, (cfg.input_size, cfg.input_size), root, val_entries
    )
    y_val = leaf_labels(val_entries) if val_entries else None
    params, history = nn.train(spec, x_train, leaf_labels(train_entries), tc, x_val, y_val)
    out = _outdir(cfg)
    nn.save_model(out / "model.wxm1", spec, params, stats, list(LEAF_CLASSES))
    (out / "history.csv").write_text(nn.history_to_csv(history))
    final_val = history[-1].val_acc
    print(f"saved {cfg.arch} model to {out / 'model.wxm1'}")
    print(f"final validation accuracy: {'n/a' if final_val is None else f'{final_val:.4f}'}")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    train_entries, root = _entries_and_root(cfg)
    val_entries = []
    if args.val_manifest is not None:
        val_entries = load_manifest(args.val_manifest.read_bytes())
    hcfg = HierTrainConfig(
        input_hw=(cfg.input_size, cfg.input_size),
        scale=cfg.scale,
        epochs=cfg.epochs,
        learning_rate=cfg.learning_rate,
        momentum=cfg.momentum,
        batch_size=cfg.batch_size,
        dropout=cfg.dropout,
        seed=cfg.seed,
    )
    if cfg.arch != "hierarchical":
        return _train_flat(cfg, hcfg.train_config(0), train_entries, val_entries, root)

    taxonomy = _taxonomy_for(cfg)
    model, histories = train_hierarchical(train_entries, taxonomy, hcfg, val_entries, root)
    out = _outdir(cfg)
    bundle_dir = out / "bundle"
    save_hierarchical(model, bundle_dir)
    for role, history in histories.items():
        (out / f"history_{role}.csv").write_text(nn.history_to_csv(history))
    print(f"saved hierarchical bundle to {bundle_dir}")
    for role, history in histories.items():
        val = history[-1].val_acc
        print(f"final validation accuracy [{role}]: {'n/a' if val is None else f'{val:.4f}'}")
    return 0


def cmd_predict(cfg: RunConfig, args) -> int:
    model = load_hierarchical(args.bundle)
    successes = 0
    for path in args.images:
        try:
            image = decode_ppm(Path(path).read_bytes())
            pred = predict_hierarchical(model, image, args.channel_order)
            doc = {
                "path": str(path),
                "group": pred.group,
                "group_probs": [float(v) for v in pred.group_probs],
                "leaf": pred.leaf,
                "leaf_probs": [float(v) for v in pred.leaf_probs],
                "safety": pred.safety,
                "safety_source": pred.safety_source,
                "safety_probs": None
                if pred.safety_probs is None
                else [float(v) for v in pred.safety_probs],
            }
            successes += 1
        except (OSError, WxhierError) as exc:
            doc = {"path": str(path), "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(doc, sort_keys=True))
    return 0 if successes else 4


def cmd_evaluate(cfg: RunConfig, args) -> int:
    model = load_hierarchical(args.bundle)
    entries, root = _entries_and_root(cfg)
    report = ev.evaluate_hierarchical(model, entries, root)
    out = _outdir(cfg)
    bundle_hash = bundle_content_hash(args.bundle)
    (out / "report.json").write_text(ev.hier_report_json(report, bundle_hash))
    (out / "confusion_primary.csv").write_text(ev.confusion_to_csv(report.primary))
    (out / "confusion_leaf.csv").write_text(ev.confusion_to_csv(report.leaf))
    (out / "confusion_safety.csv").write_text(ev.confusion_to_csv(report.safety))
    for group, cm in report.routed.items():
        (out / f"confusion_routed_{group.lower()}.csv").write_text(ev.confusion_to_csv(cm))
    for group, cm in report.oracle_routed.items():
        (out / f"confusion_oracle_{group.lower()}.csv").write_text(ev.confusion_to_csv(cm))
    print(f"bundle {bundle_hash[:12]} on {report.leaf.total} samples")
    print(f"primary accuracy: {report.primary_accuracy:.4f}")
    print(f"end-to-end leaf accuracy: {report.e2e_leaf_accuracy:.4f}")
    print(f"oracle-routed leaf accuracy: {report.oracle_leaf_accuracy:.4f}")
    return 0


def _flat_leaf_accuracy(model_path: Path, entries, root) -> float:
    spec, params, stats, labels = nn.load_model(model_path)
    if stats is None or labels is None:
        raise FormatError(f"{model_path}: model lacks stats or class names")
    pos = {name: i for i, name in enumerate(labels)}
    try:
        y = np.array([pos[e.leaf] for e in entries], dtype=np.int64)
    except KeyError as exc:
        raise ValidationError(f"{model_path}: model does not know class {exc}") from None
    x = normalize(load_image_tensors(entries, spec.input_shape[:2], root), stats)
    return nn.evaluate_accuracy(spec, params, x, y)


def cmd_compare(cfg: RunConfig, args) -> int:
    pairs = []
    for item in args.models:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise ConfigError(f"model entry must look like NAME=PATH, got {item!r}")
        pairs.append((name, Path(path)))
    if len(pairs) < 2:
        raise ConfigError("compare needs at least two models")
    entries, root = _entries_and_root(cfg)
    rows = []
    for name, path in pairs:
        if path.is_dir():
            model = load_hierarchical(path)
            report = ev.evaluate_hierarchical(model, entries, root)
            rows.append((name, report.e2e_leaf_accuracy))
        else:
            rows.append((name, _flat_leaf_accuracy(path, entries, root)))
    table = ev.compare_models(rows)
    out = _outdir(cfg)
    (out / "comparison.csv").write_text(table)
    print(table, end="")
    return 0


def cmd_synth(cfg: RunConfig, args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    manifest = generate_dataset(
        _outdir(cfg), per_class=cfg.per_class, size=cfg.image_size, seed=seed
    )
    print(f"wrote {len(LEAF_CLASSES) * cfg.per_class} images; manifest: {manifest}")
    return 0


_COMMANDS = {
    "split": cmd_split,
    "stats": cmd_stats,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "synth": cmd_synth,
}

_DATA_ERRORS = (
    ParseError,
    ValidationError,
    FormatError,
    MissingClassError,
    EmptyManifestError,
    DegenerateError,
    LabelRangeError,
    EmptyMatrixError,
    DimensionError,
    ShapeError,
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = resolve_config(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"wxhier: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"wxhier: I/O error: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"wxhier: data error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit 5
        print(f"wxhier: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
