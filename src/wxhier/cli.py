"""Command-line pipeline: split, preprocess, train, predict, evaluate, compare,
synth.

Each option is defined once, as an argparse flag with its default and a
``type`` that converts the text.  The object the value configures
(``SplitSpec``, ``HierTrainConfig``, a model spec) checks it, and each
command builds those objects before it reads a file: ``train`` builds one
``HierTrainConfig``, and rejects a setting its ``--arch`` does not read
(``hierarchy.ARCHES``).  ``--config FILE`` names a JSON object keyed by
the long option names with underscores (``test_fraction``).  Its entries
are inserted as flags right after the subcommand, so they pass the same
checks and a flag given on the command line wins.  A key that only other
subcommands take is ignored, so one file can serve several of them; a
key that no subcommand takes is an error.  Precedence is flag > config
file > ``$WXHIER_OUTPUT_DIR`` (for ``--output-dir``) > built-in default.

Exit codes: 0 success, 2 configuration problem, 3 I/O failure, 4 data
problem (malformed/missing content), 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import nn
from .dataset import (
    SplitSpec, csv_text, distribution_csv, load_manifest, manifest_to_csv, stratified_split
)
from .errors import ConfigError, FormatError, ValidationError, WxhierError, json_object
from .hierarchy import (
    ARCHES,
    HierTrainConfig,
    bundle_content_hash,
    leaf_labels,
    load_hierarchical,
    load_standardized,
    predict_batch,
    predict_hierarchical,
    save_hierarchical,
    train_hierarchical,
)
from .imageio import CHANNEL_ORDERS, decode_ppm
from .preprocess import stats_from_json, stats_to_json
from .synthetic import DEFAULT_PER_CLASS, DEFAULT_SEED, DEFAULT_SIZE, generate_dataset
from .taxonomy import LEAF_CLASSES, default_taxonomy, load_taxonomy
from .tensorio import tensor_to_bytes

ENV_OUTPUT_DIR = "WXHIER_OUTPUT_DIR"


def _checked(convert, rule: str, ok=lambda value: True):
    """An argparse ``type``: ``convert`` the text, then require ``ok(value)``.

    Both faults raise ConfigError, which argparse lets through (it rewrites
    only ArgumentTypeError, TypeError and ValueError), so ``main`` reports
    them as configuration errors.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise ConfigError(f"{rule}, got {text!r}") from None
        if not ok(value):
            raise ConfigError(f"{rule}, got {text!r}")
        return value

    return parse


def _one_of(flag: str, names: tuple[str, ...]) -> dict:
    """The ``type`` and ``metavar`` of a flag that takes one of ``names``."""
    rule = f"{flag} must be one of {', '.join(names)}"
    return {"type": _checked(str, rule, names.__contains__), "metavar": "{" + ",".join(names) + "}"}


def _number(flag: str, convert=float):
    kind = "an integer" if convert is int else "a number"
    return _checked(convert, f"{flag} must be {kind}")


def _path(flag: str):
    # open() and stat() raise ValueError on a NUL, which would escape as an internal error
    rule = f"{flag} must be a path without a NUL byte"
    return _checked(Path, rule, lambda path: "\0" not in str(path))


_SEED = _number("--seed", int)
_INPUT_SIZE = _checked(int, "--input-size must be an integer >= 4", lambda v: v >= 4)
# library parameters named otherwise than the flag that sets them
_DEST_OF = {"size": "image_size"}  # generate_dataset's image side length


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, set[str]]]:
    """The parser, and the config keys each subcommand takes."""
    parser = argparse.ArgumentParser(
        prog="wxhier",
        description="Hierarchical weather-image classifier pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    keys: dict[str, set[str]] = {}
    shared = {  # each of these options takes a path
        "--manifest": {"required": True, "help": "dataset manifest CSV"},
        "--output-dir": {
            "default": os.environ.get(ENV_OUTPUT_DIR, "."),
            "help": f"artifact directory; ${ENV_OUTPUT_DIR} sets the default",
        },
        "--taxonomy": {"help": "taxonomy config (default built-in)"},
        "--root": {"help": "base for relative image paths (default: manifest dir)"},
    }

    def command(name: str, help: str, *common: str):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", type=_path("--config"), help="JSON config file (flags override it)")
        keys[name] = set()

        def flag(option: str, help: str = "", **kw):
            if kw.get("default") is not None:
                help = f"{help} (default %(default)s)".lstrip()
            keys[name].add(p.add_argument(option, help=help, **kw).dest)

        for option in common:
            flag(option, type=_path(option), **shared[option])
        return p, flag

    p, flag = command(
        "split", "stratified train/val/test manifests", "--manifest", "--output-dir", "--taxonomy"
    )
    flag("--seed", type=_SEED, default=SplitSpec.seed)
    flag("--test-fraction", type=_number("--test-fraction"), default=SplitSpec.test_fraction)
    flag("--val-fraction", type=_number("--val-fraction"),
         default=SplitSpec.val_fraction, help="fraction of the train pool used for val")

    p, flag = command("preprocess", "resize + standardize a manifest into one tensor file",
                      "--manifest", "--output-dir", "--root")
    flag("--stats", type=_path("--stats"),
         help="stats.json to reuse (default: compute from this manifest)")
    flag("--input-size", type=_INPUT_SIZE, default=32)

    p, flag = command("train", "train a model or the hierarchical bundle",
                      "--manifest", "--output-dir", "--taxonomy", "--root")
    flag("--val-manifest", type=_path("--val-manifest"),
         help="held-out manifest for per-epoch accuracy")
    flag("--arch", default="hierarchical", **_one_of("--arch", tuple(ARCHES)))
    flag("--scale", help=f"hierarchical and basic-cnn block preset "
         f"(default {HierTrainConfig.scale})", **_one_of("--scale", tuple(nn.BASIC_FILTERS)))
    flag("--width-scale", type=_number("--width-scale"), help=f"vgg-style channel "
         f"multiplier (default {HierTrainConfig.width_scale})")
    flag("--depth-scale", type=_number("--depth-scale"), help=f"vgg-style stage-depth "
         f"multiplier (default {HierTrainConfig.depth_scale})")
    flag("--epochs", type=_number("--epochs", int), default=25)
    flag("--learning-rate", type=_number("--learning-rate"), default=HierTrainConfig.learning_rate)
    flag("--momentum", type=_number("--momentum"), default=HierTrainConfig.momentum)
    flag("--batch-size", type=_number("--batch-size", int), default=HierTrainConfig.batch_size)
    flag("--dropout", type=_number("--dropout"), help=f"hierarchical and basic-cnn dropout "
         f"rate (default {HierTrainConfig.dropout})")
    flag("--input-size", type=_INPUT_SIZE, default=32)
    flag("--seed", type=_SEED, default=HierTrainConfig.seed)

    p, flag = command("predict", "classify images with a trained bundle")
    flag("--bundle", type=_path("--bundle"), required=True, help="bundle directory from train")
    flag("--channel-order", default="RGB", **_one_of("--channel-order", CHANNEL_ORDERS))
    p.add_argument("images", nargs="+", type=Path)

    p, flag = command("evaluate", "score a bundle against a test manifest",
                      "--manifest", "--output-dir", "--root")
    flag("--bundle", type=_path("--bundle"), required=True)

    p, flag = command("compare", "accuracy table over several trained models",
                      "--manifest", "--output-dir", "--root")
    p.add_argument(
        "models",
        nargs="+",
        metavar="NAME=PATH",
        help="model entries; PATH is a bundle directory or a flat .wxm1 file",
    )

    p, flag = command("synth", "generate the procedural dataset", "--output-dir")
    flag("--per-class", type=_number("--per-class", int), default=DEFAULT_PER_CLASS)
    flag("--image-size", type=_number("--image-size", int), default=DEFAULT_SIZE,
         help="generated image side length")
    flag("--seed", type=_SEED, default=DEFAULT_SEED, help="generator seed")

    return parser, keys


def _with_config(argv: list[str], keys: dict[str, set[str]]) -> list[str]:
    """``argv`` with the ``--config`` file's entries as flags after the subcommand."""
    if not argv or argv[0] not in keys:
        return argv
    command, rest = argv[0], argv[1:]
    pre = argparse.ArgumentParser(prog=f"wxhier {command}", add_help=False)
    pre.add_argument("--config", type=_path("--config"))
    path = pre.parse_known_args(rest)[0].config
    if path is None:
        return argv
    doc = json_object(path.read_bytes(), f"config {path}", ConfigError)
    unknown = set(doc) - set().union(*keys.values())
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    flags = []
    for key, value in doc.items():
        if key not in keys[command]:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ConfigError(f"{path}: {key} must be a string or a number, got {value!r}")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return [command, *flags, *rest]


def _taxonomy_for(args):
    if args.taxonomy is None:
        return default_taxonomy()
    return load_taxonomy(args.taxonomy.read_bytes())


def _entries_and_root(args):
    entries = load_manifest(args.manifest.read_bytes())
    root = args.root if args.root is not None else args.manifest.parent
    return entries, root


def _outdir(args) -> Path:
    args.output_dir.mkdir(parents=True, exist_ok=True)
    return args.output_dir


# ---------------------------------------------------------------- commands

def cmd_split(args) -> int:
    spec = SplitSpec(
        test_fraction=args.test_fraction, val_fraction=args.val_fraction, seed=args.seed
    )
    entries = load_manifest(args.manifest.read_bytes())
    taxonomy = _taxonomy_for(args)
    split = stratified_split(entries, spec)
    out = _outdir(args)
    parts = {"train": split.train, "val": split.val, "test": split.test}
    for name, part in parts.items():
        (out / f"{name}.csv").write_text(manifest_to_csv(part), encoding="utf-8")
    (out / "split_summary.csv").write_text(distribution_csv(parts, taxonomy), encoding="utf-8")
    print(
        f"split {len(entries)} entries -> train {len(split.train)}, "
        f"val {len(split.val)}, test {len(split.test)} (seed {args.seed})"
    )
    return 0


def cmd_preprocess(args) -> int:
    entries, root = _entries_and_root(args)
    stats = stats_from_json(args.stats.read_bytes()) if args.stats else None
    x, stats = load_standardized(entries, (args.input_size, args.input_size), root, stats)
    out = _outdir(args)
    (out / "tensors.wxt1").write_bytes(tensor_to_bytes(x))
    (out / "stats.json").write_text(stats_to_json(stats), encoding="utf-8")
    rows = [("index", "path", "label")] + [(i, e.path, e.leaf) for i, e in enumerate(entries)]
    (out / "labels.csv").write_text(csv_text(rows), encoding="utf-8")
    print(f"wrote {x.shape} tensor batch to {out / 'tensors.wxt1'}")
    return 0


def _train_flat(args, cfg: HierTrainConfig, train_entries, val_entries, root) -> int:
    spec = cfg.spec(len(LEAF_CLASSES))
    x_train, stats = load_standardized(train_entries, cfg.input_hw, root)
    x_val = load_standardized(val_entries, cfg.input_hw, root, stats)[0] if val_entries else None
    y_val = leaf_labels(val_entries) if val_entries else None
    params, history = nn.train(spec, x_train, leaf_labels(train_entries), cfg, x_val, y_val)
    out = _outdir(args)
    (out / "model.wxm1").write_bytes(nn.model_to_bytes(spec, params, stats, list(LEAF_CLASSES)))
    (out / "history.csv").write_text(nn.history_to_csv(history), encoding="utf-8")
    final_val = history[-1].val_acc
    print(f"saved {cfg.arch} model to {out / 'model.wxm1'}")
    print(f"final validation accuracy: {'n/a' if final_val is None else f'{final_val:.4f}'}")
    return 0


def cmd_train(args) -> int:
    given = {key: value for key, value in vars(args).items() if value is not None}
    unread = sorted(set().union(*ARCHES.values()).difference(ARCHES[args.arch]) & set(given))
    if unread:
        flags = ", ".join("--" + key.replace("_", "-") for key in unread)
        raise ConfigError(f"--arch {args.arch} does not read {flags}")
    names = {f.name for f in fields(HierTrainConfig)} & set(given)
    cfg = HierTrainConfig(input_hw=(args.input_size,) * 2, **{key: given[key] for key in names})
    train_entries, root = _entries_and_root(args)
    val_entries = []
    if args.val_manifest is not None:
        val_entries = load_manifest(args.val_manifest.read_bytes())
    if cfg.arch != "hierarchical":
        return _train_flat(args, cfg, train_entries, val_entries, root)

    taxonomy = _taxonomy_for(args)
    model, histories = train_hierarchical(train_entries, taxonomy, cfg, val_entries, root)
    out = _outdir(args)
    bundle_dir = out / "bundle"
    save_hierarchical(model, bundle_dir)
    print(f"saved hierarchical bundle to {bundle_dir}")
    for role, history in histories.items():
        (out / f"history_{role}.csv").write_text(nn.history_to_csv(history), encoding="utf-8")
        val = history[-1].val_acc
        print(f"final validation accuracy [{role}]: {'n/a' if val is None else f'{val:.4f}'}")
    return 0


def cmd_predict(args) -> int:
    model = load_hierarchical(args.bundle)
    successes = 0
    for path in args.images:
        try:
            image = decode_ppm(Path(path).read_bytes())
            pred = predict_hierarchical(model, image, args.channel_order)
            doc = {"path": str(path)}
            for key, value in vars(pred).items():  # arrays as lists of the same floats
                doc[key] = value.tolist() if isinstance(value, np.ndarray) else value
            successes += 1
        except (OSError, MemoryError, WxhierError) as exc:  # this image's fault alone
            doc = {"path": str(path), "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(doc, sort_keys=True))
    return 0 if successes else 4


def cmd_evaluate(args) -> int:
    model = load_hierarchical(args.bundle)
    entries, root = _entries_and_root(args)
    report = ev.evaluate_hierarchical(model, entries, root)
    out = _outdir(args)
    bundle_hash = bundle_content_hash(args.bundle)
    files = {
        "report.json": ev.hier_report_json(report, bundle_hash),
        "confusion_primary.csv": ev.confusion_to_csv(report.primary),
        "confusion_leaf.csv": ev.confusion_to_csv(report.leaf),
        "confusion_safety.csv": ev.confusion_to_csv(report.safety),
    }
    for kind, matrices in (("routed", report.routed), ("oracle", report.oracle_routed)):
        for group, cm in matrices.items():
            files[f"confusion_{kind}_{group.lower()}.csv"] = ev.confusion_to_csv(cm)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    print(f"bundle {bundle_hash[:12]} on {report.leaf.total} samples")
    print(f"primary accuracy: {report.primary_accuracy:.4f}")
    print(f"end-to-end leaf accuracy: {report.e2e_leaf_accuracy:.4f}")
    print(f"oracle-routed leaf accuracy: {report.oracle_leaf_accuracy:.4f}")
    return 0


def _flat_leaf_accuracy(model_path: Path, entries, root) -> float:
    spec, params, stats, labels = nn.model_from_bytes(model_path.read_bytes())
    if stats is None or labels is None:
        raise FormatError(f"{model_path}: model lacks stats or class names")
    pos = {name: i for i, name in enumerate(labels)}
    try:
        y = np.array([pos[e.leaf] for e in entries], dtype=np.int64)
    except KeyError as exc:
        raise ValidationError(f"{model_path}: model does not know class {exc}") from None
    x, _ = load_standardized(entries, spec.input_shape[:2], root, stats)
    return nn.evaluate_accuracy(spec, params, x, y)


def _bundle_leaf_accuracy(bundle: Path, entries, root) -> float:
    """End-to-end leaf accuracy of one routed pass, as ``evaluate`` reports it."""
    model = load_hierarchical(bundle)
    x, _ = load_standardized(entries, model.input_hw, root, model.stats)
    hits = sum(p.leaf == e.leaf for p, e in zip(predict_batch(model, x), entries))
    return hits / len(entries)


def cmd_compare(args) -> int:
    pairs = []
    for item in args.models:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise ConfigError(f"model entry must look like NAME=PATH, got {item!r}")
        pairs.append((name, Path(path)))
    if len(pairs) < 2:
        raise ConfigError("compare needs at least two models")
    entries, root = _entries_and_root(args)
    rows = []
    for name, path in pairs:
        if path.is_dir():
            rows.append((name, _bundle_leaf_accuracy(path, entries, root)))
        else:
            rows.append((name, _flat_leaf_accuracy(path, entries, root)))
    table = ev.compare_models(rows)
    out = _outdir(args)
    (out / "comparison.csv").write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


def cmd_synth(args) -> int:
    manifest = generate_dataset(
        args.output_dir, per_class=args.per_class, size=args.image_size, seed=args.seed
    )
    print(f"wrote {len(LEAF_CLASSES) * args.per_class} images; manifest: {manifest}")
    return 0


_COMMANDS = {
    "split": cmd_split,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "synth": cmd_synth,
}

def _as_flag(message: str, dests: set[str]) -> str:
    """``message`` with a leading library field name written as the flag that sets it."""
    name, sep, rest = message.partition(" ")
    dest = _DEST_OF.get(name, name)
    return f"--{dest.replace('_', '-')} {rest}" if sep and dest in dests else message


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, keys = build_parser()
    try:
        args = parser.parse_args(_with_config(argv, keys))
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse usage errors and --help
        return exc.code if isinstance(exc.code, int) else 2
    except ConfigError as exc:
        message = _as_flag(str(exc), set().union(*keys.values()))
        print(f"wxhier: configuration error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"wxhier: I/O error: {exc}", file=sys.stderr)
        return 3
    except WxhierError as exc:  # every other package error is a data problem
        print(f"wxhier: data error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit 5
        print(f"wxhier: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
