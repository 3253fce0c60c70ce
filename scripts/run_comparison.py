#!/usr/bin/env python3
"""Train flat baselines and the hierarchical classifier on one dataset and
print an accuracy comparison table.

Works on any manifest whose image paths resolve against --root, so it can
drive either the shipped synthetic dataset or a real weather-image corpus
laid out as <root>/<leaf>/<file> with a matching manifest.  With a large
photographic dataset expect to raise --input-size and --epochs and to use
--scale paper (and hours of CPU time); the defaults are sized to finish a
synthetic run in well under a minute.
"""

import argparse
import time
from pathlib import Path

from wxhier import nn
from wxhier.dataset import SplitSpec, load_manifest, stratified_split
from wxhier.evaluate import compare_models, evaluate_hierarchical_tensors, format_percent
from wxhier.hierarchy import (
    HierTrainConfig,
    leaf_labels,
    load_image_tensors,
    load_standardized,
    train_hierarchical,
)
from wxhier.preprocess import normalize
from wxhier.taxonomy import LEAF_CLASSES, default_taxonomy


def train_flat(arch, split, hw, args, root):
    shape = (hw[0], hw[1], 3)
    if arch == "softmax-flat":
        spec = nn.softmax_flat_spec(shape, len(LEAF_CLASSES))
    else:
        spec = nn.basic_cnn_spec(shape, len(LEAF_CLASSES), scale=args.scale)
    x_train, x_test, _ = load_standardized(split.train, hw, root, split.test)
    cfg = nn.TrainConfig(epochs=args.epochs, seed=args.seed)
    params, _ = nn.train(spec, x_train, leaf_labels(split.train), cfg)
    return nn.evaluate_accuracy(spec, params, x_test, leaf_labels(split.test))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("manifest", type=Path)
    ap.add_argument("--root", type=Path, default=None, help="default: manifest directory")
    ap.add_argument("--input-size", type=int, default=32)
    ap.add_argument("--scale", choices=("micro", "paper"), default="micro")
    ap.add_argument("--epochs", type=int, default=25)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--split-seed", type=int, default=11)
    args = ap.parse_args()

    root = args.root if args.root is not None else args.manifest.parent
    hw = (args.input_size, args.input_size)
    entries = load_manifest(args.manifest.read_bytes())
    split = stratified_split(entries, SplitSpec(seed=args.split_seed))
    print(f"{len(entries)} entries -> train {len(split.train)}, val {len(split.val)}, test {len(split.test)}")

    taxonomy = default_taxonomy()
    rows = []
    for arch in ("softmax-flat", "basic-cnn"):
        t0 = time.monotonic()
        acc = train_flat(arch, split, hw, args, root)
        print(f"{arch}: leaf accuracy {format_percent(acc)} ({time.monotonic() - t0:.1f}s)")
        rows.append((arch, acc))

    t0 = time.monotonic()
    hcfg = HierTrainConfig(
        input_hw=hw, scale=args.scale, epochs=args.epochs, seed=args.seed
    )
    model, _ = train_hierarchical(split.train, taxonomy, hcfg, split.val, root)
    x_test = normalize(load_image_tensors(split.test, hw, root), model.stats)
    report = evaluate_hierarchical_tensors(model, x_test, leaf_labels(split.test))
    print(
        f"hierarchical: primary {format_percent(report.primary_accuracy)}, "
        f"leaf {format_percent(report.e2e_leaf_accuracy)} ({time.monotonic() - t0:.1f}s)"
    )
    rows.append(("hierarchical", report.e2e_leaf_accuracy))

    print()
    print(compare_models(rows), end="")


if __name__ == "__main__":
    main()
