"""The three benchmark workloads: inputs from a seed, one pass, checks.

Each workload generates its inputs from the seed under a scratch
directory (``setup``), runs one pass of operations (``run_pass``), checks
the outputs of every pass (``checks``) and states how many calls each
traced function must receive (``expected_calls``).  The program only ever
sees the generated files and objects, never the seed.

An operation is the unit ``attempted`` counts: one ``train_hierarchical``
call for ``train_micro32``, one request for ``serve_mixed_paper100`` and
one ``wxhier evaluate`` call for ``evaluate_batch_paper100``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from wxhier import cli, dataset, evaluate, hierarchy, imageio, preprocess, synthetic
from wxhier.errors import WxhierError
from wxhier.nn import basic_cnn_spec, conv_layer_count
from wxhier.taxonomy import (
    COARSE_GROUPS,
    LEAF_CLASSES,
    SAFETY_LEVELS,
    default_taxonomy,
    group_of,
    leaves_of,
    safety_of,
)

PROB_TOLERANCE = 1e-4  # float32 softmax rows must sum to 1 within this

# Weights of the paper-scale bundle.  Work per image depends on the weights
# only through routing (a Cold route adds the safety model's forward pass),
# so the bundle is fixed rather than drawn from the workload seed; with this
# seed nearly every synthetic image routes to Rainy, a few to Dusty and at
# most one or two to Cold, whatever the image seed.
BUNDLE_SEED = 1

# Per-layer functions of one [Conv, BatchNorm, ReLU, AvgPool, Dropout] block,
# called once per block by every forward (and backward) pass.
BLOCK_FORWARD = ("conv2d_forward", "batchnorm_forward", "relu_forward", "avgpool_forward",
                 "dropout_forward")
BLOCK_BACKWARD = ("conv2d_backward", "batchnorm_backward", "relu_backward", "avgpool_backward")


@dataclass
class Record:
    """What the operations of a run did, untimed bookkeeping included."""

    op_s: list = field(default_factory=list)  # durations of successful operations
    attempted: int = 0
    failed: int = 0  # unexpected failures only
    failures: list = field(default_factory=list)
    passes: int = 0
    routed: list = field(default_factory=list)  # per pass, {group: count}
    rates: list = field(default_factory=list)  # images per second, per operation
    outputs: list = field(default_factory=list)  # per pass, workload-specific
    # opens the span that groups one operation's traced calls
    span: Callable = contextlib.nullcontext

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)


def _blocks(scale: str, input_hw: tuple[int, int]) -> int:
    return conv_layer_count(basic_cnn_spec((*input_hw, 3), len(COARSE_GROUPS), scale=scale))


def _add_forwards(calls: dict, forwards: int, blocks: int) -> None:
    calls["nn.model.forward_pass"] = calls.get("nn.model.forward_pass", 0) + forwards
    for fn in BLOCK_FORWARD:
        key = f"nn.layers.{fn}"
        calls[key] = calls.get(key, 0) + blocks * forwards
    for fn in ("dense_forward", "softmax_forward"):
        key = f"nn.layers.{fn}"
        calls[key] = calls.get(key, 0) + forwards


def _routed_forwards(routed: dict) -> int:
    """Forward passes ``predict_batch`` makes: primary, each non-empty group,
    plus the cold-safety model when any image routes to Cold."""
    return 1 + sum(1 for g in COARSE_GROUPS if routed[g]) + (1 if routed["Cold"] else 0)


def _routed_from_confusion(cm) -> dict:
    cols = cm.counts.sum(axis=0)
    return {g: int(cols[i]) for i, g in enumerate(COARSE_GROUPS)}


def _fresh(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _paper_bundle(dirpath: Path) -> None:
    model = hierarchy.init_hierarchical(
        default_taxonomy(), input_hw=(100, 100), scale="paper", seed=BUNDLE_SEED
    )
    hierarchy.save_hierarchical(model, dirpath)


def _image(leaf: str, rng: np.random.Generator, h: int, w: int) -> imageio.ImageU8:
    img = synthetic.generate_image(leaf, rng, max(h, w))
    return imageio.ImageU8(np.ascontiguousarray(img.pixels[:h, :w]))


class Workload:
    name = ""

    def __init__(self, tiny: bool):
        self.tiny = tiny

    def train_role(self, ctx):
        return None

    def heldout_acc(self, rec: Record) -> float | None:
        return None


# ------------------------------------------------------------------ train

class TrainMicro32(Workload):
    """Micro preset at 32 px on a synthetic 64 px corpus; scores the held-out split."""

    name = "train_micro32"
    per_class = 24
    image_size = 64
    input_hw = (32, 32)
    epochs = 6
    acc_floor = 0.45  # chance is 1/11; seeds 1-8 scored 0.62-0.83 at this size

    def setup(self, work: Path, seed: int):
        root = _fresh(work / "corpus")
        manifest = synthetic.generate_dataset(
            root, per_class=self.per_class, size=self.image_size, seed=seed
        )
        entries = dataset.load_manifest(manifest.read_bytes())
        split = dataset.stratified_split(entries, dataset.SplitSpec(seed=seed))
        cfg = hierarchy.HierTrainConfig(
            input_hw=self.input_hw, scale="micro", epochs=self.epochs, seed=seed
        )
        tax = default_taxonomy()
        return {"root": root, "split": split, "cfg": cfg, "taxonomy": tax,
                "role_rows": self.role_rows(split.train, tax)}

    @staticmethod
    def role_rows(train: list, tax) -> dict:
        """Training rows per model role, from the split and the taxonomy."""
        groups = [group_of(e.leaf, tax) for e in train]
        rows = {"primary": len(train)}
        for role, group in zip(hierarchy.MODEL_ROLES[1:4], COARSE_GROUPS):
            rows[role] = groups.count(group)
        rows["sub_cold_safety"] = sum(
            1
            for e, g in zip(train, groups)
            if g == "Cold" and safety_of(e.leaf, tax) in hierarchy.SAFETY_MODEL_CLASSES
        )
        return rows

    def train_role(self, ctx):
        base = ctx["cfg"].seed
        return lambda args, kwargs: hierarchy.MODEL_ROLES[args[3].seed - base]

    def run_pass(self, ctx, rec: Record) -> None:
        rec.attempted += 1
        img_epochs = sum(ctx["role_rows"].values()) * ctx["cfg"].epochs
        try:
            with rec.span("bench.train_and_score"):
                t0 = time.perf_counter()
                model, _ = hierarchy.train_hierarchical(
                    ctx["split"].train, ctx["taxonomy"], ctx["cfg"], root=ctx["root"]
                )
                dt = time.perf_counter() - t0
                report = evaluate.evaluate_hierarchical(model, ctx["split"].test, root=ctx["root"])
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            rec.fail(traceback.format_exc(limit=3))
            return
        rec.op_s.append(dt)
        rec.rates.append(img_epochs / dt)
        rec.routed.append(_routed_from_confusion(report.primary))
        rec.outputs.append((_param_digest(model), report.e2e_leaf_accuracy))

    def heldout_acc(self, rec: Record) -> float:
        return rec.outputs[0][1] if rec.outputs else 0.0

    def fingerprint(self, rec: Record) -> str:
        return f"{rec.outputs[0][0]}:{rec.outputs[0][1]!r}" if rec.outputs else ""

    def checks(self, ctx, rec: Record) -> list:
        digests = {d for d, _ in rec.outputs}
        accs = {a for _, a in rec.outputs}
        acc = self.heldout_acc(rec)
        return [
            ("retrain_digest_identical", len(rec.outputs) >= 2 and len(digests) == 1,
             f"{len(rec.outputs)} trainings, {len(digests)} distinct parameter digests"),
            ("heldout_acc_identical", len(accs) == 1, f"accuracies {sorted(accs)}"),
            ("heldout_leaf_acc_floor", acc >= self.acc_floor,
             f"heldout_leaf_acc {acc:.4f} vs floor {self.acc_floor}"),
        ]

    def expected_calls(self, ctx, routed: dict) -> tuple[dict, dict]:
        cfg, split = ctx["cfg"], ctx["split"]
        blocks = _blocks("micro", self.input_hw)
        minibatches = sum(
            math.ceil(n / cfg.batch_size) for n in ctx["role_rows"].values() if n
        ) * cfg.epochs
        images = len(split.train) + len(split.test)
        test_groups = {group_of(e.leaf, ctx["taxonomy"]) for e in split.test}
        per_pass = {
            "hierarchy.train_hierarchical": 1,
            "nn.train.train": len(hierarchy.MODEL_ROLES),
            "hierarchy.load_image_tensors": 2,
            "imageio.decode_ppm": images,
            "preprocess.resize_lanczos": images,
            "preprocess.compute_stats": 1,
            "preprocess.normalize": 2,
            "nn.model.backward_from_logits": minibatches,
            "nn.layers.dense_backward": minibatches,
            "evaluate.evaluate_hierarchical": 1,
            "evaluate.evaluate_hierarchical_tensors": 1,
            "hierarchy.predict_batch": 1,
        }
        for fn in BLOCK_BACKWARD:
            per_pass[f"nn.layers.{fn}"] = blocks * minibatches
        _add_forwards(per_pass, minibatches + _routed_forwards(routed) + len(test_groups), blocks)
        setup = {"dataset.load_manifest": 1, "dataset.stratified_split": 1}
        return setup, per_pass


def _param_digest(model: hierarchy.HierarchicalModel) -> str:
    h = hashlib.sha256()
    for role in hierarchy.MODEL_ROLES:
        for entry in getattr(model, role).params:
            for key in sorted(entry):
                h.update(key.encode())
                h.update(np.ascontiguousarray(entry[key]).tobytes())
    h.update(repr(model.stats).encode())
    return h.hexdigest()


# ------------------------------------------------------------------ serve

def _malformed(rng: np.random.Generator) -> list[bytes]:
    """One PPM each of a bad magic, an unsupported maxval and a cut payload."""
    good = imageio.encode_ppm(_image("rain", rng, 40, 40))
    return [
        b"P3" + good[2:],
        good.replace(b" 255\n", b" 65535\n", 1),
        good[: len(good) // 2],
    ]


class ServeMixedPaper100(Workload):
    """Closed loop, one client: read a PPM, decode it, predict it, wait, repeat."""

    name = "serve_mixed_paper100"
    # Recurring (height, width) source sizes, none the 100x100 model input,
    # in equal numbers and in increasing resize cost: the median request
    # falls in the middle of the (128, 128) class and the 95th percentile
    # inside the (200, 200) class, not on a boundary between two classes.
    sizes = ((64, 64), (64, 120), (128, 128), (150, 200), (200, 200))

    def setup(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        reqdir = _fresh(work / "requests")
        per_size = 1 if self.tiny else 10
        requests = []
        for i in range(len(self.sizes) * per_size):
            h, w = self.sizes[i % len(self.sizes)]
            path = reqdir / f"valid_{i:03d}.ppm"
            path.write_bytes(imageio.encode_ppm(_image(LEAF_CLASSES[i % len(LEAF_CLASSES)], rng, h, w)))
            requests.append((path, True))
        for i, data in enumerate(_malformed(rng)):
            path = reqdir / f"malformed_{i}.ppm"
            path.write_bytes(data)
            requests.append((path, False))
        requests = [requests[i] for i in rng.permutation(len(requests))]
        bundle = work / "bundle"
        _fresh(bundle)
        _paper_bundle(bundle)
        model = hierarchy.load_hierarchical(bundle)
        return {"requests": requests, "model": model}

    def run_pass(self, ctx, rec: Record) -> None:
        model = ctx["model"]
        preds, rejected = {}, {}
        for path, valid in ctx["requests"]:
            rec.attempted += 1
            try:
                with rec.span("bench.request"):
                    t0 = time.perf_counter()
                    data = path.read_bytes()
                    pred = hierarchy.predict_hierarchical(model, imageio.decode_ppm(data))
                    dt = time.perf_counter() - t0
            except WxhierError as exc:
                rejected[path] = exc
                if valid:
                    rec.fail(f"{path.name}: {type(exc).__name__}: {exc}")
                continue
            except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
                rec.fail(f"{path.name}: {traceback.format_exc(limit=3)}")
                continue
            preds[path] = pred
            if not valid:
                rec.fail(f"{path.name}: malformed file was accepted")
                continue
            rec.op_s.append(dt)
        rec.routed.append({g: sum(1 for p in preds.values() if p.group == g) for g in COARSE_GROUPS})
        rec.outputs.append((preds, rejected))

    def fingerprint(self, rec: Record) -> str:
        if not rec.outputs:
            return ""
        preds, rejected = rec.outputs[0]
        labels = sorted((p.name, q.group, q.leaf, q.safety) for p, q in preds.items())
        return hashlib.sha256(repr((labels, sorted(p.name for p in rejected))).encode()).hexdigest()

    def checks(self, ctx, rec: Record) -> list:
        model, requests = ctx["model"], ctx["requests"]
        valid = [p for p, ok in requests if ok]
        malformed = [p for p, ok in requests if not ok]
        bad_names, bad_probs, unstable = [], [], 0
        first = rec.outputs[0][0] if rec.outputs else {}
        for preds, _ in rec.outputs:
            for path, pred in preds.items():
                if path in first and (pred.group, pred.leaf, pred.safety) != (
                    first[path].group, first[path].leaf, first[path].safety
                ):
                    unstable += 1
        for path in valid:
            pred = first.get(path)
            if pred is None:
                continue
            if not (
                pred.group in COARSE_GROUPS
                and pred.leaf in leaves_of(pred.group, model.taxonomy)
                and pred.safety in SAFETY_LEVELS
            ):
                bad_names.append(path.name)
            for probs in (pred.group_probs, pred.leaf_probs, pred.safety_probs):
                if probs is not None and not (
                    np.all(np.isfinite(probs)) and abs(float(probs.sum()) - 1.0) <= PROB_TOLERANCE
                ):
                    bad_probs.append(path.name)
        all_rejected = all(
            isinstance(rejected.get(p), WxhierError) for _, rejected in rec.outputs for p in malformed
        )
        sample = [p for p in valid if p in first][: 4 if self.tiny else 16]
        x = np.stack(
            [
                preprocess.preprocess_pipeline(
                    imageio.decode_ppm(p.read_bytes()), "RGB", model.stats, model.input_hw
                )
                for p in sample
            ]
        )
        batch = hierarchy.predict_batch(model, x)
        mismatched = [
            p.name
            for p, b in zip(sample, batch)
            if (b.group, b.leaf, b.safety) != (first[p].group, first[p].leaf, first[p].safety)
        ]
        return [
            ("every_valid_image_predicted", len(first) == len(valid),
             f"{len(first)} of {len(valid)} valid images predicted"),
            ("taxonomy_names", not bad_names, f"bad names: {bad_names[:5]}"),
            ("finite_probs_sum_to_1", not bad_probs, f"bad probabilities: {bad_probs[:5]}"),
            ("malformed_rejected_as_WxhierError", all_rejected and bool(malformed),
             f"{len(malformed)} malformed files per pass"),
            ("per_image_matches_predict_batch", not mismatched and len(sample) > 0,
             f"{len(sample)} sampled, mismatched: {mismatched[:5]}"),
            ("predictions_repeat_across_passes", unstable == 0, f"{unstable} changed"),
        ]

    def expected_calls(self, ctx, routed: dict) -> tuple[dict, dict]:
        requests = ctx["requests"]
        n_valid = sum(1 for _, ok in requests if ok)
        per_pass = {
            "imageio.decode_ppm": len(requests),
            "hierarchy.predict_hierarchical": n_valid,
            "preprocess.resize_lanczos": n_valid,
            "preprocess.normalize": n_valid,
            "hierarchy.predict_batch": n_valid,
        }
        # primary and routed sub-model per image, plus cold-safety on Cold
        _add_forwards(per_pass, 2 * n_valid + routed["Cold"], _blocks("paper", (100, 100)))
        roles = len(hierarchy.MODEL_ROLES)
        setup = {
            "hierarchy.save_hierarchical": 1,
            "nn.modelio.model_to_bytes": roles,
            "hierarchy.load_hierarchical": 1,
            "hierarchy.bundle_content_hash": 1,
            "nn.modelio.model_from_bytes": roles,
        }
        return setup, per_pass


# --------------------------------------------------------------- evaluate

class EvaluateBatchPaper100(Workload):
    """``wxhier evaluate`` in-process on a manifest of 100x100 PPMs."""

    name = "evaluate_batch_paper100"
    # peak RSS grows about 7 MB per image; 64 keeps a run near 0.5 GB
    images = 64

    def setup(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        n = 22 if self.tiny else self.images
        data = _fresh(work / "manifest")
        leaves = [LEAF_CLASSES[i % len(LEAF_CLASSES)] for i in rng.permutation(n)]
        entries = []
        for i, leaf in enumerate(leaves):
            rel = f"{i:03d}.ppm"
            (data / rel).write_bytes(imageio.encode_ppm(_image(leaf, rng, 100, 100)))
            entries.append(dataset.ManifestEntry(rel, leaf))
        manifest = data / "manifest.csv"
        manifest.write_text(dataset.manifest_to_csv(entries))
        bundle = _fresh(work / "bundle")
        _paper_bundle(bundle)
        return {"manifest": manifest, "bundle": bundle, "out": work / "report", "n": n,
                "leaves": leaves, "taxonomy": default_taxonomy()}

    def run_pass(self, ctx, rec: Record) -> None:
        argv = ["evaluate", "--manifest", str(ctx["manifest"]), "--bundle", str(ctx["bundle"]),
                "--output-dir", str(ctx["out"])]
        out, err = io.StringIO(), io.StringIO()
        rec.attempted += 1
        with rec.span("bench.evaluate"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(argv)
            dt = time.perf_counter() - t0
        if code != 0:
            rec.fail(f"evaluate exited {code}: {err.getvalue().strip()}")
            return
        rec.op_s.append(dt)
        rec.rates.append(ctx["n"] / dt)
        match = re.search(r" on (\d+) samples", out.getvalue())
        rows = (ctx["out"] / "confusion_primary.csv").read_text().strip().splitlines()[1:]
        cols = np.array([[int(v) for v in row.split(",")[1:]] for row in rows]).sum(axis=0)
        rec.routed.append({g: int(cols[i]) for i, g in enumerate(COARSE_GROUPS)})
        rec.outputs.append(int(match.group(1)) if match else -1)

    def fingerprint(self, rec: Record) -> str:
        return repr((rec.outputs[:1], rec.routed[:1]))

    def checks(self, ctx, rec: Record) -> list:
        n = ctx["n"]
        return [
            ("report_total_is_manifest_size", bool(rec.outputs) and set(rec.outputs) == {n},
             f"report totals {sorted(set(rec.outputs))} vs manifest {n}"),
            ("routed_counts_sum_to_manifest_size",
             bool(rec.routed) and all(sum(r.values()) == n for r in rec.routed),
             f"routed {rec.routed[:1]}"),
        ]

    def expected_calls(self, ctx, routed: dict) -> tuple[dict, dict]:
        n, roles = ctx["n"], len(hierarchy.MODEL_ROLES)
        true_groups = {group_of(leaf, ctx["taxonomy"]) for leaf in ctx["leaves"]}
        per_pass = {
            "cli.main": 1,
            "hierarchy.load_hierarchical": 1,
            "hierarchy.bundle_content_hash": 2,  # load verifies it, the report records it
            "nn.modelio.model_from_bytes": roles,
            "dataset.load_manifest": 1,
            "evaluate.evaluate_hierarchical": 1,
            "evaluate.evaluate_hierarchical_tensors": 1,
            "hierarchy.load_image_tensors": 1,
            "imageio.decode_ppm": n,
            "preprocess.resize_lanczos": n,
            "preprocess.normalize": 1,
            "hierarchy.predict_batch": 1,
        }
        # predict_batch forwards, then one oracle forward per true group
        _add_forwards(per_pass, _routed_forwards(routed) + len(true_groups), _blocks("paper", (100, 100)))
        setup = {"hierarchy.save_hierarchical": 1, "nn.modelio.model_to_bytes": roles}
        return setup, per_pass


WORKLOADS = {w.name: w for w in (TrainMicro32, ServeMixedPaper100, EvaluateBatchPaper100)}
